"""Synthetic desk-scale demand scenarios.

Three templates, all small enough to train and bound on a laptop:

* uniform            -- symmetric all-pairs demand, flat over the day
* two-region-commute -- morning rush home->work, lighter evening rush back;
                        chargers only on the home side, so good policies must
                        reposition ahead of the morning peak
* hub-spoke-imbalanced -- one hub and two spokes with opposing rush flows of
                        different intensity

The seed deterministically jitters demand volume (+-10%) so tests can draw
families of related instances.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig
from .errors import InvalidArgument

#: Template name: (regions, steps, fleet, connection patience, fare,
#: chargers per region, demand windows as (origin, dest, first step, end
#: step, arrivals per step before the seed's jitter)); every other value is
#: common to the three and set in synth_scenario.
_TEMPLATES = {
    "uniform": (3, 12, 6, 1, 8.0, (2, 2, 2),
                [(u, v, 0, 12, 1.0) for u in range(3) for v in range(3) if u != v]),
    "two-region-commute": (2, 16, 16, 2, 10.0, (6, 0),   # chargers at home only
                           [(0, 1, 2, 6, 8.0),           # morning rush: home -> work
                            (1, 0, 10, 14, 4.0)]),       # evening rush: work -> home
    "hub-spoke-imbalanced": (3, 16, 9, 1, 9.0, (3, 0, 0),  # region 0 is the hub
                             [(1, 0, 2, 6, 3.0), (2, 0, 2, 6, 1.0),
                              (0, 1, 10, 14, 2.0), (0, 2, 10, 14, 2.0)]),
}
TEMPLATES = tuple(_TEMPLATES)


def synth_scenario(template: str, seed: int = 0) -> NetworkConfig:
    try:
        V, T, fleet, patience, fare, chargers, windows = _TEMPLATES[template]
    except KeyError:
        raise InvalidArgument(f"unknown scenario template {template!r}; "
                              f"choose one of {TEMPLATES}") from None
    scale = float(np.random.default_rng([seed, 97]).uniform(0.9, 1.1))
    arrival = np.zeros((V, V, T))
    for u, v, first, end, rate in windows:
        arrival[u, v, first:end] = rate * scale
    off = ~np.eye(V, dtype=bool)
    return NetworkConfig(
        num_regions=V, fleet_size=fleet, battery_capacity=6, horizon_steps=T,
        epoch_minutes=5, charge_rates=(2,), charge_period=3,
        charger_counts=np.array(chargers)[:, None], pickup_patience=1,
        connection_patience=patience, trip_duration=np.full((V, V, T), 2),
        battery_cost=off.astype(np.int64), arrival_rate=arrival,
        trip_reward=np.full((V, V, T), fare),
        reposition_reward=np.where(off[:, :, None], -2.0, np.zeros(T)),
        charge_reward=np.full((1, T), -1.0), demand_scale=1.0,
        name=f"{template}-{seed}")
