"""Fixed-width observation vectors for the dispatch networks.

Full states grow quadratically in the number of regions; the observation
clusters them down to linear size:

* vehicles  -> counts per (region, eta bucket, battery class), / fleet size
* orders    -> per-origin and per-destination totals, / (fleet size * demand scale)
* chargers  -> free-charger counts per (region, rate), / fleet size
* time      -> a single normalized time-of-day scalar

The acting vehicle is one-hot in (region, eta bucket, battery class). Both
read the eta bucket and battery class from ``_bucket_table``, the one
statement of the two rules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import NetworkConfig
from .model import VehicleStatus

N_ETA_BUCKETS = 3
N_BATTERY_CLASSES = 3


@lru_cache(maxsize=64)
def _bucket_table(eta_cap: int, pickup_patience: int, battery_capacity: int) -> tuple:
    """Eta bucket per eta and battery class per battery level, as int tuples
    and as 0/1 maps, (eta_cap+1, 3) and (B+1, 3), read-only since callers share them.
    Eta buckets: 0 = idle, 1 = en route but dispatchable (1..L_p), 2 = busy
    (> L_p), the ranges that decide which atomic actions a vehicle may take.
    Battery classes: 0 = low (< 10% of B), 1 = medium (10-40%), 2 = high
    (>= 40%), exact in integers."""
    eta = np.arange(eta_cap + 1)
    bat = np.arange(battery_capacity + 1) * 10
    eta_bucket = (eta > 0).astype(int) + (eta > pickup_patience)
    bat_class = (bat >= battery_capacity).astype(int) + (bat >= 4 * battery_capacity)
    eta_map = np.eye(N_ETA_BUCKETS)[eta_bucket]
    bat_map = np.eye(N_BATTERY_CLASSES)[bat_class]
    eta_map.setflags(write=False)
    bat_map.setflags(write=False)
    return tuple(eta_bucket.tolist()), tuple(bat_class.tolist()), eta_map, bat_map


def obs_dim(config: NetworkConfig) -> int:
    V, R = config.num_regions, config.num_rates
    return V * N_ETA_BUCKETS * N_BATTERY_CLASSES + 2 * V + V * R + 1


def vehicle_feature_dim(config: NetworkConfig) -> int:
    return config.num_regions + N_ETA_BUCKETS + N_BATTERY_CLASSES


def reduce_vector(config: NetworkConfig, state) -> np.ndarray:
    """Cluster a full state (or intra-epoch working state) into an observation."""
    _, _, eta_map, bat_map = _bucket_table(config.eta_cap, config.pickup_patience,
                                           config.battery_capacity)
    N = config.fleet_size
    # integer counts summed in float64: exact whatever the summation order
    fleet = eta_map.T @ state.vehicles @ bat_map
    fleet /= N
    dnorm = N * config.effective_demand_scale()
    return np.concatenate([
        fleet.ravel(),
        state.trips.sum(axis=(1, 2)) / dnorm,
        state.trips.sum(axis=(0, 2)) / dnorm,
        (state.chargers[:, :, 0] / N).ravel(),
        [state.t / config.horizon_steps],
    ])


def vehicle_features(config: NetworkConfig, vehicle: VehicleStatus) -> np.ndarray:
    """One-hot (region, eta bucket, battery class) for the acting vehicle."""
    eta_bucket, bat_class, _, _ = _bucket_table(config.eta_cap, config.pickup_patience,
                                                config.battery_capacity)
    V = config.num_regions
    out = np.zeros(vehicle_feature_dim(config))
    out[vehicle.dest] = 1.0
    out[V + eta_bucket[vehicle.eta]] = 1.0
    out[V + N_ETA_BUCKETS + bat_class[vehicle.battery]] = 1.0
    return out
