"""Fixed-width observation vectors for the dispatch networks.

Full states grow quadratically in the number of regions; the observation
clusters them down to linear size:

* vehicles  -> counts per (region, eta bucket, battery class), / fleet size
* orders    -> per-origin and per-destination totals, / demand normalizer
* chargers  -> free-charger counts per (region, rate), / fleet size
* time      -> a single normalized time-of-day scalar

Battery classes use 10% / 40% cutoffs of the pack; eta buckets are
{idle, dispatchable (1..L_p), busy (>L_p)}, the ranges that determine which
atomic actions a vehicle may take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import NetworkConfig
from .model import VehicleStatus

N_ETA_BUCKETS = 3
N_BATTERY_CLASSES = 3


def _battery_class(battery: int, capacity: int) -> int:
    if battery * 10 < capacity:
        return 0
    if battery * 10 < 4 * capacity:
        return 1
    return 2


def _eta_bucket(eta: int, pickup_patience: int) -> int:
    if eta == 0:
        return 0
    if eta <= pickup_patience:
        return 1
    return 2


def battery_class(config: NetworkConfig, battery: int) -> int:
    """0 = low (<10% of B), 1 = medium (10-40%), 2 = high (>=40%); exact in ints."""
    return _battery_class(battery, config.battery_capacity)


def eta_bucket(config: NetworkConfig, eta: int) -> int:
    """0 = idle, 1 = en-route but dispatchable (1..L_p), 2 = busy (>L_p)."""
    return _eta_bucket(eta, config.pickup_patience)


@lru_cache(maxsize=64)
def _bucket_maps(eta_cap: int, pickup_patience: int,
                 battery_capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 maps from eta to eta bucket, (eta_cap+1, 3), and from battery level
    to battery class, (B+1, 3); read-only, since every caller shares them."""
    eta = np.eye(N_ETA_BUCKETS)[[_eta_bucket(e, pickup_patience)
                                 for e in range(eta_cap + 1)]]
    bat = np.eye(N_BATTERY_CLASSES)[[_battery_class(b, battery_capacity)
                                     for b in range(battery_capacity + 1)]]
    eta.setflags(write=False)
    bat.setflags(write=False)
    return eta, bat


def obs_dim(config: NetworkConfig) -> int:
    V, R = config.num_regions, config.num_rates
    return V * N_ETA_BUCKETS * N_BATTERY_CLASSES + 2 * V + V * R + 1


def vehicle_feature_dim(config: NetworkConfig) -> int:
    return config.num_regions + N_ETA_BUCKETS + N_BATTERY_CLASSES


def demand_normalizer(config: NetworkConfig) -> float:
    return config.fleet_size * config.effective_demand_scale()


@dataclass(frozen=True)
class ReducedObservation:
    time_of_day: int
    fleet_features: np.ndarray        # (V, 3, 3) normalized counts
    trip_origin_counts: np.ndarray    # (V,)
    trip_dest_counts: np.ndarray      # (V,)
    charger_avail: np.ndarray         # (V, R)

    def vector(self, horizon_steps: int) -> np.ndarray:
        return np.concatenate([
            self.fleet_features.ravel(),
            self.trip_origin_counts,
            self.trip_dest_counts,
            self.charger_avail.ravel(),
            [self.time_of_day / horizon_steps],
        ])


def reduce_state(config: NetworkConfig, state) -> ReducedObservation:
    """Cluster a full state (or intra-epoch working state) into an observation."""
    eta_map, bat_map = _bucket_maps(config.eta_cap, config.pickup_patience,
                                    config.battery_capacity)
    # integer counts summed in float64: exact whatever the summation order
    fleet = eta_map.T @ state.vehicles @ bat_map
    fleet /= config.fleet_size

    dnorm = demand_normalizer(config)
    origin = state.trips.sum(axis=(1, 2)) / dnorm
    dest = state.trips.sum(axis=(0, 2)) / dnorm
    avail = state.chargers[:, :, 0] / config.fleet_size
    return ReducedObservation(state.t, fleet, origin, dest, avail)


def reduce_vector(config: NetworkConfig, state) -> np.ndarray:
    return reduce_state(config, state).vector(config.horizon_steps)


def vehicle_features(config: NetworkConfig, vehicle: VehicleStatus) -> np.ndarray:
    """One-hot (region, eta bucket, battery class) for the acting vehicle."""
    V = config.num_regions
    out = np.zeros(vehicle_feature_dim(config))
    out[vehicle.dest] = 1.0
    out[V + eta_bucket(config, vehicle.eta)] = 1.0
    out[V + N_ETA_BUCKETS + battery_class(config, vehicle.battery)] = 1.0
    return out
