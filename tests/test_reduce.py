"""Tests for the fixed-width observation reduction."""

import hashlib

import numpy as np
import pytest

from fleetlab import sim
from fleetlab.baselines import RandomFeasiblePolicy
from fleetlab.model import SystemState, VehicleStatus
from fleetlab.reduce import (
    N_BATTERY_CLASSES,
    N_ETA_BUCKETS,
    obs_dim,
    reduce_vector,
    vehicle_feature_dim,
    vehicle_features,
)
from fleetlab.scenarios import TEMPLATES, synth_scenario

from conftest import random_config, tiny_config


def _eta_bucket(eta, pickup_patience):
    """The rule stated apart from the implementation: idle, dispatchable, busy."""
    return 0 if eta == 0 else 1 if eta <= pickup_patience else 2


def _battery_class(battery, capacity):
    """Low below 10% of the pack, medium below 40%, high from there; in integers."""
    return 0 if 10 * battery < capacity else 1 if 10 * battery < 4 * capacity else 2


def _blocks(config, vec):
    """reduce_vector's blocks: fleet (V, 3, 3), origin (V,), dest (V,),
    free chargers (V, R) and the time-of-day scalar."""
    V, R = config.num_regions, config.num_rates
    n = V * N_ETA_BUCKETS * N_BATTERY_CLASSES
    return (vec[:n].reshape(V, N_ETA_BUCKETS, N_BATTERY_CLASSES), vec[n:n + V],
            vec[n + V:n + 2 * V], vec[n + 2 * V:n + 2 * V + V * R].reshape(V, R), vec[-1])


def _buckets(config, eta, battery):
    """(eta bucket, battery class) of a status, as vehicle_features gives it;
    reduce_vector must count a lone vehicle there in the same cell."""
    V = config.num_regions
    feats = vehicle_features(config, VehicleStatus(0, eta, battery))
    got = (int(np.argmax(feats[V:V + N_ETA_BUCKETS])),
           int(np.argmax(feats[V + N_ETA_BUCKETS:])))
    base = sim.initial_state(config)
    vehicles = np.zeros_like(base.vehicles)
    vehicles[0, eta, battery] = 1
    fleet = _blocks(config, reduce_vector(
        config, SystemState(0, vehicles, base.trips, base.chargers)))[0]
    assert np.argwhere(fleet[0]).tolist() == [list(got)]
    return got


def test_battery_class_cutoffs_exact_at_10_and_40_percent():
    cfg = tiny_config(B=10)
    # B=10: b=0 -> low (0 < 10), b=1 -> medium (10 >= 10), b=3 -> medium
    # (30 < 40), b=4 -> high (40 >= 40).
    assert [_buckets(cfg, 0, b)[1] for b in (0, 1, 3, 4, 10)] == [0, 1, 1, 2, 2]


def test_battery_class_small_pack():
    cfg = tiny_config(B=3)
    # B=3: b=0 -> 0 < 3 -> low; b=1 -> 10 < 12 -> medium; b=2 -> 20 >= 12 -> high.
    assert [_buckets(cfg, 0, b)[1] for b in range(4)] == [0, 1, 2, 2]


def test_eta_bucket_boundaries():
    cfg = tiny_config(L_p=1)
    assert [_buckets(cfg, e, 0)[0] for e in (0, 1, 2, cfg.eta_cap)] == [0, 1, 2, 2]


def test_obs_dim_matches_vector_length(tiny):
    state = sim.initial_state(tiny)
    vec = reduce_vector(tiny, state)
    assert vec.shape == (obs_dim(tiny),)
    V, R = tiny.num_regions, tiny.num_rates
    assert obs_dim(tiny) == V * 9 + 2 * V + V * R + 1


def test_fleet_features_count_and_normalize(tiny):
    state = sim.initial_state(tiny)
    fleet = _blocks(tiny, reduce_vector(tiny, state))[0]
    # Total vehicle mass is conserved: counts / fleet_size sum to 1.
    assert fleet.sum() == pytest.approx(1.0)
    want = np.zeros((tiny.num_regions, N_ETA_BUCKETS, N_BATTERY_CLASSES))
    for v in range(tiny.num_regions):
        for e in range(tiny.eta_cap + 1):
            for b in range(tiny.battery_capacity + 1):
                want[v, _eta_bucket(e, tiny.pickup_patience),
                     _battery_class(b, tiny.battery_capacity)] += state.vehicles[v, e, b]
    np.testing.assert_allclose(fleet, want / tiny.fleet_size)


def test_fleet_features_equal_the_per_vehicle_loop_bit_for_bit():
    """The bucket-map product gives exactly the per-status loop's counts on
    random instances with vehicles scattered over every status."""
    rng = np.random.default_rng(21)
    for _ in range(25):
        cfg = random_config(rng)
        state = sim.initial_state(cfg)
        vehicles = np.zeros_like(state.vehicles)
        cells = rng.integers(0, vehicles.size, size=cfg.fleet_size)
        np.add.at(vehicles.reshape(-1), cells, 1)
        state = SystemState(state.t, vehicles, state.trips, state.chargers)
        want = np.zeros((cfg.num_regions, N_ETA_BUCKETS, N_BATTERY_CLASSES))
        for v, e, b in zip(*np.nonzero(vehicles)):
            want[v, _eta_bucket(e, cfg.pickup_patience),
                 _battery_class(b, cfg.battery_capacity)] += vehicles[v, e, b]
        want /= cfg.fleet_size
        assert _blocks(cfg, reduce_vector(cfg, state))[0].tobytes() == want.tobytes()


def test_trip_counts_by_origin_and_destination(tiny):
    state = sim.initial_state(tiny)
    trips = state.trips.copy()
    trips[0, 1, 0] = 2
    trips[1, 0, 1] = 1
    state = sim.SystemState(state.t, state.vehicles, trips, state.chargers)
    _, origin, dest, _, _ = _blocks(tiny, reduce_vector(tiny, state))
    dn = tiny.fleet_size * tiny.effective_demand_scale()
    np.testing.assert_allclose(origin * dn, [2.0, 1.0])
    np.testing.assert_allclose(dest * dn, [1.0, 2.0])


def test_charger_avail_uses_free_slots_only(tiny):
    state = sim.initial_state(tiny)
    chargers = state.chargers.copy()
    free_before = chargers[0, 0, 0]
    assert free_before >= 1
    chargers[0, 0, 0] -= 1
    chargers[0, 0, 1] += 1  # now occupied mid-cycle
    state = sim.SystemState(state.t, state.vehicles, state.trips, chargers)
    avail = _blocks(tiny, reduce_vector(tiny, state))[3]
    assert avail[0, 0] * tiny.fleet_size == free_before - 1


def test_time_of_day_scalar_is_last_entry(tiny):
    state = sim.initial_state(tiny)
    state = sim.SystemState(2, state.vehicles, state.trips, state.chargers)
    vec = reduce_vector(tiny, state)
    assert vec[-1] == pytest.approx(2 / tiny.horizon_steps)


def test_vehicle_features_one_hot(tiny):
    veh = VehicleStatus(dest=1, eta=0, battery=tiny.battery_capacity)
    feats = vehicle_features(tiny, veh)
    assert feats.shape == (vehicle_feature_dim(tiny),)
    assert feats.sum() == 3.0
    assert feats[1] == 1.0  # region one-hot
    V = tiny.num_regions
    assert feats[V + 0] == 1.0  # idle bucket
    assert feats[V + N_ETA_BUCKETS + 2] == 1.0  # high battery


def test_reduction_is_permutation_invariant_in_vehicle_identity(tiny):
    # Observations depend only on counts, so two states with the same count
    # tensors reduce identically; sanity-check determinism on the same state.
    state = sim.initial_state(tiny)
    v1 = reduce_vector(tiny, state)
    v2 = reduce_vector(tiny, state)
    np.testing.assert_array_equal(v1, v2)


# SHA-256 over reduce_vector and vehicle_features at every atomic step of a
# 3-day random-feasible rollout from default_rng(1) on each template at
# jitter 0, recorded before the observation code was last rewritten; the
# bytes the networks see are pinned, not only their values
GOLDEN_OBS_DIGESTS = {
    "uniform": (216, "256992a5aa8d9c04d0676dbadf7c07f11f883c319992f9dcd25b9b95617209f6"),
    "two-region-commute":
        (768, "8984143efbcd5c726094060d1ca7f4c75328c809461cca66df0bc227302e509c"),
    "hub-spoke-imbalanced":
        (432, "16e6a269a8df8a7ccb2fae692d68a7f5cdb3b976ccb3d49267eda01aeb80a936"),
}


@pytest.mark.parametrize("template", TEMPLATES)
def test_observations_match_recorded_digests(template):
    """Each epoch's records replayed on a WorkingState give the state every
    vehicle saw when it acted."""
    config = synth_scenario(template, 0)
    days = sim.run_days(config, RandomFeasiblePolicy(), 3, np.random.default_rng(1))
    h = hashlib.sha256()
    steps = 0
    for day in days:
        for state, epoch in zip(day.states, day.epochs):
            work = sim.WorkingState(state)
            for rec in epoch.records:
                h.update(reduce_vector(config, work).tobytes())
                h.update(vehicle_features(config, rec.vehicle).tobytes())
                work.commit(config, rec.vehicle, rec.action)
                steps += 1
    assert (steps, h.hexdigest()) == GOLDEN_OBS_DIGESTS[template]
