import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetlab.errors import ContractViolation, InvalidArgument
from fleetlab.model import (PASS, AtomicAction, FleetAction, SystemState,
                            TripStatus, VehicleStatus, action_count,
                            action_table, atomic_reward, charge,
                            check_fleet_action, epoch_reward, feasible_mask,
                            fulfill, reposition, validate_state)
from fleetlab.scenarios import TEMPLATES, synth_scenario
from fleetlab.sim import initial_state

from conftest import tiny_config


def test_action_index_bijection(tiny):
    """On every template, on tiny and on a config with two charge rates, each
    index maps to a distinct action of the documented layout, and back; one
    (u, v) pair's ages take consecutive indices."""
    configs = [synth_scenario(tpl, 0) for tpl in TEMPLATES]
    configs += [tiny, tiny_config(V=3, L_c=2, rates=(2, 1), chargers=1)]
    for cfg in configs:
        V, Lc1 = cfg.num_regions, cfg.connection_patience + 1
        want = ([fulfill(TripStatus(u, v, xi)) for u in range(V) for v in range(V) if v != u
                 for xi in range(Lc1)]
                + [reposition(v) for v in range(V)] + [charge(r) for r in cfg.charge_rates]
                + [PASS])
        assert list(action_table(cfg).actions) == want
        assert len(want) == action_count(cfg)
        assert [action_table(cfg).index[a] for a in want] == list(range(len(want)))
        assert action_table(cfg).index[charge(np.int64(cfg.charge_rates[-1]))] == len(want) - 2


def test_action_count_formula(tiny):
    V, Lc, R = tiny.num_regions, tiny.connection_patience, tiny.num_rates
    assert action_count(tiny) == V * (V - 1) * (Lc + 1) + V + R + 1


def test_canonical_vehicle_order(tiny):
    """Status groups come eta ascending, battery descending, region ascending."""
    s0 = initial_state(tiny)
    vehicles = np.zeros_like(s0.vehicles)
    for (v, eta, b), n in {(1, 0, 1): 1, (0, 1, 3): 2, (0, 0, 1): 1, (1, 0, 3): 2}.items():
        vehicles[v, eta, b] = n
    state = SystemState(0, vehicles, s0.trips, s0.chargers)
    assert state.status_groups() == [(VehicleStatus(1, 0, 3), 2), (VehicleStatus(0, 0, 1), 1),
                                     (VehicleStatus(1, 0, 1), 1), (VehicleStatus(0, 1, 3), 2)]


def test_feasible_mask_pass_always_allowed(tiny):
    state = initial_state(tiny)
    for unit, _ in state.status_groups():
        mask = feasible_mask(tiny, state, unit)
        assert mask[action_table(tiny).index[PASS]]


def test_feasible_mask_requires_battery_and_queue(tiny):
    state = initial_state(tiny)
    unit = VehicleStatus(0, 0, 0)           # empty battery at region 0
    vehicles = np.zeros_like(state.vehicles)
    vehicles[0, 0, 0] = tiny.fleet_size
    trips = state.trips.copy()
    trips[0, 1, 0] = 1
    s2 = SystemState(state.t, vehicles, trips, state.chargers)
    mask = feasible_mask(tiny, s2, unit)
    # battery 0 < battery_cost 1: neither fulfill nor reposition allowed
    assert not mask[action_table(tiny).index[fulfill(TripStatus(0, 1, 0))]]
    assert not mask[action_table(tiny).index[reposition(1)]]
    assert mask[action_table(tiny).index[charge(tiny.charge_rates[0])]]


def test_feasible_mask_busy_vehicle_only_passes_or_fulfills(tiny):
    state = initial_state(tiny)
    vehicles = np.zeros_like(state.vehicles)
    vehicles[0, tiny.pickup_patience, tiny.battery_capacity] = 1
    vehicles[0, tiny.pickup_patience + 1, tiny.battery_capacity] = 1
    s2 = SystemState(state.t, vehicles, state.trips, state.chargers)
    busy = VehicleStatus(0, tiny.pickup_patience, tiny.battery_capacity)
    mask = feasible_mask(tiny, s2, busy)
    assert not mask[action_table(tiny).index[reposition(1)]]
    assert not mask[action_table(tiny).index[charge(tiny.charge_rates[0])]]
    very_busy = VehicleStatus(0, tiny.pickup_patience + 1, tiny.battery_capacity)
    mask2 = feasible_mask(tiny, s2, very_busy)
    assert mask2.sum() == 1                 # only pass


@pytest.mark.parametrize("status, message", [
    ((2, 0, 3), "vehicle status {} out of range"),
    ((0, -1, 3), "vehicle status {} out of range"),
    ((0, 0, 4), "vehicle status {} out of range"),
    ((0, 1, 3), "no vehicle with status {} in state"),
], ids=["region", "eta", "battery", "absent"])
def test_feasible_mask_rejects_a_vehicle_status_it_cannot_see(tiny, status, message):
    vehicle = VehicleStatus(*status)
    state = initial_state(tiny)
    assert state.vehicles[0, 1, 3] == 0
    with pytest.raises(InvalidArgument) as err:
        feasible_mask(tiny, state, vehicle)
    assert str(err.value) == message.format(vehicle)


def test_atomic_rewards_match_config_tables(tiny):
    t = 1
    v = VehicleStatus(0, 0, 3)
    assert atomic_reward(tiny, v, fulfill(TripStatus(0, 1, 0)), t) == \
        tiny.trip_reward[0, 1, t]
    assert atomic_reward(tiny, v, reposition(1), t) == tiny.reposition_reward[0, 1, t]
    assert atomic_reward(tiny, v, charge(tiny.charge_rates[0]), t) == \
        tiny.charge_reward[0, t]
    assert atomic_reward(tiny, v, PASS, t) == 0.0


def test_epoch_reward_is_exact_sum_of_atomic_rewards(tiny):
    t = 0
    fa = FleetAction.empty()
    units = [VehicleStatus(0, 0, 3), VehicleStatus(1, 0, 2)]
    actions = [fulfill(TripStatus(0, 1, 0)), reposition(0)]
    expect = []
    for u, a in zip(units, actions):
        fa.add_atomic(u, a)
        expect.append(atomic_reward(tiny, u, a, t))
    assert epoch_reward(tiny, fa, t) == math.fsum(expect)


def test_check_fleet_action_rejects_overdraw(tiny):
    state = initial_state(tiny)
    fa = FleetAction.empty()
    v = VehicleStatus(0, 0, tiny.battery_capacity // 2)
    fa.add_atomic(v, fulfill(TripStatus(0, 1, 0)))     # no such queued trip
    with pytest.raises(ContractViolation):
        check_fleet_action(tiny, state, fa)


def test_add_atomic_rejects_unknown_kind():
    fa = FleetAction.empty()
    with pytest.raises(InvalidArgument, match="unknown atomic action kind 'teleport'"):
        fa.add_atomic(VehicleStatus(0, 0, 0), AtomicAction("teleport"))
    assert fa.counts == {}


def test_validate_state_catches_fleet_leak(tiny):
    state = initial_state(tiny)
    vehicles = state.vehicles.copy()
    vehicles[0, 0, tiny.battery_capacity] += 1
    bad = SystemState(state.t, vehicles, state.trips, state.chargers)
    with pytest.raises(ContractViolation, match="fleet size not conserved"):
        validate_state(tiny, bad)


def _put(name, *entries):
    """Edit that sets the given (index, value) entries of one array."""
    def edit(parts):
        for index, value in entries:
            parts[name][index] = value
    return edit


# One bad state per check of validate_state but the fleet total (tested
# above), each an edit of a valid state's parts (two idle vehicles of battery
# 1, a free charger per region, two queues at the trip cap of 4), with the
# message it must raise.
_STATE_REJECTIONS = {
    "vehicles shape": (lambda p: p.update(vehicles=p["vehicles"][:, :, :-1]),
                       r"vehicles array shape \(2, 3, 3\)"),
    "trips shape": (lambda p: p.update(trips=p["trips"][:1]), r"trips array shape \(1, 2, 2\)"),
    "chargers shape": (lambda p: p.update(chargers=p["chargers"][:, :, :1]),
                       r"chargers array shape \(2, 1, 1\)"),
    "t past the day": (lambda p: p.update(t=4), "time of day 4 out of range"),
    "t negative": (lambda p: p.update(t=-1), "time of day -1 out of range"),
    # each negative count keeps the fleet and station totals
    "negative vehicles": (_put("vehicles", ((0, 1, 0), -1), ((0, 0, 0), 1)), "negative counts"),
    "negative trips": (_put("trips", ((0, 1, 0), -1)), "negative counts"),
    "negative chargers": (_put("chargers", ((0, 0, 1), -1), ((0, 0, 0), 2)), "negative counts"),
    "charger totals": (_put("chargers", ((1, 0, 1), 1)), "charger totals not conserved"),
    "trip cap": (_put("trips", ((1, 0, 1), 5)), r"trip queue exceeds N\(L_c\+1\) cap"),
}


@pytest.mark.parametrize("case", sorted(_STATE_REJECTIONS))
def test_validate_state_rejections(case):
    cfg = tiny_config()                               # N = 2, L_c = 1: trip cap 4

    def valid_parts():
        s0 = initial_state(cfg)
        trips = s0.trips.copy()
        trips[0, 1, 0] = trips[1, 0, 1] = cfg.trip_cap
        return {"t": 3, "vehicles": s0.vehicles.copy(), "trips": trips,
                "chargers": s0.chargers.copy()}

    validate_state(cfg, SystemState(**valid_parts()))
    edit, message = _STATE_REJECTIONS[case]
    parts = valid_parts()
    edit(parts)
    with pytest.raises(ContractViolation, match=message):
        validate_state(cfg, SystemState(**parts))


def test_validate_state_accepts_a_config_without_charge_rates():
    """With no charge rates the charger array is empty, and that is valid."""
    from fleetlab.baselines import RandomFeasiblePolicy
    from fleetlab.sim import run_epoch, step
    cfg = tiny_config(V=3, N=4, rates=())
    state = initial_state(cfg)
    assert state.chargers.shape == (3, 0, cfg.charge_period)
    validate_state(cfg, state)
    rng = np.random.default_rng(3)
    for _ in range(cfg.horizon_steps):
        state, _ = step(cfg, state, run_epoch(cfg, state, RandomFeasiblePolicy(), rng).action, rng)
        validate_state(cfg, state)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_feasible_actions_are_always_executable(seed):
    """Any single atomic action the mask allows must pass fleet validation."""
    rng = np.random.default_rng(seed)
    cfg = tiny_config(N=1, seed=seed % 7)
    state = initial_state(cfg)
    # roll a few random steps to diversify the state
    from fleetlab.baselines import RandomFeasiblePolicy
    from fleetlab.sim import run_epoch, step
    for _ in range(int(rng.integers(0, 4))):
        res = run_epoch(cfg, state, RandomFeasiblePolicy(), rng)
        state, _ = step(cfg, state, res.action, rng)
    unit = state.status_groups()[0][0]
    mask = feasible_mask(cfg, state, unit)
    for idx in np.nonzero(mask)[0]:
        fa = FleetAction.empty()
        fa.add_atomic(unit, action_table(cfg).actions[idx])
        check_fleet_action(cfg, state, fa)


# One bad FleetAction per check of check_fleet_action, on a 4-vehicle state:
# idle full (A), eta at L_p (P), eta past L_p (Q), idle empty (L), all at region 0.
_A, _P, _Q, _L = (VehicleStatus(0, 0, 3), VehicleStatus(0, 1, 3),
                  VehicleStatus(0, 2, 3), VehicleStatus(0, 0, 0))
_TRIP = TripStatus(0, 1, 0)


def _outside(action):
    """Vehicle A takes ``action``, which is not a row of the action table."""
    return [(_A, action, 1)], re.escape(f"atomic action {action} is not in the action space")


def _counts(n, *more):
    """Vehicle A's one unit counted as ``n``, then ``more`` entries of A;
    every other vehicle passes."""
    return [(_A, PASS, n), *more] + [(c, PASS, 1) for c in (_P, _Q, _L)]


_REJECTIONS = {
    "negative fulfill": ([(_A, fulfill(_TRIP), -1)], "negative fulfill count"),
    "negative reposition": ([(_A, reposition(1), -1)], "negative reposition count"),
    "negative charge": ([(_A, charge(1), -1)], "negative charge count"),
    "negative pass": ([(_A, PASS, -1)], "negative pass count"),
    "wrong origin": ([(_A, fulfill(TripStatus(1, 0, 0)), 1)], "infeasible fulfill"),
    "eta past L_p": ([(_Q, fulfill(_TRIP), 1)], "infeasible fulfill"),
    "battery below cost": ([(_L, fulfill(_TRIP), 1)], "infeasible fulfill"),
    "intra-region trip": ([(_A, fulfill(TripStatus(0, 0, 0)), 1)],
                          "intra-region trips are excluded"),
    "busy reposition": ([(_P, reposition(1), 1)], "infeasible reposition"),
    "reposition home": ([(_A, reposition(0), 1)], "infeasible reposition"),
    "busy charge": ([(_P, charge(1), 1)], "infeasible charge for busy vehicle"),
    "trip overdraw": ([(_A, fulfill(_TRIP), 1), (_P, fulfill(_TRIP), 1)],
                      "exceeds queue"),
    "charger overdraw": ([(_A, charge(1), 1), (_L, charge(1), 1)],
                         "exceeds free chargers"),
    "under-assigned status": ([(c, PASS, 1) for c in (_P, _Q, _L)],
                              r"flow conservation violated at VehicleStatus\(dest=0, eta=0, "
                              r"battery=3\)"),
    "absent status": ([(c, PASS, 1) for c in (_A, _P, _Q, _L, VehicleStatus(1, 0, 3))],
                      "absent from the state"),
    "unknown kind": ([(_A, AtomicAction("teleport"), 1)], "unknown atomic action kind"),
    "negative unknown kind": ([(_A, AtomicAction("teleport"), -1)],
                              "unknown atomic action kind"),
    # outside the table, whatever the kind; a charge at an unknown rate too
    "trip age -1": _outside(fulfill(TripStatus(0, 1, -1))),
    "trip age past L_c": _outside(fulfill(TripStatus(0, 1, 2))),
    "trip destination -1": _outside(fulfill(TripStatus(0, -1, 0))),
    "trip destination V": _outside(fulfill(TripStatus(0, 2, 0))),
    "reposition -1": _outside(reposition(-1)),
    "reposition -2": _outside(reposition(-2)),
    "reposition V": _outside(reposition(2)),
    "unknown charge rate": _outside(charge(5)),
    "fractional split": (_counts(0.5, (_A, reposition(1), 0.5)),
                         "pass count 0.5 is not an integer"),
    "bool count": (_counts(True), "pass count True is not an integer"),
    # a float or bool field equals a row's and passes the membership test
    "float reposition": ([(_A, reposition(1.0), 1)], re.escape(
        f"atomic action {reposition(1.0)!r} has fields that are not integers")),
    "bool reposition": ([(_A, reposition(True), 1)], re.escape(
        f"atomic action {reposition(True)!r} has fields that are not integers")),
    "float trip age": ([(_A, fulfill(TripStatus(0, 1, 0.0)), 1)], re.escape(
        f"atomic action {fulfill(TripStatus(0, 1, 0.0))!r} has fields that are not integers")),
    "float status": ([(VehicleStatus(0.0, 0, 3), PASS, 1)], re.escape(
        "vehicle status VehicleStatus(dest=0.0, eta=0, battery=3) is not a VehicleStatus "
        "of integers")),
    "bool status": ([(VehicleStatus(False, 0, 3), PASS, 1)], re.escape(
        "vehicle status VehicleStatus(dest=False, eta=0, battery=3) is not a VehicleStatus "
        "of integers")),
}


def _fleet_action(entries) -> FleetAction:
    return FleetAction({(c, a): n for c, a, n in entries})


def _four_vehicle_state():
    """The config and state the rejection cases edit: A, P, Q and L, one
    order queued each way."""
    cfg = tiny_config(N=4)
    vehicles = np.zeros((2, cfg.eta_cap + 1, cfg.battery_capacity + 1), dtype=np.int64)
    for c in (_A, _P, _Q, _L):
        vehicles[c] = 1
    trips = np.zeros((2, 2, cfg.connection_patience + 1), dtype=np.int64)
    trips[0, 1, 0] = trips[1, 0, 0] = 1
    state = SystemState(0, vehicles, trips, initial_state(cfg).chargers)
    validate_state(cfg, state)
    return cfg, state


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_check_fleet_action_rejections(case):
    cfg, state = _four_vehicle_state()
    check_fleet_action(cfg, state, _fleet_action([(c, PASS, 1) for c in (_A, _P, _Q, _L)]))
    entries, message = _REJECTIONS[case]
    with pytest.raises(ContractViolation, match=message):
        check_fleet_action(cfg, state, _fleet_action(entries))


def test_check_fleet_action_accepts_numpy_integer_fields():
    """Statuses, actions and counts built of numpy integers are integers."""
    from fleetlab.sim import transition
    cfg, state = _four_vehicle_state()
    i32, i64 = np.int32, np.int64
    fa = _fleet_action([(VehicleStatus(i64(0), i64(0), i64(3)), reposition(i64(1)), i64(1)),
                        (_P, fulfill(TripStatus(i32(0), i32(1), i64(0))), 1),
                        (_Q, PASS, i32(1)), (_L, charge(i64(1)), 1)])
    check_fleet_action(cfg, state, fa)
    nxt, _ = transition(cfg, state, fa, np.zeros((2, 2), dtype=np.int64))
    assert nxt.vehicles.sum() == 4 and nxt.trips[0, 1].sum() == 0
