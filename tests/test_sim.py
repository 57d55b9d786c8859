import dataclasses
import math
import re

import numpy as np
import pytest

from fleetlab.baselines import PowerOfKPolicy, RandomFeasiblePolicy
from fleetlab.calibrate import scale_fleet
from fleetlab.config import DEFAULT_CHARGING_CURVE, curve_percent_after
from fleetlab.errors import ContractViolation
from fleetlab.fluid import FluidRoundingPolicy, FluidSolution, build_reduced_lp
from fleetlab.model import (PASS, FleetAction, SystemState, TripStatus, VehicleStatus,
                            action_count, action_table, all_pass_action,
                            charge, feasible_mask, fulfill, landing)
from fleetlab.ppo import NeuralPolicy, PpoConfig, init_networks
from fleetlab.scenarios import TEMPLATES, synth_scenario
from fleetlab.sim import (admitted_arrivals, draw_arrivals, initial_state, run_day,
                          run_days, run_epoch, step, transition)

from conftest import highs_optimum, random_config, tiny_config
from oracles import reference_transition


def test_initial_state_invariants(tiny):
    s = initial_state(tiny)
    assert s.vehicles.sum() == tiny.fleet_size
    assert s.trips.sum() == 0
    assert (s.chargers[:, :, 0] == tiny.charger_counts).all()
    assert s.t == 0


@pytest.mark.parametrize("V", [1, 3])
def test_initial_state_spreads_the_fleet_round_robin(V):
    """Vehicle n starts in region n mod V, half charged."""
    for N in range(1, 8):
        cfg = tiny_config(V=V, N=N)
        want = np.zeros_like(initial_state(cfg).vehicles)
        for n in range(N):
            want[n % V, 0, cfg.battery_capacity // 2] += 1
        assert (initial_state(cfg).vehicles == want).all(), (V, N)


def test_fulfill_transition_hand_example(tiny):
    # a vehicle at region 0 with battery 2 serves a fresh trip 0 -> 1 (tau=2):
    # it must reappear with eta = tau - 1 = 1 at region 1, battery 1
    s = initial_state(tiny)
    vehicles = np.zeros_like(s.vehicles)
    vehicles[0, 0, 2] = tiny.fleet_size
    trips = np.zeros_like(s.trips)
    trips[0, 1, 0] = 1
    s = SystemState(0, vehicles, trips, s.chargers)
    fa = FleetAction.empty()
    fa.add_atomic(VehicleStatus(0, 0, 2), fulfill(TripStatus(0, 1, 0)))
    fa.counts[(VehicleStatus(0, 0, 2), PASS)] = tiny.fleet_size - 1
    nxt, info = transition(tiny, s, fa, np.zeros((2, 2), dtype=np.int64))
    assert nxt.vehicles[1, 1, 1] == 1
    assert nxt.vehicles[0, 0, 2] == tiny.fleet_size - 1
    assert info.fulfilled == 1
    assert info.reward == pytest.approx(float(tiny.trip_reward[0, 1, 0]))


def test_charge_transition_occupies_full_period(tiny):
    s = initial_state(tiny)
    vehicles = np.zeros_like(s.vehicles)
    vehicles[0, 0, 0] = tiny.fleet_size
    s = SystemState(0, vehicles, np.zeros_like(s.trips), s.chargers)
    fa = FleetAction.empty()
    fa.add_atomic(VehicleStatus(0, 0, 0), charge(tiny.charge_rates[0]))
    fa.counts[(VehicleStatus(0, 0, 0), PASS)] = tiny.fleet_size - 1
    nxt, info = transition(tiny, s, fa, np.zeros((2, 2), dtype=np.int64))
    J, rate = tiny.charge_period, tiny.charge_rates[0]
    gained = min(rate * J, tiny.battery_capacity)
    assert nxt.vehicles[0, J - 1, gained] == 1
    assert nxt.chargers[0, 0, J - 1] == 1            # engaged for a full period
    assert nxt.chargers[0, 0, 0] == tiny.charger_counts[0, 0] - 1


def test_charge_transition_follows_charging_curve():
    """Under a charging curve a session ends at the curve's level after
    J epochs, floored to whole units (1e-9 absorbs the rounding of
    percent -> units) and never below the starting battery."""
    B, J = 20, 2
    cfg = dataclasses.replace(tiny_config(B=B, J=J), charging_curve=DEFAULT_CHARGING_CURVE)
    seconds = J * cfg.epoch_minutes * 60.0
    s0 = initial_state(cfg)
    landed = []
    for b in range(B):
        vehicles = np.zeros_like(s0.vehicles)
        vehicles[0, 0, b] = cfg.fleet_size
        s = SystemState(0, vehicles, np.zeros_like(s0.trips), s0.chargers)
        fa = FleetAction.empty()
        fa.add_atomic(VehicleStatus(0, 0, b), charge(cfg.charge_rates[0]))
        fa.counts[(VehicleStatus(0, 0, b), PASS)] = cfg.fleet_size - 1
        nxt, _ = transition(cfg, s, fa, np.zeros((2, 2), dtype=np.int64))
        after = curve_percent_after(DEFAULT_CHARGING_CURVE, 100.0 * b / B, seconds)
        want = min(max(math.floor(after * B / 100.0 + 1e-9), b), B)
        assert nxt.vehicles[0, J - 1, want] == 1, b
        assert want >= b
        landed.append(want)
    # the curve, not the linear rate * J rule, set the levels: from 5% it
    # gains more than rate * J units, and from 90% less than one
    linear = [min(b + cfg.charge_rates[0] * J, B) for b in range(B)]
    assert landed[1] > linear[1] and landed[-2:] == [B - 2, B - 1]


def test_admitted_arrivals_fill_each_queue_to_the_cap():
    """Each stacked outcome admits min(arrivals, cap - carried), at least 0,
    off the diagonal, as transition does for a single matrix."""
    cfg = tiny_config(V=3)
    rng = np.random.default_rng(4)
    carried = rng.integers(0, cfg.trip_cap + 2, size=(3, 3))
    arrivals = rng.integers(0, cfg.trip_cap + 2, size=(5, 3, 3))
    got = admitted_arrivals(cfg, arrivals, carried)
    want = np.minimum(arrivals, np.maximum(cfg.trip_cap - carried, 0))
    want[:, [0, 1, 2], [0, 1, 2]] = 0
    np.testing.assert_array_equal(got, want)
    s = initial_state(cfg)
    for k in range(5):
        nxt, _ = transition(cfg, s, all_pass_action(cfg, s), arrivals[k])
        np.testing.assert_array_equal(nxt.trips[:, :, 0], admitted_arrivals(
            cfg, arrivals[k], np.zeros((3, 3), dtype=np.int64)))


@pytest.mark.parametrize("arrivals, shape, dtype", [
    (np.array([1, 0]), (2,), "int64"),
    (np.array([[0, 0.7], [0.9, 0]]), (2, 2), "float64"),
    (np.zeros((2, 2), dtype=bool), (2, 2), "bool"),
    (np.zeros((1, 2, 2), dtype=np.int64), (1, 2, 2), "int64"),
], ids=["vector", "fractional", "bool", "stacked"])
def test_transition_rejects_malformed_arrivals(tiny, arrivals, shape, dtype):
    """Arrivals are one (V, V) integer matrix: a vector once broadcast into
    a queue, and fractions once counted as arrived but admitted nothing."""
    s = initial_state(tiny)
    with pytest.raises(ContractViolation) as err:
        transition(tiny, s, all_pass_action(tiny, s), arrivals)
    assert str(err.value) == (f"arrivals of shape {shape} and dtype {dtype}, "
                              "not a (V, V) integer array")


@pytest.mark.parametrize("J", [1, 2])
def test_transition_rejects_more_charges_than_free_chargers(J):
    # two vehicles charge on a station with one charger; with J = 1 the
    # charger would be taken and given back within the epoch, so the next
    # state's charger totals hold and only the cap on free chargers catches
    # the over-commit
    cfg = tiny_config(N=2, J=J, L_p=0)
    s = initial_state(cfg)
    vehicles = np.zeros_like(s.vehicles)
    c = VehicleStatus(0, 0, 0)
    vehicles[c] = 2
    s = SystemState(0, vehicles, np.zeros_like(s.trips), s.chargers)
    none = np.zeros((2, 2), dtype=np.int64)
    plug = charge(cfg.charge_rates[0])
    _, info = transition(cfg, s, FleetAction({(c, plug): 1, (c, PASS): 1}), none)
    assert info.charges_started == 1
    with pytest.raises(ContractViolation, match="free chargers"):
        transition(cfg, s, FleetAction({(c, plug): 2}), none)


def test_transition_lands_every_feasible_action_where_landing_says():
    """One vehicle takes each feasible atomic action while the rest of the
    fleet, in the same status, passes; charging curves included."""
    rng = np.random.default_rng(41)
    curves = (None, DEFAULT_CHARGING_CURVE, ((10, 5.0), (40, 200.0), (100, 1.0)))
    kinds = set()
    for k in range(30):
        cfg = dataclasses.replace(random_config(rng), charging_curve=curves[k % 3])
        V, N = cfg.num_regions, cfg.fleet_size
        base = initial_state(cfg)
        trips = np.zeros_like(base.trips)
        trips[~np.eye(V, dtype=bool)] = 1               # one of every trip status
        for top in (cfg.pickup_patience, cfg.pickup_patience, cfg.eta_cap):
            c = VehicleStatus(int(rng.integers(V)), int(rng.integers(top + 1)),
                              int(rng.integers(cfg.battery_capacity + 1)))
            vehicles = np.zeros_like(base.vehicles)
            vehicles[c] = N
            t = int(rng.integers(cfg.horizon_steps))
            state = SystemState(t, vehicles, trips, base.chargers)
            for j in np.flatnonzero(feasible_mask(cfg, state, c)):
                a = action_table(cfg).actions[j]
                fa = FleetAction({(c, PASS): N - 1})
                fa.add_atomic(c, a)
                nxt, _ = transition(cfg, state, fa, np.zeros((V, V), dtype=np.int64))
                want = np.zeros_like(vehicles)
                want[landing(cfg, c, a, t)] += 1
                want[landing(cfg, c, PASS, t)] += N - 1
                np.testing.assert_array_equal(nxt.vehicles, want, err_msg=f"{c} {a}")
                kinds.add(a.kind)
    assert kinds == {"fulfill", "reposition", "charge", "pass"}


def test_trips_age_and_abandon(tiny):
    s = initial_state(tiny)
    trips = np.zeros_like(s.trips)
    trips[0, 1, tiny.connection_patience] = 2        # at the patience limit
    trips[0, 1, 0] = 1
    s = SystemState(0, s.vehicles, trips, s.chargers)
    fa = all_pass_action(tiny, s)
    nxt, info = transition(tiny, s, fa, np.zeros((2, 2), dtype=np.int64))
    assert info.abandoned == 2
    assert nxt.trips[0, 1, 1] == 1                   # the fresh one aged
    assert nxt.trips.sum() == 1


def test_arrivals_use_next_epoch_rate(tiny):
    # age-0 trips visible at epoch t must follow the epoch-t arrival mean, so
    # the step from t draws at rate lambda[t+1]
    lam = np.zeros_like(tiny.arrival_rate)
    lam[0, 1, 1] = 50.0                              # only epoch 1 has demand
    cfg = tiny.with_updates(arrival_rate=lam)
    rng = np.random.default_rng(0)
    s = initial_state(cfg)
    nxt, _ = step(cfg, s, all_pass_action(cfg, s), rng)   # t=0 -> t=1, lam[1]
    assert nxt.t == 1 and nxt.trips[0, 1, 0] > 0
    nxt2, _ = step(cfg, nxt, all_pass_action(cfg, nxt), rng)  # draws lam[2]=0
    assert nxt2.trips[0, 1, 0] == 0


def test_conservation_over_random_rollouts():
    rng = np.random.default_rng(123)
    for trial in range(5):
        cfg = random_config(np.random.default_rng(trial))
        state = initial_state(cfg)
        policy = RandomFeasiblePolicy()
        for _ in range(3 * cfg.horizon_steps):
            res = run_epoch(cfg, state, policy, rng)
            state, _ = step(cfg, state, res.action, rng)
            assert state.vehicles.sum() == cfg.fleet_size
            assert (state.chargers.sum(axis=2) == cfg.charger_counts).all()
            assert (state.trips[:, :, cfg.connection_patience + 1:] == 0).all()


def test_atomic_rewards_sum_to_epoch_reward_exactly():
    from fleetlab.model import epoch_reward
    rng = np.random.default_rng(7)
    cfg = tiny_config(N=4, V=3, lam_scale=2.0)
    state = initial_state(cfg)
    policy = RandomFeasiblePolicy()
    for _ in range(3 * cfg.horizon_steps):
        res = run_epoch(cfg, state, policy, rng)
        assert math.fsum(r.reward for r in res.records) == epoch_reward(cfg, res.action, state.t)
        state, _ = step(cfg, state, res.action, rng)


def test_run_day_totals(tiny):
    rng = np.random.default_rng(3)
    tr = run_day(tiny, initial_state(tiny), RandomFeasiblePolicy(), rng)
    assert len(tr.epochs) == tiny.horizon_steps
    assert len(tr.states) == tiny.horizon_steps + 1
    assert tr.total_reward == math.fsum(e.info.reward for e in tr.epochs)


def test_same_seed_same_trace(tiny):
    a = run_days(tiny, RandomFeasiblePolicy(), 2, np.random.default_rng(9))
    b = run_days(tiny, RandomFeasiblePolicy(), 2, np.random.default_rng(9))
    assert [t.total_reward for t in a] == [t.total_reward for t in b]
    assert a[-1].states[-1].key() == b[-1].states[-1].key()


def test_draw_arrivals_matches_poisson_mean(tiny):
    rng = np.random.default_rng(11)
    draws = np.array([draw_arrivals(tiny, 0, rng) for _ in range(4000)])
    mean = draws.mean(axis=0)
    assert np.abs(mean - tiny.arrival_rate[:, :, 0]).max() < 0.1


def test_draw_arrivals_is_one_poisson_draw_over_the_whole_table():
    """The draw equals rng.poisson over the epoch's rate table bit for bit, as
    int64, and zero rates take nothing from the stream: drawing only the
    nonzero rates leaves the generator where the whole table does."""
    cfg = synth_scenario("two-region-commute", 0)
    for t in range(cfg.horizon_steps):
        rate = cfg.arrival_rate[:, :, t]
        rng, want_rng, nonzero_rng = (np.random.default_rng([5, t]) for _ in range(3))
        got = draw_arrivals(cfg, t, rng)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want_rng.poisson(rate))
        nonzero_rng.poisson(rate[rate > 0])
        assert rng.bit_generator.state == nonzero_rng.bit_generator.state


# -- transition against a per-vehicle reference ------------------------------------


def _tables(cfg) -> dict:
    """What reference_transition reads of a config, as plain values."""
    return dict(
        T=cfg.horizon_steps, B=cfg.battery_capacity, L_c=cfg.connection_patience,
        J=cfg.charge_period, trip_cap=cfg.trip_cap, rates=cfg.charge_rates,
        curve=cfg.charging_curve, epoch_minutes=cfg.epoch_minutes,
        trip_duration=cfg.trip_duration, battery_cost=cfg.battery_cost,
        trip_reward=cfg.trip_reward, reposition_reward=cfg.reposition_reward,
        charge_reward=cfg.charge_reward)


def _four_times_fleet(template):
    base = synth_scenario(template, 0)
    return scale_fleet(base, 4 * base.fleet_size, base.fleet_size)


_REFERENCE_CONFIGS = {
    **{template: lambda t=template: _four_times_fleet(t) for template in TEMPLATES},
    "eta_cap 0": lambda: tiny_config(V=3, N=5, L_p=0, tau=1, J=1, lam_scale=2.0),
    "J 1": lambda: tiny_config(V=3, N=5, L_p=0, J=1, lam_scale=2.0),
    "L_c 0": lambda: tiny_config(V=3, N=5, L_c=0, lam_scale=2.0),
    "two rates": lambda: tiny_config(V=3, N=6, B=6, J=3, rates=(1, 2), chargers=2,
                                     lam_scale=0.5),
    "charging curve": lambda: dataclasses.replace(
        tiny_config(V=3, N=6, B=20, J=2, lam_scale=0.5), charging_curve=DEFAULT_CHARGING_CURVE),
    "R 0": lambda: tiny_config(V=3, N=5, rates=(), lam_scale=2.0),
}


@pytest.mark.parametrize("name", list(_REFERENCE_CONFIGS))
def test_transition_matches_per_vehicle_reference(name):
    """Random feasible epochs from run_epoch: the next state and every
    StepInfo field, the reward bit for bit, equal the reference's, which
    moves each vehicle, order and charger on its own."""
    cfg = _REFERENCE_CONFIGS[name]()
    tables = _tables(cfg)
    kinds = set()
    for seed in range(3):
        rng = np.random.default_rng([seed, 71])
        state = initial_state(cfg)
        for _ in range(2 * cfg.horizon_steps):
            res = run_epoch(cfg, state, RandomFeasiblePolicy(), rng)
            arrivals = draw_arrivals(cfg, (state.t + 1) % cfg.horizon_steps, rng)
            (t, vehicles, trips, chargers), want = reference_transition(
                tables, (state.t, state.vehicles, state.trips, state.chargers),
                [(r.vehicle, r.action) for r in res.records], arrivals)
            nxt, info = transition(cfg, state, res.action, arrivals)
            assert nxt.t == t
            np.testing.assert_array_equal(nxt.vehicles, vehicles)
            np.testing.assert_array_equal(nxt.trips, trips)
            np.testing.assert_array_equal(nxt.chargers, chargers)
            assert dataclasses.asdict(info) == want
            kinds.update(r.action.kind for r in res.records)
            state = nxt
    assert kinds == ({"fulfill", "reposition", "pass"} if name == "R 0"
                     else {"fulfill", "reposition", "charge", "pass"})


# -- masks handed to policies ------------------------------------------------------


def _highs_rounding_policy(config):
    """FluidRoundingPolicy over a HiGHS optimum of the reduced LP; the
    program's own simplex takes tens of seconds on two of the templates."""
    problem, index = build_reduced_lp(config)
    objective, x = highs_optimum(problem)
    flows = {key: max(float(x[j]), 0.0) for key, j in index.items()}
    return FluidRoundingPolicy(config, FluidSolution(objective, flows, "reduced", 0, 0.0))


class _MaskSpy:
    """Passes a policy through, asserting at every atomic step that the mask
    it is handed is read-only and equals a fresh feasible_mask of the working
    state. Counts the steps whose mask lost a bit from the unit before it."""

    def __init__(self, policy):
        self.policy = policy
        self.steps = 0
        self.cleared = 0
        self.prev = None

    def begin_epoch(self, config, state, rng):
        self.prev = None
        if hasattr(self.policy, "begin_epoch"):
            self.policy.begin_epoch(config, state, rng)

    def act(self, config, work, vehicle, mask, rng):
        assert not mask.flags.writeable
        assert (mask == feasible_mask(config, work, vehicle)).all()
        if self.prev is not None and self.prev[0] == vehicle:
            self.cleared += int((self.prev[1] != mask).any())
        self.prev = (vehicle, mask)
        self.steps += 1
        return self.policy.act(config, work, vehicle, mask, rng)


@pytest.mark.parametrize("template", TEMPLATES)
def test_reused_masks_equal_fresh_masks(template):
    """Every heuristic policy and the neural policy, over two days of each
    template at four times its fleet, see at each atomic step exactly the
    mask feasible_mask gives for the working state."""
    base = synth_scenario(template, 0)
    config = scale_fleet(base, 4 * base.fleet_size, base.fleet_size)
    pset, _ = init_networks(config, PpoConfig(hidden=8))
    policies = [PowerOfKPolicy(config, k=2), RandomFeasiblePolicy(),
                _highs_rounding_policy(config), NeuralPolicy(config, pset)]
    cleared = 0
    for policy in policies:
        spy = _MaskSpy(policy)
        days = run_days(config, spy, 2, np.random.default_rng(4))
        assert spy.steps == sum(len(e.records) for d in days for e in d.epochs)
        cleared += spy.cleared
    assert cleared > 0          # some unit saw the bit of a resource used up


class _Scripted:
    """Returns the given action indices in turn and keeps each mask it gets."""

    def __init__(self, indices):
        self.indices = list(indices)
        self.masks = []

    def act(self, config, work, vehicle, mask, rng):
        self.masks.append(mask)
        assert (mask == feasible_mask(config, work, vehicle)).all()
        return self.indices.pop(0)


@pytest.mark.parametrize("kind", ["fulfill", "charge"])
@pytest.mark.parametrize("left", [0, 1])
def test_second_unit_sees_what_the_first_used_up(kind, left):
    """Two idle vehicles of one status: the first takes a queued trip or a
    free charger. The second may take the same action only if one is left."""
    cfg = tiny_config(chargers=1 + left)
    s0 = initial_state(cfg)
    vehicles = np.zeros_like(s0.vehicles)
    vehicles[0, 0, 2] = 2
    trips = s0.trips.copy()
    trips[0, 1, 0] = 1 + left
    state = SystemState(0, vehicles, trips, s0.chargers)
    taken = fulfill(TripStatus(0, 1, 0)) if kind == "fulfill" else charge(cfg.charge_rates[0])
    j, p = action_table(cfg).index[taken], action_table(cfg).index[PASS]
    policy = _Scripted([j, p])
    run_epoch(cfg, state, policy, np.random.default_rng(0))
    first, second = policy.masks
    assert first[j] and second[j] == bool(left)
    assert np.flatnonzero(first != second).tolist() == ([] if left else [j])


def test_policy_cannot_write_the_mask():
    """A write to the handed mask raises, and later units of the same status
    still get the true feasible set."""

    class Vandal:
        def __init__(self):
            self.steps = 0

        def act(self, config, work, vehicle, mask, rng):
            before = mask.copy()
            with pytest.raises(ValueError, match="read-only"):
                mask[:] = ~mask
            assert (mask == before).all()
            assert (mask == feasible_mask(config, work, vehicle)).all()
            self.steps += 1
            return int(np.flatnonzero(mask)[0])

    cfg = synth_scenario("two-region-commute", 0)
    policy = Vandal()
    day = run_day(cfg, initial_state(cfg), policy, np.random.default_rng(2))
    assert policy.steps == cfg.fleet_size * cfg.horizon_steps
    assert sum(e.info.fulfilled for e in day.epochs) > 0


@pytest.mark.parametrize("idx", ["size", 1.0, True, -2])
def test_run_epoch_rejects_an_index_outside_the_action_space(idx):
    """An index past the end, a float, a bool or a negative index is a
    contract violation that names the index, like an infeasible one."""

    class Stray:
        def act(self, config, work, vehicle, mask, rng):
            return mask.size if idx == "size" else idx

    cfg = tiny_config()
    state = initial_state(cfg)
    shown = repr(action_count(cfg) if idx == "size" else idx)
    with pytest.raises(ContractViolation, match=f"action index {re.escape(shown)},"):
        run_epoch(cfg, state, Stray(), np.random.default_rng(0))


def test_run_epoch_rejects_an_infeasible_index():
    """An index inside the action space whose mask entry is False is a
    contract violation that names the index."""

    class Masked:
        def act(self, config, work, vehicle, mask, rng):
            return int(np.flatnonzero(~mask)[0])

    cfg = tiny_config()
    state = initial_state(cfg)
    vehicle = state.status_groups()[0][0]
    idx = int(np.flatnonzero(~feasible_mask(cfg, state, vehicle))[0])
    with pytest.raises(ContractViolation, match=f"^policy chose infeasible action index {idx}$"):
        run_epoch(cfg, state, Masked(), np.random.default_rng(0))
