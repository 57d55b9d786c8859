"""Tests for the benchmark policies and the exact tiny-instance solver."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from collections.abc import Mapping

import numpy as np
import pytest

from fleetlab import baselines, ppo, sim
from fleetlab.baselines import (
    AlwaysPassPolicy,
    PowerOfKPolicy,
    RandomFeasiblePolicy,
    _Expander,
    _fleet_action,
    _joint_outcomes,
    _row_arrays,
    _row_dtype,
    exact_value_iteration,
)
from fleetlab.config import NetworkConfig
from fleetlab.errors import (ContractViolation, InvalidArgument, StateSpaceTooLarge,
                             ValueIterationNotConverged)
from fleetlab.fluid import FluidRoundingPolicy, upper_bound
from fleetlab.model import (PASS, FleetAction, SystemState, TripStatus, VehicleStatus,
                            action_table, check_fleet_action,
                            epoch_reward, feasible_mask, fulfill)
from fleetlab.scenarios import synth_scenario

from conftest import tiny_config
from oracles import reference_discovery, reference_transition, truncated_rollout
from test_acceptance import _vi_instance
from test_sim import _tables


def test_always_pass_earns_zero(tiny):
    traces = sim.run_days(tiny, AlwaysPassPolicy(), 3, np.random.default_rng(0))
    assert all(tr.total_reward == 0.0 for tr in traces)


def test_random_policy_uniform_probability(tiny):
    """Draw frequencies over the feasible actions stay within 4 binomial
    standard deviations of uniform; infeasible actions are never drawn."""
    state = _state_with_idle_vehicles(tiny)
    trips = state.trips.copy()
    trips[0, 1, :] = 1
    state = SystemState(state.t, state.vehicles, trips, state.chargers)
    veh = VehicleStatus(0, 0, tiny.battery_capacity)
    mask = feasible_mask(tiny, state, veh)
    k, n = int(mask.sum()), 8000
    assert k >= 4
    policy, rng = RandomFeasiblePolicy(), np.random.default_rng(1)
    counts = np.bincount([policy.act(tiny, state, veh, mask, rng) for _ in range(n)],
                         minlength=mask.size)
    assert (counts[~mask] == 0).all()
    sd = math.sqrt(n * (1 / k) * (1 - 1 / k))
    assert np.abs(counts[mask] - n / k).max() < 4 * sd


class _CheckedPolicy:
    """Passes a policy through, asserting that every act returns a Python int
    the mask allows."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = 0

    def begin_epoch(self, config, state, rng):
        if hasattr(self.policy, "begin_epoch"):
            self.policy.begin_epoch(config, state, rng)

    def act(self, config, work, vehicle, mask, rng):
        idx = self.policy.act(config, work, vehicle, mask, rng)
        assert type(idx) is int and mask[idx]
        self.calls += 1
        return idx


def test_every_policy_returns_a_feasible_python_int(tiny):
    pset, _ = ppo.init_networks(tiny, ppo.PpoConfig(hidden=8))
    policies = [AlwaysPassPolicy(), RandomFeasiblePolicy(), PowerOfKPolicy(tiny, k=2),
                FluidRoundingPolicy(tiny, upper_bound(tiny)), ppo.NeuralPolicy(tiny, pset),
                ppo.NeuralPolicy(tiny, pset, record=True)]
    for policy in policies:
        checked = _CheckedPolicy(policy)
        sim.run_days(tiny, checked, 2, np.random.default_rng(9))
        assert checked.calls == 2 * tiny.horizon_steps * tiny.fleet_size


def test_power_of_k_requires_positive_k(tiny):
    for k, message in ((0, "k must be >= 1, got 0"), (2.5, "k must be an integer, got 2.5")):
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            PowerOfKPolicy(tiny, k=k)


def _state_with_idle_vehicles(config):
    """All vehicles idle with full batteries in region 0."""
    base = sim.initial_state(config)
    vehicles = np.zeros_like(base.vehicles)
    vehicles[0, 0, config.battery_capacity] = config.fleet_size
    return SystemState(base.t, vehicles, base.trips, base.chargers)


def test_power_of_k_serves_queued_trip(tiny):
    """An idle nearby vehicle with battery gets a fulfill intent."""
    state = _state_with_idle_vehicles(tiny)
    trips = state.trips.copy()
    trips[0, 1, 0] = 1
    state = SystemState(state.t, state.vehicles, trips, state.chargers)
    policy = PowerOfKPolicy(tiny, k=2)
    rng = np.random.default_rng(2)
    policy.begin_epoch(tiny, state, rng)
    veh = VehicleStatus(0, 0, tiny.battery_capacity)
    mask = feasible_mask(tiny, state, veh)
    assert policy.act(tiny, state, veh, mask, rng) == action_table(tiny).index[
        fulfill(TripStatus(0, 1, 0))]


def test_power_of_k_passes_without_demand(tiny):
    """No queued trips and a full battery: vehicles hold position."""
    state = _state_with_idle_vehicles(tiny)
    policy = PowerOfKPolicy(tiny, k=2)
    rng = np.random.default_rng(3)
    policy.begin_epoch(tiny, state, rng)
    veh = VehicleStatus(0, 0, tiny.battery_capacity)
    mask = feasible_mask(tiny, state, veh)
    assert policy.act(tiny, state, veh, mask, rng) == action_table(tiny).index[PASS]


def test_power_of_k_beats_random(tiny):
    def mean_reward(policy, seed):
        traces = sim.run_days(tiny, policy, 30, np.random.default_rng(seed))
        return np.mean([tr.total_reward for tr in traces[5:]])

    pk = mean_reward(PowerOfKPolicy(tiny, k=2), 4)
    rnd = mean_reward(RandomFeasiblePolicy(), 4)
    assert pk > rnd


def test_exact_solver_no_demand_gain_zero():
    cfg = tiny_config(V=2, T=2, N=1, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.0)
    sol = exact_value_iteration(cfg, arrival_cap=0)
    assert sol.gain == pytest.approx(0.0, abs=1e-8)


def test_exact_solver_single_vehicle_hand_case():
    """One vehicle, one lucrative trip each epoch: the optimal policy serves
    every epoch it can and the gain is hand-computable."""
    cfg = tiny_config(V=2, T=2, N=1, B=4, J=2, L_p=0, L_c=0, tau=1)
    # deterministic-ish demand: huge rate + cap 1 => always one fresh trip
    lam = np.zeros_like(cfg.arrival_rate)
    lam[0, 1, :] = 50.0
    lam[1, 0, :] = 50.0
    cfg = dataclasses.replace(cfg, arrival_rate=lam)
    sol = exact_value_iteration(cfg, arrival_cap=1)
    # With tau=1 and cost 1 the vehicle alternates 0->1, 1->0 earning 5 per
    # epoch until the battery runs dry, then must charge (J=2 epochs, gain 2).
    # Per battery cycle: 4 trips (20 reward) in 4 epochs, then 2 epochs
    # charging at -0.1 each => 19.8 per 6 epochs => gain 2 * 19.8 / 6 per day
    # is the fluid estimate; the exact gain cannot exceed the fluid bound.
    bound = upper_bound(cfg).objective
    assert sol.gain <= bound + 1e-6
    assert sol.gain > 0.0


def test_exact_solver_gain_below_fluid_bound(tiny):
    cfg = tiny_config(V=2, T=2, N=2, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.8)
    sol = exact_value_iteration(cfg, arrival_cap=1)
    bound = upper_bound(cfg).objective
    assert sol.gain <= bound + 1e-6


def test_exact_policy_is_simulatable():
    """The extracted argmax policy replayed in the simulator, under arrivals
    drawn from the truncated pmf the solver uses, earns the computed gain
    within sampling error."""
    cfg = tiny_config(V=2, T=2, N=1, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.6)
    cap = 2
    sol = exact_value_iteration(cfg, arrival_cap=cap)
    assert sol.converged and sol.span <= 1e-8
    mean, stderr = _rolled_gain(cfg, cap, lambda state, rng: sol.policy[(state.t, state.key())],
                                np.random.default_rng(5), chains=20, warmup=5, days=40)
    assert stderr > 0.0
    assert abs(mean - sol.gain) <= 5 * stderr, (mean, stderr, sol.gain)


def _rolled_gain(cfg, cap, decide, rng, chains, warmup, days) -> tuple[float, float]:
    """Mean daily reward and its stderr over chains from the start state that
    take the fleet actions ``decide(state, rng)``, under the solver's arrival
    outcomes truncated at ``cap``: the queue entering epoch t+1 is drawn at
    epoch t+1's rates."""
    T = cfg.horizon_steps
    outcomes = [_joint_outcomes(cfg, (t + 1) % T, cap) for t in range(T)]

    def step(state, action, arrivals):
        nxt, info = sim.transition(cfg, state, action, arrivals)
        return nxt, info.reward

    means = truncated_rollout(sim.initial_state(cfg), outcomes, decide, step, rng,
                              chains, warmup, days)
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(chains)


# instances and arrival caps the built-in policies are refereed on: test_04's
# caps for its draws (1 for one vehicle, 2 for two) and cap 2 for tiny
REFEREED = {"tiny N=1": (lambda: tiny_config(N=1), 2), "vi-1": (lambda: _vi_instance(1), 1),
            "vi-7": (lambda: _vi_instance(7), 2)}


@pytest.mark.parametrize("instance", list(REFEREED))
def test_no_policy_beats_the_exact_optimum(instance):
    """Every built-in policy, rolled under the truncated arrivals the solver
    assumes, earns at most the largest per-state gain it finds, within three
    standard errors: a solver that missed a fleet action could fall below a
    policy that takes it."""
    build, cap = REFEREED[instance]
    cfg = build()
    sol = exact_value_iteration(cfg, arrival_cap=cap)
    policies = {"always-pass": AlwaysPassPolicy(), "random": RandomFeasiblePolicy(),
                "power-of-2": PowerOfKPolicy(cfg, k=2),
                "fluid": FluidRoundingPolicy(cfg, upper_bound(cfg))}
    for k, (name, policy) in enumerate(policies.items()):
        mean, stderr = _rolled_gain(
            cfg, cap, lambda state, rng: sim.run_epoch(cfg, state, policy, rng).action,
            np.random.default_rng([61, k]), chains=8, warmup=10, days=30)
        assert mean <= sol.gain_max + 3 * stderr, (name, mean, stderr, sol.gain_max)


def test_exact_solver_multichain_battery_trap():
    """Chargers in region 0 only: a vehicle in region 1 with an empty battery
    can neither charge nor move, so it earns 0 forever, while the start state
    (region 0, battery 1) keeps a positive gain.

    One vehicle, one epoch per day, battery 2, charge rate 2 over one epoch,
    trips 0 -> 1 only (fare 5, one epoch, battery 1), repositioning 1 -> 0
    costs 1 and a charge 0.1. With cap 1 and rate 1 the queue holds a trip
    with probability p = 1/2 each epoch. The optimal cycle waits full in
    region 0 for a trip (1/p epochs on average, the last one serving it),
    repositions back and charges: reward 5 - 1 - 0.1 = 3.9 over
    1/p + 2 = 4 epochs, a gain of 0.975 per day. The start state charges
    once and enters that cycle; serving a trip from it would strand the
    vehicle in the trap."""
    cfg = tiny_config(V=2, T=1, N=1, B=2, J=1, L_p=0, L_c=0, tau=1, rates=(2,))
    lam = np.zeros_like(cfg.arrival_rate)
    lam[0, 1, :] = 1.0
    cfg = dataclasses.replace(cfg, arrival_rate=lam,
                              charger_counts=np.array([[1], [0]], dtype=np.int64))
    sol = exact_value_iteration(cfg, arrival_cap=1)
    assert sol.converged and sol.span <= 1e-8
    assert sol.gain_min == pytest.approx(0.0, abs=1e-9)
    assert sol.gain > 0.0
    assert sol.gain == pytest.approx(0.975, abs=1e-7)
    assert sol.gain_max == pytest.approx(0.975, abs=1e-7)


def test_exact_solver_rejects_negative_arrival_cap():
    cfg = tiny_config(V=2, T=2, N=1, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.6)
    with pytest.raises(InvalidArgument, match="arrival_cap must be >= 0, got -1"):
        exact_value_iteration(cfg, arrival_cap=-1)


@pytest.mark.parametrize("bad, message", [
    (dict(tol=math.inf), "tol must be finite and >= 0, got inf"),
    (dict(tol=math.nan), "tol must be finite and >= 0, got nan"),
    (dict(tol=-1e-8), "tol must be finite and >= 0, got -1e-08"),
    (dict(max_iters=0), "max_iters must be >= 1, got 0"),
    (dict(max_states=0), "max_states must be >= 1, got 0"),
    (dict(arrival_cap=1.5), "arrival_cap must be an integer, got 1.5"),
    (dict(arrival_cap=True), "arrival_cap must be an integer, got True"),
    (dict(max_iters=1.5), "max_iters must be an integer, got 1.5"),
    (dict(max_iters=True), "max_iters must be an integer, got True"),
    (dict(max_states=2.5), "max_states must be an integer, got 2.5"),
    (dict(max_states=False), "max_states must be an integer, got False"),
    (dict(tol="1e-8"), "tol must be a real number, got '1e-8'"),
    (dict(tol=None), "tol must be a real number, got None"),
    (dict(tol=True), "tol must be a real number, got True"),
])
def test_exact_solver_rejects_bad_arguments(bad, message):
    cfg = tiny_config(V=2, T=2, N=1, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.6)
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        exact_value_iteration(cfg, **{"arrival_cap": 1, **bad})


def _brute_force_fleet_actions(config, state) -> list[FleetAction]:
    """Every per-status multiset over all atomic actions that
    check_fleet_action accepts. Statuses go in array order, each one's
    candidates Pass first and then by index, and the multisets combine in
    itertools.product order."""
    actions = action_table(config).actions
    cands = actions[-1:] + actions[:-1]
    per_status = [[(c, combo) for combo in itertools.combinations_with_replacement(cands, n)]
                  for c, n in state.statuses()]
    found = []
    for choice in itertools.product(*per_status):
        fa = FleetAction.empty()
        for c, combo in choice:
            for a in combo:
                fa.add_atomic(c, a)
        try:
            check_fleet_action(config, state, fa)
        except ContractViolation:
            continue
        found.append(fa)
    return found


def _row(state) -> np.ndarray:
    return np.concatenate([state.vehicles.ravel(), state.trips.ravel(), state.chargers.ravel()])


def _expanded(expander, states):
    """Expand ``states``, all of one epoch, as one stack through
    compose and expand; yields each state, its composition and its actions
    as (next row under zero arrivals, reward, fleet action)."""
    rows = np.stack([_row(state) for state in states])
    ticked, comps = expander.compose(states[0].t, rows)
    exp = expander.expand(rows, ticked, comps)
    assert len(exp.sizes) == len(states) and exp.sizes.sum() == len(exp.rows)
    lo = 0
    for state, comp, hi in zip(states, comps, np.cumsum(exp.sizes).tolist()):
        yield state, comp, [(exp.rows[j], float(exp.rewards[j]),
                             _fleet_action(comp, int(exp.picks[j]))) for j in range(lo, hi)]
        lo = hi


def _by_epoch(pairs) -> list:
    """The (config, state) pairs as (config, [states of one epoch]) groups."""
    groups: dict = {}
    for cfg, state in pairs:
        groups.setdefault((id(cfg), state.t), (cfg, []))[1].append(state)
    return list(groups.values())


def _rollout_configs_and_states(N):
    """Configs with one charger per rate and short queues, and the states of
    random rollouts on them."""
    for seed in range(3):
        cfg = tiny_config(V=2, T=3, N=N, B=3, J=2, L_p=0, L_c=1, tau=1, rates=(1, 2),
                          chargers=1, lam_scale=1.5, seed=seed)
        for tr in sim.run_days(cfg, RandomFeasiblePolicy(), 2, np.random.default_rng(seed)):
            for state in tr.states:
                yield cfg, state


@pytest.mark.parametrize("N", [1, 2, 3])
def test_enumerated_fleet_actions_are_the_feasible_ones(N):
    """On states of random rollouts, the enumeration yields each feasible
    fleet action exactly once, in the order of a brute force over the
    per-status multisets."""
    capped = 0
    for cfg, states in _by_epoch(_rollout_configs_and_states(N)):
        for state, _, actions in _expanded(_Expander(cfg), states):
            got = [frozenset(fa.counts.items()) for _, _, fa in actions]
            want = [frozenset(fa.counts.items())
                    for fa in _brute_force_fleet_actions(cfg, state)]
            assert len(set(got)) == len(got)
            assert set(got) == set(want)
            assert got == want
            # some queued trip has fewer orders than the idle vehicles at
            # its origin, so its cap binds
            idle = state.vehicles[:, 0, :].sum(axis=1)
            capped += any(0 < n < idle[u] for (u, _, _), n in np.ndenumerate(state.trips))
    assert capped or N == 1


def _time_varying_config() -> NetworkConfig:
    """Two vehicles, two charge rates, a queue that ages once, and trip
    durations, fares and charge rewards that change with the epoch."""
    cfg = tiny_config(V=2, T=2, N=2, B=2, J=2, L_p=0, L_c=1, tau=1, rates=(1, 2),
                      chargers=1, lam_scale=0.5)
    T = cfg.horizon_steps
    dur = np.ones((2, 2, T), dtype=np.int64)
    dur[0, 1, 1] = dur[1, 0, 0] = 2
    return dataclasses.replace(cfg, trip_duration=dur,
                               trip_reward=cfg.trip_reward + np.arange(T) * 0.7,
                               charge_reward=cfg.charge_reward - np.arange(T) * 0.3)


def _discovered_states(config, arrival_cap):
    """Every state exact_value_iteration reaches, from its policy's keys."""
    sol = exact_value_iteration(config, arrival_cap=arrival_cap)
    start = sim.initial_state(config)
    for t, (_, *arrays) in sol.policy:
        yield SystemState(t, *(np.frombuffer(b, dtype=np.int64).reshape(like.shape)
                              for b, like in zip(arrays, (start.vehicles, start.trips,
                                                          start.chargers))))


@pytest.mark.parametrize("instance", ["time-varying", "vi-7", "pickup-patience", "rollouts"])
def test_composed_successors_follow_the_transition_rule(instance):
    """Every cached block offers its status the state's feasible actions, and
    every enumerated fleet action's successor row, composed from the tick
    and cached unit changes for a stack of states of one epoch at once,
    equals transition's next state and the per-vehicle reference's under
    zero arrivals, and its reward equals epoch_reward's bit for bit."""
    if instance == "rollouts":
        pairs = [pair for N in (1, 2, 3) for pair in _rollout_configs_and_states(N)]
    else:
        # busy vehicles within the pickup patience can fulfil but not charge
        cfg = {"time-varying": _time_varying_config, "vi-7": lambda: _vi_instance(7),
               "pickup-patience": lambda: tiny_config(T=2, N=2, B=2, L_c=0)}[instance]()
        pairs = [(cfg, state) for state in _discovered_states(cfg, arrival_cap=1)]
    expander, checked = None, 0
    for cfg, states in _by_epoch(pairs):
        # one expander per config, so its caches serve many states
        if expander is None or expander.config is not cfg:
            expander = _Expander(cfg)
            zero = np.zeros((cfg.num_regions, cfg.num_regions), dtype=np.int64)
            tables = _tables(cfg)
            actions = action_table(cfg).actions
        for state, comp, expanded in _expanded(expander, states):
            # a cached block's candidates are this state's feasible set
            assert [b.status for b in comp.blocks] == [c for c, _ in state.statuses()]
            for b in comp.blocks:
                feasible = np.flatnonzero(feasible_mask(cfg, state, b.status)[:-1])
                assert b.cands == (PASS,) + tuple(actions[i] for i in feasible)
            for row, reward, fa in expanded:
                nxt, info = sim.transition(cfg, state, fa, zero)
                assert row.tolist() == _row(nxt).tolist()
                assert reward.hex() == info.reward.hex() == epoch_reward(cfg, fa, state.t).hex()
                assignments = [(c, (a.kind, a.trip, a.region, a.rate))
                               for (c, a), n in fa.counts.items() for _ in range(n)]
                (t, vehicles, trips, chargers), want = reference_transition(
                    tables, (state.t, state.vehicles, state.trips, state.chargers), assignments,
                    zero)
                assert t == nxt.t
                assert row.tolist() == np.concatenate(
                    [vehicles.ravel(), trips.ravel(), chargers.ravel()]).tolist()
                assert reward.hex() == want["reward"].hex()
                checked += 1
    assert checked > 100


# the instances whose discovery order is checked: a test_04 draw, the
# time-varying instance, two-vehicle instances of degenerate shapes, and one
# whose charger counts int8 rows cannot hold
ORDER_INSTANCES = {
    "vi-7": lambda: _vi_instance(7),
    "time-varying": _time_varying_config,
    "no charge rates": lambda: tiny_config(N=2, B=2, rates=()),
    "T = 1": lambda: tiny_config(T=1, N=2, B=2),
    "V = 1": lambda: tiny_config(V=1, N=2, B=2),
    "L_c = L_p = 0": lambda: tiny_config(N=2, B=2, L_c=0, L_p=0),
    "200 chargers": lambda: tiny_config(N=2, B=2, chargers=200),
}


def _spy_row_dtypes(monkeypatch) -> set:
    """The dtypes of the rows discovery hands _Expander.compose, filled in
    as solves run."""
    seen = set()
    compose = _Expander.compose

    def spied(self, t, rows):
        seen.add(rows.dtype)
        return compose(self, t, rows)

    monkeypatch.setattr(_Expander, "compose", spied)
    return seen


def _layers(sol) -> dict:
    """Each epoch's state keys in index order, from the policy's insertion
    order."""
    layers: dict = {}
    for t, key in sol.policy:
        layers.setdefault(t, []).append(key)
    return layers


@pytest.mark.parametrize("instance", list(ORDER_INSTANCES))
def test_discovery_matches_a_one_state_at_a_time_reference(monkeypatch, instance):
    """The solver finds the states of each epoch in the order a first-in
    first-out search finds them, expanding one state at a time over checked
    transitions of every fleet action check_fleet_action accepts. Its rows
    are int8 unless the instance holds counts int8 sums cannot."""
    cfg = ORDER_INSTANCES[instance]()
    dtypes = _spy_row_dtypes(monkeypatch)
    sol = exact_value_iteration(cfg, arrival_cap=1)
    assert dtypes == {np.dtype(np.int64 if instance == "200 chargers" else np.int8)}
    want = reference_discovery(
        sim.initial_state(cfg), cfg.arrival_rate, 1,
        lambda state: _brute_force_fleet_actions(cfg, state),
        lambda state, fa, arrivals: sim.transition(cfg, state, fa, arrivals)[0])
    assert _layers(sol) == want
    assert sol.states == sum(map(len, want.values()))


def _solution_bits(sol) -> tuple:
    return (sol.gain.hex(), sol.span.hex(), sol.states, sol.iterations, sol.gain_min.hex(),
            sol.gain_max.hex(), sol.converged, list(sol.policy.items()))


@pytest.mark.parametrize("rows", [1, 7, 50])
def test_discovery_is_chunk_invariant(monkeypatch, rows):
    """However few successor rows a chunk holds, the solutions are bit for
    bit the same, and max_states bounds the states exactly."""
    want = _solution_bits(exact_value_iteration(_time_varying_config(), arrival_cap=1))
    monkeypatch.setattr(baselines, "_CHUNK_ROWS", rows)
    for key, (gain, iterations, states, digest) in GOLDEN_VI.items():
        config, cap = _golden_vi_input(key)
        sol = exact_value_iteration(config, arrival_cap=cap, max_states=states)
        assert (sol.gain, sol.iterations, sol.states, _policy_digest(sol.policy)) == (
            gain, iterations, states, digest)
        with pytest.raises(StateSpaceTooLarge, match=f"more than {states - 1} "):
            exact_value_iteration(config, arrival_cap=cap, max_states=states - 1)
    sol = exact_value_iteration(_time_varying_config(), arrival_cap=1, max_states=want[2])
    assert _solution_bits(sol) == want
    with pytest.raises(StateSpaceTooLarge):
        exact_value_iteration(_time_varying_config(), arrival_cap=1, max_states=want[2] - 1)


def test_exact_solver_calls_feasible_mask_less_often_than_it_expands_states(monkeypatch):
    """Blocks are cached by what feasible_mask reads of the state, so a state
    whose blocks are all cached computes no mask."""
    calls = []

    def counted(config, state, vehicle):
        calls.append(vehicle)
        return feasible_mask(config, state, vehicle)

    monkeypatch.setattr(baselines, "feasible_mask", counted)
    sol = exact_value_iteration(_vi_instance(7), arrival_cap=1)
    assert 0 < len(calls) < sol.states


def test_exact_solver_takes_the_pass_unit_once_per_epoch(monkeypatch):
    """Pass changes nothing beyond the tick for any status, so the solver
    takes its unit from one checked transition per epoch, and each other
    unit, one status taking one atomic action, from one transition. On this
    instance (T = 2) the solver once took 52 transitions, 28 non-pass units
    and 24 Pass units, one per epoch and status; now it takes 30."""
    units = []

    def counted(config, state, action, arrivals):
        units.append((state.t, frozenset((c, a) for (c, a), n in action.counts.items()
                                         if n and a != PASS)))
        return sim.transition(config, state, action, arrivals)

    monkeypatch.setattr(baselines, "transition", counted)
    cfg = _vi_instance(7)
    exact_value_iteration(cfg, arrival_cap=1)
    passes = [t for t, moved in units if not moved]
    assert sorted(passes) == list(range(cfg.horizon_steps))
    assert all(len(moved) == 1 for _, moved in units if moved)
    assert len(set(units)) == len(units) == 30


def test_row_dtype_rule():
    """Rows are int8 while twice the largest count a state holds (the fleet,
    the admitted arrivals of one epoch, a charger count) fits in 127."""
    int8, int64 = np.dtype(np.int8), np.dtype(np.int64)
    assert _row_dtype(tiny_config(N=2), 2) == int8
    assert _row_dtype(tiny_config(N=2, chargers=63), 2) == int8
    assert _row_dtype(tiny_config(N=2, chargers=64), 2) == int64
    assert _row_dtype(tiny_config(N=63), 2) == int8
    assert _row_dtype(tiny_config(N=64), 2) == int64
    # a queue cell holds at most the arrival cap and the queue cap N(L_c + 1)
    assert _row_dtype(tiny_config(N=2), 1000) == int8
    assert _row_dtype(tiny_config(N=2, rates=()), 63) == int8
    # every instance test_04 draws runs on int8
    for seed in range(100):
        cfg = _vi_instance(seed)
        assert _row_dtype(cfg, 2 if cfg.fleet_size > 1 else 1) == int8


def test_exact_policy_is_a_lazy_read_only_mapping(monkeypatch):
    """The policy builds a state's fleet action only when it is looked up.
    Its keys, their order and its items are those of an eager table built
    from the solution's layers with SystemState.key(), and keys of states
    the solve never reached raise KeyError, counts int8 rows would wrap
    included."""
    builds = []

    def counted(counts):
        builds.append(counts)
        return FleetAction(counts)

    monkeypatch.setattr(baselines, "FleetAction", counted)
    cfg = _time_varying_config()
    sol = exact_value_iteration(cfg, arrival_cap=1)
    policy = sol.policy
    assert builds == []
    assert isinstance(policy, Mapping) and len(policy) == sol.states
    start = sim.initial_state(cfg)
    with pytest.raises(TypeError):
        policy[(0, start.key())] = policy[(0, start.key())]
    assert len(builds) == 1

    eager = {}
    for t, (states, comps, picks) in enumerate(policy._layers):
        for row, comp, j in zip(states, comps, picks):
            wide = np.frombuffer(row, dtype=np.int8).astype(np.int64)
            eager[(t, SystemState(t, *_row_arrays(wide, start)).key())] = _fleet_action(comp, j)
    assert list(policy) == list(eager)
    assert [(k, list(fa.counts.items())) for k, fa in policy.items()] == [
        (k, list(fa.counts.items())) for k, fa in eager.items()]

    wrapped = start.vehicles.copy()
    wrapped[start.vehicles > 0] += 256     # the start state's int8 row
    unreached = [(1, start.key()), (2, (2, *start.key()[1:])), (-1, (-1, *start.key()[1:])),
                 (0, (0, wrapped.tobytes(), *start.key()[2:])),
                 (0, (0, start.key()[1][:-8], start.key()[2] + bytes(8), start.key()[3])),
                 (0, start.key()[1:]), "start", None]
    for key in unreached:
        with pytest.raises(KeyError):
            policy[key]
        assert key not in policy


def test_joint_outcomes_are_a_distribution():
    cfg = tiny_config(V=3, T=2, seed=4)
    arrivals, probs = _joint_outcomes(cfg, 1, 2)
    assert arrivals.shape == (3 ** 6, 3, 3)
    assert probs.shape == (3 ** 6,)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    assert len({a.tobytes() for a in arrivals}) == len(arrivals)
    assert arrivals.min() == 0 and arrivals.max() == 2


def test_joint_outcomes_without_arrivals():
    cfg = tiny_config(V=2, T=2, lam_scale=0.0)
    arrivals, probs = _joint_outcomes(cfg, 0, 2)
    assert arrivals.shape == (1, 2, 2) and not arrivals.any()
    assert probs.tolist() == [1.0]


def test_exact_solver_raises_at_sweep_limit():
    cfg = tiny_config(V=2, T=2, N=1, B=2, J=1, L_p=0, L_c=0, tau=1,
                      lam_scale=0.6)
    with pytest.raises(ValueIterationNotConverged, match="3 sweeps"):
        exact_value_iteration(cfg, arrival_cap=2, max_iters=3)


# SHA-256 of the sorted-key JSON of sim.score_trajectory, per (scenario,
# policy, seed). The fluid entries follow the optimal vertex the simplex
# picks among tied ones, so they move whenever its pivot rounding does.
GOLDEN_TRAJECTORY_DIGESTS = {
    ("tiny", "fluid", 0):
        "6ce72e2f9234624c211a978bdb81592f8acf25cc983eb656e8f8160062fa20b1",
    ("tiny", "fluid", 1):
        "e2aac36904f283c7c28f389519e88dc7d3bb78bafd3cd0eb066dee03a646b9b4",
    ("tiny", "power-of-2", 0):
        "38321702e980de0468df403e04883d7e7fe618f6eef390fbb1186ca35b490ba9",
    ("tiny", "power-of-2", 1):
        "fa4de5a29a8e7754a7fb4fb8f04c5cce606f2e687b8fe3c6f1c6579660bed75b",
    ("two-region-commute", "fluid", 0):
        "b95fc44bb468b8567a716103643327aa9bc65733b79bad6d81ce93946f1b5e5a",
    ("two-region-commute", "fluid", 1):
        "72efe4b88fe4c540586a71890268aca4683a4a97f4fca5436048a206a391cf05",
    ("two-region-commute", "power-of-2", 0):
        "f37dacb22ed9e4266086d05bd2d5553b9bedfd2f5b6aee3f783df22cede46fa5",
    ("two-region-commute", "power-of-2", 1):
        "ddd500adae80a9f3a76058dff3e65582b1ab48fe62e86fae2cb18522381d520b",
}


def _one_thread_bound(scenario: str):
    """upper_bound solved in a child process on one OpenBLAS thread.

    Commute's LP has tied optimal vertices, and which one the simplex returns
    depends on how the BLAS thread count rounds the basis inverse; the child
    pins that count so the rounding policy is pinned on a fixed input."""
    code = ("import pickle, sys\n"
            "from fleetlab.fluid import upper_bound\n"
            "from fleetlab.scenarios import synth_scenario\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from conftest import tiny_config\n"
            "cfg = tiny_config() if sys.argv[2] == 'tiny' else synth_scenario(sys.argv[2], seed=0)\n"
            "sys.stdout.buffer.write(pickle.dumps(upper_bound(cfg)))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code, os.path.dirname(__file__), scenario],
                           env=env, capture_output=True, check=True)
    return pickle.loads(child.stdout)


@pytest.mark.parametrize("scenario", ["tiny", "two-region-commute"])
def test_trajectories_match_recorded_digests(scenario):
    config = tiny_config() if scenario == "tiny" else synth_scenario(scenario, seed=0)
    days = 4 if scenario == "tiny" else 2
    solution = _one_thread_bound(scenario)
    build = {"fluid": lambda: FluidRoundingPolicy(config, solution),
             "power-of-2": lambda: PowerOfKPolicy(config, k=2)}
    for (name, policy, seed), want in GOLDEN_TRAJECTORY_DIGESTS.items():
        if name != scenario:
            continue
        score = sim.score_trajectory(config, build[policy](), days, (seed, 3))
        got = hashlib.sha256(json.dumps(score, sort_keys=True).encode()).hexdigest()
        assert got == want, (policy, seed)


# exact_value_iteration's gain, iterations, reachable states, and SHA-256 of
# the sorted policy table: unichain _vi_instance draws at arrival cap 1, whose
# actions sum K = 4 arrival outcomes, and tiny_config(N=1) at cap 2, K = 9.
GOLDEN_VI = {
    7: (2.560693154701007, 57, 608,
        "4da03f7e94918e60471e8f88d46b912955d85bc19a4de1a8ff82903b2ca6998a"),
    20: (4.412605553068814, 30, 1152,
         "49165cb61e3ffa148bfd11f6c118ba041b4ac39521d93edc8e17ffe2302ef447"),
    "tiny N=1 cap 2": (6.321724052658164, 205, 3312,
                       "a1bd4887a7ec66850ad4d3d1af049f28e204e246b6208f0059b84c3893e3f9fb"),
}


def _golden_vi_input(key) -> tuple[NetworkConfig, int]:
    """The config and arrival cap GOLDEN_VI[key] was recorded from."""
    return (tiny_config(N=1), 2) if key == "tiny N=1 cap 2" else (_vi_instance(key), 1)


def _by_kind(fa) -> list:
    """The counts regrouped into the per-kind lists the digests were recorded
    from: fulfills by (status, trip), repositions by (status, region),
    charges by (status, rate) and passes by status, each sorted."""
    groups = {"fulfill": [], "reposition": [], "charge": [], "pass": []}
    for (c, a), n in fa.counts.items():
        key = {"fulfill": (c, a.trip), "reposition": (c, a.region),
               "charge": (c, a.rate), "pass": c}[a.kind]
        groups[a.kind].append((key, n))
    return [sorted(g) for g in groups.values()]


def _policy_digest(policy: dict) -> str:
    rows = sorted((t, key, _by_kind(fa)) for (t, key), fa in policy.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN_VI))
def test_exact_vi_matches_recorded_digests(monkeypatch, key):
    config, cap = _golden_vi_input(key)
    dtypes = _spy_row_dtypes(monkeypatch)
    sol = exact_value_iteration(config, arrival_cap=cap)
    assert dtypes == {np.dtype(np.int8)}
    assert sol.converged and sol.span <= 1e-8
    got = (sol.gain, sol.iterations, sol.states, _policy_digest(sol.policy))
    assert got == GOLDEN_VI[key]
