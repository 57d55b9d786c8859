"""Benchmark dispatch policies and an exact small-instance solver.

The power-of-k heuristic is trip-centric: each queued order, oldest first,
looks at the k nearest (smallest remaining time) vehicles in its origin
region and takes the highest-battery one that can afford the trip. Idle
leftovers plug into free chargers, and vehicles stranded in charger-less
regions head for the nearest region that has chargers.

exact_value_iteration enumerates the full (truncated-arrival) state space of
a tiny instance and runs relative value iteration on the one-day Bellman
operator, giving the optimal average daily reward used as a ground-truth
comparison point for the fluid bound. Instances may be multichain: a vehicle
stranded with an empty battery in a region without chargers earns nothing
for ever, so day-start states can have different gains. The day increment
v_{n+1} - v_n converges pointwise to each state's gain (Puterman 1994,
ch. 9), so the sweeps stop once no increment moves by more than ``tol``
between two sweeps. The solution reports the start state's gain, the range
of per-state gains (``gain_min``, ``gain_max``) and that last movement
(``span``); reaching ``max_iters`` first raises ValueIterationNotConverged.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .errors import InvalidArgument, StateSpaceTooLarge, ValueIterationNotConverged
from .model import (
    PASS,
    AtomicAction,
    FleetAction,
    SystemState,
    TripStatus,
    VehicleStatus,
    action_table,
    action_to_index,
    charge,
    feasible_mask,
    fulfill,
    reposition,
)
from .sim import WorkingState, admitted_arrivals, initial_state, transition


class AlwaysPassPolicy:
    def act(self, config, work, vehicle, mask, rng):
        return action_to_index(config, PASS)


class RandomFeasiblePolicy:
    """Uniform over the feasible atomic actions at every step."""

    def act(self, config, work, vehicle, mask, rng):
        choices = np.nonzero(mask)[0]
        return int(choices[rng.integers(choices.size)])


class IntentQueuePolicy:
    """Shared plumbing: begin_epoch fills per-status intent queues; act pops
    intents for the acting vehicle's exact status until one is feasible and
    returns its index, or Pass's once the queue is empty."""

    def __init__(self):
        self.intents: defaultdict[VehicleStatus, deque[AtomicAction]] = defaultdict(deque)

    def _candidates(self, work, vehicle: VehicleStatus,
                    intent: AtomicAction) -> tuple[AtomicAction, ...]:
        """Atomic actions one popped intent stands for, in the order tried."""
        return (intent,)

    def act(self, config, work, vehicle, mask, rng):
        queue = self.intents.get(vehicle)
        while queue:
            for cand in self._candidates(work, vehicle, queue.popleft()):
                idx = action_to_index(config, cand)
                if mask[idx]:
                    return idx
        return action_to_index(config, PASS)


class PowerOfKPolicy(IntentQueuePolicy):
    def __init__(self, config: NetworkConfig, k: int = 2):
        super().__init__()
        if k < 1:
            raise InvalidArgument("k must be >= 1")
        self.k = k
        self.charger_regions = [
            v for v in range(config.num_regions) if config.charger_counts[v].sum() > 0
        ]
        # rate indices, fastest rate first
        self.rate_order = [int(ri) for ri in np.argsort(config.charge_rates)[::-1]]

    def begin_epoch(self, config, state, rng):
        self.intents = defaultdict(deque)
        t = state.t
        pool = dict(state.statuses())

        # serve queued orders, oldest first. Each origin keeps its dispatchable
        # statuses nearest first, and a status leaves once the pool runs out of
        # it. The copies of one trip status are tried in a row, and once one of
        # them finds no vehicle, neither can the rest.
        nearby: dict[int, list[VehicleStatus]] = defaultdict(list)
        for c in sorted(pool, key=lambda c: (c.eta, -c.battery, c.dest)):
            if c.eta <= config.pickup_patience:
                nearby[c.dest].append(c)
        us, vs, ages = (a.tolist() for a in np.nonzero(state.trips))
        queued = sorted(map(TripStatus, us, vs, ages), key=lambda o: (-o.age, o.origin, o.dest))
        for o in queued:
            near = nearby[o.origin]
            need = int(config.battery_cost[o.origin, o.dest])
            for _ in range(int(state.trips[o.origin, o.dest, o.age])):
                window = sorted(near[: self.k], key=lambda c: (-c.battery, c.eta))
                c = next((c for c in window if c.battery >= need), None)
                if c is None:
                    break
                self.intents[c].append(fulfill(o))
                pool[c] -= 1
                if not pool[c]:
                    near.remove(c)

        # idle leftovers: charge if possible, fastest rate first, else chase
        # the nearest chargers
        free = state.chargers[:, :, 0].tolist()
        for c in sorted(pool, key=lambda c: (c.eta, -c.battery, c.dest)):
            n = pool[c]
            if c.eta != 0 or not n:
                continue
            if c.battery < config.battery_capacity:
                for ri in self.rate_order:
                    take = min(n, free[c.dest][ri])
                    self.intents[c].extend([charge(config.charge_rates[ri])] * take)
                    free[c.dest][ri] -= take
                    n -= take
            if n and c.dest not in self.charger_regions and self.charger_regions:
                dest = min(
                    self.charger_regions,
                    key=lambda v: (int(config.trip_duration[c.dest, v, t]), v))
                if dest != c.dest and c.battery >= config.battery_cost[c.dest, dest]:
                    self.intents[c].extend([reposition(dest)] * n)


# -- exact solution of tiny instances --------------------------------------------


def _arrival_distributions(config: NetworkConfig, t: int, cap: int):
    """Independent per-pair renormalized-Poisson arrival counts for epoch t."""
    pairs = []
    for u in range(config.num_regions):
        for v in range(config.num_regions):
            lam = float(config.arrival_rate[u, v, t])
            if lam <= 0.0:
                continue
            pmf = np.array([lam ** k / math.factorial(k) * math.exp(-lam)
                            for k in range(cap + 1)])
            pmf /= pmf.sum()
            pairs.append((u, v, pmf))
    return pairs


def _joint_outcomes(config: NetworkConfig, t: int, cap: int):
    """All arrival matrices for epoch t with their probabilities."""
    pairs = _arrival_distributions(config, t, cap)
    V = config.num_regions
    outcomes = []
    for counts in itertools.product(*[range(len(p[2])) for p in pairs]):
        arr = np.zeros((V, V), dtype=np.int64)
        prob = 1.0
        for (u, v, pmf), k in zip(pairs, counts):
            arr[u, v] = k
            prob *= pmf[k]
        outcomes.append((arr, prob))
    return outcomes if outcomes else [(np.zeros((V, V), dtype=np.int64), 1.0)]


def _enumerate_fleet_actions(config: NetworkConfig, state: SystemState):
    """All feasible joint assignments, deduplicated over identical vehicles.

    Vehicles are assigned one at a time, as in sim.run_epoch: each takes its
    candidates from what the vehicles before it left. Vehicles of one status
    take candidates in non-decreasing rank (Pass first as rank -1, then by
    action index), so each multiset of actions appears once. feasible_mask
    runs once per status; each further unit of it keeps the candidates from
    the rank before it on, less that rank if its commit used up the last
    queued trip or free charger it drew on (see sim.run_epoch)."""
    actions = action_table(config).actions
    units = [c for c, n in state.statuses() for _ in range(n)]
    results: list[FleetAction] = []

    def recurse(i: int, work: WorkingState, acc, ranks: list[int]):
        if i == len(units):
            fa = FleetAction.empty()
            for c, a in acc:
                fa.add_atomic(c, a)
            results.append(fa)
            return
        c = units[i]
        if i == 0 or units[i - 1] != c:
            ranks = [-1] + np.flatnonzero(feasible_mask(config, work, c)[:-1]).tolist()
        for k, rank in enumerate(ranks):
            nxt = WorkingState(work)
            used_up = nxt.commit(config, c, actions[rank])
            recurse(i + 1, nxt, acc + [(c, actions[rank])],
                    ranks[k + 1:] if used_up else ranks[k:])

    recurse(0, WorkingState(state), [], [])
    return results


@dataclass
class ExactSolution:
    gain: float                     # optimal average daily reward from the start state
    span: float                     # stopping residual: last max change of the day increments
    states: int
    policy: dict                    # (t, state key) -> FleetAction
    iterations: int                 # day sweeps run
    gain_min: float                 # smallest per-state gain over day-start states
    gain_max: float                 # largest per-state gain over day-start states
    converged: bool                 # span <= tol


def exact_value_iteration(config: NetworkConfig, arrival_cap: int = 2,
                          tol: float = 1e-8, max_states: int = 2_000_000,
                          max_iters: int = 100_000) -> ExactSolution:
    """Optimal gain of the truncated-arrival instance by relative value
    iteration on the one-day backward-induction operator, stopped once the
    day increments move by at most ``tol`` from one sweep to the next.
    Raises ValueIterationNotConverged after ``max_iters`` sweeps without
    that."""
    T = config.horizon_steps
    outcomes = [_joint_outcomes(config, (t + 1) % T, arrival_cap) for t in range(T)]

    # breadth-first discovery of the reachable layered state space. A state's
    # index is its arrival order in its layer and the queue is first-in
    # first-out, so each layer's states are expanded in index order and their
    # actions append straight to the layer's flat arrays: action rewards and
    # FleetActions, branch probabilities and next-state indices, and the
    # action -> branches and state -> actions offsets (CSR), so that a sweep
    # is pure vector work
    layers: list[dict] = [dict() for _ in range(T)]      # key -> layer index
    start = initial_state(config)
    frontier = deque([start])
    layers[0][start.key()] = 0
    total = 1
    flat = [([], [], [], [], [0], [0]) for _ in range(T)]
    zero_arr = np.zeros((config.num_regions, config.num_regions), dtype=np.int64)
    # each layer's arrival outcomes stacked once: (K, V, V) counts, K probabilities
    arrival_stacks = [np.stack([arr for arr, _ in outs]) for outs in outcomes]
    arrival_probs = [[p for _, p in outs] for outs in outcomes]
    while frontier:
        state = frontier.popleft()
        t = state.t
        arrivals, probs = arrival_stacks[t], arrival_probs[t]
        rewards, fas, branch_p, branch_j, branch_ptr, state_ptr = flat[t]
        for fa in _enumerate_fleet_actions(config, state):
            # arrivals only fill the age-0 queue: apply the action once under
            # zero arrivals, then graft every arrival outcome onto the result
            base, info = transition(config, state, fa, zero_arr, validate=False)
            trips = np.repeat(base.trips[None], len(probs), axis=0)
            trips[:, :, :, 0] = admitted_arrivals(config, arrivals, base.trips.sum(axis=2))
            # the branch keys are SystemState.key() of each outcome's state
            t_next = base.t
            vehicles_bytes = base.vehicles.tobytes()
            chargers_bytes = base.chargers.tobytes()
            lay = layers[t_next]
            for k, p in enumerate(probs):
                key = (t_next, vehicles_bytes, trips[k].tobytes(), chargers_bytes)
                j = lay.get(key)
                if j is None:
                    j = lay[key] = len(lay)
                    frontier.append(SystemState(t_next, base.vehicles, trips[k].copy(),
                                                base.chargers))
                    total += 1
                    if total > max_states:
                        raise StateSpaceTooLarge(
                            f"more than {max_states} reachable states")
                branch_p.append(p)
                branch_j.append(j)
            rewards.append(info.reward)
            fas.append(fa)
            branch_ptr.append(len(branch_p))
        state_ptr.append(len(rewards))
    compiled = [(np.array(rewards), np.array(branch_p), np.array(branch_j, dtype=np.int64),
                 np.array(branch_ptr, dtype=np.int64), np.array(state_ptr, dtype=np.int64), fas)
                for rewards, fas, branch_p, branch_j, branch_ptr, state_ptr in flat]

    def day_pass(v_next: np.ndarray, want_argmax: bool = False):
        choices = []
        for t in reversed(range(T)):
            rewards, probs, nexts, branch_ptr, state_ptr, _ = compiled[t]
            q = rewards + np.add.reduceat(probs * v_next[nexts], branch_ptr[:-1])
            # maximum per state over its contiguous action block
            v_cur = np.maximum.reduceat(q, state_ptr[:-1])
            if want_argmax:
                arg = np.empty(len(state_ptr) - 1, dtype=np.int64)
                for i in range(len(arg)):
                    blk = q[state_ptr[i]:state_ptr[i + 1]]
                    arg[i] = state_ptr[i] + int(np.argmax(blk))
                choices.append(arg)
            v_next = v_cur
        choices.reverse()
        return (v_next, choices) if want_argmax else v_next

    # h = v - v[0], so diffs = T(h) - h is the un-normalised day increment
    # v_{n+1} - v_n; it converges pointwise to each state's gain, whether or
    # not the instance is unichain
    h = np.zeros(len(layers[0]))
    diffs = None
    residual = math.inf
    it = 0
    while residual > tol:
        if it == max_iters:
            raise ValueIterationNotConverged(
                f"value iteration did not converge in {max_iters} sweeps: "
                f"day increments still move by {residual:.4g} > tol {tol:g}")
        it += 1
        v = day_pass(h)
        prev, diffs = diffs, v - h
        if prev is not None:
            residual = float(np.abs(diffs - prev).max())
        h = v - v[0]
    _, choices = day_pass(h, want_argmax=True)
    policy: dict = {}
    for t in range(T):
        fas = compiled[t][5]
        for key, i in layers[t].items():
            policy[(t, key)] = fas[choices[t][i]]
    return ExactSolution(gain=float(diffs[0]), span=residual, states=total, policy=policy,
                         iterations=it, gain_min=float(diffs.min()),
                         gain_max=float(diffs.max()), converged=True)
