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
from .sim import admitted_arrivals, initial_state, transition


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
        groups = state.status_groups()
        pool = dict(groups)

        # serve queued orders, oldest first. Each origin keeps its dispatchable
        # statuses nearest first, and a status leaves once the pool runs out of
        # it. The copies of one trip status are tried in a row, and once one of
        # them finds no vehicle, neither can the rest.
        nearby: dict[int, list[VehicleStatus]] = defaultdict(list)
        for c, _ in groups:
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
        for c, _ in groups:
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


def _joint_outcomes(config: NetworkConfig, t: int, cap: int):
    """Every arrival matrix of epoch t, as a (K, V, V) stack, and the K
    probabilities. Each (origin, dest) pair with a positive rate draws
    independently from its Poisson law truncated to 0..cap and renormalized;
    the outcomes run over the pairs' counts in itertools.product order, pairs
    in array order. An epoch without arrivals has one all-zero outcome."""
    lam = config.arrival_rate[:, :, t]
    us, vs = np.nonzero(lam > 0.0)
    counts = np.array(list(itertools.product(range(cap + 1), repeat=len(us))), dtype=np.int64)
    arrivals = np.zeros((len(counts), config.num_regions, config.num_regions), dtype=np.int64)
    arrivals[:, us, vs] = counts
    probs = np.ones(len(counts))
    for i, rate in enumerate(lam[us, vs].tolist()):
        pmf = np.array([rate ** k / math.factorial(k) * math.exp(-rate)
                        for k in range(cap + 1)])
        pmf /= pmf.sum()
        probs *= pmf[counts[:, i]]
    return arrivals, probs


def _enumerate_fleet_actions(config: NetworkConfig, state: SystemState) -> list[FleetAction]:
    """Every feasible fleet action of ``state``, each multiset of atomic
    assignments once.

    Statuses go in array order. A status's n vehicles take every multiset of
    n of its candidates: Pass, then the indices feasible_mask allows on the
    epoch state, ascending. The statuses' multisets combine by
    itertools.product, and a combination is kept if it fits
    check_fleet_action's caps: no queued trip is fulfilled, and no (region,
    rate) charger taken, more often than the state holds it."""
    actions = action_table(config).actions
    # what a candidate draws on, as a position in one list of caps: a cell of
    # state.trips, or after them a (region, rate) cell of the free chargers
    trips = state.trips
    caps = trips.ravel().tolist() + state.chargers[:, :, 0].ravel().tolist()
    _, V, L = trips.shape

    def draws(c: VehicleStatus, a: AtomicAction):
        if a.kind == "fulfill":
            return (a.trip.origin * V + a.trip.dest) * L + a.trip.age
        if a.kind == "charge":
            return trips.size + c.dest * config.num_rates + config.rate_index(a.rate)
        return None

    def fits(uses: list) -> bool:
        return all(uses.count(r) <= caps[r] for r in set(uses))

    per_status = []
    for c, n in state.statuses():
        cands = [actions[-1]] + [actions[i] for i in
                                 np.flatnonzero(feasible_mask(config, state, c)[:-1]).tolist()]
        keys = [(c, a) for a in cands]
        use = [draws(c, a) for a in cands]
        # each multiset as its FleetAction.counts items and the cells it draws on
        per_status.append([
            ([(keys[k], combo.count(k)) for k in dict.fromkeys(combo)],
             [use[k] for k in combo if use[k] is not None])
            for combo in itertools.combinations_with_replacement(range(len(cands)), n)])
    return [FleetAction(dict(itertools.chain.from_iterable(items for items, _ in choice)))
            for choice in itertools.product(*per_status)
            if fits([r for _, uses in choice for r in uses])]


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
    if arrival_cap < 0:
        raise InvalidArgument(f"arrival_cap must be >= 0, got {arrival_cap}")
    T = config.horizon_steps
    # each layer's arrival outcomes: (K, V, V) counts and K probabilities
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
    while frontier:
        state = frontier.popleft()
        t = state.t
        arrivals, probs = outcomes[t]
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
            for k in range(len(probs)):
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
                branch_j.append(j)
            branch_p.append(probs)
            rewards.append(info.reward)
            fas.append(fa)
            branch_ptr.append(len(branch_j))
        state_ptr.append(len(rewards))
    compiled = [(np.array(rewards), np.concatenate(branch_p), np.array(branch_j, dtype=np.int64),
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
                # the first maximising action of each block, as np.argmax picks
                best = q == np.repeat(v_cur, np.diff(state_ptr))
                choices.append(np.minimum.reduceat(np.where(best, np.arange(q.size), q.size),
                                                   state_ptr[:-1]))
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
