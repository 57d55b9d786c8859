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
from typing import NamedTuple

import numpy as np

from .config import NetworkConfig
from .errors import (ContractViolation, InvalidArgument, StateSpaceTooLarge,
                     ValueIterationNotConverged)
from .model import (
    PASS,
    AtomicAction,
    FleetAction,
    SystemState,
    TripStatus,
    VehicleStatus,
    action_table,
    action_to_index,
    all_pass_action,
    charge,
    feasible_mask,
    fulfill,
    reposition,
)
from .sim import admitted_arrivals, initial_state, tick, transition


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


def _row_arrays(row: np.ndarray, like: SystemState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vehicles, trips and chargers arrays of a flat row that holds their
    cells side by side, each in C order, shaped as ``like``'s; views, so
    writing them writes the row."""
    nv, nt = like.vehicles.size, like.trips.size
    return (row[:nv].reshape(like.vehicles.shape), row[nv:nv + nt].reshape(like.trips.shape),
            row[nv + nt:].reshape(like.chargers.shape))


class _Block(NamedTuple):
    """Every multiset of one status's n vehicles over its candidates, in
    itertools.combinations_with_replacement order, as changes to the ticked
    state's row."""

    status: VehicleStatus
    cands: tuple[AtomicAction, ...]   # Pass, then what feasible_mask allows
    combos: list[tuple[int, ...]]     # each multiset as ascending candidate positions
    rows: np.ndarray                  # (multisets, cells): change to the ticked row
    uses: np.ndarray                  # (multisets, caps): queued trips and free chargers drawn
    terms: list[list[float]]          # each multiset's non-pass atomic rewards


def _fleet_action(blocks: tuple[_Block, ...], pick) -> FleetAction:
    """The fleet action taking multiset ``pick[i]`` of each ``blocks[i]``,
    its counts inserted status by status, candidates in order."""
    counts = {}
    for b, j in zip(blocks, pick):
        combo = b.combos[j]
        counts.update(((b.status, b.cands[k]), combo.count(k)) for k in dict.fromkeys(combo))
    return FleetAction(counts)


class _Expansion(NamedTuple):
    """A state's feasible fleet actions, in enumeration order."""

    rows: np.ndarray                  # (actions, cells): next state under zero arrivals
    rewards: list[float]              # each action's epoch_reward
    blocks: tuple[_Block, ...]        # one per occupied status, in array order
    picks: np.ndarray                 # (actions, statuses): each action's multiset per block


class _Expander:
    """Every feasible fleet action of a state, with its next state under zero
    arrivals, as a flat row (_row_arrays' layout), and its reward.

    Statuses go in array order. A status's n vehicles take every multiset of
    n of its candidates: Pass, then the indices feasible_mask allows on the
    state, ascending. The statuses' multisets combine in itertools.product
    order, and a combination is kept if it fits check_fleet_action's caps: no
    queued trip is fulfilled, and no (region, rate) charger taken, more often
    than the state holds it.

    A unit assignment, status c taking atomic action a at epoch t, changes
    the ticked state by an amount that does not depend on the rest of the
    state: transition's next state when every other vehicle passes, less
    the tick. That change, what the unit draws on and its reward are cached
    by (t, c, a). Each status's multisets, summed over their units, are
    cached by (t, c, n) and which of c's region's queues and free chargers
    are nonempty, all that feasible_mask reads of the state. A fleet
    action's row is then the state's tick plus one row of each status's
    block, and its reward the exactly rounded sum of its non-pass atomic
    rewards, as epoch_reward takes it."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.actions = action_table(config).actions
        self.zero_arrivals = np.zeros((config.num_regions, config.num_regions), dtype=np.int64)
        self.units: dict = {}
        self.blocks: dict = {}

    def expand(self, state: SystemState) -> _Expansion:
        base = np.zeros(state.vehicles.size + state.trips.size + state.chargers.size, np.int64)
        tick(state, *_row_arrays(base, state))
        blocks = tuple(self._block(state, base, c, n) for c, n in state.statuses())
        picks = np.indices([len(b.combos) for b in blocks]).reshape(len(blocks), -1)
        uses = sum(b.uses[p] for b, p in zip(blocks, picks))
        caps = np.concatenate((state.trips.ravel(), state.chargers[:, :, 0].ravel()))
        keep = (uses <= caps).all(axis=1)
        picks = picks[:, keep]
        rows = sum((b.rows[p] for b, p in zip(blocks, picks)), base)
        # the composed rows bypass transition's checks; the caps should keep
        # them from going negative, and this makes sure
        if rows.min() < 0:
            raise ContractViolation(f"a fleet action at epoch {state.t} leaves a negative count")
        picks = picks.T
        rewards = [math.fsum(itertools.chain.from_iterable(b.terms[j]
                                                           for b, j in zip(blocks, pick)))
                   for pick in picks.tolist()]
        return _Expansion(rows, rewards, blocks, picks)

    def _block(self, state: SystemState, base: np.ndarray, c: VehicleStatus, n: int) -> _Block:
        # with c present, feasible_mask reads only which of c's region's
        # queues and free chargers are nonempty
        u = c.dest
        key = (state.t, c, n, (state.trips[u] > 0).tobytes(),
               (state.chargers[u, :, 0] > 0).tobytes())
        block = self.blocks.get(key)
        if block is None:
            cands = (len(self.actions) - 1,) + tuple(
                np.flatnonzero(feasible_mask(self.config, state, c)[:-1]).tolist())
            units = [self._unit(state, base, c, i) for i in cands]
            combos = list(itertools.combinations_with_replacement(range(len(cands)), n))
            counts = np.array([[combo.count(k) for k in range(len(cands))] for combo in combos],
                              dtype=np.int64)
            block = self.blocks[key] = _Block(
                c, tuple(self.actions[i] for i in cands), combos,
                counts @ np.array([delta for delta, _, _ in units]),
                counts @ np.array([use for _, use, _ in units]),
                [[units[k][2] for k in combo if k] for combo in combos])   # k = 0 is Pass
        return block

    def _unit(self, state: SystemState, base: np.ndarray, c: VehicleStatus, i: int):
        key = (state.t, c, i)
        unit = self.units.get(key)
        if unit is None:
            a = self.actions[i]
            # every vehicle passes but one of status c, which takes a
            action = all_pass_action(self.config, state)
            action.counts[(c, PASS)] -= 1
            action.add_atomic(c, a)
            nxt, info = transition(self.config, state, action, self.zero_arrivals)
            delta = np.concatenate((nxt.vehicles.ravel(), nxt.trips.ravel(),
                                    nxt.chargers.ravel())) - base
            # what it draws on, as a cell of the caps: one of state.trips, or
            # after them a (region, rate) cell of the free chargers
            use = np.zeros(state.trips.size + state.chargers[:, :, 0].size, dtype=np.int64)
            if a.kind == "fulfill":
                use[np.ravel_multi_index(a.trip, state.trips.shape)] = 1
            elif a.kind == "charge":
                use[state.trips.size + c.dest * self.config.num_rates
                    + self.config.rate_index(a.rate)] = 1
            unit = self.units[key] = (delta, use, info.reward)
        return unit


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
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidArgument(f"tol must be finite and >= 0, got {tol}")
    if max_iters < 1:
        raise InvalidArgument(f"max_iters must be >= 1, got {max_iters}")
    if max_states < 1:
        raise InvalidArgument(f"max_states must be >= 1, got {max_states}")
    T, V = config.horizon_steps, config.num_regions
    # each layer's arrival outcomes: (K, V, V) counts and K probabilities
    outcomes = [_joint_outcomes(config, (t + 1) % T, arrival_cap) for t in range(T)]

    # breadth-first discovery of the reachable layered state space. States
    # are flat rows in _row_arrays' layout, keyed by their bytes, which are
    # SystemState.key()'s three byte strings end to end. A state's index is
    # its arrival order in its layer and the queue is first-in first-out, so
    # each layer's states are expanded in index order and their actions
    # append straight to the layer's flat lists: action rewards, the K
    # next-state indices of each action and the state -> actions offsets
    # (CSR), so that a sweep is pure vector work
    expander = _Expander(config)
    start = initial_state(config)
    start_row = np.concatenate((start.vehicles.ravel(), start.trips.ravel(),
                                start.chargers.ravel()))
    nv, nt = start.vehicles.size, start.trips.size
    L = config.connection_patience + 1
    age0 = nv + L * np.arange(V * V)               # the rows' age-0 trip cells
    row_key = np.dtype((np.void, start_row.nbytes))
    layers: list[dict] = [dict() for _ in range(T)]      # row bytes -> layer index
    layers[0][start_row.tobytes()] = 0
    frontier = deque([(0, start_row)])
    total = 1
    flat = [([], [], [0]) for _ in range(T)]       # rewards, next indices, state_ptr
    expanded = [[] for _ in range(T)]              # per state: its blocks and picks
    while frontier:
        t, row = frontier.popleft()
        exp = expander.expand(SystemState(t, *_row_arrays(row, start)))
        arrivals, probs = outcomes[t]
        A, K = len(exp.rewards), len(probs)
        # arrivals only fill the age-0 queues, which every action leaves empty
        carried = exp.rows[:, nv:nv + nt].reshape(A, V, V, L)[..., 1:].sum(axis=3)
        succ = np.repeat(exp.rows, K, axis=0)
        succ[:, age0] = admitted_arrivals(config, arrivals, carried[:, None]).reshape(A * K, -1)
        keys = succ.view(row_key).ravel().tolist()
        t_next = (t + 1) % T
        lay = layers[t_next]
        js = [lay.get(k) for k in keys]
        for i in [i for i, j in enumerate(js) if j is None]:
            j = lay.get(keys[i])
            if j is None:
                j = lay[keys[i]] = len(lay)
                frontier.append((t_next, succ[i].copy()))
                total += 1
                if total > max_states:
                    raise StateSpaceTooLarge(f"more than {max_states} reachable states")
            js[i] = j
        rewards, nexts, state_ptr = flat[t]
        rewards.extend(exp.rewards)
        nexts.extend(js)
        state_ptr.append(len(rewards))
        expanded[t].append((exp.blocks, exp.picks))
    # every action has exactly K branches, so a layer's next indices are one
    # (actions, K) array and its K probabilities are stored once
    compiled = []
    for (rewards, nexts, state_ptr), (_, probs) in zip(flat, outcomes):
        nexts = np.array(nexts, dtype=np.int64).reshape(-1, len(probs))
        compiled.append((np.array(rewards), probs, nexts, len(probs) * np.arange(len(nexts)),
                         np.array(state_ptr, dtype=np.int64)))

    def day_pass(v_next: np.ndarray, want_argmax: bool = False):
        choices = []
        for t in reversed(range(T)):
            rewards, probs, nexts, starts, state_ptr = compiled[t]
            # the K products of each action summed by reduceat: its bits
            # differ from a reshaped sum's or a matrix product's once K >= 4
            q = rewards + np.add.reduceat((v_next[nexts] * probs).ravel(), starts)
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
    # the policy maps (t, SystemState.key()) to the chosen FleetAction
    policy: dict = {}
    v_end, t_end = start_row.itemsize * nv, start_row.itemsize * (nv + nt)
    for t in range(T):
        first = compiled[t][4].tolist()
        for (blocks, picks), (key, i) in zip(expanded[t], layers[t].items()):
            fa = _fleet_action(blocks, picks[choices[t][i] - first[i]].tolist())
            policy[(t, (t, key[:v_end], key[v_end:t_end], key[t_end:]))] = fa
    return ExactSolution(gain=float(diffs[0]), span=residual, states=total, policy=policy,
                         iterations=it, gain_min=float(diffs.min()),
                         gain_max=float(diffs.max()), converged=True)
