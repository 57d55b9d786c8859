"""Benchmark dispatch policies and an exact small-instance solver.

The power-of-k heuristic is trip-centric: each queued order, oldest first,
looks at the k nearest (smallest remaining time) vehicles in its origin
region and takes the highest-battery one that can afford the trip. Idle
leftovers plug into free chargers, and vehicles stranded in charger-less
regions head for the nearest region that has chargers.

exact_value_iteration enumerates the full (truncated-arrival) state space of
a tiny instance and runs relative value iteration on the one-day Bellman
operator, giving the optimal average daily reward used as a ground-truth
comparison point for the fluid bound. It discovers the states one
breadth-first depth at a time, in chunks of array work bounded by
_CHUNK_ROWS candidate successor rows, in the order a first-in first-out
queue of single states would. An action's successors depend only on its
post-decision state (its next state before arrivals), so each sweep sums the
K arrival outcomes once per post-decision state, and each action reads its
post-decision state's expected value. Instances may be multichain: a vehicle
stranded with an empty battery in a region without chargers earns nothing
for ever, so day-start states can have different gains. The day increment
v_{n+1} - v_n converges pointwise to each state's gain (Puterman 1994,
ch. 9), so the sweeps stop once no increment moves by more than ``tol``
between two sweeps. The solution reports the start state's gain, the range
of per-state gains (``gain_min``, ``gain_max``), that last movement
(``span``) and the argmax policy, which builds a state's fleet action when
it is looked up; reaching ``max_iters`` first raises
ValueIterationNotConverged.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import NetworkConfig
from .errors import (ContractViolation, StateSpaceTooLarge, ValueIterationNotConverged,
                     require_int, require_real)
from .model import (
    PASS,
    AtomicAction,
    FleetAction,
    SystemState,
    TripStatus,
    VehicleStatus,
    action_table,
    all_pass_action,
    feasible_mask,
)
from .sim import admitted_arrivals, initial_state, tick, transition


class AlwaysPassPolicy:
    def act(self, config, work, vehicle, mask, rng):
        return len(mask) - 1                          # Pass, the table's last row


class RandomFeasiblePolicy:
    """Uniform over the feasible atomic actions at every step."""

    def act(self, config, work, vehicle, mask, rng):
        choices = np.nonzero(mask)[0]
        return int(choices[rng.integers(choices.size)])


class IntentQueuePolicy:
    """Shared plumbing: begin_epoch fills per-status queues of intents, each
    an index into ``action_table(config)``; act pops intents for the acting
    vehicle's exact status until the mask allows one and returns it, or
    Pass's, the table's last row, once the queue is empty."""

    def __init__(self, config: NetworkConfig):
        self.table = action_table(config)
        self.intents: defaultdict[VehicleStatus, deque[int]] = defaultdict(deque)

    def _candidates(self, work, vehicle: VehicleStatus, intent: int) -> tuple[int, ...]:
        """Action indices one popped intent stands for, in the order tried."""
        return (intent,)

    def act(self, config, work, vehicle, mask, rng):
        queue = self.intents.get(vehicle)
        while queue:
            for idx in self._candidates(work, vehicle, queue.popleft()):
                if mask[idx]:
                    return idx
        return len(mask) - 1


class PowerOfKPolicy(IntentQueuePolicy):
    def __init__(self, config: NetworkConfig, k: int = 2):
        super().__init__(config)
        require_int("k", k, 1)
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
        lists, table = config.lists, self.table
        us, vs, ages = (a.tolist() for a in np.nonzero(state.trips))
        queued = sorted(map(TripStatus, us, vs, ages), key=lambda o: (-o.age, o.origin, o.dest))
        for o in queued:
            near = nearby[o.origin]
            need = lists.battery_cost[o.origin][o.dest]
            serve = table.fulfill_at[o.origin][o.dest] + o.age
            for _ in range(int(state.trips[o.origin, o.dest, o.age])):
                window = sorted(near[: self.k], key=lambda c: (-c.battery, c.eta))
                c = next((c for c in window if c.battery >= need), None)
                if c is None:
                    break
                self.intents[c].append(serve)
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
                    self.intents[c].extend([table.charge_at[ri]] * take)
                    free[c.dest][ri] -= take
                    n -= take
            if n and c.dest not in self.charger_regions and self.charger_regions:
                duration = lists.trip_duration[c.dest]
                dest = min(self.charger_regions, key=lambda v: (duration[v][t], v))
                if c.battery >= lists.battery_cost[c.dest][dest]:
                    self.intents[c].extend([table.reposition_at[dest]] * n)


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


def _row_arrays(rows: np.ndarray, like: SystemState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vehicles, trips and chargers arrays of flat rows that hold their
    cells side by side, each in C order, shaped as ``like``'s after the rows'
    leading axes; views, so writing them writes the rows."""
    nv, nt = like.vehicles.size, like.trips.size
    lead = rows.shape[:-1]
    return (rows[..., :nv].reshape(*lead, *like.vehicles.shape),
            rows[..., nv:nv + nt].reshape(*lead, *like.trips.shape),
            rows[..., nv + nt:].reshape(*lead, *like.chargers.shape))


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


class _Composition(NamedTuple):
    """Every combination of one multiset per block of a state's signature, in
    itertools.product order over the blocks, summed over its blocks."""

    blocks: tuple[_Block, ...]        # one per occupied status, in array order
    picks: list[list[int]]            # each combination's multiset per block
    rows: np.ndarray                  # (combinations, cells): change to the ticked row
    uses: np.ndarray                  # (combinations, caps)
    rewards: np.ndarray               # each combination's epoch_reward


def _fleet_action(comp: _Composition, j: int) -> FleetAction:
    """The fleet action of combination ``j`` of ``comp``, its counts
    inserted status by status, candidates in order."""
    counts = {}
    for b, k in zip(comp.blocks, comp.picks[j]):
        combo = b.combos[k]
        counts.update(((b.status, b.cands[m]), combo.count(m)) for m in dict.fromkeys(combo))
    return FleetAction(counts)


class _Expansion(NamedTuple):
    """The feasible fleet actions of a stack of states, state by state, each
    state's in enumeration order."""

    rows: np.ndarray                  # (actions, cells): next state under zero arrivals
    rewards: np.ndarray               # (actions,): each action's epoch_reward
    sizes: np.ndarray                 # (states,): each state's action count
    picks: np.ndarray                 # (actions,): its combination in its state's composition


class _Expander:
    """Every feasible fleet action of each of a stack of states of one epoch,
    with its next state under zero arrivals, as a flat row (_row_arrays'
    layout), and its reward.

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
    by (t, c, a), and Pass's, all zero, by t alone. Each status's
    multisets, summed over their units, are cached by (t, c, n) and which of
    c's region's queues and free chargers are nonempty, all that
    feasible_mask reads of the state: the chargers only while c is idle, and
    neither once c is past the pickup patience. A state's signature is the
    tuple of those keys, one per status. Its composition, every combination
    of its blocks' multisets with the summed rows and uses and the exactly
    rounded sum of the non-pass atomic rewards (as epoch_reward takes it), is
    cached by (t, signature). The rows and uses take the dtype of the stack
    given to ``compose``.

    ``compose`` ticks a whole stack at once and finds each state's
    composition by dict lookups alone; ``expand`` adds a stack's
    compositions to its ticked rows and keeps each state's combinations
    within its caps, in a few array operations for the whole stack."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.actions = action_table(config).actions
        self.like = initial_state(config)
        self.zero_arrivals = np.zeros((config.num_regions, config.num_regions), dtype=np.int64)
        self.units: dict = {}
        self.blocks: dict = {}
        self.compositions: defaultdict[int, dict] = defaultdict(dict)   # t -> signature -> _Composition

    def compose(self, t: int, rows: np.ndarray) -> tuple[np.ndarray, list[_Composition]]:
        """The ticked rows of the (states, cells) stack ``rows`` at epoch t,
        and each state's composition."""
        src = _row_arrays(rows, self.like)
        ticked = np.zeros_like(rows)
        tick(src, _row_arrays(ticked, self.like))
        vehicles, trips, chargers = src
        S, V = len(rows), self.config.num_regions
        s, v, e, b = np.nonzero(vehicles)
        # which queues from each status's region and free chargers in it are
        # nonempty, as one byte string, less what feasible_mask does not read
        # for that status: chargers once it is busy, everything once it is
        # past the pickup patience
        queued = trips.reshape(S, V, -1) > 0
        pattern = np.concatenate((queued, chargers[..., 0] > 0), axis=2)[s, v]
        pattern[e > 0, queued.shape[2]:] = False
        pattern[e > self.config.pickup_patience] = False
        keys = list(zip(v.tolist(), e.tolist(), b.tolist(), vehicles[s, v, e, b].tolist(),
                        pattern.view(np.dtype((np.void, pattern.shape[1])))[:, 0].tolist()))
        bounds = np.searchsorted(s, np.arange(S + 1)).tolist()
        sigs = [tuple(keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        cache = self.compositions[t]
        for i, sig in enumerate(sigs):
            if sig not in cache:
                state = SystemState(t, *_row_arrays(rows[i].astype(np.int64), self.like))
                cache[sig] = self._compose(state, ticked[i], sig)
        return ticked, [cache[sig] for sig in sigs]

    def expand(self, rows: np.ndarray, ticked: np.ndarray,
               comps: list[_Composition]) -> _Expansion:
        """The feasible fleet actions of the stacked states ``rows``, given
        their ticked rows and compositions from ``compose``."""
        counts = [len(c.rewards) for c in comps]
        starts = np.cumsum(counts) - counts
        _, trips, chargers = _row_arrays(rows, self.like)
        S = len(rows)
        caps = np.concatenate((trips.reshape(S, -1), chargers[..., 0].reshape(S, -1)), axis=1)
        keep = (np.concatenate([c.uses for c in comps])
                <= np.repeat(caps, counts, axis=0)).all(axis=1)
        nexts = (np.repeat(ticked, counts, axis=0) + np.concatenate([c.rows for c in comps]))[keep]
        # the composed rows bypass transition's checks; the caps should keep
        # them from going negative, and this makes sure
        if nexts.min() < 0:
            raise ContractViolation("a composed fleet action leaves a negative count")
        picks = np.arange(len(keep)) - np.repeat(starts, counts)
        return _Expansion(nexts, np.concatenate([c.rewards for c in comps])[keep],
                          np.add.reduceat(keep, starts, dtype=np.int64), picks[keep])

    def _compose(self, state: SystemState, base: np.ndarray, sig: tuple) -> _Composition:
        blocks = tuple(self._block(state, base, key) for key in sig)
        # broadcast sums over the blocks, the last block varying fastest
        rows, uses = blocks[0].rows, blocks[0].uses
        for b in blocks[1:]:
            rows = (rows[:, None] + b.rows).reshape(-1, rows.shape[1])
            uses = (uses[:, None] + b.uses).reshape(-1, uses.shape[1])
        picks = list(itertools.product(*(range(len(b.combos)) for b in blocks)))
        rewards = np.array([math.fsum(itertools.chain.from_iterable(
            b.terms[j] for b, j in zip(blocks, pick))) for pick in picks])
        return _Composition(blocks, picks, rows, uses, rewards)

    def _block(self, state: SystemState, base: np.ndarray, key: tuple) -> _Block:
        block = self.blocks.get((state.t, key))
        if block is None:
            c, n = VehicleStatus(*key[:3]), key[3]
            cands = (len(self.actions) - 1,) + tuple(
                np.flatnonzero(feasible_mask(self.config, state, c)[:-1]).tolist())
            units = [self._unit(state, base, c, i) for i in cands]
            combos = list(itertools.combinations_with_replacement(range(len(cands)), n))
            counts = np.array([[combo.count(k) for k in range(len(cands))] for combo in combos],
                              dtype=np.int64)
            block = self.blocks[(state.t, key)] = _Block(
                c, tuple(self.actions[i] for i in cands), combos,
                (counts @ np.array([delta for delta, _, _ in units])).astype(base.dtype),
                (counts @ np.array([use for _, use, _ in units])).astype(base.dtype),
                [[units[k][2] for k in combo if k] for combo in combos])   # k = 0 is Pass
        return block

    def _unit(self, state: SystemState, base: np.ndarray, c: VehicleStatus, i: int):
        # Pass changes nothing beyond the tick and draws on nothing, whatever
        # the status, so its unit is cached by the epoch alone
        key = (state.t, i) if self.actions[i] == PASS else (state.t, c, i)
        unit = self.units.get(key)
        if unit is None:
            a = self.actions[i]
            # every vehicle passes but one of status c, which takes a
            action = all_pass_action(state)
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


# candidate successor rows (fleet actions times arrival outcomes) a chunk of
# state discovery holds: a chunk takes the next states of a BFS depth while
# theirs fit, and at least one state
_CHUNK_ROWS = 1 << 14


def _row_dtype(config: NetworkConfig, arrival_cap: int) -> np.dtype:
    """The dtype of discovery's flat rows: int8 when twice the largest count
    a state can hold fits it, so that no sum of a ticked row and a
    composition (whose cells move at most N vehicles) wraps, else int64. A
    cell holds at most the fleet, a queue cell the arrivals admitted in one
    epoch, and a charger cell its (region, rate)'s charger count."""
    most = max(config.fleet_size, min(arrival_cap, config.trip_cap),
               int(config.charger_counts.max(initial=0)))
    return np.dtype(np.int8 if 2 * most <= np.iinfo(np.int8).max else np.int64)


class _Layer:
    """What discovery records of one epoch's states, appended chunk by chunk
    in state index order."""

    def __init__(self):
        self.states: dict = {}          # state row bytes -> index
        # next state before arrivals (post-decision row) bytes -> index into post_nexts
        self.posts: dict = {}
        self.post_nexts: list = []      # (posts, K) next-state indices
        self.post_ids: list = []        # per action: its post-decision row
        self.rewards: list = []         # per action
        self.picks: list = []           # per action: _Expansion.picks
        self.sizes: list = []           # per state: its action count
        self.comps: list = []           # per state: its composition


class _Policy(Mapping):
    """A solve's argmax policy, read only: (t, SystemState.key()) -> the
    chosen FleetAction, each epoch's states in discovery order. It keeps
    each layer's state dict, the states' compositions and chosen
    combinations, and builds a state's FleetAction with _fleet_action when
    it is looked up. The state dicts key the solve's rows, so keys are
    translated from and to key()'s int64 bytes."""

    def __init__(self, layers: list, like: SystemState, dtype: np.dtype):
        self._layers = layers   # per epoch: (row bytes -> index, compositions, combinations)
        self._widths = [a.nbytes for a in (like.vehicles, like.trips, like.chargers)]
        self._dtype = dtype

    def _index(self, key) -> tuple[int, int]:
        """The epoch and index of the state ``key`` names; KeyError if none."""
        try:
            t, (t_state, *arrays) = key
            if (t == t_state and 0 <= t < len(self._layers)
                    and [len(a) for a in arrays] == self._widths):
                wide = np.frombuffer(b"".join(arrays), dtype=np.int64)
                row = wide.astype(self._dtype)
                i = self._layers[t][0].get(row.tobytes())
                # a count the dtype cannot hold wraps round to another count
                if i is not None and (row == wide).all():
                    return t, i
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __getitem__(self, key) -> FleetAction:
        t, i = self._index(key)
        _, comps, picks = self._layers[t]
        return _fleet_action(comps[i], int(picks[i]))

    def __iter__(self):
        v_end = self._widths[0]
        t_end = v_end + self._widths[1]
        for t, (states, _, _) in enumerate(self._layers):
            for row in states:
                wide = np.frombuffer(row, dtype=self._dtype).astype(np.int64).tobytes()
                yield t, (t, wide[:v_end], wide[v_end:t_end], wide[t_end:])

    def __len__(self) -> int:
        return sum(len(states) for states, _, _ in self._layers)


@dataclass
class ExactSolution:
    gain: float                     # optimal average daily reward from the start state
    span: float                     # last max change of the day increments between two
                                    # sweeps, not a bound on the gains' error
    states: int
    policy: Mapping                 # (t, SystemState.key()) -> FleetAction, built on lookup
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
    require_int("arrival_cap", arrival_cap, 0)
    require_int("max_iters", max_iters, 1)
    require_int("max_states", max_states, 1)
    require_real("tol", tol, 0)
    T, V = config.horizon_steps, config.num_regions
    # each layer's arrival outcomes: (K, V, V) counts and K probabilities
    outcomes = [_joint_outcomes(config, (t + 1) % T, arrival_cap) for t in range(T)]

    # breadth-first discovery of the reachable layered state space, one BFS
    # depth at a time. States are flat rows in _row_arrays' layout and
    # _row_dtype's dtype, keyed by their bytes. A state's index is its
    # arrival order in its layer, and the depths go in order, each one's
    # states in index order and each state's actions and arrival outcomes in
    # enumeration order: the order of a first-in first-out queue of single
    # states. An action's K successors are its post-decision row (its next
    # state before arrivals) with each outcome's admitted orders in the age-0
    # queues, which depend on that row alone. So a post-decision row is keyed
    # once, with its K successors, the first time an action reaches it; a
    # later action that reaches it takes their indices, none of which can be
    # new by then
    expander = _Expander(config)
    start = expander.like
    dtype = _row_dtype(config, arrival_cap)
    start_row = np.concatenate((start.vehicles.ravel(), start.trips.ravel(),
                                start.chargers.ravel())).astype(dtype)
    nv, nt = start.vehicles.size, start.trips.size
    L = config.connection_patience + 1
    age0 = nv + L * np.arange(V * V)               # the rows' age-0 trip cells
    row_key = np.dtype((np.void, start_row.nbytes))
    found = [_Layer() for _ in range(T)]
    found[0].states[start_row.tobytes()] = 0
    total, t, frontier = 1, 0, start_row[None]
    while len(frontier):
        ticked, comps = expander.compose(t, frontier)
        arrivals, probs = outcomes[t]
        K = len(probs)
        layer, succ_layer = found[t], found[(t + 1) % T]
        posts, states = layer.posts, succ_layer.states
        # candidate successor rows before each state
        before = np.cumsum([0] + [K * len(c.rewards) for c in comps])
        new_rows = []
        lo = 0
        while lo < len(frontier):
            hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _CHUNK_ROWS, "right")) - 1)
            exp = expander.expand(frontier[lo:hi], ticked[lo:hi], comps[lo:hi])
            n_posts = len(posts)
            ids = np.array([posts.setdefault(k, len(posts))
                            for k in exp.rows.view(row_key).ravel().tolist()])
            if len(posts) > n_posts:
                # the new post-decision rows, in order of first appearance
                _, first = np.unique(ids, return_index=True)
                fresh = exp.rows[first[n_posts - len(posts):]]
                carried = fresh[:, nv:nv + nt].reshape(-1, V, V, L)[..., 1:].sum(axis=3)
                succ = np.repeat(fresh, K, axis=0)
                succ[:, age0] = admitted_arrivals(config, arrivals,
                                                  carried[:, None]).reshape(len(succ), -1)
                n_states = len(states)
                js = np.array([states.setdefault(k, len(states))
                               for k in succ.view(row_key).ravel().tolist()])
                layer.post_nexts.append(js.reshape(-1, K))
                if len(states) > n_states:
                    total += len(states) - n_states
                    if total > max_states:
                        raise StateSpaceTooLarge(f"more than {max_states} reachable states")
                    _, first = np.unique(js, return_index=True)
                    new_rows.append(succ[first[n_states - len(states):]])
            layer.post_ids.append(ids)
            layer.rewards.append(exp.rewards)
            layer.picks.append(exp.picks)
            layer.sizes.append(exp.sizes)
            layer.comps.extend(comps[lo:hi])
            lo = hi
        frontier = np.concatenate(new_rows) if new_rows else frontier[:0]
        t = (t + 1) % T
    compiled = []
    for layer, (_, probs) in zip(found, outcomes):
        state_ptr = np.concatenate(([0], np.cumsum(np.concatenate(layer.sizes))))
        compiled.append((np.concatenate(layer.rewards), probs, np.concatenate(layer.post_nexts),
                         np.concatenate(layer.post_ids), state_ptr))

    def day_pass(v_next: np.ndarray, want_argmax: bool = False):
        choices = []
        for t in reversed(range(T)):
            rewards, probs, post_nexts, post_ids, state_ptr = compiled[t]
            # each post-decision row's expected value, its K products summed
            # by reduceat (whose bits differ from a reshaped sum's or a
            # matrix product's once K >= 4), read by every action reaching it
            w = np.add.reduceat((v_next[post_nexts] * probs).ravel(),
                                len(probs) * np.arange(len(post_nexts)))
            q = rewards + w[post_ids]
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
    h = np.zeros(len(found[0].states))
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
    policy = _Policy([(layer.states, layer.comps, np.concatenate(layer.picks)[best])
                      for layer, best in zip(found, choices)], start, dtype)
    return ExactSolution(gain=float(diffs[0]), span=residual, states=total, policy=policy,
                         iterations=it, gain_min=float(diffs.min()),
                         gain_max=float(diffs.max()), converged=True)
