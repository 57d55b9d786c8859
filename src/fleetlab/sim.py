"""Discrete-time fleet simulator.

An epoch proceeds in two stages:

1. sequential assignment -- vehicles are ordered canonically and each one
   picks an atomic action (fulfill / reposition / charge / pass) against a
   working copy of the state in which earlier commitments are already
   reflected; atomic rewards sum exactly to the epoch reward;
2. transition -- the whole state ticks as if every vehicle passed (etas and
   charger clocks count down, unfulfilled orders age and abandon past the
   connection patience), then each committed task applies as a few scalar
   deltas: its vehicles move from their ticked cell to where they land, a
   fulfilled order leaves its aged queue, an engaged charger starts a full
   period. New orders arrive as Poisson counts truncated at the queue cap.

``tick`` states the first half of stage 2 once, on arrays that may stack
states on leading axes. ``transition`` calls it on every epoch; the exact
solver (baselines.exact_value_iteration) calls it once per breadth-first
depth, on the stacked flat rows of all the depth's states, and adds to each
ticked row the change each of the state's unit assignments makes, which it
takes from ``transition`` once per (epoch, status, atomic action): every
vehicle passes but one, which takes the action. Pass changes nothing beyond
the tick, so its unit is taken once per epoch.

Checks: run_epoch checks each policy choice against the action space and
the mask it handed out. Every ``transition`` checks the fleet action with
check_fleet_action, the arrivals' shape and dtype, and the next state with
validate_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig
from .errors import ContractViolation
from .model import (
    AtomicAction,
    FleetAction,
    SystemState,
    VehicleStatus,
    action_table,
    atomic_reward,
    check_fleet_action,
    epoch_reward,
    feasible_mask,
    landing,
    validate_state,
)


def initial_state(config: NetworkConfig) -> SystemState:
    """Day-zero state: idle fleet spread round-robin, half battery, all free."""
    V, B = config.num_regions, config.battery_capacity
    vehicles = np.zeros((V, config.eta_cap + 1, B + 1), dtype=np.int64)
    b0 = B // 2
    vehicles[:, 0, b0] = config.fleet_size // V
    vehicles[:config.fleet_size % V, 0, b0] += 1
    trips = np.zeros((V, V, config.connection_patience + 1), dtype=np.int64)
    chargers = np.zeros((V, config.num_rates, config.charge_period), dtype=np.int64)
    chargers[:, :, 0] = config.charger_counts
    return SystemState(0, vehicles, trips, chargers)


def draw_arrivals(config: NetworkConfig, t: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson order arrivals during epoch t, one count per (origin, dest).
    The sampler draws no random numbers for a zero rate, so drawing over the
    whole table leaves the stream as drawing only the nonzero rates would."""
    return rng.poisson(config.arrival_rate[:, :, t]).astype(np.int64, copy=False)


def admitted_arrivals(config: NetworkConfig, arrivals: np.ndarray,
                      carried: np.ndarray) -> np.ndarray:
    """New orders each (origin, dest) queue admits: as many arrivals as fit
    under trip_cap beside the ``carried`` older orders, none within a region.
    ``arrivals`` may stack outcomes on leading axes."""
    admitted = np.minimum(arrivals, np.maximum(config.trip_cap - carried, 0))
    V = config.num_regions
    admitted.reshape(*admitted.shape[:-2], V * V)[..., ::V + 1] = 0   # diagonals
    return admitted


def tick(src: tuple[np.ndarray, np.ndarray, np.ndarray],
         out: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write into the zeroed ``out`` arrays (vehicles, trips, chargers) the
    ``src`` state one epoch on as if every vehicle passed and no order
    arrived: etas and charger clocks count down, with eta 0 and 1 both
    landing at 0, and queued orders age by one epoch, the oldest leaving the
    queue. The arrays may stack states on any leading axes, the same in
    ``src`` and ``out``."""
    vehicles0, trips0, chargers0 = src
    vehicles, trips, chargers = out
    # each slot takes the next one's contents and slot 0 keeps its own; with
    # eta_cap = 0 or J = 1 that leaves the array as it was
    vehicles[..., :-1, :] = vehicles0[..., 1:, :]
    vehicles[..., 0, :] += vehicles0[..., 0, :]
    trips[..., 1:] = trips0[..., :-1]
    chargers[..., :-1] = chargers0[..., 1:]
    chargers[..., 0] += chargers0[..., 0]


@dataclass
class StepInfo:
    reward: float = 0.0
    fulfilled: int = 0
    abandoned: int = 0
    arrived: int = 0
    repositioned: int = 0
    charges_started: int = 0


def transition(
    config: NetworkConfig, state: SystemState, action: FleetAction, arrivals: np.ndarray
) -> tuple[SystemState, StepInfo]:
    """Apply a fleet action and an arrival matrix; returns next state and stats.

    The action must pass check_fleet_action. The whole state then ticks as
    if every vehicle passed: etas move down one step, with eta 0 and 1 both
    landing at 0, queued orders age by one epoch, and charger clocks
    advance. Each non-pass (status, action, count) entry then moves its
    vehicles from their ticked cell to where ``landing`` puts them. A
    fulfill takes its order out of the aged slot age + 1, or out of the
    abandoned count when its age is L_c; a charge moves a charger from the
    free slot 0 to slot J - 1, which for J = 1 is the same slot. Arrivals
    fill the age-0 queues last, up to the cap; they must be a (V, V) integer
    array, and the next state must pass validate_state."""
    check_fleet_action(config, state, action)
    arrivals = np.asarray(arrivals)
    if arrivals.shape != (config.num_regions,) * 2 or arrivals.dtype.kind not in "iu":
        raise ContractViolation(f"arrivals of shape {arrivals.shape} and dtype "
                                f"{arrivals.dtype}, not a (V, V) integer array")
    t = state.t
    info = StepInfo(reward=epoch_reward(config, action, t))
    vehicles0, trips0, chargers0 = state.vehicles, state.trips, state.chargers
    vehicles = np.zeros(vehicles0.shape, np.int64)
    trips = np.zeros(trips0.shape, np.int64)
    chargers = np.zeros(chargers0.shape, np.int64)
    tick((vehicles0, trips0, chargers0), (vehicles, trips, chargers))
    info.abandoned = int(trips0[:, :, -1].sum())

    Lc = config.connection_patience
    for (c, a), n in action.counts.items():
        if a.kind == "pass":
            continue
        u, eta, b = c
        vehicles[u, eta - 1 if eta else 0, b] -= n
        vehicles[landing(config, c, a, t)] += n
        if a.kind == "fulfill":
            o = a.trip
            if o.age == Lc:
                info.abandoned -= n
            else:
                trips[o.origin, o.dest, o.age + 1] -= n
            info.fulfilled += n
        elif a.kind == "reposition":
            info.repositioned += n
        else:                                       # charge
            r = config.rate_index(a.rate)
            chargers[u, r, 0] -= n
            chargers[u, r, -1] += n
            info.charges_started += n

    info.arrived = int(arrivals.sum())
    trips[:, :, 0] = admitted_arrivals(config, arrivals, trips[:, :, 1:].sum(axis=2))
    nxt = SystemState((t + 1) % config.horizon_steps, vehicles, trips, chargers)
    validate_state(config, nxt)
    return nxt, info


def step(
    config: NetworkConfig, state: SystemState, action: FleetAction, rng: np.random.Generator
) -> tuple[SystemState, StepInfo]:
    """One epoch under random arrivals. Orders deposited into the next state
    (age 0 at epoch t+1) are drawn at rate lambda[t+1], so the age-0 queue
    observed at any epoch t has mean lambda[t] -- the convention the fleet-flow
    LP's order-cap constraint assumes."""
    t_next = (state.t + 1) % config.horizon_steps
    return transition(config, state, action, draw_arrivals(config, t_next, rng))


# -- sequential atomic assignment ---------------------------------------------


@dataclass
class AtomicRecord:
    """One atomic step; a policy that needs more per step logs it itself."""

    vehicle: VehicleStatus
    action: AtomicAction
    reward: float


@dataclass
class EpochResult:
    action: FleetAction
    records: list[AtomicRecord]
    info: StepInfo = field(default=None)  # filled in by run_day


class WorkingState:
    """Mutable intra-epoch view; reflects commitments made so far this epoch."""

    def __init__(self, state: SystemState):
        self.t = state.t
        self.vehicles = state.vehicles.copy()
        self.trips = state.trips.copy()
        self.chargers = state.chargers.copy()

    def commit(self, config: NetworkConfig, vehicle: VehicleStatus, action: AtomicAction) -> bool:
        """Take the vehicle and what its action uses; returns whether that was
        the last queued trip, or the last free charger, the action drew on."""
        self.vehicles[vehicle.dest, vehicle.eta, vehicle.battery] -= 1
        if action.kind == "fulfill":
            o = action.trip
            self.trips[o.origin, o.dest, o.age] -= 1
            return self.trips[o.origin, o.dest, o.age] == 0
        if action.kind == "charge":
            ri = config.rate_index(action.rate)
            self.chargers[vehicle.dest, ri, 0] -= 1
            return self.chargers[vehicle.dest, ri, 0] == 0
        return False


def _read_only(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False
    return mask


def run_epoch(
    config: NetworkConfig, state: SystemState, policy, rng: np.random.Generator
) -> EpochResult:
    """Assign every vehicle in canonical order; returns the fleet action built.

    The units of one status come one after another, and feasible_mask runs
    once per such group. Each further unit reuses the mask of the unit before
    it, less the one bit that unit's commit may have used up: the fulfilled
    trip's, once its queue is empty, or the charge rate's, once the region has
    no free charger of that rate left. Pass and reposition commits change only
    the vehicle counts, which feasible_mask reads only to see that the vehicle
    is present. Policies get the mask read-only: one may keep it, as
    NeuralPolicy's log does, but none can change what a later unit is handed.
    """
    work = WorkingState(state)
    action = FleetAction.empty()
    groups = state.status_groups()
    # one record per vehicle, allocated at once, so that a fleet too large for
    # memory raises MemoryError before the first vehicle acts
    records: list[AtomicRecord] = [None] * sum(n for _, n in groups)
    k = 0
    actions = action_table(config).actions
    if hasattr(policy, "begin_epoch"):
        policy.begin_epoch(config, state, rng)
    for vehicle, n in groups:
        mask = _read_only(feasible_mask(config, work, vehicle))
        for _ in range(n):
            idx = policy.act(config, work, vehicle, mask, rng)
            # a bool or a negative index would still pick a mask entry
            if (type(idx) is not int and not isinstance(idx, np.integer)
                    or not 0 <= idx < len(actions)):
                raise ContractViolation(f"policy chose action index {idx!r}, "
                                        f"outside the action space 0..{len(actions) - 1}")
            if not mask[idx]:
                raise ContractViolation(f"policy chose infeasible action index {idx}")
            atomic = actions[idx]
            r = atomic_reward(config, vehicle, atomic, state.t)
            records[k] = AtomicRecord(vehicle, atomic, r)
            k += 1
            action.add_atomic(vehicle, atomic)
            if work.commit(config, vehicle, atomic):
                mask = mask.copy()
                mask[idx] = False
                _read_only(mask)
    return EpochResult(action, records)


# -- rollouts -----------------------------------------------------------------


@dataclass
class DayTrace:
    epochs: list[EpochResult]
    states: list[SystemState]          # length T+1: state before each epoch + final
    total_reward: float


def run_day(
    config: NetworkConfig, state: SystemState, policy, rng: np.random.Generator
) -> DayTrace:
    epochs: list[EpochResult] = []
    states = [state]
    for _ in range(config.horizon_steps):
        res = run_epoch(config, state, policy, rng)
        state, info = step(config, state, res.action, rng)
        res.info = info
        epochs.append(res)
        states.append(state)
    total = math.fsum(e.info.reward for e in epochs)
    return DayTrace(epochs, states, total)


def run_days(config: NetworkConfig, policy, days: int, rng: np.random.Generator) -> list[DayTrace]:
    """Consecutive days from the day-zero state."""
    state = initial_state(config)
    traces = []
    for _ in range(days):
        tr = run_day(config, state, policy, rng)
        traces.append(tr)
        state = tr.states[-1]
    return traces


def average_daily_reward(traces: list[DayTrace]) -> float:
    return math.fsum(t.total_reward for t in traces) / len(traces)


# -- scoring ------------------------------------------------------------------


SERVICE_COUNTERS = ("fulfilled", "arrived", "abandoned", "repositioned", "charges_started")


def score_trajectory(config: NetworkConfig, policy, days: int, seed_words,
                     warmup_days: int = 0) -> dict:
    """Roll one trajectory from day zero under ``default_rng(seed_words)`` and
    score the ``days`` after ``warmup_days``: the daily rewards, the summed
    SERVICE_COUNTERS, and per epoch its reward and the (idle, busy, charging)
    fleet split before it. Plain data, so worker processes can return it."""
    rng = np.random.default_rng(list(seed_words))
    scored = run_days(config, policy, warmup_days + days, rng)[warmup_days:]
    infos = [e.info for tr in scored for e in tr.epochs]
    score = {name: sum(getattr(i, name) for i in infos) for name in SERVICE_COUNTERS}
    score["daily_rewards"] = [tr.total_reward for tr in scored]
    score["rewards_by_epoch"] = [i.reward for i in infos]
    score["status_by_epoch"] = []
    for tr in scored:
        for state in tr.states[:-1]:
            idle = int(state.vehicles[:, 0, :].sum())
            charging = int(state.chargers[:, :, 1:].sum())
            score["status_by_epoch"].append((idle, config.fleet_size - idle - charging, charging))
    return score


def summarize_scores(scores: list[dict]) -> dict:
    """Mean over trajectories of their mean daily reward, its standard error,
    the per-trajectory means, the summed counters and the fulfilment rate."""
    traj_means = [math.fsum(s["daily_rewards"]) / len(s["daily_rewards"]) for s in scores]
    n = len(traj_means)
    mean = math.fsum(traj_means) / n
    var = math.fsum((m - mean) ** 2 for m in traj_means) / (n - 1) if n > 1 else 0.0
    summary = {name: sum(s[name] for s in scores) for name in SERVICE_COUNTERS}
    summary.update(mean_daily_reward=mean, stderr=math.sqrt(var / n),
                   trajectory_means=traj_means)
    arrived = summary["arrived"]
    summary["fulfillment_rate"] = summary["fulfilled"] / arrived if arrived else 0.0
    return summary
