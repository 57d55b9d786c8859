"""Domain types for the fleet-dispatch MDP and the per-epoch reward.

Counts live in dense integer arrays indexed by status tuples:

* vehicles  -- shape (V, eta_cap+1, B+1), entry = number of vehicles with
  (destination/charging region v, remaining steps eta, battery-on-completion b)
* trips     -- shape (V, V, L_c+1), entry = queued orders (origin, dest, age)
* chargers  -- shape (V, R, J), entry = chargers (region, rate index,
  remaining steps)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .config import NetworkConfig
from .errors import ContractViolation, InvalidArgument


class VehicleStatus(NamedTuple):
    dest: int
    eta: int
    battery: int


class TripStatus(NamedTuple):
    origin: int
    dest: int
    age: int


class AtomicAction(NamedTuple):
    """A single-vehicle task: fulfill a trip, reposition, charge, or pass."""

    kind: str                       # one of ACTION_KINDS
    trip: Optional[TripStatus] = None
    region: Optional[int] = None
    rate: Optional[int] = None


ACTION_KINDS = ("fulfill", "reposition", "charge", "pass")
PASS = AtomicAction("pass")


def fulfill(trip: TripStatus) -> AtomicAction:
    return AtomicAction("fulfill", trip=trip)


def reposition(region: int) -> AtomicAction:
    return AtomicAction("reposition", region=region)


def charge(rate: int) -> AtomicAction:
    return AtomicAction("charge", rate=rate)


@dataclass(frozen=True)
class SystemState:
    """Integer counts of vehicles, queued trips and chargers at one epoch."""

    t: int                          # time of day, 0-based in [0, T)
    vehicles: np.ndarray
    trips: np.ndarray
    chargers: np.ndarray

    def __post_init__(self):
        for f in ("vehicles", "trips", "chargers"):
            arr = getattr(self, f)
            if not (type(arr) is np.ndarray and arr.dtype == np.int64
                    and arr.flags.c_contiguous):
                arr = np.ascontiguousarray(arr, dtype=np.int64)
                object.__setattr__(self, f, arr)
            arr.setflags(write=False)

    def statuses(self) -> Iterator[tuple[VehicleStatus, int]]:
        """(status, vehicle count) of every occupied status, in array order."""
        vs, es, bs = np.nonzero(self.vehicles)
        counts = self.vehicles[vs, es, bs].tolist()
        for v, e, b, n in zip(vs.tolist(), es.tolist(), bs.tolist(), counts):
            yield VehicleStatus(v, e, b), n

    def status_groups(self) -> list[tuple[VehicleStatus, int]]:
        """(status, vehicle count) of every occupied status, in canonical
        assignment order: eta ascending, battery descending, region ascending."""
        return sorted(self.statuses(), key=lambda cn: (cn[0].eta, -cn[0].battery, cn[0].dest))

    def key(self) -> tuple:
        """Hashable identity, used by the exact-solution oracle."""
        return (self.t, self.vehicles.tobytes(), self.trips.tobytes(), self.chargers.tobytes())


def validate_state(config: NetworkConfig, state: SystemState) -> None:
    V, B, R, J = config.num_regions, config.battery_capacity, config.num_rates, config.charge_period
    if state.vehicles.shape != (V, config.eta_cap + 1, B + 1):
        raise ContractViolation(f"vehicles array shape {state.vehicles.shape}")
    if state.trips.shape != (V, V, config.connection_patience + 1):
        raise ContractViolation(f"trips array shape {state.trips.shape}")
    if state.chargers.shape != (V, R, J):
        raise ContractViolation(f"chargers array shape {state.chargers.shape}")
    if not (0 <= state.t < config.horizon_steps):
        raise ContractViolation(f"time of day {state.t} out of range")
    # the charger array is empty when there are no charge rates
    if min(state.vehicles.min(), state.trips.min(), state.chargers.min(initial=0)) < 0:
        raise ContractViolation("negative counts")
    if state.vehicles.sum() != config.fleet_size:
        raise ContractViolation("fleet size not conserved")
    if (state.chargers.sum(axis=2) != config.charger_counts).any():
        raise ContractViolation("charger totals not conserved")
    if state.trips.max() > config.trip_cap:
        raise ContractViolation("trip queue exceeds N(L_c+1) cap")


@dataclass
class FleetAction:
    """A fleet flow: the multiset of its atomic assignments, as a count per
    (vehicle status, atomic action); passes are (status, PASS) entries."""

    counts: dict[tuple[VehicleStatus, AtomicAction], int]

    @classmethod
    def empty(cls) -> "FleetAction":
        return cls({})

    def add_atomic(self, vehicle: VehicleStatus, action: AtomicAction) -> None:
        if action.kind not in ACTION_KINDS:
            raise InvalidArgument(f"unknown atomic action kind {action.kind!r}")
        k = (vehicle, action)
        self.counts[k] = self.counts.get(k, 0) + 1


def all_pass_action(config: NetworkConfig, state: SystemState) -> FleetAction:
    return FleetAction({(c, PASS): n for c, n in state.statuses()})


# -- atomic action index space -----------------------------------------------
#
# Policies emit a distribution over a fixed index space:
#   [fulfill (u, v, xi) for u, v != u, xi]  ++  [reposition v]  ++
#   [charge rate]  ++  [pass]
# so the ages of one (u, v) trip pair take consecutive indices. The space is
# enumerated once per (V, L_c+1, charge rates) by _action_table, and every
# conversion between an index and an action reads that one table.


class ActionTable(NamedTuple):
    """The atomic action of every index, its inverse, and where feasible_mask
    sets its bits; shared between callers, so read only."""

    actions: tuple[AtomicAction, ...]
    index: dict[AtomicAction, int]
    fulfill_at: tuple[tuple[int, ...], ...]    # [u][v]: fulfilling (u, v, age 0); -1 if u == v
    reposition_at: tuple[int, ...]             # [v]
    charge_at: tuple[int, ...]                 # [rate index]


@lru_cache(maxsize=64)
def _action_table(num_regions: int, lc1: int, charge_rates: tuple[int, ...]) -> ActionTable:
    V = num_regions
    actions = [fulfill(TripStatus(u, v, xi))
               for u in range(V) for v in range(V) if v != u for xi in range(lc1)]
    actions += [reposition(v) for v in range(V)]
    actions += [charge(rate) for rate in charge_rates]
    actions.append(PASS)
    index = {a: j for j, a in enumerate(actions)}
    return ActionTable(
        tuple(actions), index,
        tuple(tuple(index.get(fulfill(TripStatus(u, v, 0)), -1) for v in range(V))
              for u in range(V)),
        tuple(index[reposition(v)] for v in range(V)),
        tuple(index[charge(rate)] for rate in charge_rates))


def action_table(config: NetworkConfig) -> ActionTable:
    """The config's action index space, built on first use."""
    return _action_table(config.num_regions, config.connection_patience + 1,
                         config.charge_rates)


def action_count(config: NetworkConfig) -> int:
    return len(action_table(config).actions)


# -- feasibility --------------------------------------------------------------


def _check_vehicle(config: NetworkConfig, state: SystemState, vehicle: VehicleStatus) -> None:
    v, e, b = vehicle
    if not (
        0 <= v < config.num_regions
        and 0 <= e <= config.eta_cap
        and 0 <= b <= config.battery_capacity
    ):
        raise InvalidArgument(f"vehicle status {vehicle} out of range")
    if state.vehicles[v, e, b] <= 0:
        raise InvalidArgument(f"no vehicle with status {vehicle} in state")


def landing(config: NetworkConfig, vehicle: VehicleStatus, action: AtomicAction,
            t: int) -> VehicleStatus:
    """Status at t+1 of a vehicle that takes ``action``, a row of the action
    table, at time-of-day t.

    A pass ticks the remaining time down toward idle. A charge holds the
    vehicle for the charging period and ends at ``config.charge_result``. A
    fulfill or reposition from u to v adds the u -> v duration at t to what
    is left of the current task and spends the u -> v battery cost.
    """
    u, eta, b = vehicle
    if action.kind == "pass":
        return VehicleStatus(u, eta - 1 if eta else 0, b)
    if action.kind == "charge":
        return VehicleStatus(u, config.charge_period - 1, config.charge_result(b, action.rate))
    v = action.trip.dest if action.kind == "fulfill" else action.region
    lists = config.lists
    return VehicleStatus(v, eta + lists.trip_duration[u][v][t] - 1,
                         b - lists.battery_cost[u][v])


def feasible_mask(config: NetworkConfig, state: SystemState, vehicle: VehicleStatus) -> np.ndarray:
    """Boolean mask over the atomic action index space for one vehicle.

    Only `state.vehicles`, `state.trips` and `state.chargers` are read, so an
    intra-epoch `sim.WorkingState` may be passed as is; it yields the
    sequential-assignment feasible set.
    """
    _check_vehicle(config, state, vehicle)
    table = action_table(config)
    mask = np.zeros(len(table.actions), dtype=bool)
    mask[-1] = True                                          # pass, always
    u, eta, b = vehicle
    if eta > config.pickup_patience:
        return mask
    cost = config.lists.battery_cost[u]
    reachable = [v for v in range(config.num_regions) if v != u and b >= cost[v]]
    queued = state.trips[u] > 0
    fulfill_at = table.fulfill_at[u]
    for v in reachable:
        mask[fulfill_at[v] : fulfill_at[v] + queued.shape[1]] = queued[v]
    if eta == 0:
        for v in reachable:
            mask[table.reposition_at[v]] = True
        for r, at in enumerate(table.charge_at):
            if state.chargers[u, r, 0] > 0:
                mask[at] = True
    return mask


def _integer(x) -> bool:
    """An int or numpy integer, not a bool."""
    return type(x) is int or isinstance(x, np.integer)


def _integer_fields(a: AtomicAction) -> bool:
    """The trip, region and rate that ``a`` names are integers."""
    if a.trip is not None and not (isinstance(a.trip, TripStatus) and all(map(_integer, a.trip))):
        return False
    return all(_integer(x) for x in (a.region, a.rate) if x is not None)


def check_fleet_action(config: NetworkConfig, state: SystemState, action: FleetAction) -> None:
    """Verify a fleet flow: its statuses, actions and counts are integers and
    its actions action-table rows, against the per-status feasibility and
    resource caps. Membership compares by value, so an action with a float or
    bool field equal to a row's field would pass it; the field check stops it."""
    Lp = config.pickup_patience
    cost = config.lists.battery_cost
    table = action_table(config)
    outgoing: dict[VehicleStatus, int] = {}
    trip_usage: dict[TripStatus, int] = {}
    charger_usage: dict[tuple[int, int], int] = {}
    for (c, a), n in action.counts.items():
        row = table.index.get(a)
        if row is None:
            if a.kind not in ACTION_KINDS:
                raise ContractViolation(f"unknown atomic action kind {a.kind!r}")
            if a.kind == "fulfill" and isinstance(a.trip, TripStatus) and a.trip[0] == a.trip[1]:
                raise ContractViolation("intra-region trips are excluded")
            raise ContractViolation(f"atomic action {a} is not in the action space")
        if not (isinstance(c, VehicleStatus) and all(map(_integer, c))):
            raise ContractViolation(f"vehicle status {c!r} is not a VehicleStatus of integers")
        # the table's own rows, which policies return, need no field check
        if a is not table.actions[row] and not _integer_fields(a):
            raise ContractViolation(f"atomic action {a!r} has fields that are not integers")
        # counts are whole vehicles: a fractional split can conserve the flow
        if not _integer(n):
            raise ContractViolation(f"{a.kind} count {n!r} is not an integer")
        if n < 0:
            raise ContractViolation(f"negative {a.kind} count")
        if a.kind == "fulfill":
            o = a.trip
            if (c.dest != o.origin or c.eta > Lp
                    or c.battery < cost[o.origin][o.dest]):
                raise ContractViolation(f"infeasible fulfill {c} -> {o}")
            trip_usage[o] = trip_usage.get(o, 0) + n
        elif a.kind == "reposition":
            v = a.region
            if c.eta != 0 or v == c.dest or c.battery < cost[c.dest][v]:
                raise ContractViolation(f"infeasible reposition {c} -> {v}")
        elif a.kind == "charge":
            if c.eta != 0:
                raise ContractViolation(f"infeasible charge for busy vehicle {c}")
            k = (c.dest, config.rate_index(a.rate))
            charger_usage[k] = charger_usage.get(k, 0) + n
        outgoing[c] = outgoing.get(c, 0) + n

    for o, n in trip_usage.items():
        if n > state.trips[o.origin, o.dest, o.age]:
            raise ContractViolation(f"fulfillment of {o} exceeds queue")
    for (v, r), n in charger_usage.items():
        if n > state.chargers[v, r, 0]:
            raise ContractViolation(f"charging at region {v} rate idx {r} exceeds free chargers")
    # flow conservation: every vehicle of every status is assigned exactly once
    counted = 0
    for c, n in state.statuses():
        if outgoing.get(c, 0) != n:
            raise ContractViolation(f"flow conservation violated at {c}")
        counted += 1
    if len(outgoing) != counted:
        raise ContractViolation("action assigns vehicles of a status absent from the state")


# -- rewards ------------------------------------------------------------------


def atomic_reward(
    config: NetworkConfig, vehicle: VehicleStatus, action: AtomicAction, t: int
) -> float:
    """Reward of one atomic assignment at time-of-day t (0-based)."""
    if action.kind == "pass":
        return 0.0
    if action.kind == "fulfill":
        o = action.trip
        if o.origin != vehicle.dest:
            raise InvalidArgument(f"vehicle at {vehicle.dest} cannot serve trip from {o.origin}")
        return config.lists.trip_reward[o.origin][o.dest][t]
    if action.kind == "reposition":
        return config.lists.reposition_reward[vehicle.dest][action.region][t]
    if action.kind == "charge":
        return config.lists.charge_reward[config.rate_index(action.rate)][t]
    raise InvalidArgument(f"unknown atomic action kind {action.kind!r}")


def epoch_reward(config: NetworkConfig, action: FleetAction, t: int) -> float:
    """Total reward of a fleet action: the exactly rounded sum of the atomic
    reward of every assigned unit, so it equals the sum of the matching
    atomic rewards bit-for-bit in any order. Passes contribute nothing."""
    terms: list[float] = []
    for (c, a), n in action.counts.items():
        if a.kind != "pass":
            terms.extend([atomic_reward(config, c, a, t)] * n)
    return math.fsum(terms)
