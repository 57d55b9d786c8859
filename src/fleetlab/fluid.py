"""Fleet-allocation linear programs and the reward upper bound.

Two equivalent formulations of the stationary (periodic, one-day) flow
relaxation of the dispatch MDP:

* the full LP tracks a flow variable for every (vehicle status, action, time);
* the reduced LP tracks only statuses with remaining time eta <= L_p -- the
  ones that can accept new tasks -- and accounts for in-flight vehicles
  through time-window sums, cutting variable count from O(V^2) to O(V) in the
  duration scale.

The optimum R-bar (scaled by fleet size N) upper-bounds the long-run average
daily reward of every admissible policy. Both LPs are built forward from the
simulator's own rule, ``model.landing``: a vehicle flow at (status, t) leaves
that status's conservation row and joins the row of its landing at t+1. The
reduced LP sees a landing at eta > L_p only once it has ticked down to L_p:
in the row of (v, L_p, b) at t+1+eta-L_p. So both LPs follow the simulator
when durations vary over the day and when charging follows a curve.

The occupancy (fleet-total) constraint counts a flow started at t at every
step until its vehicle is next seen, t .. t+eta-L_p: a vehicle whose
remaining time has just reached L_p is counted through its new assignment or
pass flow, not through the old in-flight flow. The full LP, where occupancy
is implied by per-status conservation, is the cross-check for this choice.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .baselines import IntentQueuePolicy
from .config import NetworkConfig
from .errors import ContractViolation, InvalidArgument
from .model import PASS, TripStatus, VehicleStatus, charge, fulfill, landing, reposition
from .simplex import LpProblem, LpSolution, solve


@dataclass
class FluidSolution:
    objective: float
    flows: dict[tuple, float]
    formulation: str                      # "full" | "reduced"
    iterations: int
    residual: float

    def nonzero_flows(self) -> dict[tuple, float]:
        """Flows above 1e-9, the level below which a flow counts as zero."""
        return {k: v for k, v in self.flows.items() if v > 1e-9}

    def to_json(self) -> str:
        payload = {
            "objective": self.objective,
            "formulation": self.formulation,
            "iterations": self.iterations,
            "residual": self.residual,
            "flows": {"/".join(map(str, k)): v for k, v in self.nonzero_flows().items()},
        }
        return json.dumps(payload, sort_keys=True, indent=1)


class _Builder:
    """Accumulates named variables and sparse rows, then emits an LpProblem
    whose constraint matrix is built straight from the rows' entries, never
    densely."""

    def __init__(self, name: str):
        self.name = name
        self.vars: dict[tuple, int] = {}
        self.obj: list[float] = []
        self.rows: list[dict[int, float]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []

    def var(self, key: tuple, coeff: float = 0.0) -> int:
        if key in self.vars:
            raise InvalidArgument(f"duplicate variable {key}")
        self.vars[key] = len(self.obj)
        self.obj.append(coeff)
        return self.vars[key]

    def row(self, terms: dict[tuple, float], sense: str, rhs: float, name: str) -> None:
        entries = {}
        for key, coef in terms.items():
            if key not in self.vars:
                continue                    # battery-infeasible flows are fixed at 0
            j = self.vars[key]
            entries[j] = entries.get(j, 0.0) + coef
        self.rows.append(entries)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.row_names.append(name)

    def build(self) -> LpProblem:
        """The maximization problem over the variables and rows added so far."""
        rows = np.repeat(np.arange(len(self.rows)), [len(e) for e in self.rows])
        cols = np.fromiter((j for e in self.rows for j in e), np.intp, rows.size)
        vals = np.fromiter((c for e in self.rows for c in e.values()), float, rows.size)
        return LpProblem.from_entries(np.asarray(self.obj), rows, cols, vals, self.senses,
                                      np.asarray(self.rhs), row_names=self.row_names,
                                      name=self.name)


# -- shared row pieces ------------------------------------------------------------


# variable kind -> (status, action) of one vehicle on that flow, from the
# variable keys of build_full_lp and build_reduced_lp, each action a row of
# model.action_table; xt, the trip-side age split of xb, moves no vehicle.
# xb sums its pair's ages, which all land alike, so it takes age 0's action
_FLOWS = {
    "x": lambda rates, k: (VehicleStatus(k[1], k[2], k[3]),                       # u eta b v xi t
                           fulfill(TripStatus(k[1], k[4], k[5]))),
    "xb": lambda rates, k: (VehicleStatus(k[1], k[4], k[3]),                      # u v b eta t
                            fulfill(TripStatus(k[1], k[2], 0))),
    "y": lambda rates, k: (VehicleStatus(k[1], 0, k[2]), reposition(k[3])),       # u b v t
    "yb": lambda rates, k: (VehicleStatus(k[1], 0, k[3]),                         # u v b t
                            PASS if k[1] == k[2] else reposition(k[2])),
    "z": lambda rates, k: (VehicleStatus(k[1], 0, k[2]), charge(rates[k[3]])),    # u b ri t
    "zb": lambda rates, k: (VehicleStatus(k[1], 0, k[3]), charge(rates[k[2]])),   # u ri b t
    "w": lambda rates, k: (VehicleStatus(k[1], k[2], k[3]), PASS),                # u eta b t
    "wb": lambda rates, k: (VehicleStatus(k[1], k[3], k[2]), PASS),               # u b eta t
}


def _hold(rows: list[dict], key: tuple, t: int, span: int) -> None:
    """Count the flow ``key`` started at t in the rows of the steps
    t .. t+span-1, modulo the day: flows repeat daily, so a span longer than
    a day holds several copies of the flow at once."""
    for s in range(t, t + span):
        rows[s % len(rows)][key] += 1.0


def _vehicle_flows(bld: _Builder, config: NetworkConfig, cap: int) -> list[tuple]:
    """(key, row, next row, span) of every vehicle-flow variable, over the
    statuses (u, eta <= cap, b): the row (u, eta, b, t) the flow leaves, the
    row where its vehicle is next seen -- its landing at t+1, or for a
    landing at eta > cap, (v, cap, b) eta - cap steps later -- and the steps
    from t until then."""
    T = config.horizon_steps
    out = []
    for key in bld.vars:
        if key[0] in _FLOWS:
            status, action = _FLOWS[key[0]](config.charge_rates, key)
            t = key[-1]
            v, eta, b = landing(config, status, action, t)
            away = max(eta - cap, 0)
            out.append((key, (*status, t), (v, min(eta, cap), b, (t + 1 + away) % T),
                        1 + away))
    return out


def _conservation_rows(bld: _Builder, config: NetworkConfig, cap: int, flows) -> None:
    """Per status (u, eta <= cap, b) and time: inflow == outflow."""
    V, B, T = config.num_regions, config.battery_capacity, config.horizon_steps
    rows = {(u, eta, b, t): defaultdict(float) for t in range(T) for u in range(V)
            for eta in range(cap + 1) for b in range(B + 1)}
    for key, row, nxt, _ in flows:
        rows[row][key] -= 1.0
        rows[nxt][key] += 1.0
    for (u, eta, b, t), terms in rows.items():
        bld.row(terms, "=", 0.0, f"cons/{u}/{eta}/{b}/{t}")


def _occupancy_rows(bld: _Builder, T: int, flows) -> None:
    """Fleet totals to one at every time: a flow holds its vehicle from its
    start until the vehicle is next seen, on every day it spans."""
    totals = [defaultdict(float) for _ in range(T)]
    for key, (*_, t), _, span in flows:
        _hold(totals, key, t, span)
    for t, terms in enumerate(totals):
        bld.row(terms, "=", 1.0, f"tot/{t}")


def _trip_cap_rows(bld: _Builder, config: NetworkConfig, keys) -> None:
    """Trip-order cap per (origin, dest) arrival cohort: the cohort arriving
    at t is served at age xi at time t + xi, by vehicles of any eta <= L_p;
    ``keys(u, v, eta, xi, t)`` names the fulfill variables of one such
    service."""
    V, T, N = config.num_regions, config.horizon_steps, config.fleet_size
    Lp, Lc = config.pickup_patience, config.connection_patience
    for t in range(T):
        for u in range(V):
            for v in range(V):
                if u == v:
                    continue
                terms = {key: 1.0 for xi in range(Lc + 1) for eta in range(Lp + 1)
                         for key in keys(u, v, eta, xi, (t + xi) % T)}
                bld.row(terms, "<=", float(config.arrival_rate[u, v, t]) / N,
                        f"trip/{u}/{v}/{t}")


def _charger_cap_rows(bld: _Builder, config: NetworkConfig, key) -> None:
    """Chargers engaged per (region, rate, time): a charge flow holds its
    charger for the J steps from its start; ``key(v, ri, b, t)`` names the
    charge variable."""
    T, B, N = config.horizon_steps, config.battery_capacity, config.fleet_size
    engaged = {(v, ri): [defaultdict(float) for _ in range(T)]
               for v in range(config.num_regions) for ri in range(config.num_rates)}
    for (v, ri), rows in engaged.items():
        for b in range(B + 1):
            for ts in range(T):
                _hold(rows, key(v, ri, b, ts), ts, config.charge_period)
    for t in range(T):
        for (v, ri), rows in engaged.items():
            bld.row(rows[t], "<=", float(config.charger_counts[v, ri]) / N,
                    f"chg/{v}/{ri}/{t}")


# -- full formulation -----------------------------------------------------------


def build_full_lp(config: NetworkConfig) -> tuple[LpProblem, dict[tuple, int]]:
    """Flow variables per (status, action, time); periodic in t."""
    V, B, T = config.num_regions, config.battery_capacity, config.horizon_steps
    Lp, Lc = config.pickup_patience, config.connection_patience
    ecap = config.eta_cap
    N = config.fleet_size
    bld = _Builder("full")

    # variables; battery-infeasible combinations are never created
    for t in range(T):
        for u in range(V):
            for eta in range(ecap + 1):
                for b in range(B + 1):
                    if eta <= Lp:
                        for v in range(V):
                            if v == u or b < config.battery_cost[u, v]:
                                continue
                            for xi in range(Lc + 1):
                                bld.var(("x", u, eta, b, v, xi, t),
                                        N * float(config.trip_reward[u, v, t]))
                    if eta == 0:
                        for v in range(V):
                            if v == u or b < config.battery_cost[u, v]:
                                continue
                            bld.var(("y", u, b, v, t),
                                    N * float(config.reposition_reward[u, v, t]))
                        for ri in range(config.num_rates):
                            bld.var(("z", u, b, ri, t),
                                    N * float(config.charge_reward[ri, t]))
                    bld.var(("w", u, eta, b, t), 0.0)

    # every status is tracked, so every flow is next seen at its landing
    flows = _vehicle_flows(bld, config, ecap)
    _conservation_rows(bld, config, ecap, flows)

    _trip_cap_rows(bld, config, lambda u, v, eta, xi, t: [("x", u, eta, b, v, xi, t)
                                                          for b in range(B + 1)])
    _charger_cap_rows(bld, config, lambda v, ri, b, t: ("z", v, b, ri, t))
    _occupancy_rows(bld, T, flows)
    return bld.build(), bld.vars


# -- reduced formulation ---------------------------------------------------------


def build_reduced_lp(config: NetworkConfig) -> tuple[LpProblem, dict[tuple, int]]:
    """Tracked-window formulation over statuses with eta <= L_p."""
    V, B, T = config.num_regions, config.battery_capacity, config.horizon_steps
    Lp, Lc = config.pickup_patience, config.connection_patience
    N = config.fleet_size
    bld = _Builder("reduced")

    for t in range(T):
        for u in range(V):
            for v in range(V):
                if v != u:
                    cost = int(config.battery_cost[u, v])
                    for b in range(cost, B + 1):
                        for eta in range(Lp + 1):
                            bld.var(("xb", u, v, b, eta, t), 0.0)
                    for eta in range(Lp + 1):
                        for xi in range(Lc + 1):
                            bld.var(("xt", u, v, eta, xi, t),
                                    N * float(config.trip_reward[u, v, t]))
                    for b in range(cost, B + 1):
                        bld.var(("yb", u, v, b, t),
                                N * float(config.reposition_reward[u, v, t]))
                else:
                    for b in range(B + 1):
                        bld.var(("yb", u, u, b, t), 0.0)      # idling
            for ri in range(config.num_rates):
                for b in range(B + 1):
                    bld.var(("zb", u, ri, b, t), N * float(config.charge_reward[ri, t]))
            for eta in range(1, Lp + 1):
                for b in range(B + 1):
                    bld.var(("wb", u, b, eta, t), 0.0)

    flows = _vehicle_flows(bld, config, Lp)
    _conservation_rows(bld, config, Lp, flows)

    # linking: battery-aggregated and age-aggregated fulfill flows agree
    for t in range(T):
        for u in range(V):
            for v in range(V):
                if u == v:
                    continue
                for eta in range(Lp + 1):
                    terms = {("xb", u, v, b, eta, t): 1.0 for b in range(B + 1)}
                    for xi in range(Lc + 1):
                        terms[("xt", u, v, eta, xi, t)] = -1.0
                    bld.row(terms, "=", 0.0, f"link/{u}/{v}/{eta}/{t}")

    _trip_cap_rows(bld, config, lambda u, v, eta, xi, t: [("xt", u, v, eta, xi, t)])
    _charger_cap_rows(bld, config, lambda v, ri, b, t: ("zb", v, ri, b, t))
    _occupancy_rows(bld, T, flows)
    return bld.build(), bld.vars


# -- solving and the bound -------------------------------------------------------


def solve_fluid(problem: LpProblem, index: dict[tuple, int]) -> FluidSolution:
    """The built LP's optimum as flows by ``index`` key, its formulation the LP's name."""
    sol: LpSolution = solve(problem)
    x = np.where(np.abs(sol.x) < 1e-12, 0.0, sol.x)
    flows = {key: float(x[j]) for key, j in index.items()}
    residual = float(problem.residuals(sol.x).max(initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.abs(problem.b).max(initial=0.0))):
        raise ContractViolation(f"fluid solution residual {residual:.3e}")
    return FluidSolution(sol.objective, flows, problem.name, sol.iterations, residual)


FORMULATIONS = ("reduced", "full")


def build_lp(config: NetworkConfig, formulation: str) -> tuple[LpProblem, dict[tuple, int]]:
    """The named formulation's LP and variable index, by the builder's name at call time."""
    if formulation not in FORMULATIONS:
        raise InvalidArgument(f"unknown formulation {formulation!r}; "
                              f"expected {' | '.join(FORMULATIONS)}")
    return (build_reduced_lp if formulation == "reduced" else build_full_lp)(config)


def upper_bound(config: NetworkConfig, formulation: str = "reduced") -> FluidSolution:
    """Daily-reward upper bound R-bar from the named formulation's LP."""
    prob, index = build_lp(config, formulation)
    return solve_fluid(prob, index)


# -- randomized-rounding policy ---------------------------------------------------


class FluidRoundingPolicy(IntentQueuePolicy):
    """Rounds the fluid flows to integer per-epoch assignment targets.

    At each epoch the target count for every (status, action) flow but the
    pass flows w and wb is N*fraction, rounded by floor plus a Bernoulli
    trial on the remainder, and that many intents join the queue of the
    flow's exact status as the index of the flow's action-table row. Idle
    flows draw their trial but add no intent. A vehicle pops intents until
    the mask allows one: a fulfill intent of the pair (u, v), whatever its
    age, tries the pair's oldest queued age, then the reposition to v; if
    the mask allows no intent the vehicle passes.
    """

    def __init__(self, config: NetworkConfig, solution: FluidSolution):
        super().__init__(config)
        index = self.table.index
        self._by_time: dict[int, list[tuple[VehicleStatus, int, float]]] = {}
        for key, frac in sorted(solution.nonzero_flows().items()):
            if key[0] in _FLOWS and key[0] not in ("w", "wb"):
                status, action = _FLOWS[key[0]](config.charge_rates, key)
                self._by_time.setdefault(key[-1], []).append((status, index[action], frac))

    def begin_epoch(self, config, state, rng):
        self.intents = defaultdict(deque)
        N, pass_at = config.fleet_size, len(self.table.actions) - 1
        for status, idx, frac in self._by_time.get(state.t, []):
            target = N * frac
            count = int(target) + (1 if rng.random() < target - int(target) else 0)
            if idx != pass_at and count > 0:
                self.intents[status].extend([idx] * count)

    def _candidates(self, work, vehicle, intent):
        action = self.table.actions[intent]
        if action.kind != "fulfill":
            return (intent,)
        _, v, age = action.trip
        ages = np.nonzero(work.trips[vehicle.dest, v, :] > 0)[0]
        oldest = (intent - age + int(ages[-1]),) if ages.size else ()
        return oldest + (self.table.reposition_at[v],)
