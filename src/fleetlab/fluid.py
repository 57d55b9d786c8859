"""Fleet-allocation linear programs and the reward upper bound.

Two equivalent formulations of the stationary (periodic, one-day) flow
relaxation of the dispatch MDP:

* the full LP tracks a flow variable for every (vehicle status, action, time);
* the reduced LP tracks only statuses with remaining time eta <= L_p -- the
  ones that can accept new tasks -- and accounts for in-flight vehicles
  through time-window sums, cutting variable count from O(V^2) to O(V) in the
  duration scale.

The optimum R-bar (scaled by fleet size N) upper-bounds the long-run average
daily reward of every admissible policy. The reduced form needs the
assignment-to-trackable delay to be well defined: for every (u,v,eta',t)
there must be exactly one assignment time phi with
phi + eta' + tau_uv(phi) - L_p = t (always true for time-constant durations).

The occupancy (fleet-total) constraint uses half-open in-flight windows
(the strict inequality in ``_window_counts``, and charge window
t-J+L_p+1..t): a vehicle whose remaining time has just reached L_p is counted
through its new assignment or pass flow, not through the old in-flight flow.
The full LP, where occupancy is implied by per-status conservation, is the
cross-check for this choice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .baselines import IntentQueuePolicy
from .config import NetworkConfig
from .errors import ContractViolation, InvalidArgument, ReductionUnavailable
from .model import AtomicAction, TripStatus, VehicleStatus, charge, fulfill, reposition
from .simplex import LpProblem, LpSolution, solve


def _charge_gains(config: NetworkConfig) -> list[int]:
    """Battery gained per charge period in the LP's linear model.

    Linear mode: rate * period. With a charging curve configured the LP is
    linearized at the curve's 10-40% band average pace; the resulting bound
    is indicative only and flagged on the solution.
    """
    if config.charging_curve is None:
        return [r * config.charge_period for r in config.charge_rates]
    # band-average pace: 10-40% of the curve, same for every rate column
    total_s = 0.0
    prev = 0
    for hi, sec in config.charging_curve:
        lo = prev
        prev = hi
        overlap = max(0, min(hi, 40) - max(lo, 10))
        total_s += overlap * sec
    pace = total_s / 30.0                                 # seconds per percent
    period_s = config.charge_period * config.epoch_minutes * 60.0
    gain = int(period_s / pace * config.battery_capacity / 100.0)
    return [max(min(gain, config.battery_capacity), 1) for _ in config.charge_rates]


@dataclass
class FluidSolution:
    objective: float
    flows: dict[tuple, float]
    formulation: str                      # "full" | "reduced"
    iterations: int
    residual: float
    indicative_only: bool = False

    def nonzero_flows(self) -> dict[tuple, float]:
        """Flows above 1e-9, the level below which a flow counts as zero."""
        return {k: v for k, v in self.flows.items() if v > 1e-9}

    def to_json(self) -> str:
        payload = {
            "objective": self.objective,
            "formulation": self.formulation,
            "iterations": self.iterations,
            "residual": self.residual,
            "indicative_only": self.indicative_only,
            "flows": {"/".join(map(str, k)): v for k, v in self.nonzero_flows().items()},
        }
        return json.dumps(payload, sort_keys=True, indent=1)


class _Builder:
    """Accumulates named variables and sparse rows, then emits an LpProblem."""

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
        n = len(self.obj)
        A = np.zeros((len(self.rows), n))
        for i, entries in enumerate(self.rows):
            for j, coef in entries.items():
                A[i, j] = coef
        names = ["/".join(map(str, k)) for k in self.vars]
        return LpProblem(np.asarray(self.obj), A, self.senses, np.asarray(self.rhs),
                         var_names=names, row_names=self.row_names, name=self.name)


# -- shared row pieces ------------------------------------------------------------


def _window_counts(T: int, t: int, width) -> list[tuple[int, int]]:
    """(start time, multiplicity) pairs for the windows that cover t.

    ``width`` is one width for every start time, or T widths indexed by start
    time (a trip's in-flight span depends on its assignment time). Flows
    repeat daily, so when a window spans more than one full day the same
    daily flow occupies several concurrent copies at time t; the multiplicity
    is the number of lags back >= 0 with back = (t - t') mod T and
    back < width."""
    out = []
    for tp, w in enumerate(np.broadcast_to(width, (T,)).tolist()):
        r = (t - tp) % T
        if w > r:
            out.append((tp, (w - r - 1) // T + 1))
    return out


def _charge_completions(gains: list[int], B: int, b: int):
    """(rate index, start battery) of every charge that ends at battery b:
    the start b - gain, and at b = B also every start the capacity clips."""
    for ri, gain in enumerate(gains):
        if b - gain >= 0:
            yield ri, b - gain
        if b == B:
            for bp in range(max(B - gain + 1, 0), B + 1):
                yield ri, bp


def _charger_cap_rows(bld: _Builder, config: NetworkConfig, key) -> None:
    """Chargers engaged by charge flows started in the last J steps, per
    (region, rate, time); ``key(v, ri, b, t)`` names the charge variable."""
    T, B, N = config.horizon_steps, config.battery_capacity, config.fleet_size
    for t in range(T):
        for v in range(config.num_regions):
            for ri in range(config.num_rates):
                terms: dict[tuple, float] = defaultdict(float)
                for ts, mult in _window_counts(T, t, config.charge_period):
                    for b in range(B + 1):
                        terms[key(v, ri, b, ts)] += mult
                bld.row(terms, "<=", float(config.charger_counts[v, ri]) / N,
                        f"chg/{v}/{ri}/{t}")


# -- full formulation -----------------------------------------------------------


def build_full_lp(config: NetworkConfig) -> tuple[LpProblem, dict[tuple, int]]:
    """Flow variables per (status, action, time); periodic in t."""
    V, B, T = config.num_regions, config.battery_capacity, config.horizon_steps
    Lp, Lc, J = config.pickup_patience, config.connection_patience, config.charge_period
    rates = config.charge_rates
    gains = _charge_gains(config)
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
                        for ri in range(len(rates)):
                            bld.var(("z", u, b, ri, t),
                                    N * float(config.charge_reward[ri, t]))
                    bld.var(("w", u, eta, b, t), 0.0)

    # conservation: inflow at t-1 == outflow at t, per status and time
    for t in range(T):
        tp = (t - 1) % T
        for v in range(V):
            for eta in range(ecap + 1):
                for b in range(B + 1):
                    terms: dict[tuple, float] = defaultdict(float)
                    # (i) fulfillments arriving into (v, eta, b)
                    for u in range(V):
                        if u == v:
                            continue
                        tau = int(config.trip_duration[u, v, tp])
                        cost = int(config.battery_cost[u, v])
                        ep = eta - tau + 1
                        if 0 <= ep <= Lp and b + cost <= B:
                            for xi in range(Lc + 1):
                                terms[("x", u, ep, b + cost, v, xi, tp)] = 1.0
                            # (ii) repositions
                            if ep == 0:
                                terms[("y", u, b + cost, v, tp)] = 1.0
                    # (iii) charging completions
                    if eta == J - 1:
                        for ri, bs in _charge_completions(gains, B, b):
                            terms[("z", v, bs, ri, tp)] += 1.0
                    # (iv)+(v) passing
                    if eta == 0:
                        terms[("w", v, 0, b, tp)] += 1.0
                    if eta + 1 <= ecap:
                        terms[("w", v, eta + 1, b, tp)] += 1.0
                    # outflow (negated)
                    if eta <= Lp:
                        for vv in range(V):
                            if vv == v:
                                continue
                            for xi in range(Lc + 1):
                                terms[("x", v, eta, b, vv, xi, t)] -= 1.0
                    if eta == 0:
                        for vv in range(V):
                            if vv != v:
                                terms[("y", v, b, vv, t)] -= 1.0
                        for ri in range(len(rates)):
                            terms[("z", v, b, ri, t)] -= 1.0
                    terms[("w", v, eta, b, t)] -= 1.0
                    bld.row(terms, "=", 0.0, f"cons/{v}/{eta}/{b}/{t}")

    # trip-order cap: service of the cohort arriving at t, across ages
    for t in range(T):
        for u in range(V):
            for v in range(V):
                if u == v:
                    continue
                terms = {}
                for xi in range(Lc + 1):
                    ts = (t + xi) % T
                    for eta in range(Lp + 1):
                        for b in range(B + 1):
                            terms[("x", u, eta, b, v, xi, ts)] = 1.0
                bld.row(terms, "<=", float(config.arrival_rate[u, v, t]) / N,
                        f"trip/{u}/{v}/{t}")

    _charger_cap_rows(bld, config, lambda v, ri, b, t: ("z", v, b, ri, t))

    # fleet totals to one at every time
    for t in range(T):
        terms = {key: 1.0 for key in bld.vars if key[-1] == t}
        bld.row(terms, "=", 1.0, f"tot/{t}")

    return bld.build(), bld.vars


# -- reduced formulation ---------------------------------------------------------


def _phi(config: NetworkConfig, u: int, v: int, eta_p: int, t: int) -> int:
    """Unique assignment time phi with phi + eta' + tau(phi) - L_p = t."""
    T, Lp = config.horizon_steps, config.pickup_patience
    sols = [tp for tp in range(T)
            if (tp + eta_p + int(config.trip_duration[u, v, tp]) - Lp) % T == t]
    if len(sols) != 1:
        raise ReductionUnavailable(
            f"assignment-time map not unique for ({u},{v},eta'={eta_p},t={t}): "
            f"{len(sols)} solutions; use the full formulation")
    return sols[0]


def build_reduced_lp(config: NetworkConfig) -> tuple[LpProblem, dict[tuple, int]]:
    """Tracked-window formulation over statuses with eta <= L_p."""
    V, B, T = config.num_regions, config.battery_capacity, config.horizon_steps
    Lp, Lc, J = config.pickup_patience, config.connection_patience, config.charge_period
    rates = config.charge_rates
    gains = _charge_gains(config)
    N = config.fleet_size
    bld = _Builder("reduced")

    def cost(u, v):
        return int(config.battery_cost[u, v])

    phi_cache: dict[tuple, int] = {}

    def phi(u, v, ep, t):
        k = (u, v, ep, t)
        if k not in phi_cache:
            phi_cache[k] = _phi(config, u, v, ep, t)
        return phi_cache[k]

    for t in range(T):
        for u in range(V):
            for v in range(V):
                if v != u:
                    for b in range(cost(u, v), B + 1):
                        for eta in range(Lp + 1):
                            bld.var(("xb", u, v, b, eta, t), 0.0)
                    for eta in range(Lp + 1):
                        for xi in range(Lc + 1):
                            bld.var(("xt", u, v, eta, xi, t),
                                    N * float(config.trip_reward[u, v, t]))
                    for b in range(cost(u, v), B + 1):
                        bld.var(("yb", u, v, b, t),
                                N * float(config.reposition_reward[u, v, t]))
                else:
                    for b in range(B + 1):
                        bld.var(("yb", u, u, b, t), 0.0)      # idling
            for ri in range(len(rates)):
                for b in range(B + 1):
                    bld.var(("zb", u, ri, b, t), N * float(config.charge_reward[ri, t]))
            for eta in range(1, Lp + 1):
                for b in range(B + 1):
                    bld.var(("wb", u, b, eta, t), 0.0)

    # conservation for every tracked status (u, eta <= L_p, b) and time
    for t in range(T):
        tp = (t - 1) % T
        for u in range(V):
            for eta in range(Lp + 1):
                for b in range(B + 1):
                    terms: dict[tuple, float] = defaultdict(float)
                    if eta == Lp:
                        for v in range(V):
                            if v == u or b + cost(v, u) > B:
                                continue
                            for ep in range(Lp + 1):
                                terms[("xb", v, u, b + cost(v, u), ep,
                                       phi(v, u, ep, t))] = 1.0
                            terms[("yb", v, u, b + cost(v, u),
                                   phi(v, u, 0, t))] = 1.0
                        tc = (t + Lp - J) % T
                        for ri, bs in _charge_completions(gains, B, b):
                            terms[("zb", u, ri, bs, tc)] += 1.0
                    if eta == 0:
                        terms[("yb", u, u, b, tp)] += 1.0
                    if eta < Lp:
                        terms[("wb", u, b, eta + 1, tp)] += 1.0
                    for v in range(V):
                        if v != u:
                            terms[("xb", u, v, b, eta, t)] -= 1.0
                    if eta == 0:
                        for v in range(V):
                            terms[("yb", u, v, b, t)] -= 1.0
                        for ri in range(len(rates)):
                            terms[("zb", u, ri, b, t)] -= 1.0
                    else:
                        terms[("wb", u, b, eta, t)] -= 1.0
                    bld.row(terms, "=", 0.0, f"cons/{u}/{eta}/{b}/{t}")

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

    # trip-order cap per arrival cohort
    for t in range(T):
        for u in range(V):
            for v in range(V):
                if u == v:
                    continue
                terms = {}
                for xi in range(Lc + 1):
                    ts = (t + xi) % T
                    for eta in range(Lp + 1):
                        terms[("xt", u, v, eta, xi, ts)] = 1.0
                bld.row(terms, "<=", float(config.arrival_rate[u, v, t]) / N,
                        f"trip/{u}/{v}/{t}")

    _charger_cap_rows(bld, config, lambda v, ri, b, t: ("zb", v, ri, b, t))

    # occupancy: every vehicle counted exactly once per time step; an assigned
    # vehicle stays out of the tracked statuses for eta' + tau(t') - L_p steps
    for t in range(T):
        terms = defaultdict(float)
        for u in range(V):
            for v in range(V):
                if v == u:
                    for b in range(B + 1):
                        terms[("yb", u, u, b, t)] += 1.0
                    continue
                for eta in range(Lp + 1):
                    in_flight = eta + config.trip_duration[u, v] - Lp
                    for ts, mult in _window_counts(T, t, in_flight):
                        for b in range(B + 1):
                            terms[("xb", u, v, b, eta, ts)] += mult
                for ts, mult in _window_counts(T, t, config.trip_duration[u, v] - Lp):
                    for b in range(B + 1):
                        terms[("yb", u, v, b, ts)] += mult
            for ri in range(len(rates)):
                for ts, mult in _window_counts(T, t, J - Lp):
                    for b in range(B + 1):
                        terms[("zb", u, ri, b, ts)] += mult
            for eta in range(1, Lp + 1):
                for b in range(B + 1):
                    terms[("wb", u, b, eta, t)] += 1.0
        bld.row(terms, "=", 1.0, f"tot/{t}")

    return bld.build(), bld.vars


# -- solving and the bound -------------------------------------------------------


def solve_fluid(problem: LpProblem, index: dict[tuple, int],
                formulation: str, indicative: bool = False) -> FluidSolution:
    sol: LpSolution = solve(problem)
    x = np.where(np.abs(sol.x) < 1e-12, 0.0, sol.x)
    flows = {key: float(x[j]) for key, j in index.items()}
    residual = float(problem.residuals(sol.x).max(initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.abs(problem.b).max(initial=0.0))):
        raise ContractViolation(f"fluid solution residual {residual:.3e}")
    return FluidSolution(sol.objective, flows, formulation, sol.iterations,
                         residual, indicative_only=indicative)


def upper_bound(config: NetworkConfig, formulation: str = "auto") -> FluidSolution:
    """Daily-reward upper bound R-bar; reduced form when available."""
    indicative = config.charging_curve is not None
    if formulation in ("auto", "reduced"):
        try:
            prob, index = build_reduced_lp(config)
            return solve_fluid(prob, index, "reduced", indicative)
        except ReductionUnavailable:
            if formulation == "reduced":
                raise
    prob, index = build_full_lp(config)
    return solve_fluid(prob, index, "full", indicative)


# -- randomized-rounding policy ---------------------------------------------------


def _toward(region: int) -> AtomicAction:
    """Intent to serve a queued trip to ``region`` (the age is picked at act)."""
    return AtomicAction("fulfill", region=region)


# flow kind -> (status, intent) of one vehicle on that flow, from the variable
# keys of build_full_lp and build_reduced_lp; idle flows carry no intent
_FLOW_INTENTS = {
    "x": lambda rates, k: (VehicleStatus(k[1], k[2], k[3]), _toward(k[4])),       # u eta b v xi t
    "xb": lambda rates, k: (VehicleStatus(k[1], k[4], k[3]), _toward(k[2])),      # u v b eta t
    "y": lambda rates, k: (VehicleStatus(k[1], 0, k[2]), reposition(k[3])),       # u b v t
    "yb": lambda rates, k: (VehicleStatus(k[1], 0, k[3]),                         # u v b t
                            None if k[1] == k[2] else reposition(k[2])),
    "z": lambda rates, k: (VehicleStatus(k[1], 0, k[2]), charge(rates[k[3]])),    # u b ri t
    "zb": lambda rates, k: (VehicleStatus(k[1], 0, k[3]), charge(rates[k[2]])),   # u ri b t
}


class FluidRoundingPolicy(IntentQueuePolicy):
    """Rounds the fluid flows to integer per-epoch assignment targets.

    At each epoch the target count for every (status, action) flow is
    N*fraction, rounded by floor plus a Bernoulli trial on the remainder, and
    that many intents join the queue of the flow's exact status. Idle flows
    draw their trial but add no intent. A vehicle pops intents until one is
    feasible: a fulfill intent toward region v tries the oldest queued trip
    to v, then a reposition to v; if no intent is feasible the vehicle passes.
    """

    def __init__(self, config: NetworkConfig, solution: FluidSolution):
        super().__init__()
        self.solution = solution
        self._by_time: dict[int, list[tuple[VehicleStatus, AtomicAction | None, float]]] = {}
        for key, frac in sorted(solution.nonzero_flows().items()):
            if key[0] in _FLOW_INTENTS:
                status, intent = _FLOW_INTENTS[key[0]](config.charge_rates, key)
                self._by_time.setdefault(key[-1], []).append((status, intent, frac))

    def begin_epoch(self, config, state, rng):
        self.intents = {}
        N = config.fleet_size
        for status, intent, frac in self._by_time.get(state.t, []):
            target = N * frac
            count = int(target) + (1 if rng.random() < target - int(target) else 0)
            if intent is not None and count > 0:
                self.intents.setdefault(status, []).extend([intent] * count)

    def _candidates(self, work, vehicle, intent):
        if intent.kind != "fulfill":
            return (intent,)
        u, v = vehicle.dest, intent.region
        ages = np.nonzero(work.trips[u, v, :] > 0)[0]
        oldest = (fulfill(TripStatus(u, v, int(ages[-1]))),) if ages.size else ()
        return oldest + (reposition(v),)
