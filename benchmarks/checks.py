"""Output checks, computed apart from the program wherever that is possible.

Every check raises CheckFailed with a one-line reason. The LP checks solve
the program's LpProblem again with scipy's HiGHS and test A x row by row with
the benchmark's own arithmetic; the rollout checks recompute rewards from the
config's fare and cost arrays; the exact check rolls the returned policy under
arrivals the benchmark draws itself.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- linear programs -----------------------------------------------------------


def highs_objective(problem) -> tuple[float, np.ndarray]:
    """Optimum of an LpProblem by scipy's HiGHS, in the problem's own sense."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    A = np.asarray(problem.A, dtype=float)
    senses = np.asarray(problem.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([problem.b[le], -problem.b[ge]])
    sign = -1.0 if problem.maximize else 1.0
    res = linprog(sign * problem.objective,
                  A_ub=csr_matrix(A_ub) if len(b_ub) else None,
                  b_ub=b_ub if len(b_ub) else None,
                  A_eq=csr_matrix(A[eq]) if eq.any() else None,
                  b_eq=problem.b[eq] if eq.any() else None,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise CheckFailed(f"{problem.name}: HiGHS status {res.status}: {res.message}")
    return sign * float(res.fun), np.asarray(res.x)


def check_objective(name: str, objective: float, reference: float,
                    rel: float = 1e-6) -> None:
    require(abs(objective - reference) <= rel * max(1.0, abs(reference)),
            f"{name}: objective {objective!r} differs from reference {reference!r}")


def check_rows(name: str, problem, x: np.ndarray, tol: float = 1e-7) -> None:
    """x >= 0 and every row of A x (senses) b holds, by the benchmark's arithmetic."""
    A, b = np.asarray(problem.A, dtype=float), np.asarray(problem.b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(x).max(initial=0.0)))
    require(bool((x >= -tol * scale).all()), f"{name}: negative variable")
    ax = A @ x
    for i, sense in enumerate(problem.senses):
        gap = {"<=": ax[i] - b[i], ">=": b[i] - ax[i], "=": abs(ax[i] - b[i])}[sense]
        require(gap <= tol * scale, f"{name}: row {i} ({sense}) violated by {gap:.3e}")


def solution_vector(solution, index: dict, n: int) -> np.ndarray:
    x = np.zeros(n)
    for key, j in index.items():
        x[j] = solution.flows[key]
    return x


# -- rollouts -------------------------------------------------------------------


def recomputed_reward(config, records, t: int) -> float:
    """Epoch reward from the config's fare and cost arrays, one term per vehicle."""
    rates = list(config.charge_rates)
    terms = []
    for rec in records:
        a = rec.action
        if a.kind == "fulfill":
            terms.append(float(config.trip_reward[a.trip.origin, a.trip.dest, t]))
        elif a.kind == "reposition":
            terms.append(float(config.reposition_reward[rec.vehicle.dest, a.region, t]))
        elif a.kind == "charge":
            terms.append(float(config.charge_reward[rates.index(a.rate), t]))
        else:
            require(a.kind == "pass", f"unknown atomic action {a.kind!r}")
    return math.fsum(terms)


def check_conserved(config, state, where: str) -> None:
    v, ch = np.asarray(state.vehicles), np.asarray(state.chargers)
    require(bool((v >= 0).all()) and bool((np.asarray(state.trips) >= 0).all())
            and bool((ch >= 0).all()), f"{where}: negative count")
    require(int(v.sum()) == config.fleet_size,
            f"{where}: {int(v.sum())} vehicles, fleet size {config.fleet_size}")
    require(bool((ch.sum(axis=2) == np.asarray(config.charger_counts)).all()),
            f"{where}: charger totals not conserved")


def check_day(config, trace, where: str) -> None:
    """Rewards recompute and add up; every state conserves fleet and chargers."""
    for i, state in enumerate(trace.states):
        check_conserved(config, state, f"{where} state {i}")
    epoch_rewards = []
    for i, epoch in enumerate(trace.epochs):
        t = trace.states[i].t
        expect = recomputed_reward(config, epoch.records, t)
        atomic = math.fsum(r.reward for r in epoch.records)
        got = epoch.info.reward
        tol = 1e-9 * max(1.0, abs(expect))
        require(abs(atomic - expect) <= tol and abs(got - expect) <= tol,
                f"{where} epoch {i}: atomic sum {atomic}, epoch reward {got}, "
                f"recomputed {expect}")
        epoch_rewards.append(got)
    require(abs(math.fsum(epoch_rewards) - trace.total_reward)
            <= 1e-9 * max(1.0, abs(trace.total_reward)),
            f"{where}: day total {trace.total_reward} != sum of epoch rewards")


def mean_stderr(values) -> tuple[float, float]:
    vals = np.asarray(values, dtype=float)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se


def check_below_bound(name: str, values, bound: float, k: float = 3.0) -> None:
    """Mean of per-trajectory (or per-day) rewards at most bound + k stderr."""
    mean, se = mean_stderr(values)
    require(mean <= bound + k * se + 1e-9 * max(1.0, abs(bound)),
            f"{name}: mean daily reward {mean:.4f} above bound {bound:.4f} + {k}*{se:.4f}")


# -- exact value iteration --------------------------------------------------------


def truncated_pmf(lam: np.ndarray, cap: int) -> np.ndarray:
    """Poisson pmf renormalised on 0..cap, along a new first axis of `lam`."""
    pmf = np.stack([lam ** k / math.factorial(k) for k in range(cap + 1)])
    return pmf / pmf.sum(axis=0)


def rollout_gain(sim, config, policy: dict, cap: int, rng: np.random.Generator,
                 chains: int = 40, days: int = 60, warmup: int = 10) -> tuple[float, float]:
    """Mean daily reward and its stderr over independent chains that follow the
    exact solution's policy from the start state, arrivals truncated at cap."""
    T, V = config.horizon_steps, config.num_regions
    pmf = truncated_pmf(np.asarray(config.arrival_rate), cap)
    pairs = [(u, v) for u in range(V) for v in range(V) if u != v]
    means = []
    for _ in range(chains):
        state = sim.initial_state(config)
        total = 0.0
        for day in range(warmup + days):
            for _ in range(T):
                action = policy[(state.t, state.key())]
                # arrivals for epoch t are drawn at rate t+1, as sim.step does
                t1 = (state.t + 1) % T
                arrivals = np.zeros((V, V), dtype=np.int64)
                for u, v in pairs:
                    arrivals[u, v] = rng.choice(cap + 1, p=pmf[:, u, v, t1])
                state, info = sim.transition(config, state, action, arrivals)
                if day >= warmup:
                    total += info.reward
        means.append(total / days)
    return mean_stderr(means)


def check_gain(name: str, gain: float, rolled: tuple[float, float], k: float = 5.0) -> None:
    mean, se = rolled
    require(abs(gain - mean) <= k * se + 1e-9,
            f"{name}: VI gain {gain:.4f} disagrees with its rollout {mean:.4f} +- {se:.4f}")
