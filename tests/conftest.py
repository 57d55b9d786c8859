import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fleetlab import nn
from fleetlab.config import NetworkConfig

# scorecard lines from the acceptance suite, echoed after the test summary
CRITERION_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in CRITERION_RESULTS:
        terminalreporter.write_line(line)


def highs_optimum(problem):
    """scipy HiGHS optimum of an LpProblem: (objective in the problem's own
    sense, x), or None if it is infeasible."""
    from scipy.optimize import linprog

    senses = np.asarray(problem.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    sign = -1.0 if problem.maximize else 1.0
    res = linprog(sign * problem.objective,
                  A_ub=np.vstack([problem.A[le], -problem.A[ge]]),
                  b_ub=np.concatenate([problem.b[le], -problem.b[ge]]),
                  A_eq=problem.A[eq] if eq.any() else None,
                  b_eq=problem.b[eq] if eq.any() else None,
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return sign * float(res.fun), res.x


def tiny_config(V=2, T=4, N=2, B=3, J=2, L_p=1, L_c=1, tau=2, seed=None,
                rates=(1,), chargers=1, lam_scale=1.0) -> NetworkConfig:
    """Small hand-adjustable instance used across the suite."""
    rng = np.random.default_rng(seed) if seed is not None else None
    dur = np.full((V, V, T), tau, dtype=np.int64)
    cost = np.ones((V, V), dtype=np.int64)
    np.fill_diagonal(cost, 0)
    lam = np.zeros((V, V, T))
    for u in range(V):
        for v in range(V):
            if u != v:
                lam[u, v, :] = lam_scale * (0.25 + 0.5 * ((u + v) % 2))
    if rng is not None:
        lam *= rng.uniform(0.5, 1.5, size=lam.shape)
    fare = np.full((V, V, T), 5.0)
    repo = np.full((V, V, T), -1.0)
    for v in range(V):
        repo[v, v, :] = 0.0
    return NetworkConfig(
        num_regions=V, fleet_size=N, battery_capacity=B, horizon_steps=T,
        epoch_minutes=5, charge_rates=rates, charge_period=J,
        charger_counts=np.full((V, len(rates)), chargers, dtype=np.int64),
        pickup_patience=L_p, connection_patience=L_c,
        trip_duration=dur, battery_cost=cost, arrival_rate=lam,
        trip_reward=fare, reposition_reward=repo,
        charge_reward=np.full((len(rates), T), -0.1),
        charging_curve=None, demand_scale=1.0, name="tiny")


@pytest.fixture
def tiny():
    return tiny_config()


def float64_copy(mset: nn.MlpSet) -> nn.MlpSet:
    """The set's weights upcast into a float64 buffer, for tests that compare
    the networks with float64 math (finite differences, reference Adam)."""
    flat = mset.flat.astype(np.float64)
    size = mset.nets[0].flat.size
    nets = [nn.Mlp(flat[k * size:(k + 1) * size], net.dims, net.activations)
            for k, net in enumerate(mset.nets)]
    return nn.MlpSet(nets, mset.kind, flat)


def random_config(rng: np.random.Generator) -> NetworkConfig:
    """Random valid instance for property tests."""
    V = int(rng.integers(2, 4))
    T = int(rng.integers(2, 7))
    N = int(rng.integers(1, 5))
    B = int(rng.integers(2, 7))
    L_p = int(rng.integers(0, 2))
    J = int(rng.integers(L_p + 1, L_p + 3))
    tau_lo = L_p + 1
    dur = rng.integers(tau_lo, tau_lo + 3, size=(V, V, T)).astype(np.int64)
    cost = rng.integers(1, max(2, B // 2 + 1), size=(V, V)).astype(np.int64)
    np.fill_diagonal(cost, 0)
    lam = rng.uniform(0.0, 2.0, size=(V, V, T))
    for v in range(V):
        lam[v, v, :] = 0.0
    fare = rng.uniform(1.0, 10.0, size=(V, V, T))
    repo = -rng.uniform(0.0, 2.0, size=(V, V, T))
    for v in range(V):
        repo[v, v, :] = 0.0
    n_rates = int(rng.integers(1, 3))
    rates = tuple(sorted(set(int(r) for r in rng.integers(1, 4, size=n_rates))))
    return NetworkConfig(
        num_regions=V, fleet_size=N, battery_capacity=B, horizon_steps=T,
        epoch_minutes=5, charge_rates=rates, charge_period=J,
        charger_counts=rng.integers(0, 3, size=(V, len(rates))).astype(np.int64),
        pickup_patience=L_p, connection_patience=int(rng.integers(0, 3)),
        trip_duration=dur, battery_cost=cost, arrival_rate=lam,
        trip_reward=fare, reposition_reward=repo,
        charge_reward=-rng.uniform(0.0, 1.0, size=(len(rates), T)),
        charging_curve=None, demand_scale=1.0, name="random")
