"""Tests for the fluid relaxation bound and the rounding policy."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from fleetlab import cli, fluid, sim
from fleetlab.baselines import exact_value_iteration
from fleetlab.errors import InvalidArgument
from fleetlab.fluid import (
    FluidRoundingPolicy,
    build_full_lp,
    build_reduced_lp,
    upper_bound,
)
from fleetlab.model import action_table
from fleetlab.scenarios import TEMPLATES, synth_scenario
from fleetlab.simplex import LpProblem, export_mps

from conftest import random_config, tiny_config


def test_upper_bound_positive_on_tiny(tiny):
    sol = upper_bound(tiny)
    assert sol.objective > 0
    assert sol.formulation == "reduced"
    assert sol.residual <= 1e-8


def test_full_and_reduced_agree_on_tiny(tiny):
    full = upper_bound(tiny, formulation="full")
    red = upper_bound(tiny, formulation="reduced")
    assert full.formulation == "full"
    assert red.objective == pytest.approx(full.objective, rel=1e-6)


def test_full_and_reduced_agree_on_random_instances():
    rng = np.random.default_rng(20)
    done = 0
    while done < 8:
        cfg = random_config(rng)
        red = upper_bound(cfg, formulation="reduced")
        full = upper_bound(cfg, formulation="full")
        assert red.objective == pytest.approx(full.objective, rel=1e-6, abs=1e-9)
        done += 1


def test_reduced_equals_full_for_time_varying_durations(tiny):
    """Two assignment times land in the same tracked row here, which an
    assignment-time inversion cannot express; the forward build can."""
    dur = tiny.trip_duration.copy()
    dur[0, 1, 0] = 3  # differs from other epochs
    cfg = dataclasses.replace(tiny, trip_duration=dur)
    red = upper_bound(cfg)
    assert red.formulation == "reduced"
    full = upper_bound(cfg, formulation="full")
    assert red.objective == pytest.approx(full.objective, rel=1e-9, abs=1e-9)


def test_unknown_formulation_rejected(tiny):
    with pytest.raises(InvalidArgument):
        upper_bound(tiny, formulation="auto")


def test_bound_callers_reach_the_builders_by_module_name(tiny, tmp_path, monkeypatch):
    """A wrapper set on fluid.build_reduced_lp or fluid.build_full_lp, the way
    the benchmark's tracer hooks a layer, is what upper_bound and `fleetlab
    bound` call."""
    calls = []
    for name in ("build_reduced_lp", "build_full_lp"):
        def wrapper(config, _orig=getattr(fluid, name), _name=name):
            calls.append(_name)
            return _orig(config)
        monkeypatch.setattr(fluid, name, wrapper)
    path = tmp_path / "tiny.json"
    path.write_text(tiny.to_json())
    for form in fluid.FORMULATIONS:
        upper_bound(tiny, formulation=form)
        assert cli.main(["bound", "--config", str(path), "--formulation", form]) == 0
    assert calls == ["build_reduced_lp"] * 2 + ["build_full_lp"] * 2


def test_bound_dominates_simulated_policies(tiny):
    """Any simulated policy's mean daily reward stays below the bound
    (up to sampling noise)."""
    from fleetlab.baselines import PowerOfKPolicy, RandomFeasiblePolicy

    sol = upper_bound(tiny)
    for policy in (PowerOfKPolicy(tiny, k=2), RandomFeasiblePolicy()):
        rng = np.random.default_rng(5)
        traces = sim.run_days(tiny, policy, 40, rng)
        daily = np.array([tr.total_reward for tr in traces[5:]])
        stderr = daily.std(ddof=1) / np.sqrt(daily.size)
        assert daily.mean() <= sol.objective + 3 * stderr


@pytest.mark.parametrize("seed, B", [(s, B) for s in range(5) for B in (4, 5)])
def test_bound_dominates_exact_optimum_under_charging_curve(seed, B):
    """With a charging curve the LP charges as the simulator does, so the
    exact optimum of the truncated-arrival instance stays below its bound.
    The curve is slow at 10-40% and fast above, far from any linear rate."""
    curve = ((10, 5.0), (40, 200.0), (100, 1.0))
    cfg = dataclasses.replace(tiny_config(N=1, B=B, J=2, L_p=0, seed=seed),
                              charging_curve=curve)
    exact = exact_value_iteration(cfg, arrival_cap=1)
    lam = cfg.arrival_rate
    # mean of Poisson(lam) truncated at one arrival: lam / (1 + lam)
    trunc = dataclasses.replace(cfg, arrival_rate=lam / (1.0 + lam))
    assert exact.converged
    assert exact.gain_max <= upper_bound(trunc).objective + 1e-6


def test_zero_demand_gives_nonpositive_bound(tiny):
    cfg = dataclasses.replace(tiny, arrival_rate=np.zeros_like(tiny.arrival_rate))
    sol = upper_bound(cfg)
    # nothing to serve; only pass (0) or costed actions are available
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_flows_nonnegative_and_json_round_trip(tiny):
    sol = upper_bound(tiny)
    for val in sol.flows.values():
        assert val >= 0.0
    payload = json.loads(sol.to_json())
    assert payload["objective"] == pytest.approx(sol.objective)
    assert payload["formulation"] == "reduced"
    assert all(v > 1e-9 for v in payload["flows"].values())


def test_rounding_policy_runs_and_respects_feasibility(tiny):
    sol = upper_bound(tiny)
    policy = FluidRoundingPolicy(tiny, sol)
    rng = np.random.default_rng(7)
    traces = sim.run_days(tiny, policy, 5, rng)  # sim validates every action
    assert len(traces) == 5
    daily = [tr.total_reward for tr in traces]
    assert all(np.isfinite(daily))


def test_rounding_policy_beats_always_pass_on_tiny(tiny):
    from fleetlab.baselines import AlwaysPassPolicy

    sol = upper_bound(tiny)
    rng = np.random.default_rng(9)
    fr = sim.run_days(tiny, FluidRoundingPolicy(tiny, sol), 30, rng)
    ap = sim.run_days(tiny, AlwaysPassPolicy(), 5, np.random.default_rng(9))
    fr_mean = np.mean([tr.total_reward for tr in fr[5:]])
    ap_mean = np.mean([tr.total_reward for tr in ap])
    assert ap_mean == 0.0
    assert fr_mean > ap_mean


def test_lp_shapes_scale_with_config(tiny):
    prob_f, idx_f = build_full_lp(tiny)
    prob_r, idx_r = build_reduced_lp(tiny)
    assert prob_f.shape[1] == len(idx_f)
    assert prob_r.shape[1] == len(idx_r)
    # the reduced form tracks aggregate battery, so it is no larger
    assert prob_r.shape[1] <= prob_f.shape[1]


@pytest.mark.parametrize("formulation, kinds", [("full", "x y z w"),
                                                ("reduced", "xb yb zb wb")])
def test_every_lp_flow_names_an_action_table_row(formulation, kinds):
    """Each vehicle flow of the LP, read through fluid._FLOWS, moves its
    vehicle by a row of the action table, so LP flows and trajectories name
    the same actions; each of the formulation's flow kinds occurs."""
    for config in [synth_scenario(tpl, seed=0) for tpl in TEMPLATES] + [tiny_config()]:
        _, index = fluid.build_lp(config, formulation)
        rows = action_table(config).index
        flows = [key for key in index if key[0] in fluid._FLOWS]
        assert {key[0] for key in flows} == set(kinds.split())
        for key in flows:
            assert fluid._FLOWS[key[0]](config.charge_rates, key)[1] in rows, key


# SHA-256 over A, objective, b, then the JSON of senses, the columns' names
# ("/"-joined index keys, in column order) and row_names; recorded before the
# LP builders shared their window arithmetic.
GOLDEN_LP_DIGESTS = {
    ("tiny", "full"):
        "381cdce96e4ac81b091f11f5b92b11776c204648ff34977b6e8abee9b347d699",
    ("tiny", "reduced"):
        "239cacba22303bedaeaf53809c1d0b4f7d662065d72330a289bff65205461429",
    ("two-region-commute", "full"):
        "1787e8b829c433387f536a679462769b1482460713366f444c88e7b61b635d29",
    ("two-region-commute", "reduced"):
        "f875134737591f452b25758ec68f490482149528a3a703d2aeee6bc0df9f3432",
}


def _lp_digest(problem, index) -> str:
    h = hashlib.sha256()
    for arr in (problem.A, problem.objective, problem.b):
        h.update(np.ascontiguousarray(arr).tobytes())
    keys = sorted(index, key=index.get)
    assert [index[k] for k in keys] == list(range(problem.shape[1]))   # one key per column
    columns = ["/".join(map(str, k)) for k in keys]
    h.update(json.dumps([problem.senses, columns, problem.row_names]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("scenario, formulation", sorted(GOLDEN_LP_DIGESTS))
def test_lps_match_recorded_digests(scenario, formulation):
    config = tiny_config() if scenario == "tiny" else synth_scenario(scenario, seed=0)
    build = build_full_lp if formulation == "full" else build_reduced_lp
    problem, index = build(config)
    assert _lp_digest(problem, index) == GOLDEN_LP_DIGESTS[(scenario, formulation)]


@pytest.mark.parametrize("T", [1, 2, 5])
def test_charger_rows_match_brute_force_lag_count(T):
    """A charge flow started at t' counts in the charger row of t once per
    lag 0 <= back < J with (t - back) % T == t'; periods up to 3T cover
    sessions longer than a day."""
    for J in range(2, 3 * T + 1):
        cfg = tiny_config(T=T, J=J)
        for build in (build_full_lp, build_reduced_lp):
            prob, index = build(cfg)
            A = prob.A
            rows = {name: i for i, name in enumerate(prob.row_names)}
            for key, j in index.items():
                if key[0] not in ("z", "zb"):
                    continue
                u, ri, ts = key[1], key[3] if key[0] == "z" else key[2], key[-1]
                for t in range(T):
                    want = sum(1 for back in range(J) if (t - back) % T == ts)
                    assert A[rows[f"chg/{u}/{ri}/{t}"], j] == want, (J, key, t)


def test_lps_are_built_solved_and_exported_without_a_dense_matrix(monkeypatch, tmp_path):
    """Building, solving, certifying and exporting commute's LPs, also
    through `fleetlab bound --mps`, never reads the dense view LpProblem.A."""
    def dense(problem):
        raise AssertionError("LpProblem.A read")

    monkeypatch.setattr(LpProblem, "A", property(dense))
    config = synth_scenario("two-region-commute", 0)
    for formulation in ("reduced", "full"):
        assert upper_bound(config, formulation).objective > 0
    export_mps(build_reduced_lp(config)[0], tmp_path / "reduced.mps")
    assert cli.main(["bound", "--scenario", "two-region-commute", "--formulation", "full",
                     "--mps", str(tmp_path / "full.mps")]) == 0
    assert (tmp_path / "full.mps").stat().st_size > 0


def test_large_lp_builds_in_a_tenth_of_its_dense_size():
    """A reduced LP whose dense matrix would take 321 MB (3096 x 12960)
    builds with a traced peak under a tenth of that."""
    config = tiny_config(V=4, B=10, T=24)
    tracemalloc.start()
    try:
        problem, _ = build_reduced_lp(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, n = problem.shape
    assert m * n * 8 > 100e6
    assert peak < m * n * 8 / 10, (peak, m, n)
