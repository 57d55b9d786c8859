"""The four workloads. Each one makes its inputs from the seed, builds what a
user builds before the first call (timed as set-up), runs rounds of the same
program calls (timed), and checks the first round's outputs (untimed).

A round returns (CPU seconds in program calls, operations, outputs); given a
HostSpeed, it samples the host's speed between program calls. An operation
carries the counts the program promises to repeat under a fixed seed; the
runner compares them between rounds and runs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from checks import require

TEMPLATES = ("two-region-commute", "uniform", "hub-spoke-imbalanced")


@dataclass
class Op:
    key: str
    counts: list = field(default_factory=list)
    ok: bool = True                 # False: the program raised or reported failure
    note: str = ""


class _Clock:
    """Sums the CPU time of the program calls made inside `with clock:`. The
    process runs one thread on one BLAS thread, so its CPU time is the work
    done, without the time a shared host gives to other tenants. After each
    block, outside the sum, `host` samples the host's speed."""

    def __init__(self, host=None):
        self.total = 0.0
        self.host = host

    def __enter__(self):
        self._t0 = time.process_time()

    def __exit__(self, *exc):
        elapsed = time.process_time() - self._t0
        self.total += elapsed
        if self.host is not None:
            self.host.after(elapsed)
        return False


def _module(name: str):
    return sys.modules[name]


def _highs_flows(fl, config, builder):
    """HiGHS optimum of the program's LP: (objective, flows by variable key)."""
    problem, index = builder(config)
    obj, x = checks.highs_objective(problem)
    x = np.where(np.abs(x) < 1e-12, 0.0, np.maximum(x, 0.0))
    return obj, {key: float(x[j]) for key, j in index.items()}


# -- bound -------------------------------------------------------------------------


class Bound:
    """`fleetlab bound`: the reduced LP of two templates and the full LP of
    commute, each built, solved and certified. The seed sets the demand
    jitter, as `fleetlab --seed S bound` does. Left out: hub-spoke's reduced
    LP alone takes 55 to 95 s of one core (2598 to 3309 pivots at 19 to
    25 ms), more than a run can hold; uniform's full LP doubles the round
    and its memory-bound pivots (7 to 15 ms) make the run-to-run spread."""

    HOST_SCALED = False     # dense numpy pivots: the host kernel does not track them

    def __init__(self, seed: int):
        self.seed = seed
        self.lps = [("two-region-commute", "reduced", seed), ("uniform", "reduced", seed),
                    ("two-region-commute", "full", seed)]
        self.per_lp: dict[str, dict] = {}

    def inputs(self, fl):
        return None

    def build(self, fl, inputs):
        return {(tpl, s): fl.synth_scenario(tpl, s) for tpl, _, s in self.lps}

    def round(self, ctx, tracer, host=None):
        fluid = _module("fleetlab.fluid")
        clock = _Clock(host)
        ops, outputs = [], {}
        for tpl, form, s in self.lps:
            key = f"{tpl}.{form}"
            before = _snapshot(tracer)
            with clock:
                sol = fluid.upper_bound(ctx[(tpl, s)], formulation=form)
            if tracer is not None:
                self._record_lp(key, before, _snapshot(tracer))
            outputs[key] = (ctx[(tpl, s)], form, sol)
            ops.append(Op(key, [sol.iterations]))
        return clock.total, ops, outputs

    def _record_lp(self, key, before, after):
        acc = self.per_lp.setdefault(key, {"solve_s": 0.0, "pivots": 0, "exact_retries": 0})
        acc["solve_s"] += after[0] - before[0]
        acc["pivots"] += after[1] - before[1]
        acc["exact_retries"] += after[2] - before[2]

    def check(self, ctx, outputs):
        for key, (config, form, sol) in outputs.items():
            self.check_lp(key, config, form, sol)
        checks.check_objective("two-region-commute full vs reduced",
                               outputs["two-region-commute.full"][2].objective,
                               outputs["two-region-commute.reduced"][2].objective)

    @staticmethod
    def check_lp(key, config, form, sol):
        """Objective against HiGHS on the same LpProblem; A x against every row."""
        fluid = _module("fleetlab.fluid")
        builder = fluid.build_reduced_lp if form == "reduced" else fluid.build_full_lp
        problem, index = builder(config)
        reference, _ = checks.highs_objective(problem)
        checks.check_objective(key, sol.objective, reference)
        checks.check_rows(key, problem, checks.solution_vector(sol, index, problem.shape[1]))

    def describe(self, round_s):
        return f"bound_s {round_s:.4f} s for {len(self.lps)} LPs"


def _snapshot(tracer):
    if tracer is None:
        return None
    return (tracer.seconds("simplex.solve"), tracer.counters["simplex.pivots"],
            tracer.counters["simplex.exact_retries"])


def lp_metrics(per_lp: dict, rounds: int) -> dict:
    """simplex metrics per LP of the bound workload; zero where none was solved."""
    out = {}
    for tpl, form, _ in Bound(0).lps:
        key = f"{tpl}.{form}"
        acc = per_lp.get(key, {"solve_s": 0.0, "pivots": 0, "exact_retries": 0})
        piv = acc["pivots"]
        out[f"simplex.{key}.solve_s"] = (acc["solve_s"] / rounds, "s")
        out[f"simplex.{key}.pivots"] = (piv / rounds, "count")
        out[f"simplex.{key}.us_per_pivot"] = (1e6 * acc["solve_s"] / piv if piv else 0.0, "us")
        out[f"simplex.{key}.exact_retries"] = (acc["exact_retries"] / rounds, "count")
    return out


# -- rollout -----------------------------------------------------------------------


class Rollout:
    """`fleetlab evaluate`/`compare`: seeded trajectories of three heuristic
    policies on the three templates, serial. The fluid-rounding policy rounds
    a HiGHS optimum of the program's reduced LP, so no simplex runs here."""

    TRAJECTORIES = 2                  # per policy and template; evens out the seed's effect
    DAYS = 5
    CHECK_TRAJECTORIES = 8
    CHECK_DAYS = 6
    HOST_SCALED = True      # interpreter-bound, like the host kernel

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, fl):
        out = {}
        for tpl in TEMPLATES:
            config = fl.synth_scenario(tpl, self.seed)
            out[tpl] = _highs_flows(fl, config, fl.fluid.build_reduced_lp)
        return out

    def build(self, fl, inputs):
        ctx = []
        for tpl in TEMPLATES:
            config = fl.synth_scenario(tpl, self.seed)
            obj, flows = inputs[tpl]
            solution = fl.FluidSolution(obj, flows, "reduced", 0, 0.0)
            ctx.append((tpl, config, obj, [
                ("power-of-2", fl.PowerOfKPolicy(config, k=2)),
                ("random", fl.RandomFeasiblePolicy()),
                ("fluid", fl.FluidRoundingPolicy(config, solution)),
            ]))
        return ctx

    def days_per_round(self):
        return len(TEMPLATES) * 3 * self.TRAJECTORIES * self.DAYS

    def round(self, ctx, tracer, host=None):
        sim = _module("fleetlab.sim")
        clock = _Clock(host)
        ops, outputs = [], []
        for tpl, config, bound, policies in ctx:
            for pname, policy in policies:
                for k in range(self.TRAJECTORIES):
                    # the stream `evaluate` gives its trajectory k
                    rng = np.random.default_rng([self.seed, 5, k, 11])
                    with clock:
                        days = sim.run_days(config, policy, self.DAYS, rng)
                    steps = sum(len(e.records) for d in days for e in d.epochs)
                    ops.append(Op(f"{tpl}.{pname}.{k}",
                                  [steps, math.fsum(d.total_reward for d in days)]))
                    outputs.append((tpl, pname, config, bound, days))
        return clock.total, ops, outputs

    def check(self, ctx, outputs):
        for tpl, pname, config, bound, days in outputs:
            for i, day in enumerate(days):
                checks.check_day(config, day, f"{tpl} {pname} day {i}")
        # Single days can beat the bound, so the bound check takes the mean of
        # several trajectories (rolled here, untimed), each after a warm-up day.
        sim = _module("fleetlab.sim")
        for tpl, config, bound, policies in ctx:
            for pname, policy in policies:
                means = []
                for k in range(self.CHECK_TRAJECTORIES):
                    days = sim.run_days(config, policy, self.CHECK_DAYS,
                                        np.random.default_rng([self.seed, 5, k, 11]))
                    means.append(math.fsum(d.total_reward for d in days[1:]) / (len(days) - 1))
                checks.check_below_bound(f"{tpl} {pname}", means, bound)

    def describe(self, round_s):
        return (f"eval_days_per_s {self.days_per_round() / round_s:.4f} days/s "
                f"({self.days_per_round()} days per round)")


# -- train ------------------------------------------------------------------------


# what `fleetlab train --iterations 2 --trajectories 3 --days 2` sets; every
# other field keeps the library default, as the CLI leaves it
PPO_SETTINGS = dict(policy_iterations=2, trajectories_per_iter=3, days_per_trajectory=2)


class Train:
    """`fleetlab train --iterations 2 --trajectories 3 --days 2` on
    two-region-commute, then an evaluation of the trained policy."""

    EVAL_DAYS = 3
    TEMPLATE = "two-region-commute"
    HOST_SCALED = False     # mostly numpy on many small nets: the host kernel does not track it

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def inputs(self, fl):
        obj, _ = _highs_flows(fl, fl.synth_scenario(self.TEMPLATE, self.seed),
                              fl.fluid.build_reduced_lp)
        return obj

    def build(self, fl, bound):
        config = fl.synth_scenario(self.TEMPLATE, self.seed)
        pcfg = fl.PpoConfig(seed=self.seed, **PPO_SETTINGS)
        fl.ppo.init_networks(config, pcfg)      # what train() builds before its first step
        return config, pcfg, bound

    def round(self, ctx, tracer, host=None):
        ppo = _module("fleetlab.ppo")
        config, pcfg, _ = ctx
        clock = _Clock(host)
        with clock:
            result = ppo.train(config, pcfg)
            ev = ppo.evaluate_policy(config, ppo.NeuralPolicy(config, result.policy),
                                     self.EVAL_DAYS, seed=self.seed + 7)
        ops = [Op("train", [r.g_estimate for r in result.reports]),
               Op("evaluate", list(ev["daily_rewards"]) + [ev["fulfilled"]])]
        return clock.total, ops, (result, ev)

    def check(self, ctx, outputs):
        config, _, bound = ctx
        result, ev = outputs
        for r in result.reports:
            values = [r.g_estimate, r.surrogate, r.clip_fraction, r.eval_reward] + r.value_losses
            require(all(math.isfinite(v) for v in values),
                    f"iteration {r.iteration}: non-finite loss or estimate")
        self.check_roundtrip(config, result.policy)
        daily = ev["daily_rewards"]
        require(checks.mean_stderr(daily)[0] > 0.0,
                f"trained policy earns {checks.mean_stderr(daily)[0]:.4f} per day, not > 0")
        checks.check_below_bound("trained policy", daily, bound)

    def check_roundtrip(self, config, pset):
        nn = _module("fleetlab.nn")
        path = os.path.join(self.scratch, f"train-seed{self.seed}-policy.bin")
        os.makedirs(self.scratch, exist_ok=True)
        nn.save_set(path, pset)
        loaded = nn.load_set(path)
        os.remove(path)
        rng = np.random.default_rng([self.seed, 71])
        d_obs = pset.nets[0].dims[0] - _veh_dim(config)
        for t in range(config.horizon_steps):
            obs = rng.uniform(0.0, 1.0, size=d_obs)
            veh = np.zeros(_veh_dim(config))
            veh[rng.integers(config.num_regions)] = 1.0
            mask = rng.random(pset.nets[0].dims[-1]) < 0.5
            mask[-1] = True
            a = nn.forward_policy(pset, obs, veh, mask, t)
            b = nn.forward_policy(loaded, obs, veh, mask, t)
            # float32 storage: relative rounding 6e-8 per weight, amplified by the
            # fan-in of three hidden layers; 1e-5 is far above that and far below
            # any real change of the network
            require(float(np.abs(a - b).max()) <= 1e-5,
                    f"save_set/load_set round trip moves probabilities by "
                    f"{float(np.abs(a - b).max()):.3e} at t={t}")

    def describe(self, round_s):
        return f"train_s {round_s:.4f} s"


def _veh_dim(config):
    return _module("fleetlab.reduce").vehicle_feature_dim(config)


# -- exact ------------------------------------------------------------------------


def multichain_arrays(rng):
    """The draw of test_04's `_vi_instance`; seed 0 gives a multichain instance."""
    V = 2 if rng.random() < 0.8 else 3
    T = int(rng.integers(2, 4))
    N = int(rng.integers(1, 3))
    B = int(rng.integers(2, 4))
    J = int(rng.integers(1, 3))
    dur = np.full((V, V, T), int(rng.integers(1, 3)), dtype=np.int64)
    lam = rng.uniform(0.05, 0.4, size=(V, V, T))
    fare = rng.uniform(2.0, 8.0, size=(V, V, T))
    repo = -rng.uniform(0.1, 1.0, size=(V, V, T))
    chargers = rng.integers(0, 2, size=(V, 1)).astype(np.int64)
    Lc = int(rng.integers(0, 2))
    return dict(V=V, T=T, N=N, B=B, J=J, dur=dur, lam=lam, fare=fare, repo=repo,
                chargers=chargers, Lc=Lc)


def unichain_arrays(rng):
    """Same distributions on a fixed shape with a charger in every region, so
    no vehicle can strand with an empty battery and the MDP is unichain. The
    shape, trip duration 1 included, fixes the state count (612), so the
    seed moves the work of a round little."""
    V, T = 2, 2
    dur = np.full((V, V, T), 1, dtype=np.int64)
    return dict(V=V, T=T, N=2, B=2, J=2, dur=dur,
                lam=rng.uniform(0.05, 0.4, size=(V, V, T)),
                fare=rng.uniform(2.0, 8.0, size=(V, V, T)),
                repo=-rng.uniform(0.1, 1.0, size=(V, V, T)),
                chargers=np.ones((V, 1), dtype=np.int64), Lc=0)


class Exact:
    """Exact value iteration plus the truncated-arrival fluid bound on tiny
    instances. The multichain instance is fixed (it does not depend on the
    seed); the unichain ones are drawn from the seed."""

    UNICHAIN = 2
    # a fifth of the library default: the multichain instance never converges,
    # and 20 000 sweeps show the fault at a fifth of the cost
    MAX_ITERS = 20_000
    ROLLOUT_K = 5.0                   # stderr allowed between a gain and its rollout
    VI_TOL = 1e-8                     # the library default; converged means span <= tol
    HOST_SCALED = True                # interpreter-bound, like the host kernel

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, fl):
        draws = [("multichain", multichain_arrays(np.random.default_rng([57, 0])))]
        for k in range(self.UNICHAIN):
            draws.append((f"unichain{k}", unichain_arrays(np.random.default_rng([self.seed, 61, k]))))
        out = []
        for name, a in draws:
            V, T = a["V"], a["T"]
            for v in range(V):
                a["lam"][v, v, :] = 0.0
                a["repo"][v, v, :] = 0.0
            cost = np.ones((V, V), dtype=np.int64)
            np.fill_diagonal(cost, 0)
            a["cost"] = cost
            a["cap"] = 2 if a["N"] > 1 else 1
            pmf = checks.truncated_pmf(a["lam"], a["cap"])
            a["lam_trunc"] = np.tensordot(np.arange(a["cap"] + 1), pmf, axes=1)
            out.append((name, a))
        return out

    def build(self, fl, inputs):
        ctx = []
        for name, a in inputs:
            config = fl.NetworkConfig(
                num_regions=a["V"], fleet_size=a["N"], battery_capacity=a["B"],
                horizon_steps=a["T"], epoch_minutes=5, charge_rates=(1,),
                charge_period=a["J"], charger_counts=a["chargers"], pickup_patience=0,
                connection_patience=a["Lc"], trip_duration=a["dur"], battery_cost=a["cost"],
                arrival_rate=a["lam"], trip_reward=a["fare"], reposition_reward=a["repo"],
                charge_reward=np.full((1, a["T"]), -0.1), charging_curve=None,
                demand_scale=1.0, name=f"vi-{name}")
            trunc = dataclasses.replace(config, arrival_rate=a["lam_trunc"])
            ctx.append((name, config, trunc, a["cap"]))
        return ctx

    def round(self, ctx, tracer, host=None):
        fl = _module("fleetlab")
        clock = _Clock(host)
        ops, outputs = [], []
        for name, config, trunc, cap in ctx:
            sol, note = None, ""
            try:
                with clock:
                    sol = fl.baselines.exact_value_iteration(
                        config, arrival_cap=cap, tol=self.VI_TOL, max_states=3000,
                        max_iters=self.MAX_ITERS)
            except fl.FleetlabError as exc:
                note = f"{type(exc).__name__}: {exc}"
            converged = sol is not None and sol.span <= self.VI_TOL
            if sol is not None and not converged:
                note = (f"not converged after {sol.iterations} sweeps (span {sol.span:.4g}); "
                        f"reported gain {sol.gain:.4f}")
            with clock:
                bound = fl.fluid.upper_bound(trunc)
            ops.append(Op(f"{name}.vi", [sol.states, sol.iterations] if sol else [],
                          ok=converged, note=note))
            ops.append(Op(f"{name}.bound", [bound.iterations]))
            outputs.append((name, config, cap, sol, converged, bound))
        return clock.total, ops, outputs

    def check(self, ctx, outputs):
        sim = _module("fleetlab.sim")
        for name, config, cap, sol, converged, bound in outputs:
            if sol is None:
                continue
            rolled = checks.rollout_gain(sim, config, sol.policy, cap,
                                         np.random.default_rng([self.seed, 62]))
            if not converged:
                print(f"# exact {name}: reported gain {sol.gain:.4f}, its policy rolls "
                      f"{rolled[0]:.4f} +- {rolled[1]:.4f} per day (operation counted as failed)")
                continue
            require(sol.gain <= bound.objective + 1e-6 * max(1.0, abs(bound.objective)),
                    f"{name}: VI gain {sol.gain} above truncated bound {bound.objective}")
            checks.check_gain(name, sol.gain, rolled, self.ROLLOUT_K)

    def describe(self, round_s):
        return f"exact_s {round_s:.4f} s"

