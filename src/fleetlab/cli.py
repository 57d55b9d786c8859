"""Command-line drivers.

Subcommands: calibrate, train, evaluate, bound, compare, sweep-chargers,
sweep-hardware.  Every command is deterministic under --seed (overridable
with the FLEETLAB_SEED environment variable): reports contain no timestamps,
JSON keys are sorted, and all randomness flows from the seed, so repeated
runs produce byte-identical output.

Exit codes: 0 ok, 2 input error, 3 missing artifact, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial

import numpy as np

from . import baselines, fluid, nn, ppo, sim
from .calibrate import (calibrate, estimate_reference_fleet, kept_trips,
                        read_region_map, read_trip_records, scale_fleet)
from .config import NetworkConfig
from .errors import (ConfigError, ContractViolation, FleetlabError,
                     InvalidArgument, LpInfeasible, LpUnbounded,
                     StateSpaceTooLarge, TrainingDiagnostic)
from .model import action_count
from .reduce import obs_dim, vehicle_feature_dim
from .scenarios import TEMPLATES, synth_scenario
from .simplex import export_mps

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


# -- helpers ------------------------------------------------------------------


def _load_config(args) -> NetworkConfig:
    if getattr(args, "scenario", None):
        return synth_scenario(args.scenario, seed=args.seed)
    path = getattr(args, "config", None)
    if not path:
        raise ConfigError("provide --config FILE or --scenario TEMPLATE")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return NetworkConfig.load(path)


def _effective_seed(args) -> int:
    env = os.environ.get("FLEETLAB_SEED")
    if env is None:
        return args.seed
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"FLEETLAB_SEED={env!r} is not an integer") from exc
    if seed < 0:
        raise ConfigError(f"FLEETLAB_SEED={env!r} is negative")
    return seed


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for seeds, which numpy needs to be at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [header] + [[_fmt(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


# -- policy construction ------------------------------------------------------


# token -> constructor(config, policy_set, bound) of the policies without a parameter
_NAMED_POLICIES = {
    "ppo": lambda config, policy_set, bound: ppo.NeuralPolicy(config, policy_set),
    "fluid": lambda config, policy_set, bound: fluid.FluidRoundingPolicy(config, bound),
    "random": lambda config, policy_set, bound: baselines.RandomFeasiblePolicy(),
}


def parse_policy(token: str):
    """ppo | power-of-<k> | power-of-k:<k> | power-of-<k>:<k> | fluid | random

    Returns the report label and ``make(config, policy_set, bound)``, which
    builds the policy from the loaded ppo checkpoint and the fluid bound."""
    if token.startswith("power-of-"):
        head, colon, count = token[len("power-of-"):].partition(":")
        if not colon:
            count = head
        if (colon and head not in ("k", count)) or not (count.isascii() and count.isdigit()):
            raise InvalidArgument(f"bad power-of-k policy {token!r}")
        k = int(count)
        if k < 1:
            raise InvalidArgument(f"bad power-of-k policy {token!r}: k must be >= 1")
        return f"power-of-{k}", (lambda config, policy_set, bound:
                                 baselines.PowerOfKPolicy(config, k=k))
    if token in _NAMED_POLICIES:
        return token, _NAMED_POLICIES[token]
    raise InvalidArgument(
        f"unknown policy {token!r}; expected ppo | power-of-k:k | fluid | random")


def evaluate(config: NetworkConfig, label: str, policy, trajectories: int,
             days: int, seed: int, jobs: int = 1) -> dict:
    """Independent seeded trajectories of one policy instance; results
    identical for any job count. Sharing the instance is safe: the
    intent-queue policies refill their queues in every begin_epoch, and a
    NeuralPolicy that does not record holds no state."""
    score = partial(sim.score_trajectory, config, policy, days)
    seeds = [(seed, 5, k, 11) for k in range(trajectories)]
    if jobs > 1 and trajectories > 1:
        workers = min(jobs, trajectories)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker, so each receives the policy once
            results = list(pool.map(score, seeds, chunksize=math.ceil(trajectories / workers)))
    else:
        results = list(map(score, seeds))
    return {
        "policy": label,
        "trajectories": trajectories,
        "days": days,
        **sim.summarize_scores(results),
        "last_trajectory": results[-1],
    }


def _load_policy(args, config: NetworkConfig) -> nn.MlpSet:
    """The --checkpoint policy, whose horizon and input/output sizes fit ``config``."""
    path = getattr(args, "checkpoint", None)
    if not path:
        raise ConfigError("ppo policy needs --checkpoint FILE")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    pset = nn.load_set(path)
    if pset.kind != "policy":
        raise InvalidArgument(f"{path}: a {pset.kind} network, not a policy")
    dims = pset.nets[0].dims
    got = (pset.horizon, dims[0], dims[-1])
    want = (config.horizon_steps,
            obs_dim(config) + vehicle_feature_dim(config),
            action_count(config))
    if got != want:
        raise InvalidArgument(
            f"{path}: policy for horizon {got[0]} with {got[1]} inputs and {got[2]} "
            f"actions; this scenario needs {want[0]}, {want[1]} and {want[2]}")
    return pset


# -- commands -----------------------------------------------------------------


def cmd_calibrate(args) -> int:
    for path in (args.records, args.regions):
        if not os.path.exists(path):
            raise FileNotFoundError(path)
    records = read_trip_records(args.records)
    region_map = read_region_map(args.regions)
    config = calibrate(records, region_map, epoch_minutes=args.epoch_min,
                       fleet_size=args.fleet, name=args.name)
    if args.scale_fleet is not None:
        # the peak of the trips the arrival rates come from
        _, trips = kept_trips(records, region_map)
        ref = estimate_reference_fleet([r for r, _, _ in trips])
        config = scale_fleet(config, args.scale_fleet, ref)
        print(f"reference fleet estimate: {ref}; demand scaled by "
              f"{args.scale_fleet / ref:.6g}")
    config.save(args.out)
    lam = config.arrival_rate
    print(f"wrote {args.out} (digest {config.digest()})")
    _print_table(
        ["regions", "epochs/day", "fleet", "total daily demand", "mean fare"],
        [[config.num_regions, config.horizon_steps, config.fleet_size,
          float(lam.sum()), float(config.trip_reward[lam > 0].mean()) if
          (lam > 0).any() else 0.0]])
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    pcfg = ppo.PpoConfig(seed=args.seed)
    if args.iterations is not None:
        pcfg.policy_iterations = args.iterations
    if args.trajectories is not None:
        pcfg.trajectories_per_iter = args.trajectories
    if args.days is not None:
        pcfg.days_per_trajectory = args.days
    if args.hidden is not None:
        pcfg.hidden = args.hidden
    os.makedirs(args.out, exist_ok=True)
    result = ppo.train(config, pcfg, checkpoint_dir=args.out, log=print)
    best = max(result.reports, key=lambda r: r.eval_reward)
    nn.save_set(os.path.join(args.out, "policy.bin"), result.policy)
    nn.save_set(os.path.join(args.out, "value.bin"), result.value)
    _write_json(os.path.join(args.out, "training_report.json"), {
        "config_digest": config.digest(),
        "seed": args.seed,
        "iterations_run": len(result.reports),
        "stopped_early": result.stopped_early,
        "best_iteration": best.iteration,
        "best_eval_reward": best.eval_reward,
        "reports": [asdict(r) for r in result.reports],
    })
    print(f"trained {len(result.reports)} iterations; best eval reward "
          f"{best.eval_reward:.6g} at iteration {best.iteration}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    label, make = parse_policy(args.policy)
    policy_set = _load_policy(args, config) if label == "ppo" else None
    bound = fluid.upper_bound(config) if label == "fluid" else None
    report = evaluate(config, label, make(config, policy_set, bound),
                      args.trajectories, args.days, args.seed, jobs=args.jobs)
    last = report.pop("last_trajectory")
    report["config_digest"] = config.digest()
    report["seed"] = args.seed
    if args.out:
        _write_json(args.out, report)
    if args.trace_csv:
        T = config.horizon_steps
        rows = []
        for i, ((idle, busy, charging), r) in enumerate(
                zip(last["status_by_epoch"], last["rewards_by_epoch"])):
            rows.append([i // T, i % T, f"{r:.10g}", idle, busy, charging])
        _write_csv(args.trace_csv,
                   ["day", "epoch", "reward", "idle", "busy", "charging"], rows)
    print(f"{report['policy']}: mean daily reward "
          f"{report['mean_daily_reward']:.6g} +- {report['stderr']:.6g} "
          f"(fulfillment {report['fulfillment_rate']:.3f})")
    return EXIT_OK


def cmd_bound(args) -> int:
    config = _load_config(args)
    prob, index = fluid.build_lp(config, args.formulation)
    sol = fluid.solve_fluid(prob, index)
    if args.out:
        with open(args.out, "w") as f:
            f.write(sol.to_json())
            f.write("\n")
    if args.mps:
        export_mps(prob, args.mps)
    print(f"R-bar = {sol.objective:.6g} [{sol.formulation} formulation, "
          f"{sol.iterations} pivots, residual {sol.residual:.2e}]")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args)
    # every token and checkpoint is checked before the bound is solved
    policies = [parse_policy(token) for token in args.policies]
    policy_set = _load_policy(args, config) \
        if any(label == "ppo" for label, _ in policies) else None
    bound = fluid.upper_bound(config)
    rows = []
    reports = []
    for label, make in policies:
        rep = evaluate(config, label, make(config, policy_set, bound),
                       args.trajectories, args.days, args.seed, jobs=args.jobs)
        rep.pop("last_trajectory")
        reports.append(rep)
        ratio = rep["mean_daily_reward"] / bound.objective \
            if abs(bound.objective) > 1e-12 else None
        rows.append([rep["policy"], rep["mean_daily_reward"],
                     "n/a" if ratio is None else f"{ratio:.4f}"])
    _print_table(["policy", "avg_daily_reward", "ratio_to_bound"], rows)
    if args.out:
        _write_json(args.out, {
            "config_digest": config.digest(),
            "seed": args.seed,
            "upper_bound": bound.objective,
            "bound_formulation": bound.formulation,
            "policies": reports,
        })
    if args.csv:
        _write_csv(args.csv, ["policy", "avg_daily_reward", "ratio_to_bound"],
                   [[r[0], f"{r[1]:.10g}", r[2]] for r in rows])
    return EXIT_OK


def _sweep_point(config: NetworkConfig, label: str, args) -> tuple[list, dict]:
    bound = fluid.upper_bound(config)
    pcfg = ppo.PpoConfig(seed=args.seed,
                         policy_iterations=args.train_iterations)
    if args.trajectories is not None:
        pcfg.trajectories_per_iter = args.trajectories
    result = ppo.train(config, pcfg)
    ppo_reward = evaluate(config, "ppo", ppo.NeuralPolicy(config, result.policy),
                          args.eval_trajectories, args.days,
                          args.seed)["mean_daily_reward"]
    pok_reward = evaluate(config, f"power-of-{args.k}",
                          baselines.PowerOfKPolicy(config, k=args.k),
                          args.eval_trajectories, args.days,
                          args.seed)["mean_daily_reward"]
    ratio = (lambda r: r / bound.objective if abs(bound.objective) > 1e-12
             else float("nan"))
    row = [label, f"{bound.objective:.10g}", f"{ppo_reward:.10g}",
           f"{pok_reward:.10g}", f"{ratio(ppo_reward):.6f}",
           f"{ratio(pok_reward):.6f}"]
    detail = {"label": label, "bound": bound.objective,
              "ppo_reward": ppo_reward, "power_of_k_reward": pok_reward,
              "config_digest": config.digest()}
    return row, detail


SWEEP_HEADER = ["configuration", "upper_bound", "ppo_reward",
                "power_of_k_reward", "ppo_ratio", "power_of_k_ratio"]


def _charger_point(base: NetworkConfig, alloc: str) -> NetworkConfig:
    """--allocation N,N,...: per-region counts of the first charger rate."""
    try:
        counts = [int(x) for x in alloc.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad allocation {alloc!r}: comma-separated "
                          f"integers expected") from exc
    if len(counts) != base.num_regions:
        raise ConfigError(f"allocation {alloc!r} has {len(counts)} entries "
                          f"for {base.num_regions} regions")
    charger_counts = np.zeros_like(base.charger_counts)
    charger_counts[:, 0] = counts
    return base.with_updates(charger_counts=charger_counts)


def _hardware_point(base: NetworkConfig, pair: str) -> NetworkConfig:
    """--pair RATE:CAPACITY: one charge rate for every class, and the battery size."""
    try:
        rate_s, cap_s = pair.split(":")
        rate, cap = int(rate_s), int(cap_s)
    except ValueError as exc:
        raise ConfigError(f"bad pair {pair!r}: expected RATE:CAPACITY") from exc
    return base.with_updates(charge_rates=(rate,) * len(base.charge_rates),
                             battery_capacity=cap)


def cmd_sweep(args) -> int:
    """One sweep row per point; args.point_config maps a point to its config."""
    base = _load_config(args)
    rows, details = [], []
    for point in args.points:
        row, detail = _sweep_point(args.point_config(base, point), point, args)
        rows.append(row)
        details.append(detail)
    _print_table(SWEEP_HEADER, rows)
    if args.csv:
        _write_csv(args.csv, SWEEP_HEADER, rows)
    if args.out:
        _write_json(args.out, {"seed": args.seed, "points": details})
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_config_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--config", help="scenario JSON (fleetlab-config-v1)")
    group.add_argument("--scenario", choices=TEMPLATES,
                       help="built-in synthetic scenario template")


def _add_eval_args(p):
    p.add_argument("--trajectories", type=positive_int, default=10)
    p.add_argument("--days", type=positive_int, default=10,
                   help="days per trajectory")
    p.add_argument("--jobs", type=positive_int, default=os.cpu_count() or 1,
                   help="worker processes for independent trajectories")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fleetlab",
        description="Electric robo-taxi fleet dispatch: simulate, train, "
                    "bound, and compare policies.")
    parser.add_argument("--seed", type=nonnegative_int, default=0,
                        help="master seed (FLEETLAB_SEED env overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="build a scenario from trip records")
    p.add_argument("--records", required=True, help="trip CSV (optionally .gz)")
    p.add_argument("--regions", required=True, help="zone,region CSV")
    p.add_argument("--epoch-min", type=float, default=5.0)
    p.add_argument("--fleet", type=positive_int, default=300)
    p.add_argument("--scale-fleet", type=positive_int, default=None,
                   help="scale demand to this fleet size using the "
                        "max-simultaneous-trips reference estimate")
    p.add_argument("--name", default="calibrated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train a dispatch policy")
    _add_config_args(p)
    p.add_argument("--out", required=True,
                   help="checkpoint directory: policy.bin and value.bin are the final "
                        "iteration's networks; the best-evaluated policy is "
                        "iter_<best_iteration>/policy.bin, best_iteration as in "
                        "training_report.json")
    p.add_argument("--iterations", type=positive_int, default=None)
    p.add_argument("--trajectories", type=positive_int, default=None)
    p.add_argument("--days", type=positive_int, default=None)
    p.add_argument("--hidden", type=positive_int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="roll a named policy")
    _add_config_args(p)
    p.add_argument("--policy", required=True,
                   help="ppo | power-of-k:k | fluid | random")
    p.add_argument("--checkpoint", help="policy.bin for --policy ppo")
    _add_eval_args(p)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--trace-csv", help="fleet-status time series CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bound", help="fluid-relaxation reward upper bound")
    _add_config_args(p)
    p.add_argument("--formulation", choices=fluid.FORMULATIONS, default="reduced",
                   help="reduced (statuses that can take a task; the default) or full "
                        "(every status); both give the same bound for any durations "
                        "and charging curve")
    p.add_argument("--out", help="JSON solution path")
    p.add_argument("--mps", help="export the LP in fixed MPS format")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("compare", help="benchmark policies against the bound")
    _add_config_args(p)
    p.add_argument("--policies", nargs="+",
                   default=["power-of-2", "fluid", "random"])
    p.add_argument("--checkpoint", help="policy.bin when ppo is listed")
    _add_eval_args(p)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--csv", help="CSV report path")
    p.set_defaults(func=cmd_compare)

    for name, point_config, flag, metavar, helptext in (
        ("sweep-chargers", _charger_point, "--allocation", "N,N,...",
         "per-region charger counts (repeatable)"),
        ("sweep-hardware", _hardware_point, "--pair", "RATE:CAPACITY",
         "charge rate and battery capacity (repeatable)"),
    ):
        p = sub.add_parser(name, help=f"bound+train+evaluate over {metavar}")
        _add_config_args(p)
        p.add_argument(flag, dest="points", action="append", required=True,
                       metavar=metavar, help=helptext)
        p.add_argument("--train-iterations", type=positive_int, default=5)
        p.add_argument("--trajectories", type=positive_int, default=None,
                       help="training trajectories per iteration")
        p.add_argument("--eval-trajectories", type=positive_int, default=5)
        p.add_argument("--days", type=positive_int, default=5)
        p.add_argument("--k", type=positive_int, default=2)
        p.add_argument("--csv", help="CSV report path")
        p.add_argument("--out", help="JSON report path")
        p.set_defaults(func=cmd_sweep, point_config=point_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _effective_seed(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (LpInfeasible, LpUnbounded, TrainingDiagnostic, ContractViolation,
            StateSpaceTooLarge) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, FleetlabError) as exc:
        # bad input, or an output path that is a directory, a directory path
        # that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # a scenario can pass validation and still not fit in memory, such as
        # a fleet of 10**15 vehicles expanded one per unit
        print("error: out of memory: the scenario is too large for this machine",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
