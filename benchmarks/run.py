"""fleetlab benchmark: one workload per process, untraced or traced.

    python3 benchmarks/run.py --workload bound --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from ./src and
nowhere else. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it start with
'#' and say what was run. Traces go to benchmarks/out/.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the load is one process on at
# most one core, whatever the machine's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import json
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("bound", "rollout", "train", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """fleetlab from this checkout's src/, or None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "fleetlab", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import fleetlab
    if os.path.dirname(os.path.dirname(os.path.abspath(fleetlab.__file__))) != SRC:
        return None
    return fleetlab


def fresh_import():
    """Drop every fleetlab module and import the package again."""
    for name in [m for m in sys.modules if m == "fleetlab" or m.startswith("fleetlab.")]:
        del sys.modules[name]
    return importlib.import_module("fleetlab")


def child_inputs(workload: str, seed: int):
    """The workload's inputs, made by inputs.py in a child process. The HiGHS
    reference solves import scipy and copy the LPs densely; in a child their
    memory stays out of this process's peak RSS."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed)],
                          capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"inputs.py {workload} {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
    return pickle.loads(proc.stdout)


def timed_setup(workload, inputs, host):
    """Median over repeats of: import, scenario synthesis, policy or network
    construction, in CPU time of this process (one thread, one BLAS thread),
    so time the shared host takes from it does not count. A host-speed
    sample follows each repeat. The objects of the last repeat are the ones
    measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        fl = fresh_import()
        ctx = workload.build(fl, inputs)
        times.append(time.process_time() - t0)
        host.samples.append(host.kernel())
    return statistics.median(times), ctx


class CountGuard:
    """Counts the program promises to repeat under a fixed seed, kept per
    workload, seed and program source, compared between rounds and runs."""

    def __init__(self, workload: str, seed: int, digest: str):
        self.path = os.path.join(OUT, "counts", f"{workload}-seed{seed}-{digest}.json")
        try:
            with open(self.path) as f:
                self.expected = json.load(f)
            self.stored = True
        except FileNotFoundError:
            self.expected, self.stored = {}, False
        self.mismatches: list[str] = []

    def passes(self, op) -> bool:
        counts = json.loads(json.dumps(op.counts))
        if op.key in self.expected and self.expected[op.key] != counts:
            self.mismatches.append(f"{op.key}: {counts} != {self.expected[op.key]}")
            return False
        self.expected.setdefault(op.key, counts)
        return True

    def save(self) -> None:
        if self.stored:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(self.expected, f, sort_keys=True)
        os.replace(tmp, self.path)


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for directory in (os.path.join(SRC, "fleetlab"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(directory, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def make_workload(workloads, name: str, seed: int):
    if name == "bound":
        return workloads.Bound(seed)
    if name == "rollout":
        return workloads.Rollout(seed)
    if name == "train":
        return workloads.Train(seed, OUT)
    return workloads.Exact(seed)


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    fl = import_program()
    if fl is None:
        print(f"run.py: no fleetlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import numpy as np
    import checks
    import hostspeed
    import spans as tracing
    import workloads

    workload = make_workload(workloads, args.workload, args.seed)
    print(f"# {args.workload} seed {args.seed}: python {platform.python_version()}, "
          f"numpy {np.__version__}, nproc {os.cpu_count()}, blas threads {BLAS_THREADS}")
    inputs = child_inputs(args.workload, args.seed)
    host = hostspeed.HostSpeed()
    setup_cpu_s, ctx = timed_setup(workload, inputs, host)
    setup_samples = host.take()
    setup_s = setup_cpu_s * hostspeed.scale(setup_samples)
    round_host = host if workload.HOST_SCALED else None

    # A traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured under the same machine conditions.
    tracer = tracing.Tracer() if args.trace else None
    kinds = ("plain", "traced") if tracer else ("plain",)
    times: dict[str, list[float]] = {k: [] for k in kinds}
    guard = CountGuard(args.workload, args.seed, source_digest())
    first = None
    attempted = failed = 0
    while not times[kinds[-1]] or sum(times[kinds[-1]]) < args.seconds:
        for kind in kinds:
            if kind == "traced":
                tracing.install(tracer)
            elapsed, ops, outputs = workload.round(
                ctx, tracer if kind == "traced" else None, round_host)
            if kind == "traced":
                tracer.uninstall()          # also keeps the checks below out of the trace
            times[kind].append(elapsed)
            for op in ops:
                attempted += 1
                same = guard.passes(op)
                if not (op.ok and same):
                    failed += 1
                    if first is None and op.note:
                        print(f"# failed {op.key}: {op.note}")
            if first is None:
                first = outputs
                # the peak up to the end of the first round: later rounds keep
                # its outputs for the checks, and their number varies
                rss = peak_rss_mb()
    for line in guard.mismatches:
        print(f"# count changed between runs or rounds: {line}")

    correct = True
    try:
        workload.check(ctx, first)
    except checks.CheckFailed as exc:
        correct = False
        print(f"# check failed: {exc}")
    guard.save()

    # CPU seconds, scaled to the reference host speed where hostspeed.py
    # tracks the work: set-up everywhere, rounds where HOST_SCALED.
    round_samples = host.take()
    round_cpu_s = statistics.median(times["plain"])
    round_s = round_cpu_s * (hostspeed.scale(round_samples) if round_host else 1.0)
    kernel_s = statistics.median(setup_samples + round_samples)
    print(f"# {len(times['plain'])} round(s); {workload.describe(round_s)}; "
          f"set-up {setup_s:.4f} s; peak RSS {rss:.1f} MB")
    print(f"# CPU time before scaling: round {round_cpu_s:.4f} s "
          f"({'scaled' if round_host else 'not scaled'}), set-up {setup_cpu_s:.4f} s; "
          f"host kernel median {1e3 * kernel_s:.3f} ms over "
          f"{len(setup_samples) + len(round_samples)} samples "
          f"(reference {1e3 * hostspeed.CAL_REF_S:.3f} ms)")
    if tracer is None:
        metrics = {"round_s": (round_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss, "MB")}
    else:
        rounds = len(times["traced"])
        metrics = tracing.layer_metrics(tracer, rounds)
        metrics.update(workloads.lp_metrics(getattr(workload, "per_lp", {}), rounds))
        traced_s = statistics.median(times["traced"])
        spans = len(tracer.span_start)
        metrics["trace.round_s"] = (traced_s, "s")
        metrics["trace.untraced_round_s"] = (round_cpu_s, "s")
        metrics["trace.overhead_share"] = (traced_s / round_cpu_s - 1.0, "share")
        metrics["host.kernel_s"] = (kernel_s, "s")
        metrics["trace.spans"] = (spans / rounds, "count")
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.write(path, {k: v for k, (v, _) in metrics.items()})
        print(f"# {rounds} traced round(s), {traced_s:.4f} s median: tracing overhead "
              f"{100 * (traced_s / round_cpu_s - 1.0):+.1f}%; {spans} spans in {path}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
