"""Span tracer that wraps fleetlab's functions from outside the package.

Each hook replaces a module or class attribute with a wrapper that records a
span (name, start, end, parent) in memory and, optionally, counters taken
from the call's arguments or result. Hooks patch the attribute the caller
looks up: ``fluid.solve`` rather than ``simplex.solve`` for the bound, because
``fluid`` imports the name into its own namespace. Nothing inside ``src/``
changes; an untraced run installs no hook at all.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


_ABSENT = object()


class Tracer:
    """Spans as parallel arrays (name id, start, end, parent index), running
    totals per name, and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack = [-1]
        self.total_ns: list[int] = []
        self.calls: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.total_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        end = time.perf_counter_ns()
        self.span_end[i] = end
        self._stack.pop()
        nid = self.span_name[i]
        self.total_ns[nid] += end - self.span_start[i]
        self.calls[nid] += 1

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by a recording wrapper.

        ``name`` is a span name, or a function of the call's positional
        arguments returning one. ``count(args, kwargs, result)`` returns
        counter increments. A missing attribute raises AttributeError, so a
        renamed function fails the traced run instead of reading 0."""
        orig = getattr(owner, attr)
        fixed = None if callable(name) else self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args))
            i = tracer.open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                tracer.counters.update(count(args, kwargs, result))
            return result

        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute wrap() replaced."""
        for owner, attr, orig in reversed(self._patches):
            if orig is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_ns[nid] / 1e9

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_seconds(self, name: str) -> float:
        """Total span time of `name` minus the time its direct child spans cover."""
        nid = self._ids.get(name)
        if nid is None or not len(self.span_start):
            return 0.0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        mine = names == nid
        children = (parents >= 0) & mine[np.maximum(parents, 0)]
        return float(dur[mine].sum() - dur[children].sum()) / 1e9

    def write(self, path: str, metrics: dict) -> None:
        """Spans as arrays plus the per-layer metrics, in one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            metrics=np.array(json.dumps(metrics, sort_keys=True)),
        )


def install(tracer: Tracer) -> None:
    """Hook every layer the benchmark reports, on the loaded fleetlab modules."""
    m = sys.modules
    fluid, simplex, sim, nn, ppo, baselines = (
        m["fleetlab.fluid"], m["fleetlab.simplex"], m["fleetlab.sim"],
        m["fleetlab.nn"], m["fleetlab.ppo"], m["fleetlab.baselines"])

    def lp_size(args, kwargs, result):
        A = result[0].A
        return {"fluid.lp_rows": A.shape[0], "fluid.lp_cols": A.shape[1],
                "fluid.lp_nnz": int(np.count_nonzero(A))}

    tracer.wrap(fluid, "build_reduced_lp", "fluid.build", lp_size)
    tracer.wrap(fluid, "build_full_lp", "fluid.build", lp_size)
    tracer.wrap(fluid, "solve", "simplex.solve",
                lambda a, k, r: {"simplex.pivots": r.iterations})
    # solve() retries a failed perturbed run through _solve(perturb=False)
    tracer.wrap(simplex, "_solve", "simplex.attempt",
                lambda a, k, r: {"simplex.exact_retries": int(k.get("perturb") is False)})
    tracer.wrap(sim, "run_epoch", "sim.run_epoch",
                lambda a, k, r: {"sim.atomic_steps": len(r.records)})
    tracer.wrap(sim, "step", "sim.step")
    tracer.wrap(sim, "feasible_mask", "model.feasible_mask")
    tracer.wrap(sim, "check_fleet_action", "model.check_fleet_action")
    for cls in (baselines.PowerOfKPolicy, baselines.RandomFeasiblePolicy):
        tracer.wrap(cls, "act", "baselines.act")
    tracer.wrap(baselines.PowerOfKPolicy, "begin_epoch", "baselines.begin_epoch")
    tracer.wrap(fluid.FluidRoundingPolicy, "begin_epoch", "fluid.rounding_begin_epoch")
    tracer.wrap(fluid.FluidRoundingPolicy, "act", "fluid.rounding_act")
    tracer.wrap(ppo, "reduce_vector", "reduce.reduce_vector")
    tracer.wrap(nn, "forward_policy", "nn.forward_policy")
    tracer.wrap(nn.Mlp, "forward",
                lambda a: "nn.mlp_forward_batch" if np.ndim(a[1]) == 2 else "nn.mlp_forward_row")
    tracer.wrap(nn.Mlp, "backward", "nn.backward")
    tracer.wrap(nn, "adam_step", "nn.adam_step")
    tracer.wrap(ppo, "collect_trajectory", "ppo.collect",
                lambda a, k, r: {"ppo.samples": len(r)})
    tracer.wrap(ppo, "fit_value", "ppo.fit_value")
    tracer.wrap(ppo, "compute_advantages", "ppo.advantages")
    tracer.wrap(ppo, "ppo_update", "ppo.update")
    tracer.wrap(ppo, "evaluate_policy", "ppo.eval")
    tracer.wrap(baselines, "transition", "baselines.exact.transition")
    tracer.wrap(baselines, "exact_value_iteration", "baselines.exact",
                lambda a, k, r: {"baselines.exact.states": r.states,
                                 "baselines.exact.iterations": r.iterations})


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals of the traced rounds, divided by the round count."""
    s, c, n = tracer.seconds, tracer.counters, tracer.call_count
    pivots = c["simplex.pivots"]
    steps = c["sim.atomic_steps"]
    raw = {
        "fluid.build_s": (s("fluid.build"), "s"),
        "fluid.lp_rows": (c["fluid.lp_rows"], "count"),
        "fluid.lp_cols": (c["fluid.lp_cols"], "count"),
        "fluid.lp_nnz": (c["fluid.lp_nnz"], "count"),
        "simplex.solve_s": (s("simplex.solve"), "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.exact_retries": (c["simplex.exact_retries"], "count"),
        "sim.atomic_steps": (steps, "count"),
        "sim.run_epoch_s": (s("sim.run_epoch"), "s"),
        "sim.step_s": (s("sim.step"), "s"),
        "model.feasible_mask_s": (s("model.feasible_mask"), "s"),
        "model.feasible_mask_calls": (n("model.feasible_mask"), "count"),
        "model.check_fleet_action_s": (s("model.check_fleet_action"), "s"),
        "baselines.begin_epoch_s": (s("baselines.begin_epoch"), "s"),
        "baselines.act_s": (s("baselines.act"), "s"),
        "fluid.rounding_begin_epoch_s": (s("fluid.rounding_begin_epoch"), "s"),
        "fluid.rounding_act_s": (s("fluid.rounding_act"), "s"),
        "reduce.reduce_vector_s": (s("reduce.reduce_vector"), "s"),
        "reduce.reduce_vector_calls": (n("reduce.reduce_vector"), "count"),
        "nn.forward_policy_s": (s("nn.forward_policy"), "s"),
        "nn.forward_policy_calls": (n("nn.forward_policy"), "count"),
        "nn.batched_forward_s": (s("nn.mlp_forward_batch"), "s"),
        "nn.backward_s": (s("nn.backward"), "s"),
        "nn.adam_step_s": (s("nn.adam_step"), "s"),
        "ppo.collect_s": (s("ppo.collect"), "s"),
        "ppo.fit_value_s": (s("ppo.fit_value"), "s"),
        "ppo.advantages_s": (s("ppo.advantages"), "s"),
        "ppo.update_s": (s("ppo.update"), "s"),
        "ppo.eval_s": (s("ppo.eval"), "s"),
        "ppo.samples": (c["ppo.samples"], "count"),
        "baselines.exact.transition_s": (s("baselines.exact.transition"), "s"),
        "baselines.exact.transition_calls": (n("baselines.exact.transition"), "count"),
        "baselines.exact.self_s": (tracer.self_seconds("baselines.exact"), "s"),
        "baselines.exact.states": (c["baselines.exact.states"], "count"),
        "baselines.exact.iterations": (c["baselines.exact.iterations"], "count"),
    }
    out = {k: (v / rounds, u) for k, (v, u) in raw.items()}
    out["simplex.us_per_pivot"] = (1e6 * s("simplex.solve") / pivots if pivots else 0.0, "us")
    out["sim.us_per_atomic_step"] = (1e6 * s("sim.run_epoch") / steps if steps else 0.0, "us")
    return out
