"""Shows that each workload's check can fail: feeds it a known-wrong output.

    python3 benchmarks/selftest.py

Each case runs the check on a correct output (it must pass) and on a
corrupted copy (it must raise CheckFailed). Exits 0 when every case behaves.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import run


def bound_off_by_one_percent(fl, workloads):
    config = fl.synth_scenario("two-region-commute", 0)
    obj, flows = workloads._highs_flows(fl, config, fl.fluid.build_reduced_lp)
    good = fl.FluidSolution(obj, flows, "reduced", 0, 0.0)
    bad = dataclasses.replace(good, objective=obj * 1.01)
    check = lambda sol: workloads.Bound.check_lp("commute", config, "reduced", sol)
    return check, good, bad


def state_lost_a_vehicle(fl, workloads):
    w = workloads.Rollout(0)
    ctx = w.build(fl, w.inputs(fl))
    _, _, outputs = w.round(ctx, None)
    tpl, pname, config, bound, days = outputs[0]
    s = days[0].states[3]
    vehicles = s.vehicles.copy()
    vehicles[np.unravel_index(np.argmax(vehicles), vehicles.shape)] -= 1
    lost = dataclasses.replace(days[0], states=list(days[0].states))
    lost.states[3] = fl.SystemState(s.t, vehicles, s.trips, s.chargers)
    bad = [(tpl, pname, config, bound, [lost] + days[1:])] + outputs[1:]
    return (lambda out: w.check(ctx, out)), outputs, bad


def vi_gain_disagrees_with_rollout(fl, workloads):
    w = workloads.Exact(0)
    ctx = w.build(fl, w.inputs(fl))[1:2]            # one unichain instance
    _, _, outputs = w.round(ctx, None)
    name, config, cap, sol, converged, bound = outputs[0]
    # below the bound, so only the rollout comparison can catch it
    wrong = dataclasses.replace(sol, gain=0.8 * sol.gain)
    bad = [(name, config, cap, wrong, converged, bound)]
    return (lambda out: w.check(ctx, out)), outputs, bad


CASES = [bound_off_by_one_percent, state_lost_a_vehicle, vi_gain_disagrees_with_rollout]


def main() -> int:
    fl = run.import_program()
    if fl is None:
        print(f"selftest.py: no fleetlab package under {run.SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads

    ok = True
    for case in CASES:
        check, good, bad = case(fl, workloads)
        try:
            check(good)
            passed_good = True
        except checks.CheckFailed as exc:
            passed_good = False
            print(f"FAIL {case.__name__}: correct output rejected: {exc}")
        try:
            check(bad)
            print(f"FAIL {case.__name__}: wrong output accepted")
            caught = False
        except checks.CheckFailed as exc:
            caught = True
            print(f"ok   {case.__name__}: {exc}")
        ok = ok and passed_good and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
