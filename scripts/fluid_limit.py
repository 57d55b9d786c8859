"""One row of the exact oracle's fluid-limit curve.

The instance is calibrate.scale_fleet of tiny_config(N=1, lam_scale=0.5,
chargers=1) to N vehicles (arrival rates and chargers scale with N), solved
by exact_value_iteration at arrival cap 2 and compared with the fluid bound
of the same truncated-arrival instance. Prints one markdown row: N, states,
gain/N, bound/N, gain/bound, the solve's CPU seconds and the process's max
RSS. Run each N in its own process, so that the max RSS is that N's:

    for n in 1 2 3; do OPENBLAS_NUM_THREADS=1 python scripts/fluid_limit.py $n; done
"""

import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import tiny_config  # noqa: E402
from oracles import truncated_mean_rates  # noqa: E402
from fleetlab.baselines import exact_value_iteration  # noqa: E402
from fleetlab.calibrate import scale_fleet  # noqa: E402
from fleetlab.fluid import upper_bound  # noqa: E402

CAP = 2


def main(n: int) -> None:
    config = scale_fleet(tiny_config(N=1, lam_scale=0.5, chargers=1), n, 1)
    start = time.process_time()
    sol = exact_value_iteration(config, arrival_cap=CAP)
    cpu = time.process_time() - start
    bound = upper_bound(config.with_updates(
        arrival_rate=truncated_mean_rates(config.arrival_rate, CAP))).objective
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"| {n} | {sol.states:,} | {sol.gain / n:.3f} | {bound / n:.3f} | "
          f"{sol.gain / bound:.3f} | {cpu:.1f} s | {rss:.0f} MB |")


if __name__ == "__main__":
    main(int(sys.argv[1]))
