"""Makes one workload's inputs and writes them, pickled, to standard output.

    python3 benchmarks/inputs.py rollout 1 > inputs.pkl

run.py calls it in a child process, so the reference solves it makes
(scipy's HiGHS on the program's LPs) leave no trace in the measured
process: not in its peak RSS, and not in its imported modules.
"""

from __future__ import annotations

import pickle
import sys

import run


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    fl = run.import_program()
    if fl is None:
        print(f"inputs.py: no fleetlab package under {run.SRC}", file=sys.stderr)
        return 2
    import workloads
    inputs = run.make_workload(workloads, name, seed).inputs(fl)
    sys.stdout.buffer.write(pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
