#!/usr/bin/env python3
"""spikedrop benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload spiking-mc --seed 0 --seconds 35 --trace 0

Workloads: spiking-mc, analog-mc, train. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced passes and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. ``--smoke``
shrinks every workload for the benchmark's own tests.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS/OpenMP thread and the program's default worker count, fixed before
# numpy loads so that thread settings cannot change what is measured
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPIKEDROP_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spiking-mc", "analog-mc", "train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spikedrop" / "__init__.py").is_file():
        print(f"perfbench: no spikedrop source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    try:
        result = bench.run(args.workload, args.seed, args.seconds, args.trace,
                           scale=bench.SMOKE if args.smoke else bench.FULL)
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
