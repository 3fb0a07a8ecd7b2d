"""Monte-Carlo throughput benchmark for otfsim.

Run from the repository root:

    python3 bench/run.py --workload onetap_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of the named workload and
``--trace 1`` the per-layer metrics of every workload (see
``bench/harness.py`` and ``bench/README.md``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``
(Monte-Carlo trials run in the measured section), ``failed`` and
``metrics``; progress and check failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("onetap_sweep", "mmse_random", "mu_mmse_fixed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0, help="measured seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "otfsim" / "__init__.py").is_file():
        print(f"bench: no otfsim sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread: OpenBLAS reads these when numpy is first imported,
    # and the fresh interpreters timed for setup_s inherit them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    if args.trace:
        result = harness.measure_layers(WORKLOADS, args.seed, args.seconds)
    else:
        result = harness.measure_end_to_end(args.workload, args.seed, args.seconds)
    for problem in result.problems:
        print(f"bench: FAILED CHECK {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": result.attempted,
                "failed": 0,
                "metrics": result.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
