"""Runs one workload in this process and prints its result document as
one JSON line. ``run.py`` starts one worker process per workload."""

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before NumPy is first imported: with more
    # threads the simulated results change in the last bits.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import harness  # imports NumPy, SciPy and the program
    import_s = time.perf_counter() - start
    from cases import WORKLOADS
    from machine import fingerprint

    workload = WORKLOADS[args.workload](args.seed)
    result = harness.run_workload(
        workload, args.seconds, bool(args.trace), import_s, args.spans
    )
    result["details"]["machine"] = fingerprint(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
