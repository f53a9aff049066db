#!/usr/bin/env python3
"""Partition explorer — the paper's Section III analysis, interactive style.

Reproduces the observational study that motivates the paper:

* all 19 MIG configurations the A100 driver permits,
* a Fig. 3-style MPS sweep for chosen program pairs,
* the Fig. 4 shared-vs-private memory comparison,
* the Fig. 5 four-option shoot-out on a 4-program mix.

Run:  python examples/partition_explorer.py
"""

import numpy as np

from repro import A100_40GB
from repro.gpu.mig import enumerate_gi_combinations
from repro.perfmodel.calibration import (
    FIG3_PAIRS,
    FIG4_PAIRS,
    FIG5_MIX,
    bandwidth_partitioning_gain,
    mps_sweep,
    partition_option_comparison,
)


def main() -> None:
    # ------------------------------------------------------------------
    print("=== the 19 A100 MIG configurations ===")
    for cfg in enumerate_gi_combinations(A100_40GB):
        slices = " + ".join(f"{w}g" for _, w in cfg)
        used = sum(w for _, w in cfg)
        note = "" if used == 7 else f"  ({7 - used} slice stranded by memory)"
        print(f"  {slices:<24s}{note}")

    # ------------------------------------------------------------------
    print("\n=== Fig. 3: throughput vs MPS split ===")
    splits = np.arange(0.1, 0.91, 0.1)
    header = "  ".join(f"{s:4.1f}" for s in splits)
    print(f"{'pair':<28s} {header}")
    for a, b in FIG3_PAIRS:
        _, gains = mps_sweep(a, b, splits)
        row = "  ".join(f"{g:4.2f}" for g in gains)
        marker = float(splits[np.argmax(gains)])
        print(f"{a + '+' + b:<28s} {row}   <- best at {marker:.1f}")

    # ------------------------------------------------------------------
    print("\n=== Fig. 4: shared vs private memory (same compute split) ===")
    for pair in FIG4_PAIRS:
        g = bandwidth_partitioning_gain(*pair)
        print(
            f"  {pair[0] + '+' + pair[1]:<26s} "
            f"shared {g['shared']:.3f} | partitioned {g['partitioned']:.3f}"
        )

    # ------------------------------------------------------------------
    print(f"\n=== Fig. 5: partitioning options for {'+'.join(FIG5_MIX)} ===")
    for option, gain in partition_option_comparison(list(FIG5_MIX)).items():
        bar = "#" * int(gain * 20)
        print(f"  {option:<28s} {gain:5.3f} {bar}")


if __name__ == "__main__":
    main()
