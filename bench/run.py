"""The benchmark command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]

Runs each selected workload (default: all four) in its own worker
process, one after the other, with BLAS pinned to one thread. Prints
every metric by name with its unit and the output checks, writes the
result documents to ``--out`` (default ``.bench_out/`` at the checkout
root), and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` it
reports the per-layer metrics instead and writes each workload's spans
beside the result file.

Exit status: 0 when every check passed and no operation failed, 1
otherwise, 2 when the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-paper", "serve-cold", "fleet-flat", "fleet-placed")


def _worker_timeout(seconds: float) -> float:
    # a run at the default 15 s takes 20-30 s; the cap keeps a stuck
    # worker from outliving the 180 s a run may take
    return 170.0 + 4.0 * max(0.0, seconds - 15.0)


def run_worker(name: str, args, spans: Path | None) -> dict | None:
    """Run one workload in a worker process; its result document, or
    None (with the reason on stderr) if it crashed or timed out."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    timeout = _worker_timeout(args.seconds)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} worker exited with status {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {name} worker printed no result", file=sys.stderr)
        return None


def _format_layer_table(
    layers: dict[str, dict[str, float]], root_s: float, timed_s: float
) -> str:
    """The per-layer table: calls, self seconds and share of root wall,
    per timed operation."""
    lines = [f"  {'layer':<36s} {'calls/op':>10s} {'self s/op':>11s} {'share':>7s}"]
    for name, row in layers.items():
        lines.append(
            f"  {name:<36s} {row['calls']:>10.0f} {row['self_s']:>11.4f} "
            f"{100.0 * row['share']:>6.2f}%"
        )
    total = sum(row["self_s"] for row in layers.values())
    lines.append(
        f"  {'(sum of self times)':<36s} {'':>10s} {total:>11.4f} "
        f"{100.0 * total / root_s if root_s else 0.0:>6.2f}%  of root wall {root_s:.4f} s"
        f" (timed wall {timed_s:.4f} s)"
    )
    return "\n".join(lines)


def format_result(result: dict) -> str:
    """Human-readable report of one workload's result document."""
    details = result["details"]
    metrics = result["metrics"]
    head = f"== {result['workload']}: {details['operations']} timed operations"
    if result["trace"]:
        head += f", {details['traced_operations']} traced"
    lines = [head]
    if not result["trace"]:
        per_sample = (
            f"{details['sample']}; {details['latency_samples']} samples,"
            f" each the fastest of {details['operations']}"
        )
        notes = {
            "throughput_per_s": f"{details['item']} per host second",
            "latency_p50_ms": per_sample,
            "latency_p90_ms": per_sample,
        }
        for key, metric in metrics.items():
            lines.append(
                f"  {key:<18s} {metric['value']:>12.6g} {metric['unit']:<5s} {notes.get(key, '')}"
            )
    else:
        lines.append(_format_layer_table(
            details["layers"], metrics["trace.root_wall_s"]["value"], details["timed_wall_s"]
        ))
        for key, metric in metrics.items():
            if not key.endswith((".calls", ".self_s", ".share")):
                lines.append(f"  {key:<38s} {metric['value']:>12.6g} {metric['unit']}")
    for key, value in details["notes"].items():
        lines.append(f"  note: {key} = {value:.6g}")
    failed = [k for k, ok in result["checks"].items() if not ok]
    lines.append(
        ("  checks: all passed" if not failed else "  checks FAILED: " + ", ".join(failed))
        + f" ({len(result['checks'])} checks; digest {details['digest']})"
    )
    return "\n".join(lines)


def _format_machine(m: dict) -> str:
    return (
        f"machine: Python {m['python']}, NumPy {m['numpy']}, SciPy {m['scipy']}, "
        f"{m['blas']} {m['blas_version']} ({m['blas_threads']} BLAS threads), "
        f"{m['cpu']}, nproc {m['nproc']}, commit {m['git_commit']}"
    )


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must not be negative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    suffix = "-trace" if args.trace else ""
    out = args.out or ROOT / ".bench_out" / f"{args.workload or 'all'}-seed{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        spans = out.with_name(f"spans-{name}-seed{args.seed}.jsonl") if args.trace else None
        result = run_worker(name, args, spans)
        if result is None:
            return 1
        results[name] = result
        print(format_result(result), flush=True)
    machine = results[names[0]]["details"]["machine"]
    print(_format_machine(machine))
    out.write_text(json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine,
        "workloads": results,
    }, indent=1))
    print(f"result written to {out}")

    correct = all(r["correct"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:  # one metrics object per workload
        metrics = {n: r["metrics"] for n, r in results.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
