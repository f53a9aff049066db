#!/usr/bin/env python3
"""Terminal dashboard over a telemetry artifact directory.

Reads the bundle that ``repro-gpu trace`` / ``repro-gpu cluster
--telemetry DIR`` writes (``trace.json``, ``metrics.prom``,
``timeline.json``) and prints a per-node timeline summary: busy/idle
split, group count, an ASCII utilization strip per GPU, and the
headline counters from the metrics exposition.

If insight artifacts are present in the same directory (``repro-gpu
alerts --out DIR`` / ``--insight DIR``) the dashboard also renders the
raised alerts (``alerts.jsonl``) and the worst decisions by attributed
regret (``regret.jsonl``).

Run:  python examples/telemetry_dashboard.py out/
      repro-gpu trace Q1 --episodes 50 --faults 0.05 --out out/   # to produce out/
      repro-gpu alerts Q1 --faults 0.05 --insight out --out out   # + insight
"""

import json
import os
import sys

STRIP_WIDTH = 60


def load_artifacts(out_dir: str):
    # zero-fill on missing/empty/corrupt artifacts: a crashed or
    # zero-completion run still renders a (mostly empty) dashboard
    timeline = {"makespan": 0.0, "utilization": 0.0, "devices": {}}
    timeline_path = os.path.join(out_dir, "timeline.json")
    if os.path.exists(timeline_path):
        try:
            with open(timeline_path) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict):
                timeline = {**timeline, **loaded}
        except (OSError, ValueError):
            pass
    prom_path = os.path.join(out_dir, "metrics.prom")
    metrics: dict[str, float] = {}
    if os.path.exists(prom_path):
        with open(prom_path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name_part, _, value = line.rpartition(" ")
                base = name_part.split("{", 1)[0]
                try:
                    metrics[base] = metrics.get(base, 0.0) + float(value)
                except ValueError:
                    continue
    return timeline, metrics


def utilization_strip(intervals: list[dict], makespan: float) -> str:
    """One character per time slice: '#' busy, '.' idle."""
    if makespan <= 0:
        return "." * STRIP_WIDTH
    cells = [0.0] * STRIP_WIDTH
    cell_span = makespan / STRIP_WIDTH
    for iv in intervals:
        lo = int(iv["start"] / cell_span)
        hi = min(int(iv["end"] / cell_span), STRIP_WIDTH - 1)
        for c in range(lo, hi + 1):
            cell_lo = c * cell_span
            cell_hi = cell_lo + cell_span
            overlap = min(iv["end"], cell_hi) - max(iv["start"], cell_lo)
            cells[c] += max(overlap, 0.0)
    return "".join(
        "#" if c >= 0.5 * cell_span else "+" if c > 0 else "."
        for c in cells
    )


def load_jsonl(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def render_fleet_frames(out_dir: str) -> None:
    """Rollup frames from a ``repro-gpu fleet --telemetry`` run."""
    frames = load_jsonl(os.path.join(out_dir, "frames.jsonl"))
    if not frames:
        return
    last = frames[-1]
    print()
    print(f"fleet frames ({len(frames)}): "
          f"t={last.get('time', 0.0):.1f}s  "
          f"completed={last.get('completed', 0)}  "
          f"failed={last.get('failed', 0)}  "
          f"rejected={last.get('rejected', 0)}")
    for key, label in (
        ("pending", "pending"),
        ("busy_nodes", "busy nodes"),
        ("utilization", "utilization"),
        ("queue_wait_p95", "queue-wait p95 (s)"),
        ("decisions_per_sec", "decisions/sec"),
    ):
        series = [float(f.get(key, 0.0)) for f in frames]
        print(f"  {label:<20s} last={series[-1]:10.3f}  "
              f"max={max(series):10.3f}  "
              f"mean={sum(series) / len(series):10.3f}")


def render_lifecycle(out_dir: str) -> None:
    """Per-job span-tree outcomes from ``lifecycle.jsonl``."""
    records = load_jsonl(os.path.join(out_dir, "lifecycle.jsonl"))
    if not records:
        return
    outcomes: dict[str, int] = {}
    attempts = 0
    waits = []
    for record in records:
        outcome = str(record.get("outcome", "unknown"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        attempts += int(record.get("attempts", 0))
        if "wait" in record:
            waits.append(float(record["wait"]))
    mix = "  ".join(f"{k}={outcomes[k]}" for k in sorted(outcomes))
    print()
    print(f"lifecycle: {len(records)} jobs  {mix}  attempts={attempts}")
    if waits:
        print(f"  queue wait: mean={sum(waits) / len(waits):8.1f}s  "
              f"max={max(waits):8.1f}s")


def render_alerts(out_dir: str) -> None:
    path = os.path.join(out_dir, "alerts.jsonl")
    if not os.path.exists(path):
        return
    alerts = load_jsonl(path)
    print()
    if not alerts:
        print("alerts: none raised")
        return
    print(f"alerts ({len(alerts)}):")
    for a in alerts:
        print(f"  [{a['severity']:<8s}] {a['kind']:<18s} "
              f"t={a['ts']:8.1f}  {a['message']}")


def render_worst_decisions(out_dir: str, top: int = 5) -> None:
    path = os.path.join(out_dir, "regret.jsonl")
    if not os.path.exists(path):
        return
    windows = load_jsonl(path)
    decisions = [d for w in windows for d in w.get("decisions", [])]
    total = sum(w.get("regret_vs_oracle", 0.0) for w in windows)
    print()
    print(f"regret: {total:.1f}s vs. oracle over {len(windows)} windows")
    ranked = sorted(
        decisions, key=lambda d: -d.get("attributed_regret", 0.0)
    )[:top]
    if not ranked:
        return
    print(f"worst {len(ranked)} decisions:")
    for d in ranked:
        where = f"{d['source']}:{d['seq']}.{d['step']}"
        print(f"  {where:<12s} regret={d['attributed_regret']:7.1f}s  "
              f"q-gap={d['q_gap_to_greedy']:6.3f}  "
              f"[{', '.join(d['jobs'])}]")


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out"
    known = ("timeline.json", "frames.jsonl", "lifecycle.jsonl")
    if not any(os.path.exists(os.path.join(out_dir, n)) for n in known):
        print(
            f"no telemetry artifacts under {out_dir!r} — produce some with:\n"
            f"  repro-gpu trace Q1 --episodes 50 --faults 0.05 --out {out_dir}\n"
            f"  repro-gpu fleet --telemetry {out_dir}"
        )
        return 1
    timeline, metrics = load_artifacts(out_dir)
    makespan = timeline["makespan"]
    devices = timeline["devices"]

    print(f"telemetry bundle: {out_dir}/")
    print(f"makespan {makespan:.1f}s   "
          f"cluster utilization {timeline['utilization']:.1%}")
    print()
    for node in sorted(devices):
        intervals = devices[node]
        busy = sum(iv["duration"] for iv in intervals)
        idle = max(makespan - busy, 0.0)
        print(f"{node}  groups={len(intervals):3d}  "
              f"busy={busy:9.1f}s  idle={idle:8.1f}s  "
              f"util={busy / makespan if makespan else 0.0:6.1%}")
        print(f"      |{utilization_strip(intervals, makespan)}|")
    if metrics:
        print()
        print("counters:")
        for name in (
            "windows_dispatched_total",
            "jobs_completed_total",
            "dispatch_retries_total",
            "degraded_groups_total",
            "faults_injected_total",
            "device_reconfigs_total",
        ):
            if name in metrics:
                print(f"  {name:28s} {metrics[name]:10.0f}")
    render_fleet_frames(out_dir)
    render_lifecycle(out_dir)
    render_alerts(out_dir)
    render_worst_decisions(out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
