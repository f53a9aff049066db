"""Windowed time-series rollups: FleetSnapshot-aligned frames.

The fleet engine's CHECKPOINT events already snapshot counters on a
fixed simulated-time cadence; PR 9 enriches those snapshots with the
streaming quantities an operator watches (queue depth, utilization,
queue-wait p95/p99 from the always-on sketch, decisions/sec, energy)
and this module gives them a byte-stable JSONL form — the ``frames``
artifact that ``repro-gpu top``, the dashboard, and the burn-rate SLO
monitor all consume. Readers zero-fill: a missing or empty artifact is
an empty series; a malformed line raises :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import json
import os

from repro.obs.jsonl import iter_jsonl_objects

__all__ = [
    "write_frames_jsonl",
    "read_frames_jsonl",
    "frames_series",
]


def write_frames_jsonl(snapshots, path: str) -> int:
    """One sorted-keys JSON object per snapshot; returns frames written."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for snapshot in snapshots:
            doc = snapshot.to_dict() if hasattr(snapshot, "to_dict") else dict(snapshot)
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
            written += 1
    return written


def read_frames_jsonl(path: str) -> list[dict]:
    """Load frames; missing file / blank lines zero-fill to ``[]``, a
    line that is not a JSON object raises ``ReproError``."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [frame for _, frame in iter_jsonl_objects(handle, path)]


def frames_series(frames: list[dict], key: str, default: float = 0.0) -> list[float]:
    """One column of the frame table, zero-filled for absent keys."""
    return [float(frame.get(key, default)) for frame in frames]
