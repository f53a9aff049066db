"""Golden digests of fleet dispatch runs (shared by the fleet tests)."""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.serving import schedule_fingerprint


def dispatch_digest(history, schedules) -> str:
    """A short hash of a run's dispatch records and schedule fingerprints.

    Job ids come from a process-global counter, so each id is replaced
    by its first-appearance ordinal within the run; every float enters
    through ``repr`` and so is compared bit for bit.
    """
    ordinal: dict[str, int] = {}
    groups = []
    for schedule in schedules:
        for ids, *rest in schedule_fingerprint(schedule):
            ordinals = tuple(ordinal.setdefault(i, len(ordinal)) for i in ids)
            groups.append((ordinals, *rest))
    records = [dataclasses.astuple(r) for r in history]
    payload = repr((records, groups)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]
