"""Span/event tracer driven by the *simulated* clock.

Unlike a wall-clock tracer, every timestamp here is supplied by the
caller from the simulation's own time base (``SimulatedGpu.clock``,
``FleetEngine.now``). Spans are recorded *complete* — the simulation
always knows both endpoints of an interval when it happens — which
keeps the API a single call and makes the tracer trivially
deterministic: identical runs produce identical traces.

Sinks:

* a **ring buffer** (``collections.deque(maxlen=...)``) always holds the
  most recent records for in-process inspection and export; overflow is
  counted, never raised;
* an optional **JSONL sink** streams every record to disk as it is
  recorded, so a crashed run still leaves a usable trace behind.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["Span", "Event", "JsonlSink", "Tracer"]


@dataclass(frozen=True)
class Span:
    """A named interval on one track (e.g. a window on one GPU)."""

    name: str
    category: str
    track: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "args": self.args,
        }


@dataclass(frozen=True)
class Event:
    """An instantaneous occurrence on one track (fault, fallback, ...)."""

    name: str
    category: str
    track: str
    ts: float
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "ts": self.ts,
            "args": self.args,
        }


class JsonlSink:
    """Append-only JSON-lines writer for trace records."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")
        self.records_written = 0

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Ring-buffered recorder of :class:`Span`/:class:`Event` records."""

    def __init__(self, maxlen: int = 65536, sink: JsonlSink | None = None):
        if maxlen < 1:
            raise ConfigurationError("tracer ring buffer needs maxlen >= 1")
        self.maxlen = maxlen
        self._records: deque = deque(maxlen=maxlen)
        self.sink = sink
        self.dropped = 0  # records pushed out of the ring buffer
        self.total_recorded = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        category: str = "sim",
        **args,
    ) -> Span:
        if end < start:
            raise ConfigurationError(
                f"span {name!r} ends before it starts ({end} < {start})"
            )
        span = Span(
            name=name, category=category, track=track,
            start=float(start), end=float(end), args=args,
        )
        self._push(span)
        return span

    def add_event(
        self,
        name: str,
        track: str,
        ts: float,
        category: str = "sim",
        **args,
    ) -> Event:
        event = Event(
            name=name, category=category, track=track, ts=float(ts), args=args,
        )
        self._push(event)
        return event

    def _push(self, record) -> None:
        if len(self._records) == self.maxlen:
            self.dropped += 1
        self._records.append(record)
        self.total_recorded += 1
        if self.sink is not None:
            self.sink.write(record.to_dict())

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def records(self) -> list:
        """Every buffered record in insertion (chronological) order."""
        return list(self._records)

    def spans(
        self, name: str | None = None, track: str | None = None
    ) -> list[Span]:
        return [
            r
            for r in self._records
            if isinstance(r, Span)
            and (name is None or r.name == name)
            and (track is None or r.track == track)
        ]

    def events(
        self, name: str | None = None, track: str | None = None
    ) -> list[Event]:
        return [
            r
            for r in self._records
            if isinstance(r, Event)
            and (name is None or r.name == name)
            and (track is None or r.track == track)
        ]

    def tracks(self) -> list[str]:
        """Distinct track names, sorted (stable exporter ordering)."""
        return sorted({r.track for r in self._records})

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)
