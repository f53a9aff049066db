"""Line-by-line JSONL parsing shared by the artifact readers.

Every JSONL artifact (rollup frames, lifecycle records, decision logs)
holds one JSON object per line. A truncated tail line, a corrupt line,
or a bare array/scalar is an untrusted-input error, reported as a
:class:`~repro.errors.ReproError` naming ``path:line``.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from repro.errors import ReproError

__all__ = ["iter_jsonl_objects"]


def iter_jsonl_objects(handle: IO[str], path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, object)`` for each non-blank line of ``handle``."""
    for line_no, line in enumerate(handle, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
        if not isinstance(doc, dict):
            raise ReproError(
                f"{path}:{line_no}: expected a JSON object, "
                f"got {type(doc).__name__}"
            )
        yield line_no, doc
