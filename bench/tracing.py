"""In-memory spans recorded by the benchmark around calls into routegame.

Spans are kept in a list while the run lasts and written out once at the
end, so tracing adds no I/O to the traced work.  Each span records its
name (``<module>.<function>``), start, end, parent span and op id.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, op])
