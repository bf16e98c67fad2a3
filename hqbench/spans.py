"""In-memory spans around the benchmark's calls into hardyq.

A span records (name, start, end, parent span, op id, tag, error).  The
layer of a span is the part of its name before the first dot, which is the
hardyq module called (groups, laurent, invariants, kernels, toeplitz, cli);
`op.*` spans wrap one benchmark operation and `check.*` spans its output
check.  Untraced runs use NullTracer, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("groups", "laurent", "invariants", "kernels", "toeplitz", "cli")

_NULL = nullcontext()


class NullTracer:
    enabled = False
    op_id = None

    def span(self, name: str, tag: str | None = None):
        return _NULL

    def count(self, name: str, value: float = 1.0) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        rec = [name, perf_counter(), None, self.stack[-1] if self.stack else None,
               self.op_id, tag, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def durations(self) -> list[tuple[str, float, float, str | None, str | None]]:
        """(name, busy, self, tag, error) per span; self time is the span's
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (name, end - start, end - start - child_time[i], tag, err)
            for i, (name, start, end, _, _, tag, err) in enumerate(self.spans)
        ]

    def write(self, path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "op", "tag", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header,
                       "spans": [dict(zip(keys, rec)) for rec in self.spans]}, fh)
