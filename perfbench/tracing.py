"""In-memory span tracing for the benchmark's traced run.

Spans are recorded by the benchmark's own wrappers around the public
calls it makes (sinks, ``ld_*``, ``slice_snps``, ``pack_panel``,
``PanelStore.open``, ``run_engine``). The library's
:class:`repro.observe.SpanProfiler` records the phases inside those
calls; :meth:`Tracer.merge_profiler` folds its records into the same
timeline, so a wrapper span's self time is its duration minus whatever
its child spans (its own or the library's) cover.

Nothing is written while the workload runs: :meth:`Tracer.write` dumps
every span at the end.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    """One timed interval on one thread."""

    __slots__ = ("name", "thread", "start", "end", "request", "self_s", "source")

    def __init__(self, name, thread, start, end, request, source):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.request = request
        self.source = source
        self.self_s = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = time.perf_counter()
        self.tracer.spans.append(
            Span(
                self.name,
                threading.current_thread().name,
                self.start,
                end,
                self.tracer.request,
                "bench",
            )
        )
        return False


class Tracer:
    """Span list kept in memory; spans of one request share ``request``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self.n_dropped = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def merge_profiler(self, profiler) -> None:
        """Append a library ``SpanProfiler``'s records to the timeline."""
        self.n_dropped += profiler.n_dropped
        for rec in profiler.records():
            start = profiler.t0 + rec.start
            self.spans.append(
                Span(rec.name, rec.thread, start, start + rec.inclusive_seconds,
                     None, "repro")
            )

    def compute_self_times(self) -> None:
        """Self time = duration minus the part direct children cover.

        Parents are found by containment per thread: spans on one thread
        nest, so the innermost enclosing span is the parent. A library
        span inherits the request of the benchmark span enclosing it.
        """
        by_thread = defaultdict(list)
        for s in self.spans:
            by_thread[s.thread].append(s)
        for spans in by_thread.values():
            spans.sort(key=lambda s: (s.start, -s.end))
            stack: list[Span] = []
            child_time: dict[int, float] = {}
            for s in spans:
                while stack and stack[-1].end <= s.start:
                    stack.pop()
                if stack:
                    parent = stack[-1]
                    child_time[id(parent)] = (
                        child_time.get(id(parent), 0.0) + s.duration
                    )
                    if s.request is None:
                        s.request = parent.request
                stack.append(s)
            for s in spans:
                s.self_s = s.duration - child_time.get(id(s), 0.0)

    def totals(self) -> dict[str, dict]:
        """Per-name ``count``, ``seconds`` and ``self_s`` of the benchmark's
        own spans (library phases are read from the profiler directly)."""
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.source != "bench":
                continue
            entry = out.setdefault(s.name, {"count": 0, "seconds": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["seconds"] += s.duration
            entry["self_s"] += s.self_s if s.self_s is not None else 0.0
        return out

    def write(self, path: Path) -> None:
        """Dump every span as JSON lines (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s.start for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "thread": s.thread,
                    "source": s.source,
                    "request": s.request,
                    "start_s": round(s.start - t0, 9),
                    "dur_s": round(s.duration, 9),
                    "self_s": None if s.self_s is None else round(s.self_s, 9),
                }) + "\n")
