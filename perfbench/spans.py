"""Span tracer for the benchmark's traced run.

Nothing inside ``flatfold`` is instrumented: `Tracer.install` replaces the
public entry points of each layer, in the module namespace the callers look
them up in, by wrappers that record a span (request, id, parent, name,
start, end) and the work counters that can be read off the arguments and the
return value. `Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the full cost of its wrapped child
calls, the wrappers' own bookkeeping included, so tracer overhead lands in
no layer; it shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional


def _bucket(value: int, edges: tuple[int, ...], unit: str) -> str:
    """Name of the size bucket: ``edges`` are inclusive upper limits."""
    low = 0
    for high in edges:
        if value <= high:
            return "%s_%d_%d" % (unit, low + 1, high) if low else "%s_le_%d" % (unit, high)
        low = high
    return "%s_gt_%d" % (unit, low)


# size buckets of the self-time split: m = sectors, c = creases
COUNT_M = (16, 96, 256)
ORACLE_M = (6, 8)
BUILD_C = (32, 80)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[list] = []  # [span id, time spent in wrapped children]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self, name: str, fn: Callable, note: Optional[Callable[[tuple, Any], Optional[str]]] = None
    ) -> Callable:
        """``note(args, result)`` updates counters and may name a size bucket;
        ``result`` is None when the call raised."""
        stack, spans, self_s = self._stack, self.spans, self.self_s

        def traced(*args, **kwargs):
            entered = perf_counter()
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                own = end - start - frame[1]
                self_s[name] += own
                self.counts[name + ".calls"] += 1
                if note is not None:
                    bucket = note(args, result)
                    if bucket:
                        self_s["%s.%s" % (name, bucket)] += own
                        self.counts["%s.%s.calls" % (name, bucket)] += 1
                spans[span_id] = (
                    self.request, span_id, parent[0] if parent else None, name, start, end
                )
                if parent is not None:
                    parent[1] += perf_counter() - entered

        return traced

    def patch(self, owner: Any, attr: str, name: str, note=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, note))
        else:
            replacement = self.wrap(name, original, note)
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public entry points where the CLI reaches them."""
        import flatfold.cli as cli
        import flatfold.core as core
        import flatfold.oracle as oracle
        import flatfold.pattern as pattern
        import flatfold.vertex as vertex

        counts = self.counts

        def count_mv(args, result):
            if result is not None:
                counts["vertex.count_mv.reduction_steps"] += len(result.trace)
            return _bucket(len(args[0]), COUNT_M, "m")

        def crimp(args, result):
            counts["vertex.crimp_validity.valid"] += result is True
            return None

        def enumerate_valid(args, result):
            counts["oracle.enumerate_valid.candidates"] += 2 ** len(args[0])
            counts["oracle.enumerate_valid.found"] += len(result or ())
            return _bucket(len(args[0]), ORACLE_M, "m")

        def build(args, result):
            if result is None:
                return None
            counts["core.build.creases"] += len(result.creases)
            return _bucket(len(result.creases), BUILD_C, "c")

        self.patch(cli, "parse_angles", "cli.parse_angles")
        self.patch(cli, "parse_pattern", "cli.parse_pattern")
        self.patch(core.CreasePattern, "build", "core.build", build)
        self.patch(cli, "normalize_pattern", "core.normalize_pattern")
        self.patch(pattern, "vertex_star", "core.vertex_star")
        self.patch(vertex, "count_mv", "vertex.count_mv", count_mv)
        self.patch(vertex, "crimp_validity", "vertex.crimp_validity", crimp)
        self.patch(oracle, "enumerate_valid", "oracle.enumerate_valid", enumerate_valid)
        self.patch(oracle, "oracle_is_valid", "oracle.oracle_is_valid")
        for fn in ("local_kawasaki_all", "curve_around_vertex", "reflection_trace",
                   "generalized_maekawa"):
            self.patch(pattern, fn, "pattern." + fn)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: request, id, parent, name,
        start and end in seconds of ``time.perf_counter``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
