"""Span and counter recording around quickray's public callables.

``Tracer.install()`` wraps the listed callables in place (class
attributes and module attributes, restored by ``uninstall``). Each
call records a span (name, start, end, parent span, query id) and the
counters named in ``_count``. Spans stay in memory until ``dump``.

Only calls made in the benchmark process are seen: work inside Ray
workers (the build's map and merge tasks) is timed by the build's own
``BuildResult.phase_times`` instead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import quickray.build
import quickray.engine
import quickray.wand
from quickray.delta import DeltaEngine
from quickray.engine import Index, LocalEngine
from quickray.tokenize import Tokenizer

# (span name, owner, attribute)
TARGETS = (
    ("build", quickray.build, "build_index"),
    ("tokenize", Tokenizer, "__call__"),
    ("index.load", Index, "__init__"),
    ("index.posting", Index, "posting"),
    ("index.df_of", Index, "df_of"),
    ("index.hydrate", Index, "hydrate"),
    ("engine.candidates", LocalEngine, "candidates"),
    ("engine.score", LocalEngine, "score"),
    ("wand", quickray.wand, "block_max_topk"),
    # the names quickray.engine imported them under: the engine looks
    # them up in its own module namespace at call time
    ("codec.decode_postings", quickray.engine, "decode_postings"),
    ("codec.varint_decode", quickray.engine, "varint_decode"),
    ("scoring.bm25", quickray.engine, "bm25_contrib"),
    ("delta.engine_init", DeltaEngine, "__init__"),
    ("delta.search", DeltaEngine, "search"),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, query id)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.qid = ""
        self._stack: list[int] = []  # open span indexes
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.qid))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.qid)
        self._count(name, parent, out)
        return out

    def _count(self, name: str, parent: int, out) -> None:
        if name == "codec.decode_postings":
            self.counts["codec.decoded_postings"] += len(out)
            if parent >= 0 and self.spans[parent][0] == "index.posting":
                # a posting() call that had to decode: an LRU miss
                self.counts["index.posting_decodes"] += 1
        elif name == "scoring.bm25":
            self.counts["scoring.bm25_values"] += len(out)

    # -------------------------------------------------------- wrappers
    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ---------------------------------------------------------- reading
    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self time per span name over spans[since:]: duration minus the
        time covered by direct child spans."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[since:]:
            if parent >= since:
                child[parent] += t1 - t0
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans[since:], since):
            out[name] += t1 - t0 - child[i]
        return out

    def calls(self, name: str, since: int = 0) -> int:
        return sum(1 for s in self.spans[since:] if s[0] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "query_id"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                f,
            )
