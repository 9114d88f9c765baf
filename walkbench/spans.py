"""Spans recorded by the benchmark around its calls into the program.

A span is (name, start, end, parent, id): the parent is the span open
when it began, and the id names the query or build it belongs to.  Spans
live in flat arrays while the run lasts and are written out at its end;
per-name counts, inclusive time and self time (inclusive time minus the
time covered by direct children) are derived from them.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self._open = []
        self._next_id = 0

    def begin(self, name: str, rid: int | None = None) -> None:
        """Open a span.  Without ``rid`` a span inherits its parent's id, and
        a span with no parent starts a new id."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1] if self._open else -1
        if rid is None:
            if parent >= 0:
                rid = self.rid[parent]
            else:
                rid = self._next_id
                self._next_id += 1
        self._open.append(len(self.start))
        self.name.append(nid)
        self.parent.append(parent)
        self.rid.append(rid)
        self.end.append(0)
        self.start.append(perf_counter_ns())

    def finish(self) -> None:
        self.end[self._open.pop()] = perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish()

        return traced

    def summary(self) -> dict:
        """name -> {"count", "total_ns", "self_ns"}."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {name: {"count": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i, nid in enumerate(self.name):
            entry = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            entry["count"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += dur - child_ns[i]
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write ``extra`` and every span, gzip-compressed JSON."""
        payload = dict(extra)
        payload["spans"] = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "id": self.rid.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
