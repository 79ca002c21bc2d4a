"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into surfcrf;
nothing inside the library is instrumented.  Each span has a name, a
perf_counter start and end, the id of the span that was open when it began,
the case it belongs to, and a probe flag.  Probe spans time a library
function in a separate call on the same inputs as an operation, after the
operation has finished, so their time is never inside an operation span.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self._open = []

    @contextmanager
    def span(self, name, case=None, probe=False):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "case": case, "probe": probe, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value, case=None, computed=False):
        """Record a work count or ratio; ``computed`` marks counts derived
        from array sizes rather than observed."""
        self.counts.append({"name": name, "value": value, "case": case,
                            "computed": computed})

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.
        One thread records all spans, so children never overlap."""
        child_time = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                             + rec["end"] - rec["start"])
        return {rec["id"]: rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
                for rec in self.spans}

    def medians(self) -> dict[str, float]:
        """Median self time per span name (key ``<name>_s``) and median value
        per count name."""
        selft = self.self_times()
        by_name = {}
        for rec in self.spans:
            by_name.setdefault(rec["name"] + "_s", []).append(selft[rec["id"]])
        for rec in self.counts:
            by_name.setdefault(rec["name"], []).append(rec["value"])
        return {name: statistics.median(vals) for name, vals in by_name.items()}

    def dump(self, path, extra) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans, counts=self.counts), fh, indent=1)
