"""Span tracer that instruments planarcount's public functions from outside.

`Tracer.instrument` replaces a public function with a timing wrapper in
every module namespace that binds it, so calls made from inside the package
(which look the name up in their own module's globals) are traced too.
Spans are kept in flat arrays in memory and summarised or written out after
the traced run; nothing is printed while the program runs.

A span has a name, a start and end time, the span that was open when it
started (its parent) and the job that was running.  For a generator function
one span covers one `next()` call, so a generator's time is the time spent
producing its items, wherever the consumer pulls them from.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter

# Slack for float rounding when self times are summed back up.
ACCOUNTING_TOLERANCE_S = 1e-6


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list = [None]
        self.job = 0  # index into self.jobs of the job now running
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_item = array("b")
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def set_job(self, tag) -> None:
        """Attribute the spans that follow to the job described by `tag`."""
        self.jobs.append(tag)
        self.job = len(self.jobs) - 1

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_item.append(0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, split_by: str | None = None):
        """Timing wrapper for `fn`.  With `split_by`, the value of that
        argument is appended to the span name (one name per variant)."""
        if split_by is None:
            base_id = self._name_id(name)

            def name_of(args, kwargs):
                return base_id
        else:
            signature = inspect.signature(fn)

            def name_of(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return self._name_id(f"{name}.{bound.arguments[split_by]}")

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                name_id = name_of(args, kwargs)
                self.calls[name_id] += 1
                return self._iterate(name_id, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = name_of(args, kwargs)
            self.calls[name_id] += 1
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _iterate(self, name_id: int, inner):
        try:
            while True:
                idx = self._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.span_item[idx] = 1
                yield item
        finally:
            inner.close()

    def instrument(self, namespaces, targets) -> None:
        """Wrap each target at every namespace that binds the same object.

        `targets` holds (home module, attribute, span name, split_by)."""
        for home, attr, name, split_by in targets:
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, split_by)
            for namespace in namespaces:
                if getattr(namespace, attr, None) is original:
                    setattr(namespace, attr, wrapper)
                    self._patched.append((namespace, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.span_start)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        return [
            self.span_end[idx] - self.span_start[idx] - child[idx]
            for idx in range(len(child))
        ]

    def outside_time(self, begin: float, end: float) -> float:
        """Time in [begin, end] not covered by any top-level span, summed
        from the gaps between consecutive top-level spans."""
        gaps = 0.0
        cursor = begin
        for idx, parent in enumerate(self.span_parent):
            if parent < 0:
                gaps += self.span_start[idx] - cursor
                cursor = self.span_end[idx]
        return gaps + (end - cursor)

    def summary(self, job_key=None) -> dict:
        """name -> {"calls", "self_s", "items"}; with `job_key`, self time
        is also split by job_key(job tag) as "self_s.<key>"."""
        out: dict[str, dict] = {}
        for name_id, count in self.calls.items():
            out.setdefault(self.names[name_id], Counter())["calls"] += count
        for idx, self_s in enumerate(self.self_times()):
            entry = out.setdefault(self.names[self.span_name[idx]], Counter())
            entry["self_s"] += self_s
            entry["items"] += self.span_item[idx]
            if job_key is not None:
                key = job_key(self.jobs[self.span_job[idx]])
                if key is not None:
                    entry[f"self_s.{key}"] += self_s
        return {name: dict(values) for name, values in out.items()}

    def check_accounting(self, begin: float, end: float):
        """Self times of all spans plus the time outside any span must add up
        to the traced wall time, and no span may have negative self time.
        Returns (ok, outside_s)."""
        self_times = self.self_times()
        outside = self.outside_time(begin, end)
        balance = sum(self_times) + outside - (end - begin)
        tol = ACCOUNTING_TOLERANCE_S
        ok = (
            abs(balance) <= tol
            and outside >= -tol
            and all(s >= -tol for s in self_times)
            and not self._stack
        )
        return ok, outside

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "jobs": self.jobs}) + "\n")
            for idx in range(len(self.span_start)):
                out.write(
                    json.dumps(
                        [
                            self.span_name[idx],
                            self.span_start[idx],
                            self.span_end[idx],
                            self.span_parent[idx],
                            self.span_job[idx],
                            self.span_item[idx],
                        ]
                    )
                    + "\n"
                )
