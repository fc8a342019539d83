"""Spans recorded around the program's public calls, from outside.

The traced run wraps methods of the objects the benchmark builds and
hands to the program (page files, pools, planners, engines, services)
so that every call into a layer opens a span: name, start, end, parent
span and request id.  Spans stay in memory and are written as JSON when
the run ends.  A span's self time is its duration minus the time its
child spans cover.

Self times summed over a request equal its root spans' durations by
construction.  So :func:`outside_share`, which compares that sum with
the request's wall time read apart from the spans, bounds only the time
spent outside every span: the benchmark's own call overhead around the
root span.  It says nothing about how much of the root span's time the
wrapped layers explain.  Work inside the program that no wrapper sees
stays in the root span's self time, which the workloads report on its
own as unattributed time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: largest share of summed request wall time that may lie outside every
#: span (the benchmark's call overhead around the root span)
SUM_TOLERANCE = 0.02


class Tracer:
    """In-memory span recorder with method wrapping and restore."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, request id or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self.request = -1
        self.enabled = True

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """Replace ``obj.attr`` by a spanned call; returns the original.

        ``after(result, *args, **kwargs)`` runs inside the span once the
        call returns, for counters that need the call's arguments or
        result.
        """
        original = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
                if after is not None and tracer.enabled:
                    after(result, *args, **kwargs)
                return result

        return self.replace(obj, attr, traced)

    def replace(self, obj: Any, attr: str, value: Any) -> Any:
        """Set ``obj.attr`` to ``value`` until :meth:`restore`; returns
        the original."""
        original = getattr(obj, attr)
        own = getattr(obj, "__dict__", {})
        had_own = attr in own
        # The raw entry, so that a classmethod comes back as one.
        raw = own.get(attr)
        setattr(obj, attr, value)

        def restore() -> None:
            if had_own:
                setattr(obj, attr, raw)
            else:
                delattr(obj, attr)
        self._restore.append(restore)
        return original

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over request spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, request in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            if request >= 0:
                out[name] += (end - start) - covered[i]
        return dict(out)

    def totals(self, requests: bool = True) -> Dict[str, float]:
        """Seconds of inclusive time per span name, over request spans
        (or, with ``requests=False``, over spans outside any request)."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, request in self.spans:
            if (request >= 0) == requests:
                out[name] += end - start
        return dict(out)

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as f:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       **extra}, f)


def outside_share(self_times: Dict[str, float], wall_s: float) -> float:
    """Share of request wall time that lies outside every span."""
    if wall_s <= 0:
        return 1.0
    return abs(wall_s - sum(self_times.values())) / wall_s
