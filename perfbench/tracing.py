"""Spans around calls into the package, installed from outside it.

``Tracer.patch`` replaces a module global (or any object attribute) with a
timing wrapper and ``Tracer.restore`` puts the original back.  Because the
package calls its helpers through module globals (``ostat.tail_at_least``,
``bounds.check_condition`` and so on), a wrapper on the global sees every
internal call without any change to the package.

A span is ``[name, start, end, parent, op, count]``: ``parent`` is the index
of the enclosing span (-1 for an op's root span), ``op`` the id of the op
that caused it, and ``count`` a work counter taken from the call's arguments
or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def wrap(self, name, fn, count=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's args."""

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   self._stack[-1] if self._stack else -1, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Wrap ``owner.attr``; an attribute that no longer exists is listed, not fatal."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span."""
        self.op = op_id
        return self.wrap(ROOT, fn)(*args)

    def summary(self) -> dict:
        """Per span name: calls, total time, self time, summed counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.  The key
        ``(child, parent)`` pairs count calls of a name made directly inside
        another, e.g. cdf evaluations inside a quantile search.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        pairs: dict = defaultdict(int)
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["count"] += count
            if parent >= 0:
                pairs[f"{name}<{self.spans[parent][0]}"] += 1
        return {"names": dict(out), "pairs": dict(pairs)}

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, o, c] for n, s, e, p, o, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"], "spans": rows}, fh)
