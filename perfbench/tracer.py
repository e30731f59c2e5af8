"""Tracing for the benchmark: wraps public library calls from the outside,
records spans and counters in memory, and restores every patched attribute
afterwards.

Three kinds of probe:

span     a timed call recorded as (id, parent, name, start, end, self_s);
         used for calls made a few times per request;
timer    a timed call folded into per-name totals without a span record;
         used for calls made once per shot or more, where a span per call
         would swamp the run being traced;
counter  a call count only (arithmetic dunders).

Every timed call pushes a frame on one stack, so a call's self time is its
duration minus the durations of the timed calls nested directly inside it
(child coverage).  The program is single-threaded under the benchmark, so
nested intervals never overlap and the sum is the covered time.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # frames: [span id or 0, child seconds, name]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- probes ---------------------------------------------------------------

    def timed(self, fn, name: str, span: bool = False, keep=None, observe=None):
        """Wrap fn as a timer, or as a span when span is true.

        keep(result) decides after the call whether a span is recorded (a
        dropped span still counts as a timed call); observe(result, args)
        updates extra counters.
        """
        stack, clock, ids = self._stack, self.clock, self._ids
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            frame = [next(ids) if span else 0, 0.0, name]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if span and (keep is None or keep(result)):
                    self._record(frame[0], name, start, end, dur - frame[1])
                if observe is not None:
                    observe(result, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str, when=None):
        """Wrap fn to count calls; when(stack) filters which calls count."""
        calls, stack = self.calls, self._stack

        def wrapper(*args, **kwargs):
            if when is None or when(stack):
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, k: int = 1) -> None:
        self.calls[name] += k

    def _record(self, sid: int, name: str, start: float, end: float, self_time: float) -> None:
        parent = next((f[0] for f in reversed(self._stack) if f[0]), 0)
        self.spans.append({"id": sid, "parent": parent, "name": name, "phase": self.phase,
                           "start": start, "end": end, "self_s": self_time})

    # -- phases ---------------------------------------------------------------

    def take(self) -> dict:
        """Per-name totals gathered since the last take, then reset."""
        out = {"calls": dict(self.calls), "total_s": dict(self.total_s),
               "self_s": dict(self.self_s)}
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        return out

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, owners, fn, replacement) -> None:
        """Replace every binding of fn found in owners' namespaces, so that a
        name imported with `from ... import` is patched where it is looked up."""
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self.patch(owner, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError(f"no binding of {getattr(fn, '__qualname__', fn)!r} to patch")

    def restore(self) -> None:
        """Put every patched attribute back, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

