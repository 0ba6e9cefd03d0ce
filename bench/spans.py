"""Span tracing and per-call memory peaks, attached from outside the library.

Both instruments work by replacing module attributes of `cachepir` with
wrappers and putting the originals back afterwards.  The library looks its
collaborators up as module globals at call time (`protocol.retrieve` calls
`protocol.answer`, `audit.montecarlo_privacy` calls `audit.build_corner_plan`,
...), so wrapping a function everywhere it is bound is enough to see every
call, and no file of the library changes.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Functions called thousands of times per op (per block of a composed plan,
# per Monte-Carlo trial, per derived stream) are recorded as one rolled-up
# span per (parent span, name) carrying a call count, so the trace stays small
# and its overhead low; their self time is still accounted call by call.
ROLLUP = frozenset(
    {
        "rng.derive_rng",
        "scheme.corner_equations",
        "scheme.build_corner_plan",
        "audit.plan_signature",
    }
)


class Patcher:
    """Replaces a function in every library module that binds it; undoes it all."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []

    def wrap(self, fn, make_wrapper) -> None:
        wrapper = make_wrapper(fn)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()


class Tracer:
    """In-memory spans with self time and boundary counters per layer.

    A span is `[id, name, start, end, parent, op, calls]`.  Self time is the
    span's duration minus the time covered by its child spans.  `counters`
    holds work counts taken at the same boundaries (`on_exit` hooks), and
    `per_op` keeps each op's shape, self times and counters for scaling fits.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span id, start, child seconds]
        self.open = Counter()
        self.rollups: dict[tuple, list] = {}
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.op = None
        self.op_shape = ()
        self.op_self = defaultdict(float)
        self.op_counters = Counter()
        self.per_op: list[tuple[tuple, dict, dict]] = []

    def wrapper(self, name: str, on_exit=None):
        rollup = name in ROLLUP

        def make(fn):
            @wraps(fn)
            def traced(*args, **kwargs):
                parent = self.stack[-1][0] if self.stack else None
                if rollup:
                    span = self.rollups.get((parent, name))
                    if span is None:
                        span = [len(self.spans), name, None, None, parent, self.op, 0]
                        self.spans.append(span)
                        self.rollups[parent, name] = span
                else:
                    span = [len(self.spans), name, None, None, parent, self.op, 1]
                    self.spans.append(span)
                self.open[name] += 1
                frame = [span[0], perf_counter(), 0.0]
                self.stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    self.open[name] -= 1
                    duration = end - frame[1]
                    if self.stack:
                        self.stack[-1][2] += duration
                    own = duration - frame[2]
                    self.self_s[name] += own
                    self.op_self[name] += own
                    self.calls[name] += 1
                    if span[2] is None:
                        span[2] = frame[1]
                    span[3] = end
                    if rollup:
                        span[6] += 1
                if on_exit is not None:
                    on_exit(self, args, result)
                return result

            return traced

        return make

    def count(self, key: str, amount=1) -> None:
        self.counters[key] += amount
        self.op_counters[key] += amount

    def begin_op(self, op_id, shape: tuple) -> None:
        self.op = op_id
        self.op_shape = shape
        self.op_self = defaultdict(float)
        self.op_counters = Counter()

    def end_op(self) -> None:
        self.per_op.append((self.op_shape, dict(self.op_self), dict(self.op_counters)))
        self.op = None


class PeakMeter:
    """Nested tracemalloc peaks: bytes allocated above each call's starting level.

    `tracemalloc.reset_peak` is global, so entering a call first folds the
    current peak into every open frame; leaving one folds its peak into its
    parent.
    """

    def __init__(self):
        self.stack: list[list[int]] = []  # [base, peak]
        self.peaks = defaultdict(int)

    def enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.stack.append([current, current])

    def exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, top = self.stack.pop()
        top = max(top, peak)
        if self.stack:
            self.stack[-1][1] = max(self.stack[-1][1], top)
        return top - base

    def wrapper(self, name: str):
        def make(fn):
            @wraps(fn)
            def metered(*args, **kwargs):
                self.enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peaks[name] = max(self.peaks[name], self.exit())

            return metered

        return make
