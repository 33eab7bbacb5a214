"""Span recording around the program's public entry points.

The traced run of each workload patches named functions *where their
caller looks them up* (a module attribute or a class attribute) with
wrappers that record spans; untraced runs install nothing.  Spans stay in
memory and are written out when the run ends.

A span records its name, start, end, parent span, op id and thread; a
batch span (one broker kernel call) also lists the op ids it served.  A
layer's number is its *self time*: the span's duration minus its direct
children's durations.  :func:`reduce_ops` turns the spans of the traced
ops into per-op layer numbers and checks them against each op's duration
as timed without the spans.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Float slack for a self time that should be >= 0 (same clock, one thread).
EPS_S = 1e-6


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, op=None, **extra) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        span.update(extra)
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, op=None, **extra):
        span = self.begin(name, op, **extra)
        try:
            yield span
        finally:
            self.end(span)

    # -- patching --------------------------------------------------------------

    @staticmethod
    def original(owner, attr: str):
        """The current ``owner.attr``, as stored on its owner.

        Class attributes come from the defining class's ``__dict__`` so a
        plain function stays a function (it re-binds as a method through
        the wrapper, which is set on ``owner`` itself).
        """
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if attr in klass.__dict__:
                    return klass.__dict__[attr]
            raise AttributeError(f"{owner.__name__}.{attr}")
        return getattr(owner, attr)

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until
        :meth:`unwrap_all`."""
        original = self.original(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Record a span named ``name`` (or ``name()``) around each call.

        ``on_result(span, args, kwargs, result)`` runs after a successful
        call, to attach counts read from the result to the span.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin(name if isinstance(name, str) else name())
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(span)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Record one span per item a generator function yields."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                items = iter(original(*args, **kwargs))
                while True:
                    span = tracer.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(span)
                    yield item

            return wrapper

        self.patch(owner, attr, make)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@contextmanager
def maybe_traced_op(tracer: Tracer | None, install, op):
    """Run one op under a root ``op`` span with ``install(tracer)``'s
    wrappers in place, removed again afterwards; with no ``tracer``, run
    it untouched.  Traced runs alternate traced and untraced ops, so the
    tracing overhead is taken against neighbouring ops."""
    if tracer is None:
        yield
        return
    install(tracer)
    span = tracer.begin("op", op=op)
    try:
        yield
    finally:
        tracer.end(span)
        tracer.unwrap_all()


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> self time in seconds (duration minus direct children)."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += duration[s["id"]]
    return {sid: d - children[sid] for sid, d in duration.items()}


def layer_self_s(spans: list[dict]) -> dict[str, float]:
    """Span name -> total self time in seconds."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += own[s["id"]]
    return dict(out)


def missing_spans(spans: list[dict], expected) -> list[str]:
    """Expected span names that never fired (a wrapper bound too late)."""
    fired = {s["name"] for s in spans}
    return sorted(set(expected) - fired)


def reduce_ops(spans, root_name: str, layers: dict, ops: dict, untraced: dict,
               tol_s: float, expected=()) -> tuple[dict, list[str]]:
    """Per-op layer numbers of the traced ops, and the problems found.

    ``layers`` maps span names to metric names (several names may share
    one metric); ``ops`` maps each traced op id to ``(class, seconds)``,
    the op's duration timed *outside* the spans (around the call, or at
    the client); ``untraced`` maps each class to the seconds of its
    untraced ops.  ``root_name`` and every name in ``layers`` must fire
    within the traced ops, every name in ``expected`` anywhere.

    Per op, the layer self times plus an unattributed remainder add up to
    the op's measured duration.  An op is flagged when it has no single
    root span, when a span outlasts its parent (a negative self time), or
    when its layers claim more than its measured duration plus ``tol_s``
    (a wrapper that timed the wrong thing).

    Returns each layer metric and ``trace.unattributed_ms`` in ms per op,
    and ``trace.overhead_pct``: the traced ops' total time over what the
    same ops take untraced, each at its class's untraced mean.
    """
    notes = []
    own = self_times(spans)
    by_op: dict = defaultdict(list)
    for s in spans:
        if s["op"] in ops:
            by_op[s["op"]].append(s)
    missing = missing_spans(
        [s for group in by_op.values() for s in group], [root_name, *layers]
    )
    missing += missing_spans(spans, expected)
    if missing:
        notes.append(f"spans never fired: {missing}")

    totals = dict.fromkeys(layers.values(), 0.0)
    unattributed = 0.0
    bad = 0
    for op, (_, seconds) in ops.items():
        group = by_op.get(op, [])
        layer_s = 0.0
        for s in group:
            if s["name"] in layers:
                totals[layers[s["name"]]] += own[s["id"]]
                layer_s += own[s["id"]]
        unattributed += seconds - layer_s
        roots = [s for s in group if s["name"] == root_name]
        if (len(roots) != 1 or min(own[s["id"]] for s in group) < -EPS_S
                or seconds - layer_s < -tol_s):
            bad += 1
    if bad:
        notes.append(f"{bad} op(s) whose layer self times do not fit the "
                     "op's measured duration")

    n_ops = len(ops)
    values = {metric: total / n_ops * 1e3 for metric, total in totals.items()}
    values["trace.unattributed_ms"] = unattributed / n_ops * 1e3
    traced = sum(seconds for _, seconds in ops.values())
    expected_s = sum(statistics.fmean(untraced[kind]) for kind, _ in ops.values())
    values["trace.overhead_pct"] = (traced / expected_s - 1.0) * 100.0
    return values, notes
