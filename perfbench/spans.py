"""In-memory spans for the traced run, and the self-time arithmetic.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter()`` seconds, which on Linux is the system-wide
monotonic clock, so spans recorded by the serving process line up with
the load generator's), the span that caused it, and the request it
belongs to.  Spans stay in memory and are written out when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Summed over every span below a root,
self times partition the root's duration.  Only *layer* spans (calls into
``src/repro``, recorded by a wrapper) claim time: the roots and the spans
the load generator records on its side (its queue, the round trip as the
client sees it) are bookkeeping, and their self time is unclaimed, which
:func:`accounting` reports.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: str | None = None
    layer: bool = True  # False: benchmark bookkeeping, claims no time

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans per thread; ``wrap`` instruments a callable in place.

    ``enabled`` can be flipped between calls: a disabled tracer still runs
    the wrappers but records nothing.  :meth:`unpatched` takes the
    wrappers out altogether for a while, to time the untraced code.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: str | None = None,
              layer: bool = True) -> Span | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids), name, time.perf_counter(), 0.0,
            None if parent is None else parent.id, request, layer,
        )
        stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, request: str | None = None) -> Span:
        """Add a bookkeeping span whose interval was measured elsewhere
        (by the load generator); it claims no layer time."""
        span = Span(next(self._ids), name, start, end, parent, request, layer=False)
        self.spans.append(span)
        return span

    def span(self, name: str, request: str | None = None,
             layer: bool = True) -> "_SpanContext":
        return _SpanContext(self, name, request, layer)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter recorded at a layer boundary."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``owner`` is a module or a class; the original is restored by
        :meth:`restore`.  Module-level functions must be wrapped in the
        module that *calls* them when the caller imported the name.
        ``before``, when given, sees each call's arguments first (to count
        work at the boundary).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None and tracer.enabled:
                before(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def unpatched(self):
        """Run the block with every original in place, then re-install."""
        patches = list(self._patches)
        self.restore()
        try:
            yield
        finally:
            for owner, attr, _, replacement in patches:
                setattr(owner, attr, replacement)
            self._patches = patches

    def export(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

    def adopt(self, exported: list[dict]) -> list[Span]:
        """Add spans exported by another tracer (another process), with
        fresh ids; parent links among them are kept."""
        fresh = {record["id"]: next(self._ids) for record in exported}
        spans = [
            Span(**{**record, "id": fresh[record["id"]],
                    "parent": fresh.get(record["parent"])})
            for record in exported
        ]
        self.spans.extend(spans)
        return spans


class _SpanContext:
    __slots__ = ("tracer", "name", "request", "layer", "span")

    def __init__(self, tracer: Tracer, name: str, request: str | None, layer: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request
        self.layer = layer
        self.span: Span | None = None

    def __enter__(self) -> Span | None:
        self.span = self.tracer.begin(self.name, self.request, self.layer)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.span)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = children_of(spans)
    return {
        span.id: span.duration - covered(
            [(c.start, c.end) for c in children.get(span.id, ())], span.start, span.end
        )
        for span in spans
    }


def descendants(spans: list[Span], roots: list[Span]) -> list[Span]:
    children = children_of(spans)
    out: list[Span] = []
    pending = list(roots)
    while pending:
        span = pending.pop()
        for child in children.get(span.id, ()):
            out.append(child)
            pending.append(child)
    return out


def layer_self_totals(spans: list[Span]) -> dict[str, float]:
    """Layer name -> summed self time (seconds) over its spans."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def accounting(spans: list[Span], roots: list[Span]) -> dict:
    """How much of the roots' time the layer spans below them account for.

    ``e2e_s`` is the summed duration of ``roots``; ``layers_s`` the summed
    self time of the layer spans below them.  ``unclaimed_s`` is the self
    time of the roots and of the bookkeeping spans below them.  ``ratio``
    is ``layers_s / e2e_s``: 1.0 means the layers cover the end-to-end time
    exactly; spans leaking outside their parent push it above 1, work no
    layer records pushes it below.
    """
    below = descendants(spans, roots)
    own = self_times(list(roots) + below)
    e2e = sum(root.duration for root in roots)
    layers = sum(own[span.id] for span in below if span.layer)
    return {
        "e2e_s": e2e,
        "layers_s": layers,
        "unclaimed_s": sum(own[root.id] for root in roots)
        + sum(own[span.id] for span in below if not span.layer),
        "ratio": layers / e2e if e2e > 0 else 0.0,
    }
