"""Spans and counts around public prismring calls, recorded from outside.

The tracer replaces a function on a module with a wrapper and puts the
original back when the ``with`` block ends. Modules that bind a function
by name (``localizer`` imports ``buchberger`` and ``normal_form``) must be
patched on their own; ``spectra`` looks its witness checks up as module
globals, so patching the ``spectra`` attribute catches every check.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from prismring import groebner, localizer


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    site: str  # module whose binding was called
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one traced section; patches are undone on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr: str, name: str, note=None):
        """Record a span per call of ``module.attr``; ``note(result)`` adds info."""
        original = getattr(module, attr)
        site = module.__name__.rsplit(".", 1)[-1]

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            rec = Span(name, site, time.perf_counter(), parent=parent)
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                rec.info = note(result)
            return result

        self._patch(module, attr, wrapper)

    def count(self, module, attr: str, name: str):
        """Count calls of ``module.attr`` without a span (for hot inner calls)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def self_times(self) -> Counter:
        """Self time per layer: span duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out = Counter()
        for s, c in zip(self.spans, child):
            out[s.layer] += s.duration - c
        return out


def _basis_note(gb):
    stats = gb.stats
    return {
        "spairs": stats.get("spairs", 0),
        "term_ops": stats.get("term_ops", 0),
        "mode": stats.get("mode"),
        "primes": len(stats.get("primes", ())),
        "size": len(gb),
    }


def instrument(tracer: Tracer):
    """Wrap the public entry points of each layer that the workloads call."""
    for module in (groebner, localizer):
        tracer.span(module, "buchberger", "groebner.buchberger", note=_basis_note)
        tracer.span(module, "normal_form", "groebner.normal_form")
    tracer.span(localizer, "two_parallel", "localizer.two_parallel")
    tracer.span(localizer, "generate_Ek", "localizer.generate_Ek")
    tracer.span(localizer, "extra_link", "localizer.extra_link")
