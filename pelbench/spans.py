"""Spans around the calls into each layer of ``pelhd``, recorded from here.

``Recorder.install`` replaces every public function of the traced modules,
in every ``pelhd`` module namespace that holds it, with a wrapper that
times the call and records it as a span.  Nothing in the package changes:
``uninstall`` puts the original objects back.  Spans are kept in memory;
the worker aggregates them when the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# The measured layers.  ``cli`` only parses configs and writes CSV, so no
# workload calls it; ``experiments`` is the operation itself on mc_*.
LAYERS = ("simulate", "core", "calibration", "limits")


@dataclass
class Span:
    name: str          # "<layer>.<function>"
    op: int            # index of the operation in the run, -1 in set-up
    depth: int         # 1 for a call made directly by the operation
    seconds: float
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None


class Recorder:
    """Collects spans; ``keep`` retains the arguments and results of the
    outermost calls, which the output checks read."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.keep = False
        self._depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._depth += 1
            depth = self._depth
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._depth -= 1
            if self.keep and depth == 1:
                span = Span(name, self.op, depth, seconds, args, kwargs, result)
            else:
                span = Span(name, self.op, depth, seconds)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patched:
            return
        package = [m for k, m in sys.modules.items()
                   if k == "pelhd" or k.startswith("pelhd.")]
        for layer in LAYERS:
            module = sys.modules[f"pelhd.{layer}"]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not callable(fn) or isinstance(fn, type):
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                for target in package:
                    if getattr(target, fname, None) is fn:
                        self._patched.append((target, fname, fn))
                        setattr(target, fname, traced)

    def uninstall(self):
        for target, fname, fn in reversed(self._patched):
            setattr(target, fname, fn)
        self._patched.clear()

    def release(self, op):
        """Drop the arguments and results kept for one operation."""
        for s in self.spans:
            if s.op == op:
                s.args, s.kwargs, s.result = (), {}, None

    def top(self, op=None):
        """Outermost spans, of one operation or of all."""
        return [s for s in self.spans
                if s.depth == 1 and (op is None or s.op == op)]
