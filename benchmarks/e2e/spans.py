"""The benchmark's own in-memory span recorder.

Spans are recorded from *outside* the program: the harness wraps its own
calls into each layer with :meth:`Tracer.span`, and for calls that happen
inside the program (``run_simulation`` inside ``figure_data``, say) it
swaps the public function for a wrapper while one traced pass runs and
restores it afterwards. Span times are read off the process's CPU clock: the
process has one thread and never waits, so on a quiet machine that is the
wall clock, and on this shared host it leaves the hypervisor's steal out.
Nothing here imports ``repro.telemetry`` or
``repro.tracing``; the timed passes run with :data:`NULL_TRACER`, whose
``span`` is a shared no-op.
"""

from __future__ import annotations

import functools
import sys
from contextlib import nullcontext
from time import process_time
from typing import Callable, Dict, List, Tuple

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append(
            [self._name, process_time(), 0.0, stack[-1] if stack else -1]
        )
        stack.append(self._index)

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = process_time()
        tracer._stack.pop()


class Tracer:
    """Records ``[name, start, end, parent_index]`` rows in call order."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Wrapping the program's public functions for one traced pass
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def patch_function(self, fn: Callable, name: str, prefix: str = "repro") -> None:
        """Replace every ``prefix.*`` module-level binding of ``fn``.

        ``from x import f`` copies the binding, so the defining module is
        not the only place a caller may find ``f``.
        """
        wrapper = self.wrap(fn, name)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def patch_method(self, owner: type, attr: str, name: str) -> None:
        """Replace the plain method ``owner.attr`` by a span wrapper."""
        self.patch(owner, attr, self.wrap(vars(owner)[attr], name))

    def patch(self, holder: object, attr: str, wrapper: object) -> None:
        """Set ``holder.attr = wrapper``, remembering what to restore."""
        self._patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``busy`` and ``self`` seconds.

        A span's self time is its duration minus what its child spans
        cover; ``busy`` skips a span nested under one of the same name,
        so a layer calling itself is not counted twice. Only rows from
        index ``first`` on are aggregated, so one recorder can serve
        set-up and several passes.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index in range(first, len(spans)):
            name, start, end, parent = spans[index]
            row = out.setdefault(name, {"count": 0, "busy": 0.0, "self": 0.0})
            row["count"] += 1
            row["self"] += end - start - child_time[index]
            while parent >= first and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < first:
                row["busy"] += end - start
        return out


class NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and a no-op ``with``."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NULL_TRACER = NullTracer()
