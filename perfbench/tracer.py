"""Layer tracer: wraps mokka's public functions from outside the package.

``Tracer`` replaces module attributes (and class methods) with timing
wrappers for the duration of a ``with`` block and puts the original
objects back on exit. Each wrapper records calls and *self* time: the
span's wall time minus the time spent in traced callees, so the numbers
of nested layers add up instead of double-counting. Per-call hooks see
the arguments and result, which is where the layer counts come from.

Modules look their collaborators up through module attributes
(``crypto.keygen``, ``core.step``) or module globals, so replacing the
attribute is enough to catch every call made after the block starts.
"""

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: Dict[str, Span] = {}
        self._stack: List[float] = []  # child time accumulated per open span
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        label: Optional[Callable[..., str]] = None,
        hook: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace ``owner.attr`` under ``name``.

        ``label(*args)`` may refine the span name per call (``core.step``
        is split by event kind); ``hook(result, *args)`` runs after each
        call, outside the measured interval.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = label(*args) if label else name
                span = spans.get(key)
                if span is None:
                    span = spans[key] = Span()
                span.calls += 1
                span.self_s += elapsed - child
            if hook is not None:
                hook(result, *args)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
