"""Layer spans for the traced run: self time and call counts per layer.

The tracer wraps public functions of the simulator's layers from the
outside (class or instance attributes patched for the duration of one
traced unit).  Each wrapped call is a span; a span's *self time* is its
duration minus the time covered by the spans it directly encloses, so
nested layers (DES -> MAC -> PHY -> kernels) each keep only their own
share.  Time the DES fires into an unwrapped private callback stays with
the enclosing ``Simulator.run`` span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: (owner, attribute name, layer): one function to wrap as a span.
Target = Tuple[object, str, str]


class Tracer:
    """Accumulates self time and call counts per layer name.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a scripted clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # One entry per open span: the time its children covered so far.
        # Entry 0 is the root, which collects the top-level spans.
        self._covered: List[float] = [0.0]

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call is recorded as a ``layer`` span."""
        clock = self.clock
        covered = self._covered
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - covered.pop()
                covered[-1] += elapsed
                calls[layer] += 1

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Patch every target for the body of the ``with``, then restore.

        A class attribute is replaced by a wrapped function (still a
        method); an instance attribute shadows the class method for that
        instance only.  An attribute the owner only inherited is deleted
        again on exit, so the owner ends exactly as it started.
        """
        patched: List[Tuple[object, str, bool, object]] = []
        try:
            for owner, name, layer in targets:
                own = vars(owner)
                had_own = name in own
                patched.append((owner, name, had_own, own.get(name)))
                setattr(owner, name, self.span(layer, getattr(owner, name)))
            yield self
        finally:
            for owner, name, had_own, original in reversed(patched):
                if had_own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)
