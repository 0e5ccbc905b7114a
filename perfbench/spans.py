"""In-memory spans recorded around calls into the program's modules.

The program is not instrumented: :meth:`Tracer.wrap` replaces a module
attribute with a timing wrapper, so every caller that resolves the name at
call time (``cli.bilanczos``, ``spin_algebra.build_tfim`` as imported inside
``lindbladian.build_model_lindbladian``, ...) is timed.  :meth:`restore`
puts the originals back.
"""

import time
import warnings
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index into Tracer.spans, -1 for a root
    end: float = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, on_result=None):
        """Time every call of ``module.attr`` as a span called ``name``.

        ``on_result(span, result, args)`` records counts from the call.  The
        span counts the RuntimeWarnings raised inside it and not already
        recorded by a nested span.  Do not wrap a function that is called
        where the program silences warnings: "always" would override that.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = original(*args, **kwargs)
                span.attrs["runtime_warnings"] = sum(
                    issubclass(w.category, RuntimeWarning) for w in caught)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result, args)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def children(self, index):
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index):
        span = self.spans[index]
        return span.duration - sum(c.duration for c in self.children(index))
