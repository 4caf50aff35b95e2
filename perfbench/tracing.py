"""Per-layer tracing of ``tailjoint`` from outside the package.

A :class:`Tracer` replaces every public function and method of each layer
module with a wrapper, in every ``tailjoint.*`` namespace that binds it, and
puts the originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
changes.  A wrapper records one span (name, start, end, parent span, op id)
in memory, except for the hot inner calls in ``COUNTED_ONLY``, which are
counted but not spanned.  ``numpy.sort``/``numpy.argsort`` and
``scipy.integrate.quad`` are counted the same way.

Self time is a span's duration minus the time its child spans cover; it is
summed per layer (module), so the figures survive function renames.  An
exception that leaves a wrapped function is counted once, by class, against
the layer it left first.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "sample",
    "marginal",
    "taildep",
    "covariance",
    "numerics",
    "inference",
    "equality_tests",
    "simulation",
    "cli",
)

# Called hundreds of thousands of times per op: a span each would swamp the
# figures, so they are counted and their time stays with the caller.
COUNTED_ONLY = {
    "taildep.OracleTailCopula.evaluate",
    "taildep.EmpiricalTailCopula.evaluate",
}

_FAILED_ATTR = "_perfbench_failed_layer"


class Tracer:
    """Spans and counts for one traced run; single-threaded callers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.op = 0
        self._local = threading.local()
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import numpy
        from scipy import integrate

        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("tailjoint")]
        for layer in LAYERS:
            mod = sys.modules[f"tailjoint.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(modules, obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        self._patch(numpy, "sort", self._counter("numpy.sorts", numpy.sort))
        self._patch(numpy, "argsort", self._counter("numpy.sorts", numpy.argsort))
        self._patch(integrate, "quad", self._counter("numerics.quad_calls", integrate.quad))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, replacement) -> None:
        # vars(), not getattr(): on a class, getattr binds a classmethod.
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, layer, name)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer, name))

    # -- wrappers ---------------------------------------------------------

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, layer: str, name: str):
        full = f"{layer}.{name}"
        calls_key = f"{full}.calls"
        if full in COUNTED_ONLY:
            return self._counter(calls_key, fn)
        counts, failures, spans, local = self.counts, self.failures, self.spans, self._local
        clock = time.perf_counter_ns
        on_result = self._clip_counter if full == "numerics.SpdMatrix.from_array" else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[calls_key] += 1
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            self._next_id += 1
            span_id = self._next_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if getattr(exc, _FAILED_ATTR, None) is None:
                    try:
                        setattr(exc, _FAILED_ATTR, layer)
                        failures[f"{layer}.failed.{type(exc).__name__}"] += 1
                    except AttributeError:
                        pass
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op, full, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def _clip_counter(self, matrix) -> None:
        if matrix.clip_magnitude > 0.0:
            self.counts["numerics.spd_clips"] += 1

    # -- aggregation ------------------------------------------------------

    def self_ns_by_key(self) -> dict[str, int]:
        """Self time per layer and per wrapped function, in nanoseconds."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for span_id, _parent, _op, name, start, end in self.spans:
            own = end - start - child_ns.get(span_id, 0)
            totals[name.split(".", 1)[0]] += own
            totals[name] += own
        return totals

    def write_spans(self, path, max_ops: int) -> int:
        """Write the spans of the first ``max_ops`` traced ops; return how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id","parent","op","name","start_ns","end_ns"]\n')
            for span in self.spans:
                if span[2] <= max_ops:
                    fh.write(json.dumps(span, separators=(",", ":")))
                    fh.write("\n")
                    written += 1
        return written
