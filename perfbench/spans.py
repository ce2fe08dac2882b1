"""In-memory spans for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end on
the monotonic ``time.perf_counter`` clock (shared by every process on the
machine), the index of the span that caused it, the op it belongs to
(-1 for set-up) and the ``iterations`` count carried by the call's return
value or exception, if any.  Spans stay in memory until the run ends;
self time is derived from them afterwards.

``patched`` installs the wrappers on the module attributes through which
one regkit module calls another, and puts the originals back on exit.  It
refuses to start if a target is missing, so a later refactor that moves a
name cannot turn a layer metric into a silent zero.

This module imports only the standard library: the traced CLI child loads
it before it times ``import regkit``.
"""

import contextlib
import functools
import importlib
import time

NAME, START, END, PARENT, OP, VALUE = range(6)

# Prefix of the stderr line on which a traced child process hands back its spans.
SPANS_MARKER = "perfbench-spans "

# (module, attribute) pairs the traced run wraps.  Each is the binding the
# caller resolves at call time, so wrapping it sees every call.
TARGETS = (
    ("regkit.discrepancy", "regularized_solve_auto"),
    ("regkit.discrepancy", "solve_alpha"),
    ("regkit.discrepancy", "discrepancy_value"),
    ("regkit.discrepancy", "solve_primal"),
    ("regkit.discrepancy", "solve_spectral"),
    ("regkit.problems", "make_problem"),
    ("regkit.problems", "add_noise"),
    ("regkit.problems", "svd_decompose"),
    ("regkit.experiments", "make_problem"),
    ("regkit.experiments", "add_noise"),
    ("regkit.experiments", "regularized_solve_auto"),
    ("regkit.experiments", "records_to_csv"),
    ("regkit.experiments", "run_sweep"),
)


class TraceTargetMissing(RuntimeError):
    """A wrapped name no longer exists where the trace patches it."""


def _iterations_of(outcome):
    """The exact ``iterations`` count of a returned value or raised error."""
    value = getattr(outcome, "iterations", None)
    return value if isinstance(value, int) else None


class Tracer:
    """Collects spans of one process; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1

    def begin(self, name):
        self.spans.append(
            [name, time.perf_counter(), None, self.current(), self.op_id, None]
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def current(self):
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def end(self, index, value=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[VALUE] = value
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end(index, _iterations_of(exc))
                raise
            self.end(index, _iterations_of(result))
            return result

        return traced

    def adopt(self, child_spans, parent):
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            span[OP] = self.op_id
            self.spans.append(span)


@contextlib.contextmanager
def patched(tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    resolved = []
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceTargetMissing(
                f"{module_name}.{attr} is gone; update perfbench/spans.py TARGETS"
            )
        # Spans are named after the layer that defines the function, so
        # experiments.make_problem is recorded as problems.make_problem.
        layer = original.__module__.rsplit(".", 1)[-1]
        resolved.append((module, attr, original, f"{layer}.{attr}"))
    try:
        for module, attr, original, name in resolved:
            setattr(module, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for module, attr, original, _name in resolved:
            setattr(module, attr, original)
    for module, attr, original, _name in resolved:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} was not restored")


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
