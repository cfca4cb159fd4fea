"""Spans around calls into the package's public functions, taken from outside.

The package binds names at import time (``controller`` calls its own
imported ``rk_step``, ``reference_solution``, ``local_error_exact``, ...), so
patching only the defining module would miss calls.  ``installed`` therefore
rebinds a public function in every package module that holds it, and puts
the originals back on exit.  A name that no module holds any longer is
skipped and reported as absent rather than raising.

Spans are aggregated in memory by ``(name, parent name)``: call count, total
time, self time (total minus the time of child spans) and the RHS
evaluations counted while the span was open.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

#: traced public functions, by layer
TRACED = (
    "increment_function", "rk_step",                        # rk_core
    "integrate", "attempt_step",                            # controller
    "local_error_exact", "alpha_propagation_term",          # error_analysis
    "mean_beta_higher", "condition_check",
    "reference_solution",                                   # problems
    "parse_args", "write_trace_csv", "write_summary_json",  # cli
    "figure1_export",
)

#: calls ``integrate`` makes for the oracle diagnostics of an accepted step
ORACLE_SPANS = (
    "reference_solution", "local_error_exact", "alpha_propagation_term",
    "mean_beta_higher", "condition_check",
)
SERIALIZE_SPANS = ("write_trace_csv", "write_summary_json", "figure1_export")


class Counter:
    """Number of RHS evaluations made through ``counted`` right-hand sides."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def counted(self, f):
        def f_counted(x, y):
            self.n += 1
            return f(x, y)
        return f_counted


class Tracer:
    def __init__(self, rhs: Counter):
        self.rhs = rhs
        self._stack = []
        #: traced names that no package module holds
        self.absent = set()
        # (name, parent name) -> [calls, total s, self s, rhs evaluations]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0])

    def wrap(self, name, fn):
        stack, spans, rhs, clock = self._stack, self.spans, self.rhs, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            n0 = rhs.n
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                s = spans[(name, parent[0] if parent else None)]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                s[3] += rhs.n - n0

        return traced

    def total(self, names, field, parent=None):
        """Sum of one span field (0 calls, 1 total s, 2 self s, 3 rhs) over ``names``,
        optionally only for spans opened directly under ``parent``."""
        return sum(
            v[field] for (name, par), v in self.spans.items()
            if name in names and (parent is None or par == parent)
        )


def _package_modules(package):
    prefix = package + "."
    return [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]


@contextlib.contextmanager
def installed(tracer: Tracer, package="rk_error_lab"):
    """Rebind every traced name in every package module that holds it.

    Names that no module holds are added to ``tracer.absent``.  The
    originals are restored on exit, also when the body raises.
    """
    modules = _package_modules(package)
    patched = []
    try:
        for name in TRACED:
            holders = [m for m in modules if callable(getattr(m, name, None))]
            if not holders:
                tracer.absent.add(name)
            wrapped = {}
            for m in holders:
                fn = getattr(m, name)
                if fn not in wrapped:
                    wrapped[fn] = tracer.wrap(name, fn)
                patched.append((m, name, fn))
                setattr(m, name, wrapped[fn])
        yield
    finally:
        for m, name, fn in reversed(patched):
            setattr(m, name, fn)
