"""Explicit Runge-Kutta methods as Butcher tableaus, plus single-step evaluation.

A method is its stage matrix ``a``, weights ``b``, abscissae ``c`` and
classical order ``z``; the stage count ``m`` is the length of ``b``.  One
step of the method applied to ``y' = f(x, y)`` is

    k_p = f(x + c_p h, y + h * sum_{q < p} a_pq k_q)       p = 1..m
    y_next = y + h * sum_p b_p k_p

Only explicit methods are supported: ``a`` must be strictly lower
triangular, so the stages can be evaluated in index order.  States are flat
float64 vectors; scalar problems use length-1 vectors.

Each stage argument ``y + h * (a_p1 k_1 + a_p2 k_2 + ...)`` is summed in
index order over the nonzero coefficients of its row only
(``ButcherTableau.stage_rows``), so it does not depend on the BLAS in use.
Only the weighted sum ``b @ k`` goes through BLAS.  A pair evaluates both
methods as one stage plan (``MethodPair.plan``), its shared stages once.

The lane rule.  ``integrate`` runs every problem whose ``y0`` has one
component in the float lane, the probe included, and every other problem in
the array lane.  Each lane is a function ``increments(x, y, h)``, returning
``(F_lower, F_higher)``, that is built from the pair's plan for a run's
``f``.  The array lane (``_array_lane``) runs the stage loop ``_stages``
into one stage buffer, from one state or from many states at once, as rows,
with the bits of each state's own evaluation; the oracle's rows run in it,
and the one-step functions in its stage loop.  The two lanes alone call
``f``.  The float lane (``MethodPair.float_lane``) is a straight-line
function that each pair compiles from its plan
(``MethodPair.float_source``).  It holds the state and each stage as a
Python float, forms each stage argument as ``_stages`` does, refuses a value
of ``f`` with the same checks (``_stage_value``, ``_check_finite``) and the
same message, and sums the stages with ``b.dot`` on float64 vectors, the
BLAS call of the array lane, so both lanes give the same bits on any BLAS
kernel.

The read-only rule.  ``f`` must be a pure function of ``(x, y)``.  The
states ``integrate`` hands it are read-only: ``y0``, each accepted state,
each ``(1,)`` vector of a one-component run whose ``f`` is not flagged
``scalar`` (a flagged one is handed Python floats) and the oracle's exact
states.  In the array lane each stage after the first is a new writeable
vector.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ButcherTableau",
    "MethodPair",
    "RHSFunction",
    "ExplicitnessViolation",
    "ConsistencyViolation",
    "DimensionMismatch",
    "NonFiniteStage",
    "ComplexStage",
    "UnknownPair",
    "validate_tableau",
    "increment_function",
    "rk_step",
    "kutta3",
    "classic_rk4",
    "builtin_pair",
    "pair_names",
]

RHSFunction = Callable[[float, np.ndarray], np.ndarray]

#: tolerance on the weight sum and the row-sum convention
CONSISTENCY_TOL = 1e-12

#: the dtype a stage is stored as; a value of another dtype goes through ``_real_numbers``
_FLOAT = np.dtype(float)

#: the floating-point state of every public stepping function and of ``integrate``:
#: a non-finite stage or state is raised as a named exception or returned, so
#: numpy's overflow and invalid-value warnings are noise
_QUIET = np.errstate(over="ignore", invalid="ignore")


class ExplicitnessViolation(ValueError):
    """Stage matrix has a nonzero entry on or above the diagonal (implicit method)."""


class ConsistencyViolation(ValueError):
    """Weights do not sum to one, or abscissae do not match the stage row sums."""


class DimensionMismatch(ValueError):
    """Coefficient array shapes disagree with the stage count, the length of ``b``."""


class NonFiniteStage(ArithmeticError):
    """A stage derivative evaluated to NaN or infinity."""


class ComplexStage(ArithmeticError):
    """A stage derivative is complex: storing it as a real stage would drop its
    imaginary part.  Every evaluation of the stage loop refuses one."""


class UnknownPair(KeyError):
    """Requested method pair is not in the registry."""


class _StagePlan(NamedTuple):
    """The stages of one method, or of a pair, in the order they are evaluated,
    each into its own slot of one buffer.

    ``rows`` holds ``(c_p, ((slot, a_pq), ...))`` for each slot in turn, as in
    ``ButcherTableau.stage_rows`` but with each ``q`` the slot where stage
    ``q`` is stored.  ``methods`` holds ``(name, first slot, end slot, stage
    number of the first slot)`` for each method, in slot order: the slots a
    method evaluates itself, which name a failing stage.
    """

    rows: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]
    methods: tuple[tuple[str, int, int, int], ...]


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of one explicit Runge-Kutta method: ``a`` of shape
    ``(m, m)``, ``b`` and ``c`` of shape ``(m,)``, classical order ``z``.

    ``a``, ``b`` and ``c`` are copied into read-only float arrays and checked
    by ``validate_tableau`` when the tableau is built.  Derived from them: the
    stage count ``m``; ``stage_rows``, ``(c_p, ((q, a_pq), ...))`` for each
    stage ``p`` as Python floats, with only the nonzero ``a_pq`` in index order;
    and ``plan``, the stage plan of the method alone, stage ``p`` in slot ``p``.
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    z: int
    m: int = field(init=False)
    stage_rows: tuple[tuple[float, tuple[tuple[int, float], ...]], ...] = field(
        init=False, repr=False)
    plan: _StagePlan = field(init=False, repr=False)

    def __post_init__(self):
        for key in ("a", "b", "c"):
            object.__setattr__(self, key, _readonly(f"{self.name}: {key}", getattr(self, key)))
        object.__setattr__(self, "m", self.b.size)
        validate_tableau(self)
        object.__setattr__(self, "stage_rows", tuple(
            (float(self.c[p]),
             tuple((q, float(self.a[p, q])) for q in range(p) if self.a[p, q] != 0.0))
            for p in range(self.m)
        ))
        object.__setattr__(self, "plan", _StagePlan(self.stage_rows, ((self.name, 0, self.m, 1),)))


@dataclass(frozen=True, eq=False)
class MethodPair:
    """A lower-order and a higher-order tableau used together for local extrapolation.

    The order gap ``r = higher.z - lower.z`` must be at least 1.  Derived:
    ``shared``, the number of leading stages the two methods evaluate
    identically (equal ``stage_rows``), which an attempt evaluates once;
    ``plan``, the lower method's stages in slots ``0 .. lower.m - 1``, then the
    higher method's after ``shared`` in the slots that follow;
    ``higher_slots``, the slot of each of the higher method's stages; and the
    float lane (the ``rk_core`` module docstring), whose source is
    ``float_source`` and whose two compiled functions are ``float_lane``,
    ``(flagless, flagged)``: ``float_lane[scalar](f)`` returns a run's
    ``increments(x, y, h)``.
    """

    lower: ButcherTableau
    higher: ButcherTableau
    shared: int = field(init=False)
    plan: _StagePlan = field(init=False, repr=False)
    higher_slots: np.ndarray = field(init=False, repr=False)
    float_source: str = field(init=False, repr=False)
    float_lane: tuple[Callable, Callable] = field(init=False, repr=False)

    def __post_init__(self):
        if self.higher.z <= self.lower.z:
            raise ValueError(
                f"higher-order method must outrank the lower one: "
                f"got z={self.lower.z} and z={self.higher.z}"
            )
        rows = list(zip(self.lower.stage_rows, self.higher.stage_rows))
        n = next((q for q, (lo, hi) in enumerate(rows) if lo != hi), len(rows))
        object.__setattr__(self, "shared", n)
        m, end = self.lower.m, self.lower.m + self.higher.m - n
        slots = np.array(tuple(range(n)) + tuple(range(m, end)), dtype=np.intp)
        slots.flags.writeable = False
        object.__setattr__(self, "higher_slots", slots)
        object.__setattr__(self, "plan", _StagePlan(
            self.lower.stage_rows + tuple(
                (c_p, tuple((slots.item(q), a) for q, a in row))
                for c_p, row in self.higher.stage_rows[n:]),
            ((self.lower.name, 0, m, 1), (self.higher.name, m, end, n + 1)),
        ))
        source, functions = _float_lane(self)
        object.__setattr__(self, "float_source", source)
        object.__setattr__(self, "float_lane", functions)

    @property
    def r(self) -> int:
        """Order gap between the two methods."""
        return self.higher.z - self.lower.z


def validate_tableau(t: ButcherTableau) -> ButcherTableau:
    """Check the tableau invariants and return the tableau unchanged.

    Raises
    ------
    DimensionMismatch
        If ``a`` and ``c`` do not match the length ``m`` of ``b``, ``b`` is
        not a vector, ``m`` is < 1, or ``z`` is not an integer >= 1.
    ExplicitnessViolation
        If any entry on or above the diagonal of ``a`` is nonzero.
    ConsistencyViolation
        If an entry of ``a``, ``b`` or ``c`` is NaN or infinite, the weights
        do not sum to 1 within ``CONSISTENCY_TOL``, or an abscissa differs
        from its stage row sum by more than that.
    """
    if t.m < 1 or not (_is_integer(t.z) and t.z >= 1):
        raise DimensionMismatch(f"{t.name}: stage count must be >= 1 and order an integer "
                                f">= 1, got m={t.m}, z={t.z!r}")
    for key, values, shape in (("a", t.a, (t.m, t.m)), ("b", t.b, (t.m,)), ("c", t.c, (t.m,))):
        if values.shape != shape:
            raise DimensionMismatch(f"{t.name}: {key} has shape {values.shape}, expected {shape}")

    for key, values in (("a", t.a), ("b", t.b), ("c", t.c)):
        if not np.isfinite(values).all():
            index = np.argwhere(~np.isfinite(values))[0]
            raise ConsistencyViolation(
                f"{t.name}: {key}{''.join(f'[{i + 1}]' for i in index)} = "
                f"{values[tuple(index)]} is not finite"
            )

    # indices p <= q (1-based) are the diagonal and above in 0-based terms
    upper = np.triu(t.a)
    if np.any(upper != 0.0):
        p, q = np.argwhere(upper != 0.0)[0]
        raise ExplicitnessViolation(
            f"{t.name}: a[{p + 1}][{q + 1}] = {t.a[p, q]} makes the method implicit"
        )

    # finite coefficients can still overflow in a sum; that sum then fails below
    with np.errstate(over="ignore", invalid="ignore"):
        weight_sum = float(np.sum(t.b))
        row_sums = t.a.sum(axis=1)
    if not abs(weight_sum - 1.0) <= CONSISTENCY_TOL:
        raise ConsistencyViolation(f"{t.name}: weights sum to {weight_sum!r}, not 1")

    bad = ~(np.abs(row_sums - t.c) <= CONSISTENCY_TOL)
    if np.any(bad):
        p = int(np.argwhere(bad)[0][0])
        raise ConsistencyViolation(
            f"{t.name}: c[{p + 1}] = {t.c[p]} but row sum is {row_sums[p]}"
        )
    return t


def inf_norm(v) -> float:
    """Max-norm used for every scalar magnitude derived from a state vector.

    Raises ``ValueError`` if ``v`` is complex, as ``_real`` does: the norm of
    its real part alone would understate it.
    """
    return float(np.abs(_real("v", v)).max())


def _is_integer(v) -> bool:
    """Whether ``v`` is an integer; a ``bool`` is not one here."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Whether ``v`` is a real number; a ``bool`` is not one here."""
    return (type(v) is float or type(v) is int
            or isinstance(v, numbers.Real) and not isinstance(v, bool))


def _number(name: str, value, rule: str, holds):
    """The one check of a scalar setting: ``value``, unless it is not ``_is_real``
    or does not satisfy ``holds``; then raise ``ValueError`` "<name> must be <rule>"."""
    if not (_is_real(value) and holds(value)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _positive_finite(name: str, value):
    return _number(name, value, "positive and finite", lambda v: 0.0 < v < math.inf)


def _count(name: str, value):
    """The one check of an order or a count: an integer >= 1, not a ``bool``."""
    return _number(name, value, "an integer >= 1", lambda v: _is_integer(v) and v >= 1)


class _Refusal(Exception):
    """A value that ``_real_numbers`` or a stage store refuses.  Its caller raises
    ``error`` with ``what`` in its message; ``_stages`` names row ``row`` of
    rows (``None``: no row)."""

    def __init__(self, error: type, what: str, row: int | None = None):
        super().__init__(what)
        self.error, self.what, self.row = error, what, row


def _real_numbers(v) -> np.ndarray:
    """``v``, a value from outside the library, as a float64 array: the one
    conversion of every state, stage, exact value, coefficient and argument.

    It makes one ``np.asarray`` call and returns a numeric array without a
    Python loop over its elements; an object array of real numbers is
    converted.  Raises ``_Refusal``: for ``ComplexStage`` with ``"complex"``
    if ``v`` is complex, whose imaginary part the conversion would drop,
    naming the earliest row with one for ``_stages`` over rows; and for
    ``ValueError`` with ``"of type T, not real numbers in the float range"``
    if it is anything else: a ``dict``, a ``str``, ``None``, a ragged
    sequence, an integer that no float holds.
    """
    try:
        a = np.asarray(v)
        if a.dtype.kind == "c":
            raise _Refusal(ComplexStage, "complex",
                           int(np.argmax(np.any(np.atleast_2d(a.imag) != 0, axis=-1))))
        if a.dtype.kind in "biuf" or (
                a.dtype.kind == "O" and all(isinstance(e, numbers.Real) for e in a.flat)):
            return a.astype(float, copy=False)
    except (ValueError, OverflowError):  # a ragged sequence; an integer beyond the float range
        pass
    raise _Refusal(ValueError, f"of type {type(v).__name__}, not real numbers in the float range")


def _real(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, by ``_real_numbers``.  Raises ``ValueError``
    naming ``name``: ``"<name> = <values> is complex"`` if ``values`` is complex,
    whose imaginary part the conversion would drop, and ``"<name> is of type T,
    not real numbers in the float range"`` if it is not real numbers."""
    try:
        return _real_numbers(values)
    except _Refusal as r:
        raise ValueError(f"{name} = {np.asarray(values)} is complex"
                         if r.error is ComplexStage else f"{name} is {r.what}") from None


def _readonly(name: str, values, ndmin: int = 0) -> np.ndarray:
    """A float64 copy of ``values`` (at least ``ndmin``-dimensional) that cannot be
    written; raises as ``_real`` does."""
    out = np.array(_real(name, values), ndmin=ndmin)
    out.flags.writeable = False
    return out


@_QUIET
def increment_function(
    t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> np.ndarray:
    """Weighted stage sum ``sum_p b_p k_p`` for one step of size ``h`` from ``(x, y)``.

    The step itself is ``y + h * increment``; the result has the shape of ``y``.
    Raises ``ValueError`` for an input that ``_one_state`` refuses or a value of
    ``f`` that does not store as ``y``, ``ComplexStage`` and ``NonFiniteStage``
    (the README's failure table).
    """
    return _increment(t, f, x, _one_state(x, y, h), h)


def _increment(t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float):
    """``increment_function`` of the checked state ``y``."""
    buf = _StageBuffer(t.m, y.shape)
    _stages(t.plan, f, x, y, h, buf)
    return t.b @ buf.k


def _one_state(x: float, y, h: float) -> np.ndarray:
    """``y`` as a float array, by ``_real``; raises ``ValueError`` naming a ``y``
    that is complex, not real numbers in the float range or not a flat vector,
    a non-finite ``x`` or an ``h`` that is not positive and finite."""
    y = _real("state", y)
    if y.ndim != 1:
        raise ValueError(f"state must be a flat vector, got shape {y.shape}")
    _number("x", x, "finite", math.isfinite)
    _positive_finite("stepsize", h)
    return y


def _stage_value(v, shape: tuple[int, ...]) -> np.ndarray:
    """The slow path of a stage store, shared by both lanes: ``v`` as a float64
    array of as many values as a slot of ``shape`` holds.  Raises ``_Refusal``
    as ``_real_numbers`` does, and for ``ValueError`` if ``v`` has another
    number of values."""
    a = _real_numbers(v)
    if a.size != math.prod(shape):
        raise _Refusal(ValueError, f"of shape {a.shape}, not {shape}")
    return a


class _StageBuffer:
    """Stage slots of the array lane, ``k`` of shape ``(M, d)`` for one state or
    ``(n, M, d)`` for rows, each row's slots contiguous; ``slot`` holds one view
    of ``k`` per slot.  A run evaluates every attempt into one buffer, and no
    evaluation returns a view of it.
    """

    __slots__ = ("k", "slot")

    def __init__(self, slots: int, shape: tuple[int, ...]):
        self.k = np.empty(shape[:-1] + (slots, shape[-1]))
        self.slot = [self.k[..., p, :] for p in range(slots)]

    def store(self, p: int, v, i: int | None = None) -> None:
        """Store ``v`` into slot ``p``, or into its row ``i``, which a refusal names.
        A float64 value of the slot's size skips the checks of ``_stage_value``
        without a numpy call; a shape that does not store as the slot (a ``(d, 1)``
        column; a ``(1, d)`` row stores) raises ``_Refusal`` for ``ValueError``."""
        dst = self.slot[p] if i is None else self.slot[p][i]
        try:  # a value of another size would broadcast, so its size is checked first
            if getattr(v, "dtype", None) is not _FLOAT or v.size != dst.size:
                v = _stage_value(v, dst.shape)
            dst[...] = v
        except _Refusal as r:
            r.row = r.row if i is None else i
            raise
        except ValueError:
            raise _Refusal(ValueError, f"of shape {v.shape}, not {dst.shape}", i) from None


def _array_lane(pair: MethodPair, f: RHSFunction, shape: tuple[int, ...], rowwise: bool = True):
    """The array lane of ``pair``: ``increments(x, y, h)``, the increments
    ``(F_lower, F_higher)`` of both methods from one state, or from rows, of
    ``shape``, evaluated by ``_stages`` with ``rowwise``.  Every call evaluates
    into one stage buffer and sums ``b @ k`` through BLAS on each row's
    contiguous ``(m, d)`` stages, the lower method's a slice of the slots and
    the higher method's a ``take`` of them.  Each increment is bit-identical to
    ``increment_function`` of its method, over rows to that row's state's.
    """
    buf = _StageBuffer(len(pair.plan.rows), shape)

    def increments(x, y, h):
        _stages(pair.plan, f, x, y, h, buf, rowwise)
        # BLAS gives each row its own state's bits only where that row's (m, d)
        # stages are one contiguous block, as take's C-ordered copy gives them
        higher = buf.k.take(pair.higher_slots, -2)
        return pair.lower.b @ buf.k[..., :pair.lower.m, :], pair.higher.b @ higher
    return increments


def _stages(plan: _StagePlan, f: RHSFunction, x, y, h, buf: _StageBuffer,
            rowwise: bool = True) -> None:
    """Evaluate the stages of ``plan`` into the slots of ``buf``: the array lane.

    From one state, ``x`` and ``h`` are floats and ``y`` is ``(d,)``; over rows
    they are ``(n,)`` columns, ``y`` is ``(n, d)`` and ``f`` takes rows, or if
    not ``rowwise`` each row in turn, into its row of the slot.  With the float
    lane's, these are the only calls of ``f``.  Every operation on a stage
    argument is elementwise, each row's ``h`` scaling that row, so a row's
    stages are bit-identical to its state's alone; a coefficient of exactly 1
    is applied without a multiply, which gives the same bits.  Each value of
    ``f`` is checked where ``buf.store`` stores it, and finiteness once, after
    the loop, by ``_check_finite``.  It checks no input; ``_one_state`` does.
    """
    slot, store = buf.slot, buf.store
    h_y = h[:, None] if y.ndim == 2 else h
    by_row = y.ndim == 2 and not rowwise
    for p, (c_p, row) in enumerate(plan.rows):
        s = None
        for q, a in row:
            term = slot[q] if a == 1.0 else a * slot[q]
            s = term if s is None else s + term
        s = y if s is None else y + h_y * s  # the stage argument, freed before the next sum
        try:
            if by_row:
                for i, x_i in enumerate((x + c_p * h).tolist()):
                    store(p, f(x_i, s[i]), i)
            else:
                store(p, f(x + c_p * h, s))
        except _Refusal as r:
            raise _refused(plan, p, r, x, h) from None
    _check_finite(plan, buf.k, x, h)


def _refused(plan: _StagePlan, slot: int, r: _Refusal, x, h) -> Exception:
    """The error of a value of ``f`` refused for ``slot`` of ``plan``: ``r.error``
    naming the method, the stage, what was refused, and ``x`` and ``h``."""
    what = r.what + "," if r.error is ValueError else r.what  # "..., at x=..."
    return r.error(_stage_message(plan, slot, what, x, h, r.row))


def _check_finite(plan: _StagePlan, k, x, h) -> None:
    """Raise ``NonFiniteStage`` if a stage in ``k``, the slots of ``plan`` as an
    array or nested lists, is NaN or infinite.  It names the first such stage of
    the first method in slot order that has one, and over rows that method's
    earliest row with one, with that row's ``x`` and ``h``, as the row alone would.
    """
    finite = np.isfinite(k)
    if finite.all():
        return
    finite = finite.reshape(-1, *finite.shape[-2:]).all(axis=2)  # (rows, slots)
    for _, start, end, _ in plan.methods:
        ok = finite[:, start:end]
        if not ok.all():
            i, p = divmod(int(np.argmin(ok)), end - start)  # earliest row, then stage
            raise NonFiniteStage(_stage_message(plan, start + p, "not finite", x, h, i))


def _stage_message(plan: _StagePlan, slot: int, what: str, x, h, i: int | None) -> str:
    """``"<method>: stage <p> is <what> at x=..., h=..."`` for ``slot`` of ``plan``,
    over rows with row ``i``'s ``x`` and ``h``, or ``"... over rows"`` if ``i`` is None."""
    name, start, _, first = next(m for m in plan.methods if m[1] <= slot < m[2])
    at = (f"at x={x}, h={h}" if np.ndim(h) == 0 else "over rows" if i is None
          else f"at x={x.item(i)}, h={h.item(i)}")
    return f"{name}: stage {first + slot - start} is {what} {at}"


def _float_stage(plan: _StagePlan, slot: int, v, x: float, h: float) -> float:
    """The slow path of a float-lane stage: ``v``, a value of ``f`` for ``slot``
    of ``plan`` that is not a Python float, as one by ``_stage_value``; raises
    what ``_stages`` raises for it."""
    try:
        return _stage_value(v, (1,)).item()
    except _Refusal as r:
        raise _refused(plan, slot, r, x, h) from None


def _float_lane(pair: MethodPair) -> tuple[str, tuple[Callable, Callable]]:
    """The float lane of ``pair``: the source of its two functions, generated from
    ``pair.plan`` with stage ``p`` in the local ``k<p>``, and the functions
    compiled from it, ``(flagless, flagged)``.  Each takes ``f`` and returns a
    run's ``increments(x, y, h)``.
    """
    ks = [f"k{p}" for p in range(len(pair.plan.rows))]
    lower, higher = ks[:pair.lower.m], [ks[s] for s in pair.higher_slots.tolist()]

    def function(form: str) -> str:
        lines = [f"def {form}(f):",
                 f"    lower, higher = empty({len(lower)}), empty({len(higher)})",
                 "",
                 "    def increments(x, y, h):"]
        for p, (c_p, row) in enumerate(pair.plan.rows):
            terms = " + ".join(ks[q] if a == 1.0 else f"{a!r} * {ks[q]}" for q, a in row)
            arg, k = f"y + h * ({terms})" if row else "y", ks[p]
            if form == "flagless":
                lines += [f"        {k} = f(x + {c_p!r} * h, frombuffer(pack({arg})))",
                          f'        if getattr({k}, "dtype", None) is FLOAT and {k}.size == 1:',
                          f"            {k} = {k}.item()",
                          f"        elif type({k}) is not float:"]
            else:
                lines += [f"        {k} = f(x + {c_p!r} * h, {arg})",
                          f"        if type({k}) is not float:"]
            lines.append(f"            {k} = stage_value(plan, {p}, {k}, x, h)")
        return "\n".join(lines + [
            f"        if not isfinite({' + '.join(ks)}):",
            f"            check_finite(plan, [{', '.join(f'[{k}]' for k in ks)}], x, h)",
            f"        {', '.join(f'lower[{i}]' for i in range(len(lower)))} = {', '.join(lower)}",
            f"        {', '.join(f'higher[{i}]' for i in range(len(higher)))} = {', '.join(higher)}",
            "        return float(lower_dot(lower)), float(higher_dot(higher))",
            "",
            "    return increments",
            ""])

    source = "\n\n".join(map(function, ("flagless", "flagged")))
    namespace = {"empty": np.empty, "frombuffer": np.frombuffer, "pack": struct.Struct("d").pack,
                 "FLOAT": _FLOAT, "isfinite": math.isfinite, "plan": pair.plan,
                 "stage_value": _float_stage, "check_finite": _check_finite,
                 "lower_dot": pair.lower.b.dot, "higher_dot": pair.higher.b.dot}
    exec(compile(source, f"<float lane of {pair.lower.name}, {pair.higher.name}>", "exec"),
         namespace)
    return source, (namespace["flagless"], namespace["flagged"])


@_QUIET
def rk_step(
    t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> np.ndarray:
    """Advance ``y`` by one step of size ``h``: ``y + h * increment_function(...)``."""
    y = _one_state(x, y, h)
    return y + h * _increment(t, f, x, y, h)


def kutta3() -> ButcherTableau:
    """Kutta's three-stage third-order method."""
    return ButcherTableau(
        name="rk3",
        a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        b=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        c=[0.0, 0.5, 1.0],
        z=3,
    )


def classic_rk4() -> ButcherTableau:
    """The classical four-stage fourth-order method."""
    return ButcherTableau(
        name="rk4",
        a=[
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        c=[0.0, 0.5, 0.5, 1.0],
        z=4,
    )


_PAIRS: dict[str, MethodPair] = {
    "rk3_rk4": MethodPair(lower=kutta3(), higher=classic_rk4()),
}


def builtin_pair(name: str) -> MethodPair:
    """Look up a method pair by registry name (currently ``rk3_rk4``).

    Pairs are read-only, so every lookup returns the same shared value.
    """
    try:
        return _PAIRS[name]
    except KeyError:
        raise UnknownPair(f"unknown method pair {name!r}; known: {sorted(_PAIRS)}") from None


def pair_names() -> list[str]:
    return sorted(_PAIRS)
