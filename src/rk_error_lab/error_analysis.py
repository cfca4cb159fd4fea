"""Local and global error measurement for Runge-Kutta steps.

The quantities recorded per accepted step follow the standard one-step error
accounting.  With ``F`` the increment function of the lower-order method and
``y(.)`` the true solution:

* local error of a step launched from the true value:
  ``eps = [y(x) + h F(x, y(x))] - y(x + h)``, which scales like
  ``beta * h**(z+1)`` for a method of order ``z``;
* error-coefficient estimate from a lower/higher pair started at the same
  input: ``beta ~= (w_lower - w_higher) / h**(z+1)``;
* global error ``delta = w - y(x)``.  As the higher-order result is
  propagated, ``delta_lower_next = eps_lower_next + alpha * delta_higher``
  exactly: the factor ``alpha`` carries the previous step's higher-order
  global error through one lower-order step and may amplify it (on
  ``y' = lambda y`` the factors from ``s`` to ``x`` multiply to about
  ``exp(lambda (x - s))``).

The propagation term ``alpha * delta_higher`` is never formed from a derivative of
``F``; it is computed through the identity
``delta + h * [F(x, y + delta) - F(x, y)]``, which is exact and keeps the
recursion closed to roundoff.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional, get_args, get_type_hints

import numpy as np

from .problems import IVProblem, _exact_states, reference_solution
from .rk_core import (
    ButcherTableau,
    MethodPair,
    RHSFunction,
    _array_lane,
    _count,
    _Refusal,
    _is_integer,
    _is_real,
    _number,
    _positive_finite,
    _real,
    _real_numbers,
    increment_function,
    inf_norm,
    rk_step,
)

__all__ = [
    "StepRecord",
    "BetaTracker",
    "ConditionCheck",
    "StepUnderflow",
    "StepsizeOutOfRange",
    "DegenerateFit",
    "local_error_exact",
    "estimate_beta",
    "alpha_propagation_term",
    "mean_beta_higher",
    "condition_check",
    "sigma_bound",
    "find_crossing",
    "empirical_order",
    "inf_norm",
]


class StepUnderflow(ArithmeticError):
    """A power of the stepsize underflowed to zero; the error coefficient is undefined."""


class StepsizeOutOfRange(ValueError):
    """A stepsize lies outside the range a run can use: an initial stepsize
    outside the run's limits (``[1e-12, 1/10]`` times the interval length),
    one whose power overflows a float, or an ``x_end`` leaving no usable limits."""


class DegenerateFit(RuntimeError):
    """Sampled errors sit at roundoff level; an order fit would be meaningless."""


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Diagnostics for one accepted step from ``x - h`` to ``x``.

    Oracle-based fields (``eps_lower``, ``delta_*``, ``alpha_term``,
    ``cond_rhs``, ``cond_holds``) are ``None`` when the problem carries no
    exact solution.  ``beta_lower`` and ``cond_lhs`` come from the
    controller's own pair estimate and are always present.  In a trace from
    ``integrate`` the state fields are read-only rows of the run's columns.
    """

    i: int                     # 1-based accepted-step index
    x: float                   # abscissa after the step
    h: float                   # stepsize used
    rejects: int               # rejected trials before this acceptance
    w_lower: np.ndarray        # lower-order result, launched from the propagated state
    w_higher: np.ndarray       # higher-order result (the propagated solution)
    eps_lower: Optional[np.ndarray]     # lower-order local error from exact input
    beta_lower: np.ndarray              # pair estimate (w_lower - w_higher) / h**(z+1)
    delta_lower: Optional[np.ndarray]   # w_lower - y(x)
    delta_higher: Optional[np.ndarray]  # w_higher - y(x)
    alpha_term: Optional[np.ndarray]    # propagated-error term of the recursion
    cond_lhs: float                     # |beta_lower| * h**(z+1)
    cond_rhs: Optional[float]           # i * mean|beta_higher| * h**(z+2)
    cond_holds: Optional[bool]          # cond_lhs > cond_rhs (with zero-rhs convention)
    bound: float                        # (sigma**(z+1) + sigma**(z+r+1)) * delta
    clamped: bool                       # stepsize shortened to land on x_end


_HINTS = get_type_hints(StepRecord)
# each field's column dtype; states and float scalars are float columns, and an
# int column is 64-bit on every platform
_DTYPES = {name: {int: np.int64, bool: bool, Optional[bool]: bool}.get(t, float)
           for name, t in _HINTS.items()}
# the columns that are states, (n, d) where every other column is 1-D: the state
# fields, and the lower increment that a run collects for the oracle
_STATES = {name for name, t in _HINTS.items()
           if t in (np.ndarray, Optional[np.ndarray])} | {"inc_lower"}
# the array.array type code a run collects each column dtype in
_TYPECODES = {float: "d", np.int64: "q", bool: "B"}
# whether one value of a scalar column is of its type: a float is a real number,
# which _real_numbers then converts, and a bool is neither a float nor an int
_OF_TYPE = {float: _is_real, np.int64: _is_integer,
            bool: lambda v: isinstance(v, (bool, np.bool_))}


class _Records(Sequence):
    """Accepted steps stored as one column per ``StepRecord`` field, in ``columns``.

    A state field is an ``(n, d)`` array and a scalar field a 1-D array, of
    the field's dtype in ``_DTYPES``; an oracle field is ``None`` when no step
    carries it.  Every column is made read-only.  An item is a ``StepRecord``
    of read-only row views, built when it is accessed and not cached; a slice
    is a tuple of them.
    """

    def __init__(self, columns: dict[str, Optional[np.ndarray]], n: int):
        self._n = n
        self.columns = {name: columns.get(name) for name in _DTYPES}
        for col in self.columns.values():
            if col is not None:
                col.flags.writeable = False

    @classmethod
    def of(cls, records: Sequence[StepRecord]) -> "_Records":
        """``records`` as columns: a run's own, or any other sequence collected
        into the same.  Raises ``ValueError`` where ``_column`` does: for a field
        that is ``None`` on some records and not on others, or on every record
        but not ``Optional``, or whose values are not of its column's type."""
        if isinstance(records, cls):
            return records
        return cls({name: _column(name, [getattr(r, name) for r in records])
                    for name in _DTYPES}, len(records))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._record, range(*k.indices(self._n))))
        k = operator.index(k)
        if not -self._n <= k < self._n:
            raise IndexError(f"record index {k} out of range for {self._n} records")
        return self._record(k % self._n)

    def __iter__(self):
        return map(self._record, range(self._n))

    def _record(self, k: int) -> StepRecord:
        return StepRecord(*[None if col is None else col[k] if col.ndim > 1 else col.item(k)
                            for col in self.columns.values()])


def _column(name: str, values: list) -> Optional[np.ndarray]:
    """The values of field ``name`` on every record as its column, ``None`` if
    every value is ``None``; a float column goes through ``_real_numbers``.
    Raises ``ValueError`` naming the field if only some are ``None``, if all
    are (and there is at least one) for a field that is not ``Optional``, or if
    a value is not of the column's type.
    """
    nones = sum(v is None for v in values)
    if nones == len(values):
        if values and type(None) not in get_args(_HINTS[name]):
            raise ValueError(f"records carry no {name}, which every step has")
        return None
    if nones:
        raise ValueError(f"records carry {name} on some steps and not on others")
    dtype = _DTYPES[name]
    if name not in _STATES and not all(map(_OF_TYPE[dtype], values)):
        raise ValueError(f"records carry {name} values that are not all of type {np.dtype(dtype)}")
    try:
        col = _real_numbers(values) if dtype is float else np.array(values, dtype)
        return col.reshape((len(col), -1) if name in _STATES else len(col))
    except (_Refusal, OverflowError, ValueError) as exc:
        raise ValueError(f"records carry {name} values that do not fit one column: {exc}") from None


def _collector(name: str, float_lane: bool):
    """``(put, end)`` for column ``name`` of a run: ``put`` appends one step's
    value to an ``array.array`` of the column's dtype, a state's as a Python
    float in the float lane (``float_lane``) and as a ``(d,)`` array's bytes in
    the array lane; ``end(n)`` makes the column of ``n`` steps, sharing the array."""
    dtype = _DTYPES.get(name, float)
    a = array(_TYPECODES[dtype])
    put = a.append if float_lane or name not in _STATES else lambda v: a.frombytes(v.tobytes())
    return put, lambda n: np.frombuffer(a, dtype).reshape((n, -1) if name in _STATES else n)


@dataclass(frozen=True, eq=False)
class BetaTracker:
    """Running mean of the higher-order method's error-coefficient magnitudes."""

    count: int = 0
    mean_abs: float = 0.0

    def pushed(self, sample: np.ndarray) -> "BetaTracker":
        """Return a new tracker with the ``n``-th sample's max norm ``v`` folded into
        the mean as ``mean + (v - mean) / n``, as the oracle's mean loop folds it.
        Raises ``ValueError`` if ``sample`` is complex."""
        n, v = self.count + 1, inf_norm(_real("sample", sample))
        return BetaTracker(count=n, mean_abs=self.mean_abs + (v - self.mean_abs) / n)


class ConditionCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    m_ratio: float


def local_error_exact(t: ButcherTableau, p: IVProblem, x: float, h: float) -> np.ndarray:
    """Local error of one step of ``t`` launched from the true solution at ``x``.

    Returns ``[y(x) + h F(x, y(x))] - y(x + h)`` with ``y`` taken from
    ``reference_solution``.  The increment, which checks ``h``, is evaluated
    before ``y(x + h)`` is looked up.
    """
    y_x = reference_solution(p, x)
    inc = increment_function(t, p.f, x, y_x, h)
    return _local_error(y_x, inc, reference_solution(p, x + h), h)


def _local_error(y_x: np.ndarray, inc: np.ndarray, y_xh: np.ndarray, h: float) -> np.ndarray:
    """``[y(x) + h F] - y(x + h)`` for the increment ``F`` already evaluated at ``y(x)``."""
    return (y_x + h * inc) - y_xh


def estimate_beta(w_lower, w_higher, h: float, z: int) -> np.ndarray:
    """Error-coefficient estimate ``(w_lower - w_higher) / h**(z+1)``, componentwise.

    Both inputs must come from steps of the same size ``h`` started at the
    same state.  Callers that need a scalar take the max norm.  Raises
    ``ValueError`` if an input is complex, ``StepUnderflow`` if ``h**(z+1)``
    underflows to zero and ``StepsizeOutOfRange`` if it overflows.
    """
    _positive_finite("h", h)
    _count("z", z)
    hp = _step_power(h, z + 1)
    return (_real("w_lower", w_lower) - _real("w_higher", w_higher)) / hp


def _step_power(h: float, n: int) -> float:
    """``h**n``; raises ``StepsizeOutOfRange`` if it overflows, ``StepUnderflow`` if it is 0."""
    try:
        hp = h ** n
    except OverflowError:
        raise StepsizeOutOfRange(f"stepsize {h} too large: h**{n} overflows") from None
    if hp == 0.0:
        raise StepUnderflow(f"h**{n} underflowed for h={h}")
    return hp


def alpha_propagation_term(
    t_lower: ButcherTableau,
    f: RHSFunction,
    x: float,
    y_exact: np.ndarray,
    w_higher: np.ndarray,
    h: float,
) -> np.ndarray:
    """Propagated-error term of the global-error recursion, computed exactly.

    With input error ``d = w_higher - y_exact``, returns
    ``d + h * [F(x, w_higher) - F(x, y_exact)]`` for the lower method's
    increment ``F``.  By the mean-value construction this equals the
    propagation factor times the input error ``d``, the previous step's
    higher-order global error, without ever forming a derivative of ``F``.
    The factor may exceed one, so the term can amplify ``d``.  Raises
    ``ValueError`` if a state is complex.
    """
    y_exact, w_higher = _real("y_exact", y_exact), _real("w_higher", w_higher)
    inc_w = increment_function(t_lower, f, x, w_higher, h)
    return _alpha_term(y_exact, w_higher, inc_w, increment_function(t_lower, f, x, y_exact, h), h)


def _alpha_term(
    y_exact: np.ndarray, w: np.ndarray, inc_w: np.ndarray, inc_exact: np.ndarray, h: float
) -> np.ndarray:
    """``d + h * [F(x, w) - F(x, y_exact)]`` with ``d = w - y_exact``, for increments
    already evaluated at both states."""
    d = w - y_exact
    return d + h * (inc_w - inc_exact)


def mean_beta_higher(
    tracker: BetaTracker,
    t_higher: ButcherTableau,
    p: IVProblem,
    x: float,
    h: float,
) -> BetaTracker:
    """Fold the higher-order method's error coefficient at ``(x, h)`` into the mean.

    The sample is ``eps_higher / h**(z_higher + 1)`` with ``eps_higher``
    measured from exact input, i.e. the higher-order analogue of the
    lower-order coefficient the controller works with.
    """
    eps_higher = local_error_exact(t_higher, p, x, h)
    return tracker.pushed(eps_higher / _step_power(h, t_higher.z + 1))


def condition_check(
    i: int, beta_lower, tracker: BetaTracker, h: float, z: int
) -> ConditionCheck:
    """Compare this step's local-error size against the accumulated higher-order errors.

    ``lhs = |beta_lower| * h**(z+1)`` and ``rhs = i * mean|beta_higher| *
    h**(z+2)``.  While ``lhs > rhs`` the accumulated higher-order error is
    still dominated by the controlled local error.  ``m_ratio`` is
    ``lhs / (mean|beta_higher| * h**(z+2))``, so the check holds exactly
    while ``i < m_ratio``; with an empty mean the ratio is infinite and the
    check holds by convention.  Raises ``ValueError`` if ``beta_lower`` is
    complex, ``StepUnderflow`` if ``h**(z+1)`` or ``h**(z+2)`` underflows to
    zero and ``StepsizeOutOfRange`` if one overflows.
    """
    _count("i", i)
    _positive_finite("h", h)
    _count("z", z)
    lhs = inf_norm(_real("beta_lower", beta_lower)) * _step_power(h, z + 1)
    denom = tracker.mean_abs * _step_power(h, z + 2)
    rhs, holds = _condition(i, lhs, denom)
    return ConditionCheck(lhs, rhs, bool(holds), lhs / denom if denom > 0.0 else math.inf)


def _condition(i, lhs, denom):
    """``(rhs, holds)`` of the condition for ``denom = mean|beta_higher| * h**(z+2)``:
    ``rhs = i * denom`` and ``holds = lhs > rhs``, which holds when ``rhs`` is not
    positive.  Elementwise, on whole columns as on floats."""
    rhs = i * denom
    return rhs, np.where(rhs > 0.0, lhs > rhs, True)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``inf_norm`` of every row of the state column ``a``."""
    return np.abs(a).max(axis=1)


def _oracle_fields(pair: MethodPair, p: IVProblem, c: dict[str, np.ndarray],
                   delta: float) -> tuple[dict[str, np.ndarray], dict]:
    """The oracle's measurement of the finished run with columns ``c`` and
    tolerance ``delta``: its columns, keyed as in ``StepRecord``, and the four
    measured ``TraceSummary`` fields, keyed as there.

    It makes three passes and raises the first failure it meets.  First one
    loop of lookups, in step order, by ``problems._exact_states``: the exact
    state at ``x0`` and at every step's end, then ``y(x + h)`` of the landing
    step where it misses ``x_end`` in the last bit.  So each step's ``y(x + h)``
    is one column: the next exact state, or the landing step's own lookup.
    Then the pair from every step's exact state at once, over rows: through
    ``f`` itself for a ``rowwise`` problem, else one row at a time.  Last one
    float loop over the whole run takes each step's powers of ``h`` and the
    running mean; a power that underflows raises at its step.  The fields
    follow over whole columns with the formulas of ``local_error_exact``,
    ``alpha_propagation_term``, ``mean_beta_higher`` and ``condition_check``,
    bit for bit, ``i`` and the indices from the run's column ``c["i"]``.
    """
    h, n = c["h"], len(c["h"])
    xs = np.concatenate(((p.x0,), c["x"]))  # each step's start, then x_end
    x_last = xs.item(-2) + h.item(-1)  # the landing step's x + h, looked up last if not x_end
    y = _exact_states(p, xs.tolist() + ([x_last] if x_last != xs.item(-1) else []))
    y.flags.writeable = False  # stage 1 hands f views of these exact states, made below
    y_x, y_next = y[:n], y[1:n + 1]
    y_xh = y_next if len(y) == n + 1 else np.concatenate((y[1:n], y[n + 1:]))
    exact_lower, exact_higher = _array_lane(pair, p.f, y_x.shape, p.rowwise)(xs[:-1], y_x, h)
    w = np.concatenate((p.y0[None], c["w_higher"][:-1]))
    hs, h = h, h[:, None]  # each row's stepsize scales that row's components
    eps_higher = _local_error(y_x, exact_higher, y_xh, h)
    a, b = pair.higher.z + 1, pair.lower.z + 2
    # fl(max_i |e_i| / hp) is max_i fl(|e_i| / hp): division by hp > 0 is monotone
    denom, mean = array("d"), 0.0  # each step's mean|beta_higher| * h**(z+2)
    # a float64 memoryview yields Python floats, so h_k ** a is Python's power; the
    # row norms are taken in place, as nothing reads eps_higher after this loop
    for k, (v, h_k) in enumerate(zip(memoryview(np.abs(eps_higher, out=eps_higher).max(axis=1)),
                                     memoryview(hs)), 1):
        # no power overflows: _initial_stepsizes refuses a span whose h_max**(higher.z + 1)
        # does, every accepted h is at most h_max, and b = lower.z + 2 <= higher.z + 1
        hp_k, hc_k = h_k ** a, h_k ** b
        if hp_k == 0.0 or hc_k == 0.0:
            _step_power(h_k, a), _step_power(h_k, b)  # raises, h**a first
        mean += (v / hp_k - mean) / k  # BetaTracker.pushed
        denom.append(mean * hc_k)
    i = c["i"]
    cond_rhs, cond_holds = _condition(i, c["cond_lhs"], np.frombuffer(denom))
    fields = {"eps_lower": _local_error(y_x, exact_lower, y_xh, h),
              "delta_lower": c["w_lower"] - y_next, "delta_higher": c["w_higher"] - y_next,
              "alpha_term": _alpha_term(y_x, w, c["inc_lower"], exact_lower, h),
              "cond_rhs": cond_rhs, "cond_holds": cond_holds}
    last, norms = fields["delta_lower"][-1], _row_norms(fields["delta_lower"])
    cross, fail = _first(norms > delta), _first(~cond_holds)
    return fields, {
        "final_delta_lower": last.item() if last.size == 1 else norms.item(-1),
        "crossing_index": None if cross is None else i.item(cross),
        "crossing_x": None if cross is None else c["x"].item(cross),
        "condition_violation_index": None if fail is None else i.item(fail)}


def _safety_factor(sigma) -> None:
    _number("sigma", sigma, "in (0, 1]", lambda v: 0.0 < v <= 1.0)


def sigma_bound(sigma: float, z: int, r: int, delta: float) -> float:
    """Tolerance-relative ceiling ``(sigma**(z+1) + sigma**(z+r+1)) * delta``.

    This is the level the propagated global error is expected to respect for
    as long as the accumulation condition holds; its coefficient drops below
    1 only for small enough safety factors and high enough orders.  Raises
    ``ValueError`` for a ``sigma`` outside ``(0, 1]`` and as ``_count`` and
    ``_positive_finite`` do.
    """
    _safety_factor(sigma)
    _positive_finite("delta", delta)
    _count("z", z)
    _count("r", r)
    return (sigma ** (z + 1) + sigma ** (z + r + 1)) * delta


def find_crossing(
    records: Sequence[StepRecord], delta: float
) -> Optional[tuple[int, float]]:
    """First accepted step whose measured global error exceeds ``delta`` (strictly).

    Returns ``(step index, abscissa)`` or ``None``.  Records without oracle
    diagnostics are skipped.
    """
    if not records:
        raise ValueError("records must be nonempty")
    _positive_finite("delta", delta)
    # a record without diagnostics has a NaN norm, which is never above delta
    k = _first(np.array([math.nan if rec.delta_lower is None else inf_norm(rec.delta_lower)
                         for rec in records]) > delta)
    return None if k is None else (records[k].i, records[k].x)


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first true entry of the nonempty ``mask``, or ``None``."""
    k = int(np.argmax(mask))
    return k if mask[k] else None


#: ``ControllerConfig``'s default ``max_steps``, and the cap of ``empirical_order``'s fixed steps
_MAX_STEPS = 1_000_000


def empirical_order(
    t: ButcherTableau,
    p: IVProblem,
    mode: str,
    h_set: Sequence[float],
) -> float:
    """Least-squares slope of log error against log stepsize.

    ``mode='local'`` samples the one-step error at ``x0`` (expected slope
    ``z + 1``); ``mode='global'`` samples the error at ``x_end`` of a
    fixed-step integration (expected slope ``z``).  For the global mode each
    requested ``h`` is snapped to the nearest exact divisor of the interval.

    Raises
    ------
    ValueError
        If ``mode`` or ``h_set`` is malformed, or, in the global mode, before
        the first sample, if an ``h`` needs more than ``_MAX_STEPS`` steps.
    DegenerateFit
        If any sampled error is within 100 ulp of the reference scale,
        i.e. the stepsizes are too small for a meaningful fit.
    """
    if mode not in ("local", "global"):
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
    hs = [float(_positive_finite(f"h_set[{k}]", h)) for k, h in enumerate(h_set)]
    if len(hs) < 4 or len(set(hs)) != len(hs):
        raise ValueError(f"h_set needs at least 4 distinct positive finite stepsizes, got {hs}")
    span = p.x_end - p.x0
    for k, h in enumerate(hs):
        # round(span / h) > _MAX_STEPS, also where span / h overflows to inf
        if mode == "global" and span / h > _MAX_STEPS + 0.5:
            raise ValueError(f"h_set[{k}]={h!r} needs {span / h:.6g} fixed steps over "
                             f"[{p.x0}, {p.x_end}], more than {_MAX_STEPS}")

    log_h, log_err = [], []
    for h in hs:
        if mode == "local":
            h_used, x, w = h, p.x0 + h, rk_step(t, p.f, p.x0, p.y0, h)
        else:
            n = max(1, round(span / h))
            h_used, x, w = span / n, p.x_end, p.y0
            for j in range(n):
                w = rk_step(t, p.f, p.x0 + j * h_used, w, h_used)
        y_ref = reference_solution(p, x)
        scale = max(1.0, inf_norm(y_ref))
        err_norm = inf_norm(w - y_ref)
        if err_norm < 100.0 * np.finfo(float).eps * scale:
            raise DegenerateFit(
                f"{t.name} on {p.name}: error {err_norm} at h={h} is at roundoff level"
            )
        log_h.append(math.log(h_used))
        log_err.append(math.log(err_norm))
    slope, _ = np.polyfit(log_h, log_err, 1)
    return float(slope)
