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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from .problems import IVProblem, reference_solution
from .rk_core import (
    ButcherTableau,
    MethodPair,
    RHSFunction,
    _pair_increments,
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


# each field's column dtype; states and float scalars are float columns
_DTYPES = {name: {int: int, bool: bool, Optional[bool]: bool}.get(t, float)
           for name, t in get_type_hints(StepRecord).items()}


class _Records(Sequence):
    """Accepted steps stored as one column per ``StepRecord`` field, in ``columns``.

    A state field is an ``(n, d)`` array and a scalar field a 1-D array; an
    oracle field is ``None`` when no step carries it.  Every column is made
    read-only.  An item is a ``StepRecord`` of read-only row views, built
    when it is accessed and not cached; a slice is a tuple of them.
    """

    def __init__(self, columns: dict[str, Optional[np.ndarray]], n: int):
        self._n = n
        self.columns = {name: columns.get(name) for name in _DTYPES}
        self._getters = [_field_getter(col) for col in self.columns.values()]

    @classmethod
    def of(cls, records: Sequence[StepRecord]) -> "_Records":
        """``records`` as columns: a run's own, or any other sequence gathered into
        the same.  Raises ``ValueError`` where ``_column`` does: for a field
        that is ``None`` on some records and not on others."""
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
        return StepRecord(*[get(k) for get in self._getters])


def _column(name: str, values: list) -> Optional[np.ndarray]:
    """The values of field ``name`` on every record as its column, ``None`` if
    every value is ``None``.  Raises ``ValueError`` if only some are, or if the
    values do not fit one column (states of different sizes, an integer
    beyond 64 bits)."""
    nones = sum(v is None for v in values)
    if nones == len(values):
        return None
    if nones:
        raise ValueError(f"records carry {name} on some steps and not on others")
    try:
        col = np.array(values, dtype=_DTYPES[name])
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"records carry {name} values that do not fit one column: {exc}") from None
    return col.reshape(len(col), -1) if col.ndim > 1 else col


def _field_getter(col: Optional[np.ndarray]):
    """The function from a row index to the field whose column ``col`` (``None``
    for an oracle field without an oracle) it makes read-only."""
    if col is None:
        return lambda k: None
    col.flags.writeable = False
    return col.__getitem__ if col.ndim > 1 else col.item


@dataclass(frozen=True, eq=False)
class BetaTracker:
    """Running mean of the higher-order method's error-coefficient magnitudes."""

    count: int = 0
    mean_abs: float = 0.0

    def pushed(self, sample: np.ndarray) -> "BetaTracker":
        """Return a new tracker with one more sample folded into the mean."""
        n = self.count + 1
        return BetaTracker(count=n, mean_abs=_mean_pushed(self.mean_abs, inf_norm(sample), n))


def _mean_pushed(mean: float, value: float, n: int) -> float:
    """The mean of ``n`` values from the mean of the first ``n - 1`` and the ``n``-th."""
    return mean + (value - mean) / n


class ConditionCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    m_ratio: float


def local_error_exact(t: ButcherTableau, p: IVProblem, x: float, h: float) -> np.ndarray:
    """Local error of one step of ``t`` launched from the true solution at ``x``.

    Returns ``[y(x) + h F(x, y(x))] - y(x + h)`` with ``y`` taken from
    ``reference_solution``.
    """
    y_x = reference_solution(p, x)
    y_xh = reference_solution(p, x + h)
    return _local_error(y_x, increment_function(t, p.f, x, y_x, h), y_xh, h)


def _local_error(y_x: np.ndarray, inc: np.ndarray, y_xh: np.ndarray, h: float) -> np.ndarray:
    """``[y(x) + h F] - y(x + h)`` for the increment ``F`` already evaluated at ``y(x)``."""
    return (y_x + h * inc) - y_xh


def estimate_beta(w_lower, w_higher, h: float, z: int) -> np.ndarray:
    """Error-coefficient estimate ``(w_lower - w_higher) / h**(z+1)``, componentwise.

    Both inputs must come from steps of the same size ``h`` started at the
    same state.  Callers that need a scalar take the max norm.  Raises
    ``StepUnderflow`` if ``h**(z+1)`` underflows to zero and
    ``StepsizeOutOfRange`` if it overflows.
    """
    hp = _step_power(h, z + 1)
    return (np.asarray(w_lower, dtype=float) - np.asarray(w_higher, dtype=float)) / hp


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
    The factor may exceed one, so the term can amplify ``d``.
    """
    y_exact = np.asarray(y_exact, dtype=float)
    w_higher = np.asarray(w_higher, dtype=float)
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
    check holds by convention.  Raises ``StepUnderflow`` if ``h**(z+1)`` or
    ``h**(z+2)`` underflows to zero and ``StepsizeOutOfRange`` if one
    overflows.
    """
    lhs = inf_norm(beta_lower) * _step_power(h, z + 1)
    denom = tracker.mean_abs * _step_power(h, z + 2)
    rhs, holds = _condition(i, lhs, denom)
    m_ratio = lhs / denom if denom > 0.0 else math.inf
    return ConditionCheck(lhs=lhs, rhs=rhs, holds=bool(holds), m_ratio=m_ratio)


def _condition(i, lhs, denom):
    """``(rhs, holds)`` of the condition for ``denom = mean|beta_higher| * h**(z+2)``:
    ``rhs = i * denom`` and ``holds = lhs > rhs``, which holds when ``rhs`` is not
    positive.  Elementwise, on whole columns as on floats."""
    rhs = i * denom
    return rhs, np.where(rhs > 0.0, lhs > rhs, True)


class _Columns:
    """Growable rows, one per accepted step, with one field per column.

    Each field is given as ``(name, dtype, *row_shape)``: a state field
    becomes an ``(n, d)`` column, a scalar field a 1-D one.  The rows live in
    one structured buffer that doubles when full, so an append is one write
    and costs amortised constant time.
    """

    def __init__(self, *specs):
        self._dtype = np.dtype([(name, dtype, tuple(row)) for name, dtype, *row in specs],
                               align=True)
        self._buf = np.empty(128, self._dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, *row) -> None:
        """Write one row, its values in the order of the fields."""
        n = self._n
        if n == len(self._buf):
            # the new half stays unwritten, so its pages cost no memory until rows land there
            full, self._buf = self._buf, np.empty(2 * n, self._dtype)
            self._buf[:n] = full
        self._buf[n] = row
        self._n = n + 1

    def columns(self) -> dict[str, np.ndarray]:
        """Each field's column, a view of the rows copied to exactly their number.
        The buffer is released, so this ends the appends."""
        rows, self._buf = self._buf[:self._n].copy(), None
        return {name: rows[name] for name in self._dtype.names}


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``inf_norm`` of every row of the state column ``a``."""
    return np.abs(a).max(axis=1)


def _exact_increments(pair: MethodPair, p: IVProblem, x: np.ndarray, y: np.ndarray,
                      h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_pair_increments`` from each step's row of ``x``, ``y`` and ``h``, stacked
    as ``(n, d)`` columns.  A ``rowwise`` problem is evaluated over rows; any
    other, and one whose rows raise (a non-finite stage included), one step at
    a time: its outcome is the steps' results or the earliest failing step's error."""
    if p.rowwise:
        try:
            return _pair_increments(pair, p.f, x, y, h)
        except Exception:  # the steps decide
            pass
    lower, higher = zip(*(_pair_increments(pair, p.f, x_k, y_k, h_k)
                          for x_k, y_k, h_k in zip(x.tolist(), y, h.tolist())))
    return np.array(lower), np.array(higher)


def _oracle_fields(pair: MethodPair, p: IVProblem,
                   c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The oracle's columns, keyed as in ``StepRecord``, for the accepted steps
    in the run's columns ``c``.

    Each step in turn looks up ``y(x_next)`` (and ``y(x + h)`` where a clamped
    landing misses ``x_end`` in the last bit) and forms the powers of ``h``; the
    pair is then evaluated from the exact states ``y(x)`` of those steps
    (``_exact_increments``).  Failures keep the order of one step at a time,
    where a step's pair comes after its lookups and before its powers: the pair
    is evaluated for the steps up to the first failing lookup or power, and the
    earliest failure is raised.  The fields then follow over whole columns, with
    the formulas of ``local_error_exact``, ``alpha_propagation_term``,
    ``mean_beta_higher`` and ``condition_check``; elementwise arithmetic is
    correctly rounded, so every field is bit-identical to theirs.
    """
    h, n = c["h"], len(c["h"])
    y = np.empty((n + 1, *p.y0.shape))  # y(x0), then y(x_next) of each step
    hp_higher, hp_cond = np.empty(n), np.empty(n)
    y[0] = reference_solution(p, p.x0)
    x, missed = p.x0, {}  # step row -> y(x + h) where x + h misses x_next
    failure, m = None, 0  # m: the steps whose lookups passed, so whose pair is due
    for k, (x_next, h_k) in enumerate(zip(c["x"].tolist(), h.tolist())):
        try:
            y[k + 1] = reference_solution(p, x_next)
            if x + h_k != x_next:
                missed[k] = reference_solution(p, x + h_k)
            m = k + 1
            hp_higher[k] = _step_power(h_k, pair.higher.z + 1)
            hp_cond[k] = _step_power(h_k, pair.lower.z + 2)
        except Exception as exc:
            failure = exc
            break
        x = x_next
    exact_lower = exact_higher = y[:0]
    if m:  # a run without accepted steps has no rows to evaluate
        xs = np.concatenate(((p.x0,), c["x"][:m - 1]))  # each step's start
        exact_lower, exact_higher = _exact_increments(pair, p, xs, y[:m], h[:m])
    if failure is not None:
        raise failure
    y_x, y_next = y[:-1], y[1:]
    y_xh = y_next.copy() if missed else y_next
    for k, y_k in missed.items():
        y_xh[k] = y_k
    w = np.concatenate((p.y0[None], c["w_higher"][:-1]))
    h = h[:, None]  # each row's stepsize scales that row's components
    eps_higher = _local_error(y_x, exact_higher, y_xh, h)
    means, mean = np.empty(n), 0.0
    for k, v in enumerate(_row_norms(eps_higher / hp_higher[:, None]).tolist()):
        mean = means[k] = _mean_pushed(mean, v, k + 1)
    i = np.arange(1, n + 1, dtype=float)
    cond_rhs, cond_holds = _condition(i, c["cond_lhs"], means * hp_cond)
    return {"eps_lower": _local_error(y_x, exact_lower, y_xh, h),
            "delta_lower": c["w_lower"] - y_next, "delta_higher": c["w_higher"] - y_next,
            "alpha_term": _alpha_term(y_x, w, c["inc_lower"], exact_lower, h),
            "cond_rhs": cond_rhs, "cond_holds": cond_holds}


def sigma_bound(sigma: float, z: int, r: int, delta: float) -> float:
    """Tolerance-relative ceiling ``(sigma**(z+1) + sigma**(z+r+1)) * delta``.

    This is the level the propagated global error is expected to respect for
    as long as the accumulation condition holds; its coefficient drops below
    1 only for small enough safety factors and high enough orders.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must be in (0, 1], got {sigma}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if z < 1 or r < 1:
        raise ValueError(f"orders must satisfy z >= 1, r >= 1, got z={z}, r={r}")
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
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    k = _first_above(np.array([math.nan if rec.delta_lower is None else inf_norm(rec.delta_lower)
                               for rec in records]), delta)
    return None if k is None else (records[k].i, records[k].x)


def _first_above(norms: np.ndarray, delta: float) -> Optional[int]:
    """Position of the first global-error norm strictly above ``delta``, or ``None``:
    the crossing rule.  A NaN norm, a record without diagnostics, never is."""
    k = int(np.argmax(norms > delta))
    return k if norms[k] > delta else None


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
    DegenerateFit
        If any sampled error is within 100 ulp of the reference scale,
        i.e. the stepsizes are too small for a meaningful fit.
    """
    if mode not in ("local", "global"):
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
    hs = [float(h) for h in h_set]
    if len(hs) < 4 or len(set(hs)) != len(hs) or not all(0.0 < h < math.inf for h in hs):
        raise ValueError(f"h_set needs at least 4 distinct positive finite stepsizes, got {hs}")

    log_h, log_err = [], []
    for h in hs:
        if mode == "local":
            h_used, x, w = h, p.x0 + h, rk_step(t, p.f, p.x0, p.y0, h)
        else:
            n = max(1, round((p.x_end - p.x0) / h))
            h_used, x, w = (p.x_end - p.x0) / n, p.x_end, p.y0
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
