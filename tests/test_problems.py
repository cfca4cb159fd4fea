import dataclasses
import math
import re

import numpy as np
import pytest

from rk_error_lab import problems
from rk_error_lab import (
    GROWTH_RATE,
    ControllerConfig,
    IVProblem,
    UnknownProblem,
    builtin,
    builtin_pair,
    integrate,
    kutta3,
    local_error_exact,
    problem_names,
    reference_solution,
)

PAIR = builtin_pair("rk3_rk4")


def test_registry_contents():
    assert problem_names() == ["decay", "paper_exponential", "riccati_simple"]
    with pytest.raises(UnknownProblem):
        builtin("lorenz")


def test_paper_exponential_reaches_1000():
    p = builtin("paper_exponential")
    assert float(p.exact(100.0)[0]) == pytest.approx(1000.0, rel=1e-12)
    assert p.x0 == 0.0 and p.x_end == 100.0
    assert GROWTH_RATE == pytest.approx(math.log(1000.0) / 100.0, rel=0.0)


def test_decay_initial_condition():
    p = builtin("decay")
    assert float(p.exact(0.0)[0]) == 1.0


def test_riccati_closed_form():
    p = builtin("riccati_simple")
    assert float(p.exact(1.0)[0]) == pytest.approx(0.5, rel=1e-15)


def test_exact_matches_initial_state():
    for name in problem_names():
        p = builtin(name)
        err = float(np.max(np.abs(p.exact(p.x0) - p.y0)))
        assert err <= 1e-14 * (1.0 + float(np.max(np.abs(p.y0))))


def test_inconsistent_exact_rejected():
    with pytest.raises(ValueError):
        IVProblem(name="bad", f=lambda x, y: y, x0=0.0, y0=[1.0], x_end=1.0,
                  exact=lambda x: np.array([2.0]))


def test_exact_of_another_shape_is_refused():
    # the check at x0 used to broadcast a 2-component exact over a 1-component y0
    with pytest.raises(ValueError, match=r"wide: exact solution at x=0.0 has shape \(2,\), "
                                         r"y0 has shape \(1,\)"):
        IVProblem(name="wide", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
                  exact=lambda x: np.array([math.exp(-x)] * 2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_not_finite_at_x0_is_refused(value):
    # a NaN exact(x0) used to pass the check and fail later in the method's stages
    with pytest.raises(ValueError, match="nan_exact: exact solution at x=0.0 is"):
        IVProblem(name="nan_exact", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
                  exact=lambda x: np.array([value]))


@pytest.mark.parametrize("value", [{}, "1.0", None, 10 ** 400],
                         ids=["dict", "str", "none", "huge-int"])
def test_exact_that_is_not_real_numbers_is_refused_by_name(value):
    # a dict used to fail with numpy's bare TypeError, a str with numpy's
    # "could not convert" (or as the number it spells), None as "not finite"
    # and 10**400 with "int too large to convert to float"
    what = f"is of type {type(value).__name__}, not real numbers in the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(f'odd: exact solution at x=0.0 {what}')}$"):
        IVProblem(name="odd", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
                  exact=lambda x: value)
    # every lookup refuses one, not only the one at x0
    p = IVProblem(name="odd", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
                  exact=lambda x: np.array([math.exp(-x)]) if x == 0.0 else value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'odd: exact solution at x=0.5 {what}')}$"):
        reference_solution(p, 0.5)


_REFUSED_EXACT_VALUES = {"dict": {}, "str": "1.0", "none": None, "complex": np.array([1j]),
                         "shape": np.array([1.0, 2.0]), "nan": np.array([math.nan]),
                         "inf": np.array([math.inf]), "-inf": np.array([-math.inf]),
                         "overflow": OverflowError("math range error")}


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("case", _REFUSED_EXACT_VALUES)
def test_the_oracle_lookup_refuses_what_reference_solution_refuses(case, k):
    # the oracle's lookups and reference_solution share one check of a value
    # of exact: the same value is refused with the same class and message,
    # at the first lookup or a later one
    xs = [0.1 * j for j in range(1, 9)]
    value = _REFUSED_EXACT_VALUES[case]

    def exact(x):
        if x != xs[k]:
            return np.array([math.exp(-x)])
        if isinstance(value, Exception):
            raise value
        return value
    p = IVProblem(name="odd", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0, exact=exact)
    with pytest.raises((ValueError, OverflowError)) as alone:
        reference_solution(p, xs[k])
    with pytest.raises((ValueError, OverflowError)) as lookups:
        problems._exact_states(p, xs)
    assert type(lookups.value) is type(alone.value)
    assert str(lookups.value) == str(alone.value)
    assert str(alone.value).startswith("odd: exact solution ")
    assert f"at x={xs[k]}" in str(alone.value)


@pytest.mark.parametrize("form", [float, lambda v: [v], lambda v: (v,), np.float64,
                                  lambda v: np.array(v)],
                         ids=["float", "list", "tuple", "float64", "0-d"])
def test_an_exact_value_of_another_form_gives_the_same_run(form):
    # a value of exact that is not a float64 array of y0's shape goes through the
    # conversion; each form of decay's y(x) gives the built-in's columns bit for bit
    decay = builtin("decay")
    want = integrate(PAIR, decay, ControllerConfig())
    got = integrate(PAIR, dataclasses.replace(
        decay, exact=lambda x: form(math.exp(-x))), ControllerConfig())
    assert got.summary == want.summary
    for name, col in want.records.columns.items():
        other = got.records.columns[name]
        assert other.dtype == col.dtype and other.tobytes() == col.tobytes(), name


def test_scalar_flag_needs_a_one_component_state():
    # the float lane holds the state as one Python float
    message = "pair: scalar is set, but y0 has shape (2,), not one component"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IVProblem(name="pair", f=lambda x, y: -y, x0=0.0, y0=[1.0, 2.0], x_end=1.0, scalar=True)
    assert IVProblem(name="one", f=lambda x, y: -y, x0=0.0, y0=2.0, x_end=1.0, scalar=True).scalar
    assert all(builtin(name).scalar for name in problem_names())


def test_problems_are_read_only_values():
    p = builtin("decay")
    assert builtin("decay") is p and p == p and hash(p) == hash(builtin("decay"))
    y0 = np.array([1.0, 2.0])
    q = IVProblem(name="pair", f=lambda x, y: -y, x0=0.0, y0=y0, x_end=1.0,
                  exact=lambda x: np.exp(-x) * np.array([1.0, 2.0]))
    assert q != q.with_x_end(1.0) and q.with_x_end(1.0).x_end == 1.0
    y0[0] = 5.0  # the problem holds a copy of the caller's array
    assert np.array_equal(q.y0, [1.0, 2.0])
    for built in (p, q):
        with pytest.raises(ValueError):
            built.y0[0] = 3.0


def test_interval_must_be_forward():
    with pytest.raises(ValueError):
        IVProblem(name="bad", f=lambda x, y: y, x0=1.0, y0=[1.0], x_end=1.0)
    for x0, x_end in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            IVProblem(name="bad", f=lambda x, y: y, x0=x0, y0=[1.0], x_end=x_end)
    for y0 in ([math.nan], [1.0, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="bad: y0="):
            IVProblem(name="bad", f=lambda x, y: y, x0=0.0, y0=y0, x_end=1.0)


@pytest.mark.parametrize("y0, shape", [([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"),
                                       (np.zeros(0), "(0,)"), ([[1.0]], "(1, 1)")])
def test_state_must_be_a_nonempty_flat_vector(y0, shape):
    # integrate used to fail on these inside numpy (a matmul shape mismatch, or
    # a max over an empty array)
    with pytest.raises(ValueError, match=re.escape(f"flat: y0 must be a nonempty flat "
                                                   f"vector, got shape {shape}")):
        IVProblem(name="flat", f=lambda x, y: -y, x0=0.0, y0=y0, x_end=1.0)
    # a scalar is a one-component state
    assert IVProblem(name="scalar", f=lambda x, y: -y, x0=0.0, y0=2.0, x_end=1.0).y0.shape == (1,)


def test_rhs_whose_value_cannot_be_stored_as_the_state_is_refused():
    # a (2, 1) value has two values, but the run used to fail on its first stage
    # with numpy's message
    p = IVProblem(name="column", f=lambda x, y: y[:, None], x0=0.0, y0=[1.0, 2.0], x_end=1.0)
    with pytest.raises(ValueError, match=re.escape("rk3: stage 1 is of shape (2, 1), not (2,), "
                                                   "at x=0.0, h=0.01")):
        integrate(PAIR, p, ControllerConfig())
    # a stage is stored as numpy assigns, which drops a leading axis of length 1
    row = IVProblem(name="row", f=lambda x, y: -y[None], x0=0.0, y0=[1.0, 2.0], x_end=1.0)
    assert integrate(PAIR, row, ControllerConfig()).summary.final_x == 1.0


@pytest.mark.parametrize("name", ["decay", "paper_exponential", "riccati_simple"])
def test_exact_satisfies_ode(name):
    # central difference of the registered solution against f at 20 interior points
    p = builtin(name)
    d = 1e-6
    xs = np.linspace(p.x0, p.x_end, 22)[1:-1]
    for x in xs:
        slope = (p.exact(x + d) - p.exact(x - d)) / (2.0 * d)
        rhs = p.f(x, p.exact(x))
        denom = max(float(np.max(np.abs(rhs))), 1e-30)
        assert float(np.max(np.abs(slope - rhs))) / denom <= 1e-6


def test_reference_is_bitwise_exact_when_closed_form_exists():
    p = builtin("paper_exponential")
    for x in (0.0, 13.7, 50.0, 100.0):
        assert np.array_equal(reference_solution(p, x), p.exact(x))
    assert float(reference_solution(p, 50.0)[0]) == pytest.approx(10.0 ** 1.5, rel=1e-13)


def test_reference_requires_exact_solution():
    p = IVProblem(name="noexact", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=2.0)
    with pytest.raises(ValueError):
        reference_solution(p, 0.0)


def test_reference_rejects_bad_arguments():
    # an x outside the interval is refused with the problem's name, by every reader
    p = builtin("decay")
    with pytest.raises(ValueError, match=f"^{re.escape('decay: x=11.0 outside [0.0, 10.0]')}$"):
        reference_solution(p, 11.0)
    with pytest.raises(ValueError, match=f"^{re.escape('decay: x=10.4 outside [0.0, 10.0]')}$"):
        local_error_exact(kutta3(), p, 9.9, 0.5)
    # math.exp raises instead of returning inf; the error names the problem
    p = builtin("paper_exponential").with_x_end(2e4)
    with pytest.raises(OverflowError, match="paper_exponential: exact solution overflows"):
        reference_solution(p, 1.5e4)
