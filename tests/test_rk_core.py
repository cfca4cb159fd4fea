import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rk_error_lab import (
    ButcherTableau,
    ConsistencyViolation,
    DimensionMismatch,
    ExplicitnessViolation,
    MethodPair,
    NonFiniteStage,
    UnknownPair,
    attempt_step,
    builtin_pair,
    classic_rk4,
    increment_function,
    kutta3,
    pair_names,
    rk_step,
    validate_tableau,
)


def stability_poly(t, u):
    """P(u) for the built-in tableaus: the exponential series truncated at order z."""
    coeffs = [1.0 / math.factorial(j) for j in range(t.z + 1)]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def test_builtin_tableaus_are_valid():
    for t in (kutta3(), classic_rk4()):
        assert validate_tableau(t) is t
        assert abs(float(np.sum(t.b)) - 1.0) <= 1e-12
        assert np.allclose(t.a.sum(axis=1), t.c, atol=1e-12, rtol=0.0)
        for values in (t.a, t.b, t.c):
            with pytest.raises(ValueError):
                values[-1] = 5.0


def test_classic_rk4_coefficients():
    t = classic_rk4()
    assert t.m == 4 and t.z == 4
    assert np.array_equal(t.c, [0.0, 0.5, 0.5, 1.0])
    assert np.array_equal(t.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def test_kutta3_coefficients():
    t = kutta3()
    assert t.m == 3 and t.z == 3
    assert np.array_equal(t.c, [0.0, 0.5, 1.0])
    assert np.array_equal(t.b, [1 / 6, 2 / 3, 1 / 6])
    assert t.a[2, 0] == -1.0 and t.a[2, 1] == 2.0


def test_explicitness_violation():
    with pytest.raises(ExplicitnessViolation):
        ButcherTableau(name="bad", a=[[0.5, 0.0], [0.3, 0.0]], b=[0.5, 0.5], c=[0.5, 0.3], z=1)


def test_weight_sum_violation():
    for b, message in (([0.5, 0.6], "weights sum to"), ([0.5, math.nan], r"b\[2\] = nan"),
                       ([math.inf, 0.5], r"b\[1\] = inf")):
        with pytest.raises(ConsistencyViolation, match=message):
            ButcherTableau(name="bad", a=[[0.0, 0.0], [0.5, 0.0]], b=b, c=[0.0, 0.5], z=2)


def test_abscissa_mismatch():
    finite = [[0.0, 0.0], [0.5, 0.0]]
    nan_lower = [[0.0, 0.0], [math.nan, 0.0]]
    nan_upper = [[0.0, math.nan], [0.5, 0.0]]
    for a, c, message in ((finite, [0.0, 0.75], "row sum"),
                          (finite, [0.0, -math.inf], r"c\[2\] = -inf"),
                          (nan_lower, [0.0, 0.5], r"a\[2\]\[1\] = nan"),
                          (nan_upper, [0.0, 0.5], r"a\[1\]\[2\] = nan")):
        with pytest.raises(ConsistencyViolation, match=message):
            ButcherTableau(name="odd", a=a, b=[0.5, 0.5], c=c, z=2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ButcherTableau(name="bad", a=np.zeros((2, 2)), b=[1.0], c=[0.0], z=1)
    with pytest.raises(DimensionMismatch):
        ButcherTableau(name="bad", a=np.zeros((0, 0)), b=np.zeros(0), c=np.zeros(0), z=1)
    # a short c is refused before the stage rows are derived from it
    with pytest.raises(DimensionMismatch):
        ButcherTableau(name="bad", a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5], c=[0.0], z=1)
    # m is the length of b, so a short b is reported as a mismatch of a
    with pytest.raises(DimensionMismatch):
        ButcherTableau(name="bad", a=[[0.0, 0.0], [1.0, 0.0]], b=[1.0], c=[0.0, 1.0], z=1)
    with pytest.raises(DimensionMismatch, match="b has shape"):
        ButcherTableau(name="bad", a=[[0.0, 0.0], [1.0, 0.0]], b=[[0.5, 0.5]], c=[0.0, 1.0],
                       z=1)
    # the order sets the stepsize exponent 1/(z+1), so it must be an integer
    for z in (2.5, math.nan, math.inf):
        with pytest.raises(DimensionMismatch, match="order an integer"):
            ButcherTableau(name="bad", a=[[0.0]], b=[1.0], c=[0.0], z=z)


@st.composite
def tableau_inputs(draw):
    """Coefficients of 1 to 4 stages, in arrays of the right or a wrong length.
    The upper triangle, the abscissae and the weights are each made
    consistent three times in four, so that valid tableaus occur often; then,
    every other time, one entry is set to NaN or an infinity."""
    m = draw(st.integers(1, 4))
    entry = st.sampled_from([0.0, 0.5, -1.0]) | st.floats()

    def vector():
        n = draw(st.sampled_from([m] * 6 + [m - 1, m + 1]))
        return np.array(draw(st.lists(entry, min_size=n, max_size=n)))

    a = np.array(draw(st.lists(entry, min_size=m * m, max_size=m * m))).reshape(m, m)
    if draw(st.integers(0, 3)):
        a = np.tril(a, -1)
    with np.errstate(all="ignore"):
        c = a.sum(axis=1) if draw(st.integers(0, 3)) else vector()
    b = np.full(m, 1.0 / m) if draw(st.integers(0, 3)) else vector()
    # integers, not sampled_from: hypothesis may switch a sampled value off for a whole run
    target = (a, b, c)[draw(st.integers(0, 2))]
    if draw(st.integers(0, 1)) and target.size:
        target.flat[draw(st.integers(0, target.size - 1))] = (
            math.nan, math.inf, -math.inf)[draw(st.integers(0, 2))]
    return a, b, c, draw(st.integers(0, 9))


@settings(max_examples=60, deadline=None, database=None)
@given(tableau_inputs())
# inputs a NaN-blind check accepts: a NaN weight, and a NaN stage row with a NaN abscissa
@example(([[0.0, 0.0], [0.5, 0.0]], [0.5, math.nan], [0.0, 0.5], 2))
@example(([[0.0, 0.0], [math.nan, 0.0]], [0.5, 0.5], [0.0, math.nan], 2))
def test_tableau_is_checked_when_built_and_read_only(inputs):
    a, b, c = (np.array(v, dtype=float) for v in inputs[:3])
    z = inputs[3]
    try:
        t = ButcherTableau(name="random", a=a, b=b, c=c, z=z)
    except (DimensionMismatch, ExplicitnessViolation, ConsistencyViolation):
        return
    copies = [v.copy() for v in (t.a, t.b, t.c)]
    for given_values in (a, b, c):
        given_values.fill(7.0)  # the tableau holds copies of the caller's arrays
    for values, kept in zip((t.a, t.b, t.c), copies):
        assert not values.flags.writeable and np.isfinite(values).all()
        assert np.array_equal(values, kept)
    assert t.m == t.b.size == len(t.stage_rows)
    for p, (c_p, row) in enumerate(t.stage_rows):
        dense = np.zeros(t.m)
        for q, a_pq in row:
            assert q < p and a_pq != 0.0
            dense[q] = a_pq
        assert c_p == t.c[p] and np.array_equal(dense, t.a[p])


def test_increment_zero_field():
    f = lambda x, y: np.zeros_like(y)
    for t in (kutta3(), classic_rk4()):
        assert increment_function(t, f, 0.3, np.array([2.0]), 0.1) == pytest.approx(0.0)


def test_increment_constant_slope():
    f = lambda x, y: np.ones_like(y)
    for t in (kutta3(), classic_rk4()):
        out = increment_function(t, f, 0.0, np.array([0.0]), 0.2)
        assert float(out[0]) == pytest.approx(1.0, rel=1e-15)


def test_increment_rk4_exponential():
    # one RK4 step on y' = y reproduces the quartic truncation of exp
    f = lambda x, y: y
    h = 0.1
    out = increment_function(classic_rk4(), f, 0.0, np.array([1.0]), h)
    expected = (stability_poly(classic_rk4(), h) - 1.0) / h
    assert float(out[0]) == pytest.approx(expected, rel=1e-13)
    assert float(out[0]) == pytest.approx(1.0517083333333333, rel=1e-12)


def test_rk_step_preserves_state_on_zero_field():
    f = lambda x, y: np.zeros_like(y)
    out = rk_step(classic_rk4(), f, 0.0, np.array([3.5]), 0.25)
    assert float(out[0]) == 3.5


def test_rk_step_exponential_values():
    f = lambda x, y: y
    w4 = rk_step(classic_rk4(), f, 0.0, np.array([1.0]), 0.1)
    assert float(w4[0]) == pytest.approx(1.1051708333333333, rel=1e-14)
    w3 = rk_step(kutta3(), f, 0.0, np.array([1.0]), 0.1)
    assert float(w3[0]) == pytest.approx(1.1051666666666666, rel=1e-14)


def test_nonfinite_stage_detected():
    f = lambda x, y: y if x < 0.05 else np.full_like(y, np.nan)
    # the field turns NaN at c = 0.5, which is stage 2; the stages after it
    # are evaluated too, and the error still names the first bad one
    with pytest.raises(NonFiniteStage, match="stage 2"):
        rk_step(classic_rk4(), f, 0.0, np.array([1.0]), 0.1)


@pytest.mark.parametrize("x, y, h, message", [
    (0.0, [1.0], 0.0, "stepsize must be positive and finite, got 0.0"),
    (0.0, [1.0], -0.1, "stepsize must be positive and finite, got -0.1"),
    (0.0, [1.0], math.nan, "stepsize must be positive and finite, got nan"),
    (0.0, [1.0], math.inf, "stepsize must be positive and finite, got inf"),
    (math.nan, [1.0], 0.1, "x must be finite, got nan"),
    (-math.inf, [1.0], 0.1, "x must be finite, got -inf"),
    (0.0, 1.0, 0.1, "state must be a flat vector, got shape ()"),
    (0.0, np.ones((2, 2)), 0.1, "state must be a flat vector, got shape (2, 2)"),
], ids=["h_zero", "h_negative", "h_nan", "h_inf", "x_nan", "x_inf", "y_scalar", "y_matrix"])
def test_rejects_nonpositive_stepsize(x, y, h, message):
    # one step's input is refused by name before f is called, by every public
    # entry point from one state
    def f(x, y):
        raise AssertionError("f called")
    pair = builtin_pair("rk3_rk4")
    for step in (lambda: rk_step(classic_rk4(), f, x, y, h),
                 lambda: increment_function(kutta3(), f, x, y, h),
                 lambda: attempt_step(pair, f, x, y, h)):
        with pytest.raises(ValueError, match=re.escape(message)):
            step()


def test_affine_step_consistency():
    # constant fields integrate exactly up to a few ulp for any valid tableau
    rng = np.random.default_rng(42)
    for t in (kutta3(), classic_rk4()):
        for _ in range(20):
            c = float(rng.uniform(-5.0, 5.0))
            y = rng.uniform(-10.0, 10.0, size=3)
            h = float(rng.uniform(0.01, 1.0))
            f = lambda x, v: np.full_like(v, c)
            out = rk_step(t, f, 0.0, y, h)
            expected = y + c * h
            assert np.all(np.abs(out - expected) <= 4 * np.spacing(np.abs(expected)))


def test_linear_problem_matches_stability_polynomial():
    rng = np.random.default_rng(7)
    for t in (kutta3(), classic_rk4()):
        for _ in range(10):
            lam = float(rng.uniform(-2.0, 2.0))
            h = float(rng.uniform(0.01, 0.4))
            y = np.array([float(rng.uniform(0.5, 2.0))])
            f = lambda x, v: lam * v
            out = rk_step(t, f, 0.0, y, h)
            expected = float(y[0]) * stability_poly(t, lam * h)
            assert float(out[0]) == pytest.approx(expected, rel=1e-13)


def test_determinism_bit_identical():
    f = lambda x, y: np.sin(x) * y - y ** 2 / 7.0
    y = np.array([0.83, -1.2])
    a = rk_step(classic_rk4(), f, 0.4, y, 0.07)
    b = rk_step(classic_rk4(), f, 0.4, y, 0.07)
    assert np.array_equal(a, b)


def test_vector_state_componentwise():
    # diagonal linear system behaves like two independent scalar problems
    lams = np.array([-1.0, 0.5])
    f = lambda x, y: lams * y
    y0 = np.array([1.0, 2.0])
    out = rk_step(classic_rk4(), f, 0.0, y0, 0.1)
    for j in range(2):
        scalar = rk_step(classic_rk4(), lambda x, y: lams[j] * y, 0.0,
                         np.array([y0[j]]), 0.1)
        assert float(out[j]) == pytest.approx(float(scalar[0]), rel=1e-15)


def test_method_pair_orders():
    pair = builtin_pair("rk3_rk4")
    assert pair.lower.z == 3 and pair.higher.z == 4 and pair.r == 1
    with pytest.raises(ValueError):
        MethodPair(lower=classic_rk4(), higher=kutta3())
    with pytest.raises(UnknownPair):
        builtin_pair("rk9_rk10")
    assert "rk3_rk4" in pair_names()
    assert builtin_pair("rk3_rk4") is pair


def test_stage_rows_list_only_nonzero_coefficients(rk4_three_eighths):
    assert kutta3().stage_rows == (
        (0.0, ()), (0.5, ((0, 0.5),)), (1.0, ((0, -1.0), (1, 2.0))))
    assert classic_rk4().stage_rows == (
        (0.0, ()), (0.5, ((0, 0.5),)), (0.5, ((1, 0.5),)), (1.0, ((2, 1.0),)))
    assert all(type(v) is float for c, row in classic_rk4().stage_rows
               for v in (c, *(a for _, a in row)))
    with pytest.raises(AttributeError):
        kutta3().stage_rows = ()
    # MethodPair.shared counts the equal leading rows
    assert builtin_pair("rk3_rk4").shared == 2
    assert MethodPair(lower=kutta3(), higher=rk4_three_eighths).shared == 1


def test_stage_arguments_are_index_order_sums(rk4_three_eighths):
    # f receives y + h * (a_p1 k_1 + a_p2 k_2 + ...), summed left to right over
    # the nonzero entries; random inputs make another order or grouping show
    t = rk4_three_eighths
    calls = []

    def f(x, y):
        calls.append((x, y.copy()))
        return np.sin(3.0 * x + y) * np.array([1.7, -30.0]) + y * y

    rng = np.random.default_rng(3)
    for _ in range(50):
        x, h = float(rng.uniform(-1, 1)), float(rng.uniform(0.01, 0.5))
        y = rng.uniform(-2, 2, size=2)
        calls.clear()
        inc = increment_function(t, f, x, y, h)
        k1 = f(x, y)
        k2 = f(x + (1 / 3) * h, y + h * ((1 / 3) * k1))
        k3 = f(x + (2 / 3) * h, y + h * ((-1 / 3) * k1 + 1.0 * k2))
        k4 = f(x + h, y + h * ((1.0 * k1 + -1.0 * k2) + 1.0 * k3))
        assert len(calls) == 8
        for (x_got, y_got), (x_exp, y_exp) in zip(calls[:4], calls[4:]):
            assert x_got == x_exp and np.array_equal(y_got, y_exp)
        assert np.array_equal(inc, t.b @ np.array([k1, k2, k3, k4]))
