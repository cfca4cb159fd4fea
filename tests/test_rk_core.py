import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pins import same_bits

from rk_error_lab import (
    ButcherTableau,
    ComplexStage,
    ConsistencyViolation,
    ControllerConfig,
    DimensionMismatch,
    ExplicitnessViolation,
    IVProblem,
    MethodPair,
    NonFiniteStage,
    UnknownPair,
    alpha_propagation_term,
    attempt_step,
    builtin,
    builtin_pair,
    classic_rk4,
    estimate_beta,
    increment_function,
    inf_norm,
    integrate,
    kutta3,
    local_error_exact,
    pair_names,
    reference_solution,
    rk_core,
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
    # the order sets the stepsize exponent 1/(z+1), so it must be an integer; a
    # bool is a numbers.Integral but not an order
    for z in (2.5, math.nan, math.inf, True):
        with pytest.raises(DimensionMismatch, match="order an integer"):
            ButcherTableau(name="bad", a=[[0.0]], b=[1.0], c=[0.0], z=z)


def test_complex_coefficients_are_refused():
    # the imaginary part used to be dropped when the tableau was built
    with pytest.raises(ValueError, match=re.escape("t: b = [1.+0.5j] is complex")):
        ButcherTableau(name="t", a=[[0.0]], b=np.array([1 + 0.5j]), c=[0.0], z=1)


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


@pytest.mark.parametrize("x, y, h, message", [
    (0.0, [1.0], 0.0, "stepsize must be positive and finite, got 0.0"),
    (0.0, [1.0], -0.1, "stepsize must be positive and finite, got -0.1"),
    (0.0, [1.0], math.nan, "stepsize must be positive and finite, got nan"),
    (0.0, [1.0], math.inf, "stepsize must be positive and finite, got inf"),
    (math.nan, [1.0], 0.1, "x must be finite, got nan"),
    (-math.inf, [1.0], 0.1, "x must be finite, got -inf"),
    ("0", [1.0], 0.1, "x must be finite, got '0'"),
    (0.0, [1.0], True, "stepsize must be positive and finite, got True"),
    (0.0, 1.0, 0.1, "state must be a flat vector, got shape ()"),
    (0.0, np.ones((2, 2)), 0.1, "state must be a flat vector, got shape (2, 2)"),
    # the imaginary part used to be dropped, and a list to raise an unnamed TypeError
    (0.0, np.array([1 + 1j]), 0.1, "state = [1.+1.j] is complex"),
    (0.0, [1 + 1j], 0.1, "state = [1.+1.j] is complex"),
], ids=["h_zero", "h_negative", "h_nan", "h_inf", "x_nan", "x_inf", "x_str", "h_bool",
        "y_scalar", "y_matrix", "y_complex", "y_complex_list"])
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


def test_rk_step_checks_its_input_once(monkeypatch):
    # the checked state goes straight to the stage loop, with the bits of
    # y + h * increment_function
    calls, check = [], rk_core._one_state
    monkeypatch.setattr(rk_core, "_one_state", lambda *args: calls.append(args) or check(*args))
    f, y = (lambda x, y: -y * y), np.array([0.7])
    step = rk_step(classic_rk4(), f, 0.0, y, 0.1)
    assert len(calls) == 1
    assert step.tobytes() == (y + 0.1 * increment_function(classic_rk4(), f, 0.0, y, 0.1)).tobytes()


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


def test_a_pair_plan_points_each_coefficient_at_its_slot(rk4_three_eighths):
    # the lower method's stages fill the first slots; the higher method's
    # unshared stages follow, their coefficients pointing at the slot of the
    # stage they weight
    pair = builtin_pair("rk3_rk4")
    assert pair.plan.rows == kutta3().stage_rows + ((0.5, ((1, 0.5),)), (1.0, ((3, 1.0),)))
    assert pair.plan.methods == (("rk3", 0, 3, 1), ("rk4", 3, 5, 3))
    assert pair.higher_slots.tolist() == [0, 1, 3, 4]
    pair = MethodPair(lower=kutta3(), higher=rk4_three_eighths)
    assert pair.plan.rows[3:] == ((1 / 3, ((0, 1 / 3),)), (2 / 3, ((0, -1 / 3), (3, 1.0))),
                                  (1.0, ((0, 1.0), (3, -1.0), (4, 1.0))))
    assert pair.higher_slots.tolist() == [0, 3, 4, 5]
    assert kutta3().plan == (kutta3().stage_rows, (("rk3", 0, 3, 1),))


def _quadratic(x, y):
    # row-capable, and correctly rounded, so each row has its state's own bits
    return (0.5 - np.asarray(x)[..., None]) * y - 0.3 * y * y


_COEFFICIENT = st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 1.0)


@st.composite
def explicit_pairs(draw):
    """A random explicit pair and the number of leading stages its methods share:
    each method has 1 to 7 stages, a strictly lower-triangular ``a`` (entries of
    exactly 0 and 1 included), ``c`` its row sums and positive ``b`` normalised to
    sum 1, and the two share a random number of leading rows."""
    m_lower, m_higher = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(_COEFFICIENT, min_size=p, max_size=p)) for p in range(7)]
    share = draw(st.integers(0, min(m_lower, m_higher)))

    def tableau(name, m, z):
        a = np.zeros((m, m))
        for p in range(m):
            a[p, :p] = rows[p] if p < share else draw(
                st.lists(_COEFFICIENT, min_size=p, max_size=p))
        b = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
        return ButcherTableau(name=name, a=a, b=b / b.sum(), c=a.sum(axis=1), z=z)

    lower, higher = tableau("lower", m_lower, 1), tableau("higher", m_higher, 2)
    # rows past the drawn ones may be equal too; the first stage always is
    equal = [np.array_equal(lower.a[p, :p], higher.a[p, :p])
             for p in range(min(m_lower, m_higher))]
    return MethodPair(lower=lower, higher=higher), (equal + [False]).index(False)


@settings(max_examples=60, deadline=None, database=None)
@given(drawn=explicit_pairs(), d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_random_explicit_pairs_keep_the_bits_of_each_method(drawn, d, seed):
    # the pair's plan gives each method the bits of its own increment function,
    # from one state and over rows, whatever the buffer held before; and on
    # decay, one lower step from a perturbed exact state closes the recursion
    pair, shared = drawn
    assert pair.shared == shared
    rng = np.random.default_rng(seed)
    for n in (None, 1, 2, 17):
        shape = (d,) if n is None else (n, d)
        y, x = rng.uniform(-2.0, 2.0, shape), rng.uniform(-1.0, 1.0, shape[:-1])
        h = rng.uniform(1e-3, 0.2, shape[:-1])
        if n is None:
            x, h = float(x), float(h)
        fresh = rk_core._array_lane(pair, _quadratic, shape)(x, y, h)
        # one lane after calls that left another state's stages and gathered
        # higher stages in its buffer, then non-finite stages
        lane = rk_core._array_lane(pair, _quadratic, shape)
        lane(x + 0.5, 1.0 - y, 2.0 * h)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStage):
            lane(x, np.full(shape, np.inf), h)
        for _ in range(2):
            assert all(map(same_bits, lane(x, y, h), fresh))
        for i in [None] if n is None else range(n):
            at = (x, y, h) if i is None else (x.item(i), y[i], h.item(i))
            for t, inc in zip((pair.lower, pair.higher), fresh):
                assert same_bits(increment_function(t, _quadratic, *at),
                             inc if i is None else inc[i])
    p = builtin("decay")
    x, h = float(rng.uniform(0.0, 9.0)), float(rng.uniform(1e-3, 0.2))
    y = reference_solution(p, x)
    w = y * (1.0 + rng.uniform(-1e-3, 1e-3))
    w_lower = w + h * rk_core._array_lane(pair, p.f, w.shape)(x, w, h)[0]
    gap = np.abs((w_lower - reference_solution(p, x + h))
                 - (local_error_exact(pair.lower, p, x, h)
                    + alpha_propagation_term(pair.lower, p.f, x, y, w, h))).max()
    # w + h F(w) and y + h F(y) each round by half an ulp of their larger
    # operand, and the products h F by less: 1.38 ulps at most over 8000
    # offline draws with coefficients up to 2 and h up to 0.5
    assert gap <= 2.0 * np.spacing(max(inf_norm(w), inf_norm(w_lower)))


# what f returns at the call where a fault is injected; a finite overflow
# lasts from that call on, so that the stages' sum overflows
_FAULTS = {"nan": math.nan, "inf": -math.inf, "complex": 0.5j, "shape": np.array([1.0, 2.0]),
           "str": "1.0", "overflow": 1.7e308}


@settings(max_examples=60, deadline=None, database=None)
@given(drawn=explicit_pairs(), fault=st.sampled_from([None, *_FAULTS]), at=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_explicit_pairs_keep_the_bits_and_failures_in_the_float_lane(drawn, fault, at,
                                                                              seed):
    # each generated form of the float lane, flagless and flagged, gives the
    # stage loop's bits from the state's (1,) vector, calls f with the same
    # arguments in the same order, and raises the same class with the same
    # message for a fault injected at a drawn call (one call per stage).  A
    # state far smaller than h f lets the order of a stage's sum show in the
    # arguments of f
    pair, _ = drawn
    at %= len(pair.plan.rows)
    rng = np.random.default_rng(seed)
    x, h = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(1e-3, 0.5))
    y = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.3))

    def outcome(increments, y):
        calls = []

        def f(x_k, y_k):
            calls.append((x_k, np.asarray(y_k).tobytes()))
            if fault is not None and (len(calls) - 1 == at
                                      or fault == "overflow" and len(calls) - 1 > at):
                return _FAULTS[fault]
            return _affine(x_k, y_k)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # as in integrate
                got = increments(f)(x, y, h)
        except (ValueError, ArithmeticError) as e:
            return calls, (type(e), str(e))
        return calls, b"".join(np.asarray(inc, dtype=float).tobytes() for inc in got)

    array_lane = lambda f: rk_core._array_lane(pair, f, (1,))
    want = outcome(array_lane, np.array([y]))
    for form in pair.float_lane:
        assert outcome(form, y) == want
        if isinstance(want[1], bytes):
            assert all(type(inc) is float for inc in form(_affine)(x, y, h))


def _affine(x, y):
    return 1.0 + (0.5 - x) * y - 0.3 * y * y


def test_the_float_lane_of_rk3_rk4_is_pinned_as_text():
    # the generated source stays readable, and a change to the generator shows as a diff
    assert builtin_pair("rk3_rk4").float_source == RK3_RK4_FLOAT_SOURCE


RK3_RK4_FLOAT_SOURCE = '''\
def flagless(f):
    lower, higher = empty(3), empty(4)

    def increments(x, y, h):
        k0 = f(x + 0.0 * h, frombuffer(pack(y)))
        if getattr(k0, "dtype", None) is FLOAT and k0.size == 1:
            k0 = k0.item()
        elif type(k0) is not float:
            k0 = stage_value(plan, 0, k0, x, h)
        k1 = f(x + 0.5 * h, frombuffer(pack(y + h * (0.5 * k0))))
        if getattr(k1, "dtype", None) is FLOAT and k1.size == 1:
            k1 = k1.item()
        elif type(k1) is not float:
            k1 = stage_value(plan, 1, k1, x, h)
        k2 = f(x + 1.0 * h, frombuffer(pack(y + h * (-1.0 * k0 + 2.0 * k1))))
        if getattr(k2, "dtype", None) is FLOAT and k2.size == 1:
            k2 = k2.item()
        elif type(k2) is not float:
            k2 = stage_value(plan, 2, k2, x, h)
        k3 = f(x + 0.5 * h, frombuffer(pack(y + h * (0.5 * k1))))
        if getattr(k3, "dtype", None) is FLOAT and k3.size == 1:
            k3 = k3.item()
        elif type(k3) is not float:
            k3 = stage_value(plan, 3, k3, x, h)
        k4 = f(x + 1.0 * h, frombuffer(pack(y + h * (k3))))
        if getattr(k4, "dtype", None) is FLOAT and k4.size == 1:
            k4 = k4.item()
        elif type(k4) is not float:
            k4 = stage_value(plan, 4, k4, x, h)
        if not isfinite(k0 + k1 + k2 + k3 + k4):
            check_finite(plan, [[k0], [k1], [k2], [k3], [k4]], x, h)
        lower[0], lower[1], lower[2] = k0, k1, k2
        higher[0], higher[1], higher[2], higher[3] = k0, k1, k3, k4
        return float(lower_dot(lower)), float(higher_dot(higher))

    return increments


def flagged(f):
    lower, higher = empty(3), empty(4)

    def increments(x, y, h):
        k0 = f(x + 0.0 * h, y)
        if type(k0) is not float:
            k0 = stage_value(plan, 0, k0, x, h)
        k1 = f(x + 0.5 * h, y + h * (0.5 * k0))
        if type(k1) is not float:
            k1 = stage_value(plan, 1, k1, x, h)
        k2 = f(x + 1.0 * h, y + h * (-1.0 * k0 + 2.0 * k1))
        if type(k2) is not float:
            k2 = stage_value(plan, 2, k2, x, h)
        k3 = f(x + 0.5 * h, y + h * (0.5 * k1))
        if type(k3) is not float:
            k3 = stage_value(plan, 3, k3, x, h)
        k4 = f(x + 1.0 * h, y + h * (k3))
        if type(k4) is not float:
            k4 = stage_value(plan, 4, k4, x, h)
        if not isfinite(k0 + k1 + k2 + k3 + k4):
            check_finite(plan, [[k0], [k1], [k2], [k3], [k4]], x, h)
        lower[0], lower[1], lower[2] = k0, k1, k2
        higher[0], higher[1], higher[2], higher[3] = k0, k1, k3, k4
        return float(lower_dot(lower)), float(higher_dot(higher))

    return increments
'''


# each kind of value that is not real numbers: a dict used to raise numpy's
# bare TypeError, a str to parse as a number, None to read as NaN, a ragged
# sequence to raise numpy's unnamed "inhomogeneous shape" ValueError and
# 10**400 a bare OverflowError, at every entry point below
_NOT_REAL_VALUES = {"dict": {"a": 1}, "str": "1.0", "None": None,
                    "ragged": [[1.0], [2.0, 3.0]], "huge-int": 10 ** 400, "complex": [1j]}


def _run_f(value, scalar):
    p = IVProblem("p", lambda x, y: value, 0.0, [1.0], 1.0, scalar=scalar)
    return integrate(builtin_pair("rk3_rk4"), p, ControllerConfig(h_init=0.01))


# per entry point: the call with the value, its message with "{}" for "of type
# T, not real numbers in the float range", and its exception and message for
# a complex value
_ENTRY_POINTS = {
    "IVProblem.y0": (lambda v: IVProblem("p", lambda x, y: -y, 0.0, v, 1.0), "p: y0 is {}",
                     ValueError, "p: y0 = [0.+1.j] is complex"),
    "ButcherTableau.b": (lambda v: ButcherTableau("t", [[0.0]], v, [0.0], 1), "t: b is {}",
                         ValueError, "t: b = [0.+1.j] is complex"),
    "rk_step-state": (lambda v: rk_step(kutta3(), lambda x, y: -y, 0.0, v, 0.1), "state is {}",
                      ValueError, "state = [0.+1.j] is complex"),
    "f-float-lane": (lambda v: _run_f(v, True), "rk3: stage 1 is {}, at x=0.0, h=0.01",
                     ComplexStage, "rk3: stage 1 is complex at x=0.0, h=0.01"),
    "f-flagless": (lambda v: _run_f(v, False), "rk3: stage 1 is {}, at x=0.0, h=0.01",
                   ComplexStage, "rk3: stage 1 is complex at x=0.0, h=0.01"),
    "f-array-lane": (lambda v: attempt_step(builtin_pair("rk3_rk4"), lambda x, y: v, 0.0,
                                            np.array([1.0]), 0.01),
                     "rk3: stage 1 is {}, at x=0.0, h=0.01",
                     ComplexStage, "rk3: stage 1 is complex at x=0.0, h=0.01"),
    "exact": (lambda v: IVProblem("p", lambda x, y: -y, 0.0, [1.0], 1.0, exact=lambda x: v),
              "p: exact solution at x=0.0 is {}",
              ValueError, "p: exact solution at x=0.0 is complex"),
    "inf_norm": (inf_norm, "v is {}", ValueError, "v = [0.+1.j] is complex"),
    "estimate_beta": (lambda v: estimate_beta(v, [0.0], 0.5, 3), "w_lower is {}",
                      ValueError, "w_lower = [0.+1.j] is complex"),
}


@pytest.mark.parametrize("kind", _NOT_REAL_VALUES)
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_entry_point_refuses_what_is_not_real_numbers_by_name(entry, kind):
    # one conversion (rk_core._real_numbers) takes in every array, so each
    # entry point refuses each kind alike, naming the argument, the problem
    # and x, or the method and the stage
    call, refused, complex_error, complex_message = _ENTRY_POINTS[entry]
    value = _NOT_REAL_VALUES[kind]
    error, message = (complex_error, complex_message) if kind == "complex" else (
        ValueError,
        refused.format(f"of type {type(value).__name__}, not real numbers in the float range"))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call(value)
    assert type(caught.value) is error
