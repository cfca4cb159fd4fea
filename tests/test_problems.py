import math

import numpy as np
import pytest

from rk_error_lab import (
    GROWTH_RATE,
    IVProblem,
    UnknownProblem,
    builtin,
    problem_names,
    reference_solution,
)


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


def test_interval_must_be_forward():
    with pytest.raises(ValueError):
        IVProblem(name="bad", f=lambda x, y: y, x0=1.0, y0=[1.0], x_end=1.0)
    for x0, x_end in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            IVProblem(name="bad", f=lambda x, y: y, x0=x0, y0=[1.0], x_end=x_end)


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
    p = builtin("decay")
    with pytest.raises(ValueError):
        reference_solution(p, 11.0)
