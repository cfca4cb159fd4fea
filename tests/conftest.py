import pytest

from rk_error_lab import ButcherTableau, validate_tableau


@pytest.fixture
def rk4_three_eighths():
    """Kutta's 3/8-rule method: it shares only its first stage with Kutta's
    third-order method (c2 = 1/3, not 1/2), and its stage 3 and 4 rows have
    more than one nonzero coefficient."""
    return validate_tableau(ButcherTableau(
        name="rk4_38", m=4,
        a=[[0.0, 0.0, 0.0, 0.0], [1 / 3, 0.0, 0.0, 0.0],
           [-1 / 3, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.0]],
        b=[1 / 8, 3 / 8, 3 / 8, 1 / 8], c=[0.0, 1 / 3, 2 / 3, 1.0], z=4))
