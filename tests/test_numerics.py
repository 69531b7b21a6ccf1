"""Quadrature, grids, tabulated densities and FFT lengths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso.errors import DomainError
from prodiso.measures import MeasureSpec
from prodiso.numerics import (
    Grid,
    TabulatedDensity,
    _fft_length,
    integrate,
    tabulate,
)


def test_integrate_polynomial_exact():
    # the embedded pair is exact for high-degree polynomials on one panel
    val = integrate(lambda x: 7 * x ** 6 - 3 * x ** 2 + 1, -1.0, 2.0)
    exact = (2.0 ** 7 - (-1.0) ** 7) - (2.0 ** 3 - (-1.0) ** 3) + 3.0
    assert abs(val - exact) < 1e-12 * abs(exact)


def test_integrate_known_values():
    assert abs(integrate(lambda x: np.exp(-x * x), -12, 12, rel_tol=1e-13)
               - math.sqrt(math.pi)) < 1e-12
    assert abs(integrate(np.sin, 0.0, math.pi) - 2.0) < 1e-12


def test_integrate_orientation_and_degenerate():
    def f(x):
        return x
    assert integrate(f, 1.0, 0.0) == -integrate(f, 0.0, 1.0)
    assert abs(integrate(f, 1.0, 0.0) + 0.5) <= 1e-15
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.inf, math.inf), (0.0, math.nan)])
def test_integrate_rejects_non_finite_bounds(a, b):
    def f(x):
        raise AssertionError("the integrand must not be called")
    with pytest.raises(DomainError, match="finite"):
        integrate(f, a, b)


def test_integrate_kink_points():
    # |x| integrates exactly once the kink is declared
    val = integrate(lambda x: np.abs(x), -1.0, 2.0, points=(0.0,))
    assert abs(val - 2.5) < 1e-13


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(0.0, 1.0, 4)      # even count
    with pytest.raises(DomainError):
        Grid(1.0, 0.0, 5)      # empty interval
    g = Grid.symmetric_grid(3.0, 7)
    assert g.symmetric
    assert g.h == 1.0
    assert 0.0 in g.nodes()


def test_trapezoid_weights():
    g = Grid(0.0, 1.0, 11)
    w = g.trapezoid_weights()
    assert abs(w.sum() - 1.0) < 1e-14
    assert w[0] == w[-1] == g.h / 2


def test_covering_grid_keeps_spacing():
    g = Grid.covering(3.01, 0.5)
    assert g.symmetric and g.n == 15
    assert g.b >= 3.01
    assert abs(g.h - 0.5) < 1e-15


def test_tabulated_density_basics():
    m = MeasureSpec.gaussian(1.0)
    g = Grid.symmetric_grid(10.0, 2001)
    d = tabulate(m, g)
    assert abs(d.mass - 1.0) < 1e-8
    assert abs(d.mean()) < 1e-12
    assert abs(d.variance() - 1.0) < 1e-6
    assert d(100.0) == 0.0


def test_tabulated_density_rejects_negative():
    g = Grid(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        TabulatedDensity(g, np.array([1.0, -0.1, 1.0]))


_SMOOTH = sorted(2 ** a * 3 ** b * 5 ** c for a in range(25)
                 for b in range(16) for c in range(11)
                 if 2 ** a * 3 ** b * 5 ** c <= 2 ** 24)


@settings(deadline=None, derandomize=True)
@given(n=st.integers(1, 2 ** 23))
def test_fft_length_is_the_next_5_smooth(n):
    size = _fft_length(n)
    # the smallest 5-smooth length >= n, from a table of all of them
    assert size == next(k for k in _SMOOTH if k >= n)
    assert size <= 1 << (n - 1).bit_length()
