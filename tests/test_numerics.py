"""Quadrature, grids, tabulated densities and discrete convolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso.errors import DomainError, GridTooNarrow
from prodiso.measures import MeasureSpec
from prodiso.numerics import (
    Grid,
    TabulatedDensity,
    _convolve,
    _fft_length,
    _partial_sums,
    _trim,
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
    assert integrate(lambda x: x, 1.0, 0.0) == -0.5
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0


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


def test_convolution_adds_mean_and_variance():
    m = MeasureSpec.logistic()
    g = Grid.symmetric_grid(40.0, 8001)
    d = tabulate(m, g).normalized()
    c = _convolve(d, d).normalized()
    assert abs(c.mean()) < 1e-10
    assert abs(c.variance() - 2.0 * d.variance()) < 1e-6
    # the FFT product agrees with a direct discrete convolution
    direct = np.convolve(d.values, d.values) * g.h
    assert np.max(np.abs(_convolve(d, d).values - direct)) < 1e-12


def test_self_convolve_scaled_clt_normalization():
    # n factors of N(0, 1/n), each sampled directly, fold to N(0, 1):
    # the Gaussian is stable under the CLT normalization
    n = 4
    g = Grid.symmetric_grid(12.0, 2401)
    d = tabulate(MeasureSpec.gaussian(1.0 / math.sqrt(n)), g).normalized()
    for out in _partial_sums([d] * n):
        pass
    assert abs(out.variance() - 1.0) < 1e-6
    x = np.linspace(-3, 3, 31)
    exact = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(out(x) - exact)) < 1e-6


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


def test_partial_sums_stay_trimmed():
    # FFT round-off in the tails must not stop the trim: the grid of a sum
    # of 16 logistics stays a few factor widths wide, not 16
    m = MeasureSpec.logistic()
    d = tabulate(m, Grid.covering(m.truncation_interval(1e-12)[1], 0.01))
    for out in _partial_sums([d.normalized()] * 16):
        pass
    assert out.grid.n < 3 * d.grid.n
    assert abs(out.variance() - 16 * m.variance) < 1e-6 * 16 * m.variance


def test_partial_sums_reject_a_narrow_grid():
    narrow = tabulate(MeasureSpec.gaussian(1.0), Grid.symmetric_grid(1.0, 201))
    with pytest.raises(GridTooNarrow):
        list(_partial_sums([narrow.normalized()] * 3))


def test_trim_keeps_center_and_mass():
    m = MeasureSpec.gaussian(1.0)
    d = tabulate(m, Grid.symmetric_grid(30.0, 6001))
    t = _trim(d)
    assert t.grid.n < d.grid.n
    assert t.grid.symmetric
    assert abs(t.mass - d.mass) < 1e-12
