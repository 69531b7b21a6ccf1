"""Quadrature, grids, tabulated densities, FFT lengths and the spectra of
sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso.errors import DomainError, NoConvergence
from prodiso.halfspace import HalfSpace, boundary_measure
from prodiso.measures import BumpFunction, MeasureSpec
from prodiso.numerics import (
    _PHI_FLOOR,
    Grid,
    TabulatedDensity,
    _bracketed_newton,
    _bracketed_newton_batch,
    _convolve,
    _fft_length,
    _reach,
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


_CLOSED = [MeasureSpec.logistic(), MeasureSpec.gaussian(1.0),
           MeasureSpec.gaussian(0.37), MeasureSpec.two_sided_exponential()]
_SAMPLED = [MeasureSpec.power_law(3.0), MeasureSpec.gaussian_bump(
    0.3, BumpFunction((1.0, -0.5), (0.0, 1.2), (0.8, 0.5)))]


@settings(deadline=None, derandomize=True)
@given(k=st.integers(0, len(_CLOSED) - 1),
       v=st.floats(0.01, 5.0), sign=st.sampled_from((1.0, -1.0)),
       top=st.floats(1e-6, 1e3))
def test_closed_form_phi_does_not_rise_with_frequency(k, v, sign, top):
    # _convolve cuts a closed form at its first probe below half the floor,
    # which needs |phi(v w)| nonincreasing in w >= 0 up to a few ulps (and
    # the logistic's subnormal tail, far below the floor)
    w = np.linspace(0.0, top, 4001)
    a = np.abs(_CLOSED[k].characteristic(sign * v * w))
    assert np.all(a[1:] <= a[:-1] * (1.0 + 8.0 * np.finfo(float).eps) + 1e-300)


def _full_range(factors, h, copies):
    """The spectrum with every factor evaluated at every frequency up to the
    Nyquist frequency, cut after the last |phi| > floor."""
    size = _fft_length(2 * math.ceil(_reach(factors * copies) / h) + 1)
    half = 0.5 * size * h
    w = np.arange(1, size // 2 + 1) * (math.pi / half)
    weight = np.full(len(w), 2.0)
    if size % 2 == 0:
        weight[-1] = 1.0
    phi, mean = 1.0, 0.0
    for m, v in factors:
        closed = m.characteristic(v * w)
        if closed is not None:
            phi, mean = phi * closed, mean + v * m.mean
            continue
        x = Grid.covering(abs(v) * m.truncation_interval(1e-12)[1], h).nodes()
        vals = m.density(x / v)
        spec = np.fft.rfft(vals, size)
        phi = phi * np.exp(1j * w * x[0]) * np.conj(spec[1:]) / spec[0].real
        mean += float(x @ vals / vals.sum())
    n = np.flatnonzero(np.abs(phi) > _PHI_FLOOR)[-1] + 1
    return w[:n], weight[:n], phi[:n], mean, half


@pytest.mark.parametrize("copies", [1, 16])
def test_convolve_matches_the_full_range_spectrum_bitwise(copies):
    rng = np.random.default_rng(27)
    kinds = _CLOSED + _SAMPLED
    for _ in range(10):
        picks = rng.integers(0, len(kinds), int(rng.integers(2, 4)))
        v = rng.standard_normal(len(picks))
        factors = [(kinds[i], float(c)) for i, c in zip(picks, v / np.linalg.norm(v))]
        h = float(rng.choice((0.005, 0.01)))
        got, ref = _convolve(factors, h, copies), _full_range(factors, h, copies)
        for a, b in zip(got[:3], ref[:3]):
            assert np.array_equal(a, b)
        assert got[3:] == ref[3:]


def test_convolve_probes_a_closed_form_instead_of_every_frequency(monkeypatch):
    # the logistic bisector keeps about 110 of its 6561 frequencies; each
    # factor, probe and prefix together, must see fewer than an eighth of
    # the 6561
    m = MeasureSpec.logistic()
    factors = [(m, 1.0 / math.sqrt(2.0)), (m, -1.0 / math.sqrt(2.0))]
    size = _fft_length(2 * math.ceil(_reach(factors) / 0.005) + 1)
    seen = []
    closed = MeasureSpec.characteristic
    monkeypatch.setattr(MeasureSpec, "characteristic",
                        lambda self, w: seen.append(np.size(w)) or closed(self, w))
    boundary_measure([m, m], HalfSpace.bisector(-1, 0.0))
    assert len(seen) == 4
    assert max(seen[0] + seen[1], seen[2] + seen[3]) < (size // 2) / 8


def test_fft_length_is_memoized():
    _fft_length(5081)
    hits = _fft_length.cache_info().hits
    assert _fft_length(5081) == 5120 and _fft_length.cache_info().hits == hits + 1


def test_convolve_period_holds_the_point_it_is_read_at():
    g = MeasureSpec.gaussian(1.0)
    factors = [(g, 0.6), (g, 0.8)]
    half = _convolve(factors, 0.005).half
    assert _convolve(factors, 0.005, point=half).half == half
    assert _convolve(factors, 0.005, point=-3.0 * half).half >= 3.0 * half


_READ_AT = (0.0, 0.37, -1.3, 2.9, 7.7, 15.1, 33.3)


@pytest.mark.parametrize("m, ns", [(MeasureSpec.two_sided_exponential(), (2, 3)),
                                   (MeasureSpec.logistic(), (1, 8))])
def test_inversion_matches_the_finite_sums_in_extended_precision(m, ns):
    # the same w, weight and double phi as the reader, summed at 40 digits
    # over every term; the terms the reader drops are below the floor
    mpmath = pytest.importorskip("mpmath")
    spectrum = _convolve([(m, 1.0)], 0.01, 16)
    with mpmath.workdps(40):
        w = [mpmath.mpf(float(v)) for v in spectrum.w]
        scale = 1 / (2 * mpmath.mpf(spectrum.half))
        coef = {n: [float(a) * mpmath.mpf(float(p)) ** n
                    for a, p in zip(spectrum.weight, spectrum.phi)] for n in ns}
        for x in _READ_AT:
            cos = [mpmath.cos(v * x) for v in w]
            sin = [mpmath.sin(v * x) / v for v in w]
            for n, c in coef.items():
                density = scale * (1 + mpmath.fdot(c, cos))
                cdf = 0.5 + scale * (x - n * spectrum.mean + mpmath.fdot(c, sin))
                got = spectrum.inversion(n)(x)
                assert abs(got[0] - cdf) <= 2.5e-16 and abs(got[1] - density) <= 2.5e-16


def test_inversion_with_no_term_above_the_floor_is_uniform():
    # |phi(w_1)|^n at or below the floor drops every row of the table
    spectrum = _convolve([(MeasureSpec.logistic(), 1.0)], 0.01, 16)
    n = 2 * math.ceil(math.log(_PHI_FLOOR) / math.log(abs(spectrum.phi[0])))
    scale = 0.5 / spectrum.half
    for x in _READ_AT:
        cdf = 0.5 + (x - n * spectrum.mean) * scale
        assert spectrum.inversion(n)(x) == (cdf, scale)


# increasing functions as (value, derivative): a flat derivative at the root,
# a wrong derivative that sends every step out of the bracket, and no
# derivative at all (bisection only)
_RISING = [
    lambda x, c: (x * x * x - c, 3.0 * x * x),
    lambda x, c: (np.arctan(x) - c, 1.0 / (1.0 + x * x)),
    lambda x, c: (np.exp(x) - np.exp(c), 1e-3 * np.exp(x)),
    lambda x, c: (x - c, 0.0 * x),
]


@pytest.mark.parametrize("k", range(len(_RISING)))
@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_batch_newton_takes_the_scalar_steps(k, tol):
    # with tol = 0 only a step or the bracket at round-off stops a level
    rng = np.random.default_rng(k)
    c = rng.uniform(-1.0, 1.0, 40)
    lo, hi = c - rng.uniform(0.1, 3.0, 40), c + rng.uniform(0.1, 3.0, 40)
    x = lo + rng.uniform(0.0, 1.0, 40) * (hi - lo)
    f = _RISING[k]
    roots = _bracketed_newton_batch(lambda live, at: f(at, c[live]), lo, hi, x,
                                    np.full(40, tol))
    for i in range(40):
        root, _ = _bracketed_newton(lambda at: tuple(map(float, f(at, c[i]))),
                                    lo[i], hi[i], x[i], tol)
        assert roots[i] == root


def test_batch_newton_raises_like_the_scalar_loop():
    # bisection alone cannot close [-1e300, 1e300] in 60 evaluations
    def flat(x):
        return x - 0.5, math.nan
    with pytest.raises(NoConvergence):
        _bracketed_newton(flat, -1e300, 1e300, 0.0, 0.0)
    with pytest.raises(NoConvergence):
        _bracketed_newton_batch(lambda live, x: (x - 0.5, np.full_like(x, math.nan)),
                                np.array([-1.0, -1e300]), np.array([1.0, 1e300]),
                                np.zeros(2), np.zeros(2))
    assert _bracketed_newton_batch(None, *(np.array([]),) * 4).shape == (0,)


@pytest.mark.parametrize("copies", [1, 2, 16, 128])
def test_reach_of_copies_reads_each_factor_once(copies, monkeypatch):
    factors = [(MeasureSpec.power_law(4.0), 1.0), (MeasureSpec.logistic(), -0.6)]
    reads = []
    truncation = MeasureSpec.truncation_interval

    def counted(self, tail_mass=1e-12):
        reads.append(self.kind)
        return truncation(self, tail_mass)
    monkeypatch.setattr(MeasureSpec, "truncation_interval", counted)
    reach = _reach(factors, copies)
    assert sorted(reads) == ["logistic", "power"]
    # the FFT length is the one the list of every copy's factors gives
    assert math.ceil(reach / 0.01) == math.ceil(_reach(factors * copies) / 0.01)
