"""Measure constructors, densities, truncation and bump functions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv

from prodiso.errors import DomainError, NonDifferentiablePoint
from prodiso.measures import BumpFunction, MeasureSpec
from prodiso.numerics import integrate

ALL_BUILTINS = [
    MeasureSpec.logistic(),
    MeasureSpec.gaussian(1.0),
    MeasureSpec.gaussian(0.5),
    MeasureSpec.two_sided_exponential(),
    MeasureSpec.power_law(4.0),
    MeasureSpec.power_law(1.5),
]


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.label)
def test_density_normalized(m):
    a, b = m.truncation_interval(1e-14)
    mass = integrate(m.density, a, b, rel_tol=1e-12,
                     points=m._singular_points())
    assert abs(mass - 1.0) < 1e-10


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.label)
def test_cdf_quantile_roundtrip(m):
    for t in (0.05, 0.3, 0.5, 0.77, 0.99):
        assert abs(m.cdf(m.quantile(t)) - t) < 1e-9


@pytest.mark.parametrize("x", [-800.0, -30.0, 30.0, 800.0])
def test_logistic_cdf_never_overflows(x):
    # 1 / (1 + e^-x), whose e^800 would raise numpy's overflow warning
    e = math.exp(-abs(x))
    expect = 1.0 / (1.0 + e) if x > 0 else e / (1.0 + e)
    assert MeasureSpec.logistic().cdf(x) == pytest.approx(expect, rel=1e-15)


def test_logistic_cdf_identity():
    # F' = F (1 - F) characterizes the logistic distribution
    m = MeasureSpec.logistic()
    x = np.linspace(-8.0, 8.0, 101)
    f = m.density(x)
    cdf = np.array([m.cdf(v) for v in x])
    assert np.max(np.abs(f - cdf * (1.0 - cdf))) < 1e-12


def test_moments():
    assert abs(MeasureSpec.gaussian(2.0).variance - 4.0) < 1e-10
    logistic = math.pi ** 2 / 3.0
    assert abs(MeasureSpec.logistic().variance - logistic) <= 1e-15 * logistic
    assert abs(MeasureSpec.two_sided_exponential().variance - 2.0) <= 1e-15 * 2.0
    assert abs(MeasureSpec.logistic().mean) < 1e-12


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.label)
def test_log_density_derivatives_match_fd(m):
    x = np.array([0.37, 1.21, -2.4])
    h = 1e-5
    psi, dpsi, ddpsi = m.log_density(x)
    fd1 = (m.log_density(x + h)[0] - m.log_density(x - h)[0]) / (2 * h)
    fd2 = (m.log_density(x + h)[0] - 2 * psi + m.log_density(x - h)[0]) / h ** 2
    assert np.max(np.abs(dpsi - fd1)) < 1e-6
    assert np.max(np.abs(ddpsi - fd2)) < 1e-4


def test_truncation_tail_budget():
    m = MeasureSpec.logistic()
    for tail in (1e-6, 1e-10, 1e-12):
        a, b = m.truncation_interval(tail)
        assert a == -b
        # per-tail budget: each side carries at most tail/2
        assert m.cdf(a) <= 0.5 * tail * (1 + 1e-9)
        assert m.cdf(a) > 0.05 * tail


def test_truncation_rejects_bad_budget():
    with pytest.raises(DomainError):
        MeasureSpec.logistic().truncation_interval(0.5)


def test_kinks_raise():
    with pytest.raises(NonDifferentiablePoint):
        MeasureSpec.two_sided_exponential().log_density(0.0)
    with pytest.raises(NonDifferentiablePoint):
        MeasureSpec.power_law(1.5).log_density(0.0)
    # p >= 2 is fine at the origin
    assert MeasureSpec.power_law(4.0).log_density(0.0)[2] == 0.0


@pytest.mark.parametrize("m, kinks", [
    (MeasureSpec.two_sided_exponential(), (0.0,)),
    (MeasureSpec.power_law(1.5), (0.0,)),
    (MeasureSpec.power_law(2.0), ()),
    (MeasureSpec.power_law(3.0), ()),
    (MeasureSpec.logistic(), ()),
    (MeasureSpec.gaussian_bump(0.3, BumpFunction((0.5,), (1.0,), (0.8,))), ()),
], ids=lambda v: getattr(v, "label", None))
def test_kinks_are_where_psi_second_does_not_exist(m, kinks):
    # a bump's breakpoints are singular points of the density, not kinks
    assert m._kinks() == kinks
    for k in kinks:
        with pytest.raises(NonDifferentiablePoint):
            m.log_density(np.array([1.0, k]))
        m.log_density(np.array([k - 1e-9, k + 1e-9]))


def test_verify_flags():
    for m in ALL_BUILTINS:
        report = m.verify_flags()
        assert report["symmetry_ok"]
        assert report["log_concavity_ok"]


def test_from_descriptor():
    assert MeasureSpec.from_descriptor("logistic").kind == "logistic"
    m = MeasureSpec.from_descriptor('{"kind": "gaussian", "sigma": 2.0}')
    assert m.sigma == 2.0
    m = MeasureSpec.from_descriptor({"kind": "power", "p": 4})
    assert m.p == 4.0
    with pytest.raises(DomainError):
        MeasureSpec.from_descriptor("nope")


def test_from_descriptor_gaussian_bump():
    text = json.dumps({"kind": "gaussian_bump", "eps": 0.3,
                       "bump": {"coefficients": [0.5, -0.2],
                                "centers": [1.0, 0.0],
                                "widths": [0.8, 0.6]}})
    bump = BumpFunction((0.5, -0.2), (1.0, 0.0), (0.8, 0.6))
    assert MeasureSpec.from_descriptor(text) == MeasureSpec.gaussian_bump(
        0.3, bump)


def _shifted_gaussian(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (x - 1.0) ** 2, x - 1.0, np.ones_like(x)


SHIFTED_GAUSSIAN = MeasureSpec.custom(_shifted_gaussian,
                                      log_concavity="strictly_log_concave")


def test_asymmetric_custom_mean():
    # not flagged symmetric, so the mean is integrated: N(1, 1) has mean 1
    assert abs(SHIFTED_GAUSSIAN.mean - 1.0) < 1e-9


def _gaussian_potential(x, sigma=1.7):
    x = np.asarray(x, dtype=float)
    return x * x / (2 * sigma ** 2), x / sigma ** 2, np.full_like(x, sigma ** -2)


def test_unflagged_custom_moments_by_quadrature():
    # a centred Gaussian potential not flagged symmetric takes the
    # quadrature path for both its mean and its variance
    m = MeasureSpec.custom(_gaussian_potential, symmetric=False)
    assert abs(m.mean) < 1e-14
    assert abs(m.variance - 2.89) < 1e-14


def _two_sided_exponential_potential(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x), np.sign(x), np.zeros_like(x)


def test_table_moments_match_mpmath():
    # design_bump()'s first bump at eps = 0.3: log-mass and variance from
    # mpmath.quad at 30 digits, split at the breakpoints; the moments and
    # the mass are the CDF table's own panel sums
    bump = BumpFunction((1.4768170202909112, 2.828140746496974), (1.0, 0.0),
                        (1.0, 1.5))
    m = MeasureSpec.gaussian_bump(0.3, bump)
    assert abs(m._log_norm - 0.199703926935681444) <= 2e-16
    var = 1.50168291664712983538
    assert abs(m.variance - var) <= 1e-14 * var
    assert math.exp(m._log_norm) == m._cdf_table.total
    # the two-sided exponential as a custom potential, unflagged: its table
    # panels next to the kink at 0 fall back to adaptive quadrature
    e = MeasureSpec.custom(_two_sided_exponential_potential)
    assert e._cdf_table.adaptive.any()
    assert abs(e.mean) <= 1e-14
    assert abs(e.variance - 2.0) <= 1e-14


@pytest.mark.parametrize("m", [
    MeasureSpec.logistic(), MeasureSpec.gaussian(0.5),
    MeasureSpec.two_sided_exponential(), MeasureSpec.power_law(3.0),
    MeasureSpec.gaussian_bump(0.3, BumpFunction((0.5,), (1.0,), (0.8,))),
    MeasureSpec.custom(_gaussian_potential),
], ids=lambda m: m.kind)
def test_cdf_returns_a_python_float(m):
    for x in (-0.3, 0.7, -1e3, 1e3):
        assert type(m.cdf(x)) is float


def test_bump_even_and_derivatives():
    bump = BumpFunction((1.0, -0.5), (1.0, 2.5), (0.8, 1.2))
    x = np.linspace(-5.0, 5.0, 401)
    b, b1, b2 = bump.evaluate(x)
    assert np.max(np.abs(b - bump(-x))) < 1e-14
    h = 1e-5
    fd1 = (bump(x + h) - bump(x - h)) / (2 * h)
    fd2 = (bump(x + h) - 2 * bump(x) + bump(x - h)) / h ** 2
    assert np.max(np.abs(b1 - fd1)) < 1e-6
    assert np.max(np.abs(b2 - fd2)) < 1e-3


def test_bump_compact_support():
    bump = BumpFunction((2.0,), (1.0,), (0.5,))
    assert bump(bump.support_radius + 0.1) == 0.0
    assert bump(-(bump.support_radius + 0.1)) == 0.0


def test_bump_json_roundtrip():
    bump = BumpFunction((1.0, 0.25), (0.0, 2.0), (1.0, 0.7))
    again = BumpFunction.from_json(bump.to_json())
    assert again == bump
    assert json.loads(bump.to_json())["centers"] == [0.0, 2.0]


def test_gaussian_bump_measure():
    bump = BumpFunction((0.5,), (1.0,), (0.8,))
    m = MeasureSpec.gaussian_bump(0.1, bump)
    a, b = m.truncation_interval(1e-12)
    mass = integrate(m.density, a, b, rel_tol=1e-12)
    assert abs(mass - 1.0) < 1e-9
    # log-density matches -(x^2/2 + eps bump) up to the normalizing constant
    x = np.linspace(-3.0, 3.0, 41)
    psi = m.log_density(x)[0]
    expect = -(x ** 2 / 2.0 + 0.1 * bump(x))
    shift = psi - expect
    assert np.max(np.abs(shift - shift[0])) < 1e-12
    # zero perturbation keeps the strict log-concavity tag
    assert MeasureSpec.gaussian_bump(0.0, bump).log_concavity == \
        MeasureSpec.gaussian(1.0).log_concavity
    assert m.log_concavity != MeasureSpec.gaussian(1.0).log_concavity


def test_custom_measure():
    def pot(x):
        x = np.asarray(x, dtype=float)
        return x ** 4 / 4.0 + x ** 2, x ** 3 + 2 * x, 3 * x ** 2 + 2.0

    m = MeasureSpec.custom(pot, symmetric=True)
    a, b = m.truncation_interval(1e-10)
    mass = integrate(m.density, a, b, rel_tol=1e-10)
    assert abs(mass - 1.0) < 1e-8
    assert abs(m.mean) < 1e-8


def _power_quantile(p, t):
    """Power-law quantile from the regularized incomplete gamma function:
    P(|X| > x) = Q(1/p, x^p) for density exp(-|x|^p) / (2 Gamma(1 + 1/p))."""
    x = gammainccinv(1.0 / p, 2.0 * min(t, 1.0 - t)) ** (1.0 / p)
    return -x if t < 0.5 else x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.floats(1.2, 6.0), exponent=st.floats(-12.0, -1.0),
       upper=st.booleans())
def test_power_tail_quantiles_match_incomplete_gamma(p, exponent, upper):
    m = MeasureSpec.power_law(p)
    tail = 10.0 ** exponent
    levels = (tail, 2.0 * tail) if not upper else (1.0 - 2.0 * tail, 1.0 - tail)
    xs = [m.quantile(t) for t in levels]
    for t, x in zip(levels, xs):
        ref = _power_quantile(p, t)
        assert abs(x - ref) <= 1e-13 * abs(ref)
        assert abs(m.cdf(x) - t) <= 1e-13 * min(t, 1.0 - t) + 2.3e-16
    assert xs[0] < xs[1]


def _mp_power_quantile(p, t, start):
    """Lower-tail power-law quantile at 40 digits from mpmath's gammainc:
    F(-x) = Q(1/p, x^p) / 2, solved for log x^p from a start near it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(1) / p

        def gap(v):
            tail = mpmath.gammainc(a, mpmath.exp(v), mpmath.inf, regularized=True)
            return mpmath.log(tail / 2) - mpmath.log(t)

        v = mpmath.findroot(gap, p * mpmath.log(abs(start)))
        return -float(mpmath.exp(v / p))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("t", [1e-20, 1e-30, 1e-100])
def test_table_quantiles_keep_relative_accuracy_far_out(p, t):
    # the table keeps the mass down to 1e-300 of each tail: cut at 1e-30,
    # a quantile at t was off by about 5e-31 / t, relative
    m = MeasureSpec.power_law(p)
    x = m.quantile(t)
    assert abs(x / _mp_power_quantile(p, t, x) - 1.0) <= 1e-13
    assert abs(m.cdf(x) / t - 1.0) <= 1e-12


def test_tail_cdf_reads_the_quantile_level():
    # cut at 1e-30, quantile(1e-40) of power(3) was -4.0270, whose CDF is
    # about 5e-31
    m = MeasureSpec.power_law(3.0)
    x = m.quantile(1e-40)
    assert x < -4.4
    assert abs(m.cdf(x) / 1e-40 - 1.0) <= 1e-12


def test_cdf_beyond_the_table_is_zero_or_one():
    m = MeasureSpec.power_law(3.0)
    b = m._cdf_table.nodes[-1]
    assert m.cdf(-b - 1.0) == 0.0 and m.cdf(-b) == 0.0
    assert m.cdf(b + 1.0) == 1.0 and m.cdf(b) == 1.0


def test_custom_gaussian_table_reaches_far_tails():
    # a custom potential finds its own 1e-300 truncation by quadrature
    m = MeasureSpec.custom(_gaussian_potential, symmetric=True)
    for t in (1e-3, 0.3, 1e-20, 1e-100, 1e-250):
        x = m.quantile(t)
        assert abs(x / MeasureSpec.gaussian(1.7).quantile(t) - 1.0) <= 1e-14


def _tilted_quartic(x):
    x = np.asarray(x, dtype=float)
    return x ** 4 / 4.0 + x ** 2 / 2.0 - x, x ** 3 + x - 1.0, 3.0 * x ** 2 + 1.0


@pytest.mark.parametrize("m", [
    MeasureSpec.custom(_tilted_quartic, log_concavity="log_concave"),
    MeasureSpec.gaussian_bump(0.3, BumpFunction((0.5, -0.2), (1.0, 0.0),
                                                (0.8, 0.6))),
], ids=["custom", "gaussian_bump"])
def test_tabulated_quantiles_roundtrip_and_increase(m):
    ts = np.concatenate([[1e-12, 1e-6], np.linspace(0.02, 0.98, 9),
                         [1.0 - 1e-6, 1.0 - 1e-12]])
    xs = np.array([m.quantile(float(t)) for t in ts])
    assert np.all(np.diff(xs) > 0.0)
    for t, x in zip(ts, xs):
        assert abs(m.cdf(x) - t) <= 1e-13 * min(t, 1.0 - t) + 2.3e-16


def test_power_quantile_next_to_kink():
    # the table panels at 0 hold the |x|^1.5 kink and are integrated
    # adaptively; one Gauss rule reaching towards 0 would be off by 1e-11
    m = MeasureSpec.power_law(1.5)
    for t in (0.499, 0.5005, 0.505, 0.515):
        assert abs(m.quantile(t) - _power_quantile(1.5, t)) <= 1e-14


def test_cdf_table_built_once(monkeypatch):
    m = MeasureSpec.power_law(3.0)
    density = MeasureSpec._raw_density
    sizes = []

    def counting(self, x):
        sizes.append(np.size(x))
        return density(self, x)

    monkeypatch.setattr(MeasureSpec, "_raw_density", counting)
    table = m._cdf_table
    for t in (0.01, 0.3, 0.5, 0.8):
        m.cdf(m.quantile(t))
    assert m._cdf_table is table
    # one flat evaluation builds the table; each rule after it has 22 points
    assert sum(n > 22 for n in sizes) == 1
    # the table is per instance and not part of equality or hashing
    other = MeasureSpec.power_law(3.0)
    assert other == m and hash(other) == hash(m)
    assert "_cdf_table" not in other.__dict__


def test_bumped_gaussian_table_splits_at_breakpoints(monkeypatch):
    bump = BumpFunction((0.5, -0.2, 0.8), (1.0, 0.0, 0.6), (1.0, 0.5, 0.8))
    # the atom ends +-c +-w, sorted and without repeats
    assert bump.breakpoints == pytest.approx(
        (-2.0, -1.4, -0.5, -0.2, 0.0, 0.2, 0.5, 1.4, 2.0), abs=1e-15)
    m = MeasureSpec.gaussian_bump(0.3, bump)
    table = m._cdf_table
    # every panel ends where the atoms stop being analytic, so the Gauss
    # pair agrees on all of them and none falls back to adaptive quadrature
    assert set(bump.breakpoints) <= set(table.nodes)
    assert not table.adaptive.any()
    for x in bump.breakpoints:
        assert abs(m.quantile(m.cdf(x)) - x) <= 1e-15
    # a level next to a mollifier edge costs a few density calls, not the
    # dozens an adaptive panel takes
    density = MeasureSpec._raw_density
    calls = []

    def counting(self, x):
        calls.append(1)
        return density(self, x)

    levels = [m.cdf(x + d) for x in bump.breakpoints for d in (-1e-3, 1e-6)]
    monkeypatch.setattr(MeasureSpec, "_raw_density", counting)
    for t in levels:
        m.quantile(t)
    assert len(calls) <= 4 * len(levels)


def _design_bumped_gaussian():
    # design_bump()'s first bump at eps = 0.3, as in test_table_moments_match_mpmath
    return MeasureSpec.gaussian_bump(0.3, BumpFunction(
        (1.4768170202909112, 2.828140746496974), (1.0, 0.0), (1.0, 1.5)))


@pytest.mark.parametrize("m", [
    MeasureSpec.power_law(1.5), MeasureSpec.power_law(3.0),
    MeasureSpec.power_law(4.0), MeasureSpec.power_law(7.0),
    _design_bumped_gaussian(),
    MeasureSpec.custom(_two_sided_exponential_potential, symmetric=True),
    MeasureSpec.logistic(), MeasureSpec.gaussian(1.3),
    MeasureSpec.two_sided_exponential(),
], ids=lambda m: m.label)
def test_array_quantiles_are_the_scalar_ones(m):
    # the batch takes the scalar loop's steps and stops level by level, so
    # the two agree to the bit, next to the adaptive panels of power(1.5)
    # and of the custom exponential's kink too
    rng = np.random.default_rng(29)
    ts = np.concatenate([rng.uniform(0.01, 0.99, 60), [0.5, 1e-12, 1.0 - 1e-12],
                         [0.499, 0.5005, 0.505]])
    xs = m.quantile(ts)
    assert isinstance(xs, np.ndarray) and xs.shape == ts.shape
    assert np.array_equal(xs, [m.quantile(float(t)) for t in ts])
    grid = m.quantile(ts[:12].reshape(3, 4))
    assert np.array_equal(grid, xs[:12].reshape(3, 4))
    assert type(m.quantile(0.3)) is float
    assert m.quantile(np.array([])).shape == (0,)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_array_tail_quantiles_match_mpmath(p):
    # both forms from 0.3 down to 1e-250; the worst, 4.1e-16 at 0.3 for
    # p = 1.5, is the rounding of the table's masses
    m = MeasureSpec.power_law(p)
    ts = np.geomspace(0.3, 1e-250, 12)
    xs = m.quantile(ts)
    for t, x in zip(ts, xs):
        assert x == m.quantile(float(t))
        assert abs(x / _mp_power_quantile(p, t, x) - 1.0) <= 1e-15


def test_custom_gaussian_table_reaches_far_tails_as_an_array():
    m = MeasureSpec.custom(_gaussian_potential, symmetric=True)
    ts = np.array([1e-3, 0.3, 1e-20, 1e-100, 1e-250])
    xs = m.quantile(ts)
    ref = np.array([MeasureSpec.gaussian(1.7).quantile(float(t)) for t in ts])
    assert np.max(np.abs(xs / ref - 1.0)) <= 1e-14


@pytest.mark.parametrize("t", [1e-299, 1e-300, 1e-305, 1e-320, 4e-286])
def test_table_quantiles_below_the_table_reach_are_refused(t):
    # the table leaves out up to 5e-301 of each tail: a Newton search would
    # answer 1e-300 50% off in mass, and 1e-305 and 1e-320 with the table's
    # end, -8.81703
    m = MeasureSpec.power_law(3.0)
    with pytest.raises(DomainError):
        m.quantile(t)
    with pytest.raises(DomainError):
        m.quantile(np.array([0.3, t, 0.7]))


def test_table_quantiles_just_above_the_reach_match_mpmath():
    # the floor is _TABLE_TAIL / 2 / 1e-15 = 5e-286: above it the mass the
    # table leaves out is at most 1e-15 of the level
    m = MeasureSpec.power_law(3.0)
    ts = np.array([1e-285, 6e-286])
    for t, x in zip(ts, m.quantile(ts)):
        assert x == m.quantile(float(t))
        assert abs(x / _mp_power_quantile(3.0, t, x) - 1.0) <= 1e-15
        assert abs(m.cdf(x) / t - 1.0) <= 1e-12
