"""Isoperimetric profiles, the universal constant c and dimension-free bounds."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso import isoprofile, numerics
from prodiso.errors import DomainError, GridTooNarrow, NotLogConcave
from prodiso.isoprofile import (
    clt_upper_bound,
    compute_c,
    compute_c_maximizer,
    profile_1d,
    profile_envelope,
    tensor_lower_bound,
)
from prodiso.measures import BumpFunction, MeasureSpec
from prodiso.numerics import Spectrum, _convolve

LOGISTIC = MeasureSpec.logistic()
GAUSSIAN = MeasureSpec.gaussian(1.0)


def test_logistic_profile_closed_form():
    ts = np.linspace(0.0, 1.0, 1001)
    err = max(abs(profile_1d(LOGISTIC, t) - t * (1.0 - t)) for t in ts)
    assert err <= 1e-12


def test_gaussian_profile_formula():
    for t in (0.1, 0.5, 0.9):
        v = profile_1d(GAUSSIAN, t)
        assert v > 0.0
    assert abs(profile_1d(GAUSSIAN, 0.5) - 1.0 / math.sqrt(2 * math.pi)) < 1e-14
    # scaling: profile of N(0, sigma^2) is the standard one over sigma
    m2 = MeasureSpec.gaussian(2.0)
    assert abs(profile_1d(m2, 0.3) - profile_1d(GAUSSIAN, 0.3) / 2.0) < 1e-14


def test_profile_symmetric_and_numeric_kinds():
    m = MeasureSpec.power_law(4.0)
    for t in (0.2, 0.35):
        assert abs(profile_1d(m, t) - profile_1d(m, 1.0 - t)) < 1e-10
    assert profile_1d(m, 0.0) == 0.0 and profile_1d(m, 1.0) == 0.0


def test_profile_of_an_asymmetric_custom_measure():
    # N(1, 1) as a custom measure that is not flagged symmetric: both
    # half-lines are evaluated, and the profile is the Gaussian one
    def shifted(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x - 1.0) ** 2, x - 1.0, np.ones_like(x)

    m = MeasureSpec.custom(shifted, log_concavity="strictly_log_concave")
    for t in (0.05, 0.3, 0.5, 0.8):
        assert abs(profile_1d(m, t) - profile_1d(GAUSSIAN, t)) < 1e-9


def test_profile_validation():
    with pytest.raises(DomainError):
        profile_1d(LOGISTIC, 1.5)
    bump = BumpFunction((5.0,), (1.0,), (0.5,))
    with pytest.raises(NotLogConcave):
        profile_1d(MeasureSpec.gaussian_bump(0.9, bump), 0.5)


def test_constant_c():
    u = compute_c_maximizer()
    e = math.exp(-2.0 * u)
    assert abs(4.0 * u * e - (1.0 - e)) < 1e-12
    c = compute_c()
    assert c > 0.45125 - 1e-4
    # it is a maximum: nearby points are below
    for du in (-1e-3, 1e-3):
        v = (1.0 - math.exp(-2.0 * (u + du))) / (2.0 * math.sqrt(u + du))
        assert v <= c


def test_tensor_lower_bound_below_profile():
    for t in (0.1, 0.3, 0.5):
        lower = tensor_lower_bound(LOGISTIC, t)
        assert lower <= profile_1d(LOGISTIC, t) + 1e-12
        assert lower > 0.0
    assert tensor_lower_bound(LOGISTIC, 0.0) == 0.0


def test_clt_trace_logistic():
    trace = clt_upper_bound(LOGISTIC, 0.5, 8)
    limit = math.sqrt(3.0) / math.pi / math.sqrt(2.0 * math.pi)
    assert abs(trace[0] - 0.25) < 1e-6            # N = 1: the profile itself
    assert trace[1] > limit                        # N = 2 stays above the limit
    # the sequence approaches the Gaussian limit from above
    assert trace[-1] > limit
    assert abs(trace[-1] - limit) < abs(trace[1] - limit)


def test_clt_trace_gaussian_constant():
    trace = clt_upper_bound(GAUSSIAN, 0.5, 4)
    expect = 1.0 / math.sqrt(2.0 * math.pi)
    assert max(abs(v - expect) for v in trace) < 1e-6


@settings(deadline=None, derandomize=True, max_examples=40)
@given(t=st.floats(0.01, 0.99), sigma=st.sampled_from([0.5, 1.0, 2.0]))
def test_clt_trace_of_a_gaussian_is_its_profile(t, sigma):
    # every sum of Gaussians is Gaussian: each entry is phi(Phi^-1(t)) / sigma
    m = MeasureSpec.gaussian(sigma)
    exact = profile_1d(m, t)
    trace = clt_upper_bound(m, t, 16)
    assert max(abs(v - exact) for v in trace) <= 1e-13 * exact


def test_clt_trace_of_the_exponential_at_one_half():
    trace = clt_upper_bound(MeasureSpec.two_sided_exponential(), 0.5, 64)
    for n, v in enumerate(trace, start=1):
        exact = math.sqrt(n) * math.exp(math.lgamma(n - 0.5) - math.lgamma(n)) \
            / (2.0 * math.sqrt(math.pi))
        assert abs(v / exact - 1.0) < 1e-7


def test_clt_trace_of_the_logistic_at_one_half():
    mpmath = pytest.importorskip("mpmath")
    trace = clt_upper_bound(LOGISTIC, 0.5, 64)
    with mpmath.workdps(30):
        for n in (1, 2, 8, 64):
            integral = mpmath.quad(
                lambda w: (mpmath.pi * w / mpmath.sinh(mpmath.pi * w)) ** n,
                [-mpmath.inf, 0, mpmath.inf])
            exact = float(mpmath.sqrt(n) / (2 * mpmath.pi) * integral)
            assert abs(trace[n - 1] / exact - 1.0) < 1e-13


@pytest.mark.parametrize("m", [LOGISTIC, GAUSSIAN,
                               MeasureSpec.two_sided_exponential(),
                               MeasureSpec.power_law(1.5),
                               MeasureSpec.power_law(4.0)])
def test_clt_trace_of_a_symmetric_measure_is_symmetric(m):
    for t in (0.2, 0.37):
        low, high = clt_upper_bound(m, t, 12), clt_upper_bound(m, 1.0 - t, 12)
        assert max(abs(a - b) for a, b in zip(low, high)) < 1e-12


@pytest.mark.parametrize("m", [LOGISTIC, GAUSSIAN, MeasureSpec.gaussian(2.0)])
def test_sampled_spectrum_matches_the_closed_form(m, monkeypatch):
    # phi of v X from the FFT of its samples, at the CLT and the projection
    # spacings, against the closed form at v w; each spectrum ends where
    # |phi| falls below the floor, so the shorter one is read as padded
    closed = {(v, h): _convolve([(m, v)], h)
              for v in (1.0, 0.6, -0.48, 0.15) for h in (0.01, 0.005)}
    monkeypatch.setattr(MeasureSpec, "characteristic", lambda self, w: None)
    for (v, h), (w, weight, phi, _, half) in closed.items():
        w_s, weight_s, sampled, mu, half_s = _convolve([(m, v)], h)
        n, k = sorted((len(w), len(w_s)))
        assert np.array_equal(w[:n], w_s[:n]) and half == half_s
        assert np.array_equal(weight[:n], weight_s[:n])
        diff = np.pad(sampled, (0, k - len(w_s))) - np.pad(phi, (0, k - len(w)))
        assert np.max(np.abs(diff)) < 1e-11
        assert abs(mu) < 1e-12


def test_clt_trace_reads_each_sum_once(monkeypatch):
    # after _convolve's two wrap-check reads of S_16, Newton's read at y_N
    # gives f(y_N) too: one read per N at t = 1/2, where the guess holds
    reads = []
    inversion = Spectrum.inversion

    def counted(self, n=1):
        at = inversion(self, n)

        def read(x):
            reads.append((n, x))
            return at(x)
        return read
    monkeypatch.setattr(Spectrum, "inversion", counted)
    trace = clt_upper_bound(GAUSSIAN, 0.5, 16)
    monkeypatch.undo()
    assert [n for n, _ in reads] == [16, 16] + list(range(2, 17))
    fresh = _convolve([(GAUSSIAN, 1.0)], isoprofile._CLT_H, 16)
    for (n, y), val in zip(reads[2:], trace[1:]):
        assert val == math.sqrt(n) * fresh.inversion(n)(y)[1]


def test_clt_half_period_too_short_is_refused(monkeypatch):
    monkeypatch.setattr(numerics, "_reach", lambda factors, copies=1: 5.0)
    with pytest.raises(GridTooNarrow):
        clt_upper_bound(LOGISTIC, 0.3, 16)


def test_clt_validation():
    with pytest.raises(DomainError):
        clt_upper_bound(LOGISTIC, 0.0, 4)
    with pytest.raises(DomainError):
        clt_upper_bound(LOGISTIC, 0.5, 129)


def test_clt_trace_leaves_scipy_signal_unimported():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import prodiso\n"
            "prodiso.clt_upper_bound(prodiso.MeasureSpec.logistic(), 0.3, 4)\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert 'scipy.fft' not in sys.modules\n"
            "m = prodiso.MeasureSpec.power_law(4.0)\n"
            "prodiso.profile_envelope(m, [0.0, 0.2, 0.5, 0.9, 1.0])\n"
            "prodiso.profile_1d(prodiso.MeasureSpec.power_law(1.5), 0.3)\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "prodiso.noncoordinate_stability(prodiso.MeasureSpec.logistic(),"
            " -1, 0.0, 3)\n"
            "assert 'scipy.special' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_warm_power_envelope_density_budget(monkeypatch):
    m = MeasureSpec.power_law(4.0)
    ts = np.linspace(0.0, 1.0, 101)
    profile_envelope(m, ts)
    calls = []

    def counting(reader):
        def counted(self, *args):
            calls.append(1)
            return reader(self, *args)
        return counted

    # the normalized reader, the raw one that the CDF table reads and the
    # table's panel reader: one density call for the profile, and one panel
    # read with one raw-density call per Newton step of the batch (nine in
    # all here), not a search per level
    for name in ("density", "_raw_density", "_panel_reads"):
        monkeypatch.setattr(MeasureSpec, name,
                            counting(getattr(MeasureSpec, name)))
    profile_envelope(m, ts)
    assert len(calls) <= 20


def test_symmetric_profile_uses_one_quantile(monkeypatch):
    m = MeasureSpec.power_law(3.0)
    quantile = MeasureSpec.quantile
    levels = []

    def recording(self, prob):
        levels.append(np.array(prob))
        return quantile(self, prob)

    monkeypatch.setattr(MeasureSpec, "quantile", recording)
    ts = np.array([0.2, 0.35, 0.9])
    v = profile_1d(m, ts)
    # one call, which asks for each level once
    assert len(levels) == 1 and np.array_equal(levels[0], ts)
    for t, val in zip(ts, v):
        assert abs(val - m.density(quantile(m, 1.0 - t))) <= 1e-14 * val
    levels.clear()
    profile_envelope(m, ts)
    assert len(levels) == 1 and np.array_equal(levels[0], ts)


def test_asymmetric_profile_reads_both_half_lines_in_one_call(monkeypatch):
    def shifted(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x - 1.0) ** 2, x - 1.0, np.ones_like(x)

    m = MeasureSpec.custom(shifted, log_concavity="strictly_log_concave")
    quantile = MeasureSpec.quantile
    levels = []

    def recording(self, prob):
        levels.append(np.array(prob))
        return quantile(self, prob)

    monkeypatch.setattr(MeasureSpec, "quantile", recording)
    ts = np.array([0.05, 0.3, 0.8])
    v = profile_1d(m, ts)
    assert len(levels) == 1 and np.array_equal(levels[0], [ts, 1.0 - ts])
    monkeypatch.undo()
    assert np.array_equal(v, [profile_1d(m, float(t)) for t in ts])


@pytest.mark.parametrize("m", [LOGISTIC, GAUSSIAN, MeasureSpec.gaussian(0.7),
                               MeasureSpec.two_sided_exponential(),
                               MeasureSpec.power_law(1.5),
                               MeasureSpec.power_law(3.0)],
                         ids=lambda m: m.label)
def test_array_profile_is_the_scalar_one(m):
    ts = np.concatenate([[0.0, 1.0, 0.5],
                         np.random.default_rng(3).uniform(0.01, 0.99, 20)])
    one = profile_1d(m, ts)
    assert isinstance(one, np.ndarray) and one.shape == ts.shape
    assert one[0] == 0.0 and one[1] == 0.0
    scalar = np.array([profile_1d(m, float(t)) for t in ts])
    assert np.max(np.abs(one - scalar)) <= 1e-15 * np.max(scalar)
    assert type(profile_1d(m, 0.3)) is float
    assert profile_1d(m, ts.reshape(1, -1)).shape == (1, len(ts))
    with pytest.raises(DomainError):
        profile_1d(m, np.array([0.2, 1.5]))
    # the envelope's one_dim is the array profile, its upper bound stays
    # under it and under the Gaussian limit profile
    pb = profile_envelope(m, ts)
    assert np.array_equal(pb.one_dim, one)
    gauss = profile_1d(GAUSSIAN, ts) / math.sqrt(m.variance)
    assert np.array_equal(pb.upper, np.minimum(one, gauss))


@pytest.mark.parametrize("levels", [[[0.2, 0.3]], 0.4, [[0.1], [0.2]]])
def test_envelope_rejects_levels_that_are_not_1d(levels):
    with pytest.raises(DomainError):
        profile_envelope(LOGISTIC, levels)


def test_envelope_ordering_and_serialization():
    ts = np.linspace(0.0, 1.0, 21)
    pb = profile_envelope(LOGISTIC, ts)
    assert np.all(pb.lower <= pb.upper + 1e-12)
    assert np.all(pb.upper <= pb.one_dim + 1e-12)
    assert pb.lower[0] == 0.0 and pb.lower[-1] == 0.0
    csv = pb.to_csv()
    assert csv.splitlines()[0] == "t,one_dim,lower,upper"
    assert len(csv.splitlines()) == 22
    # symmetric measure: envelope symmetric under t -> 1 - t
    assert np.max(np.abs(pb.lower - pb.lower[::-1])) < 1e-12


@pytest.mark.parametrize("m", [LOGISTIC, MeasureSpec.power_law(3.0)],
                         ids=lambda m: m.label)
def test_clt_trace_of_length_one_is_the_density_at_the_quantile(m):
    # N = 1 needs no spectrum: S_1 = X_1
    assert clt_upper_bound(m, 0.3, 1) == [m.density(m.quantile(0.3))]


def test_envelope_carries_the_clt_trace_at_one_half():
    pb = profile_envelope(LOGISTIC, np.linspace(0.0, 1.0, 5), clt_n_max=4)
    assert pb.clt_trace == tuple(clt_upper_bound(LOGISTIC, 0.5, 4))
    assert profile_envelope(LOGISTIC, [0.5]).clt_trace == ()
