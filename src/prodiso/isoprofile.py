"""Isoperimetric profiles and dimension-free bounds for product powers.

For a log-concave 1-D measure the isoperimetric problem is solved by
half-lines, so the profile is f(F^{-1}(t)) symmetrized.  Two families of
bounds sandwich the infinite-product profile: a spectral-gap lower bound
sqrt(lambda) * c * t(1-t) valid uniformly in the number of factors, and
half-space upper bounds obtained from the density of normalized sums via
the central limit theorem.  Those densities, and the quantiles where they
are read, come from Fourier inversion of the characteristic function
(``clt_upper_bound``).
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotLogConcave
from .measures import MeasureSpec, _ndtri, _ndtri_each
from .numerics import _bracketed_newton, _convolve
from .spectral import GapOptions, spectral_gap

_CLT_H = 0.01          # sampling step of the kinds without a closed-form phi
_NEWTON_TOL = 1e-15    # |F(y) - t| at which the quantile search stops
_CLT_N_MAX = 128       # longest CLT trace
_STANDARD_NORMAL = MeasureSpec.gaussian(1.0)


def profile_1d(m: MeasureSpec, t):
    """Isoperimetric profile I(t) = min density over the two t-half-lines,
    at one level (a float) or at every level of an array (an array of its
    shape).

    I(0) = I(1) = 0.  Otherwise I(t) is t(1 - t) for the logistic and
    phi(Phi^-1(t)) / sigma for a Gaussian; any other kind reads its density
    at the quantiles, f(F^-1(t)) alone when the measure is symmetric, else
    the smaller of f(F^-1(t)) and f(F^-1(1 - t)).  All levels go to one
    ``quantile`` call, so an array of levels inverts the CDF table of a
    tabulated kind in one batch, while a float takes the scalar search.
    """
    if not m.is_log_concave:
        raise NotLogConcave("profile formula requires a log-concave measure")
    ts = np.asarray(t, dtype=float)
    if not ((ts >= 0.0) & (ts <= 1.0)).all():
        raise DomainError("profile argument must lie in [0, 1]")
    inner = (ts > 0.0) & (ts < 1.0)
    s = np.where(inner, ts, 0.5)    # the end levels are read at 1/2, then zeroed
    if m.kind == "logistic":
        one = s * (1.0 - s)
    elif m.kind == "gaussian":
        z = np.asarray(_ndtri_each(s), dtype=float)
        one = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / m.sigma
    elif m.symmetric:
        # f(F^{-1}(1 - t)) = f(F^{-1}(t)): one half-line suffices
        one = m.density(m.quantile(s))
    else:
        one = np.min(m.density(m.quantile(np.stack([s, 1.0 - s]))), axis=0)
    one = np.where(inner, one, 0.0)
    return float(one) if ts.ndim == 0 else one


def compute_c_maximizer() -> float:
    """Argmax of (1 - e^{-2u}) / (2 sqrt(u)), from its first-order condition.

    The condition 4u e^{-2u} - 1 + e^{-2u} = 0 has derivative
    e^{-2u} (2 - 8u) and decreases on [1/4, 2], where it changes sign.
    """
    def minus_foc(u: float) -> tuple[float, float]:
        e = math.exp(-2.0 * u)
        return 1.0 - e - 4.0 * u * e, e * (8.0 * u - 2.0)
    return _bracketed_newton(minus_foc, 0.25, 2.0, 0.5, 0.0)[0]


@functools.cache
def compute_c() -> float:
    """The universal profile constant sup_{u>0} (1 - e^{-2u}) / (2 sqrt(u)),
    computed once per process."""
    u = compute_c_maximizer()
    return (1.0 - math.exp(-2.0 * u)) / (2.0 * math.sqrt(u))


def tensor_lower_bound(m: MeasureSpec, t, gap_options: GapOptions | None = None):
    """Dimension-free lower bound sqrt(lambda) * c * t(1-t), at one level
    (a float) or at an array of levels (an array).

    Valid for every product power of the measure because the spectral gap
    does not change under tensorization.
    """
    if not m.is_log_concave:
        raise NotLogConcave("lower bound requires a log-concave measure")
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise DomainError("profile argument must lie in [0, 1]")
    low = math.sqrt(spectral_gap(m, gap_options)) * compute_c() * ts * (1.0 - ts)
    return float(low) if low.ndim == 0 else low


def clt_upper_bound(m: MeasureSpec, t: float, n_max: int) -> list[float]:
    """Half-space upper bounds f_{Z_N}(y_N) for Z_N = sum X_i / sqrt(N).

    y_N is the t-quantile of Z_N; each entry bounds the N-fold product
    profile at t, and the sequence tends to phi(Phi^{-1}(t)) / sigma.

    N = 1 is m.density(m.quantile(t)).  For N >= 2 the density and the CDF
    of S_N = sum X_i are ``numerics.Spectrum.inversion(N)`` of one factor's
    spectrum from ``numerics._convolve`` at the step _CLT_H, whose period
    is sized and checked for S_{n_max}.  y_N is found by bracketed Newton
    steps from the Gaussian guess sqrt(N) sigma Phi^{-1}(t) + N mu, with mu
    the mean that the spectrum carries.  f(y_N) is the density of the read
    whose residual stopped Newton, so a guess that already holds costs one
    read; y_N is read again only when a step or the bracket stopped Newton
    at round-off instead.  A kind with a closed-form phi
    (logistic, Gaussian, two-sided exponential) is exact up to the
    inversion sums; for any other kind the sums are the discrete
    convolutions of its samples at the step _CLT_H, read by trigonometric
    interpolation.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    if n_max < 1 or n_max > _CLT_N_MAX:
        raise DomainError(f"n_max must lie in 1..{_CLT_N_MAX}")
    vals = [float(m.density(m.quantile(t)))]
    if n_max == 1:
        return vals
    spectrum = _convolve([(m, 1.0)], _CLT_H, n_max)
    mu, half = spectrum.mean, spectrum.half
    sigma = math.sqrt(m.variance)
    z = _ndtri(t)
    for n in range(2, n_max + 1):
        inversion = spectrum.inversion(n)

        def at(x: float, inversion=inversion) -> tuple[float, float]:
            """(F(x) - t, f(x)) for S_n."""
            cdf, density = inversion(x)
            return cdf - t, density
        lo, hi = n * mu - half, n * mu + half
        guess = min(max(math.sqrt(n) * sigma * z + n * mu, lo), hi)
        y, read = _bracketed_newton(at, lo, hi, guess, _NEWTON_TOL)
        vals.append(math.sqrt(n) * (read or at(y))[1])
    return vals


@dataclass(frozen=True)
class ProfileBounds:
    ts: np.ndarray
    one_dim: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    clt_trace: tuple[float, ...] = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,one_dim,lower,upper\n")
        for row in zip(self.ts, self.one_dim, self.lower, self.upper):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()


def profile_envelope(m: MeasureSpec, t_grid,
                     gap_options: GapOptions | None = None,
                     clt_n_max: int = 0) -> ProfileBounds:
    """Envelope of the infinite-product profile over a 1-D array of levels.

    one_dim is the 1-D profile (always an upper bound), lower the
    dimension-free spectral bound, upper the minimum of one_dim and the
    Gaussian limit profile scaled by the standard deviation.  Each profile
    takes all the levels in one ``profile_1d`` call, so a tabulated kind's
    CDF table is inverted once per envelope, in one batch of Newton steps.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1:
        raise DomainError("levels must form a 1-D array")
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise DomainError("levels must lie in [0, 1]")
    one = profile_1d(m, ts)
    low = tensor_lower_bound(m, ts, gap_options)
    gauss = profile_1d(_STANDARD_NORMAL, ts) / math.sqrt(m.variance)
    up = np.minimum(one, gauss)
    trace: tuple[float, ...] = ()
    if clt_n_max > 0:
        trace = tuple(clt_upper_bound(m, 0.5, clt_n_max))
    return ProfileBounds(ts, one, low, up, trace)
