"""Isoperimetric profiles and dimension-free bounds for product powers.

For a log-concave 1-D measure the isoperimetric problem is solved by
half-lines, so the profile is f(F^{-1}(t)) symmetrized.  Two families of
bounds sandwich the infinite-product profile: a spectral-gap lower bound
sqrt(lambda) * c * t(1-t) valid uniformly in the number of factors, and
half-space upper bounds obtained from the density of normalized sums via
the central limit theorem.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotLogConcave
from .measures import MeasureSpec, _ndtri
from .numerics import Grid, _bracketed_newton, _partial_sums, tabulate
from .spectral import GapOptions, spectral_gap


def profile_1d(m: MeasureSpec, t: float) -> float:
    """Isoperimetric profile I(t) = min density over the two t-half-lines."""
    if not m.is_log_concave:
        raise NotLogConcave("profile formula requires a log-concave measure")
    if not 0.0 <= t <= 1.0:
        raise DomainError("profile argument must lie in [0, 1]")
    if t == 0.0 or t == 1.0:
        return 0.0
    if m.kind == "logistic":
        return t * (1.0 - t)
    if m.kind == "gaussian":
        z = _ndtri(t)
        return float(math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / m.sigma)
    if m.symmetric:
        # f(F^{-1}(1 - t)) = f(F^{-1}(t)): one half-line suffices
        return float(m.density(m.quantile(t)))
    lo = m.density(m.quantile(t))
    hi = m.density(m.quantile(1.0 - t))
    return float(min(lo, hi))


def compute_c_maximizer() -> float:
    """Argmax of (1 - e^{-2u}) / (2 sqrt(u)), from its first-order condition.

    The condition 4u e^{-2u} - 1 + e^{-2u} = 0 has derivative
    e^{-2u} (2 - 8u) and decreases on [1/4, 2], where it changes sign.
    """
    def minus_foc(u: float) -> tuple[float, float]:
        e = math.exp(-2.0 * u)
        return 1.0 - e - 4.0 * u * e, e * (8.0 * u - 2.0)
    return _bracketed_newton(minus_foc, 0.25, 2.0, 0.5, 0.0)


@functools.cache
def compute_c() -> float:
    """The universal profile constant sup_{u>0} (1 - e^{-2u}) / (2 sqrt(u)),
    computed once per process."""
    u = compute_c_maximizer()
    return (1.0 - math.exp(-2.0 * u)) / (2.0 * math.sqrt(u))


def tensor_lower_bound(m: MeasureSpec, t: float,
                       gap_options: GapOptions | None = None) -> float:
    """Dimension-free lower bound sqrt(lambda) * c * t(1-t).

    Valid for every product power of the measure because the spectral gap
    does not change under tensorization.
    """
    if not m.is_log_concave:
        raise NotLogConcave("lower bound requires a log-concave measure")
    if not 0.0 <= t <= 1.0:
        raise DomainError("profile argument must lie in [0, 1]")
    return math.sqrt(spectral_gap(m, gap_options)) * compute_c() * t * (1.0 - t)


def clt_upper_bound(m: MeasureSpec, t: float, n_max: int,
                    h: float = 0.01) -> list[float]:
    """Half-space upper bounds f_{Z_N}(y_N) for Z_N = sum X_i / sqrt(N).

    y_N is the t-quantile of Z_N; each entry bounds the N-fold product
    profile at t, and the sequence tends to phi(Phi^{-1}(t)) / sigma.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    if n_max < 1 or n_max > 128:
        raise DomainError("n_max must lie in 1..128")
    vals: list[float] = []
    symmetric_mid = m.symmetric and t == 0.5
    b = m.truncation_interval(1e-12)[1]
    base = tabulate(m, Grid.covering(b, h)).normalized()
    for n_copies, dens in enumerate(_partial_sums([base] * n_max), start=1):
        root = math.sqrt(n_copies)
        q = 0.0 if symmetric_mid else dens.quantile(t)
        vals.append(float(root * dens(q)))
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
    """Envelope of the infinite-product profile over a grid of levels.

    one_dim is the 1-D profile (always an upper bound), lower the
    dimension-free spectral bound, upper the minimum of one_dim and the
    Gaussian limit profile scaled by the standard deviation.
    """
    ts = np.asarray(t_grid, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise DomainError("levels must lie in [0, 1]")
    lam = spectral_gap(m, gap_options)
    sigma = math.sqrt(m.variance)
    one = np.array([profile_1d(m, t) for t in ts])
    low = math.sqrt(lam) * compute_c() * ts * (1.0 - ts)
    gauss = np.array([0.0 if t in (0.0, 1.0) else
                      math.exp(-0.5 * _ndtri(t) ** 2) / math.sqrt(2 * math.pi)
                      / sigma for t in ts])
    up = np.minimum(one, gauss)
    trace: tuple[float, ...] = ()
    if clt_n_max > 0:
        trace = tuple(clt_upper_bound(m, 0.5, clt_n_max))
    return ProfileBounds(ts, one, low, up, trace)
