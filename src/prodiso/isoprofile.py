"""Isoperimetric profiles and dimension-free bounds for product powers.

For a log-concave 1-D measure the isoperimetric problem is solved by
half-lines, so the profile is f(F^{-1}(t)) symmetrized.  Two families of
bounds sandwich the infinite-product profile: a spectral-gap lower bound
sqrt(lambda) * c * t(1-t) valid uniformly in the number of factors, and
half-space upper bounds obtained from the density of normalized sums via
the central limit theorem.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, GridTooNarrow, NotLogConcave
from .measures import MeasureSpec
from .numerics import Grid, TabulatedDensity, _convolve, _trim, tabulate
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
        z = ndtri(t)
        return float(math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / m.sigma)
    lo = m.density(m.quantile(t))
    hi = m.density(m.quantile(1.0 - t))
    return float(min(lo, hi))


def compute_c_maximizer() -> float:
    """Argmax of (1 - e^{-2u}) / (2 sqrt(u)), from its first-order condition."""
    from scipy.optimize import brentq  # slow to import; needed only here

    def foc(u: float) -> float:
        e = math.exp(-2.0 * u)
        return 4.0 * u * e - 1.0 + e
    return float(brentq(foc, 0.1, 2.0, xtol=1e-15, rtol=8.9e-16))


def compute_c() -> float:
    """The universal profile constant sup_{u>0} (1 - e^{-2u}) / (2 sqrt(u))."""
    u = compute_c_maximizer()
    return (1.0 - math.exp(-2.0 * u)) / (2.0 * math.sqrt(u))


def tensor_lower_bound(m: MeasureSpec, t: float,
                       gap_options: GapOptions | None = None,
                       lam: float | None = None) -> float:
    """Dimension-free lower bound sqrt(lambda) * c * t(1-t).

    Valid for every product power of the measure because the spectral gap
    does not change under tensorization.
    """
    if not m.is_log_concave:
        raise NotLogConcave("lower bound requires a log-concave measure")
    if not 0.0 <= t <= 1.0:
        raise DomainError("profile argument must lie in [0, 1]")
    if lam is None:
        lam = spectral_gap(m, gap_options) if gap_options else spectral_gap(m)
    return math.sqrt(lam) * compute_c() * t * (1.0 - t)


def _sum_density_steps(m: MeasureSpec, n_max: int,
                       h: float) -> list[TabulatedDensity]:
    """Densities of X_1 + ... + X_N for N = 1..n_max on a common spacing."""
    b = m.truncation_interval(1e-12)[1]
    n = 2 * max(1, int(math.ceil(b / h))) + 1
    g = Grid.symmetric_grid(h * (n - 1) / 2.0, n)
    base = tabulate(m, g).normalized()
    out = [base]
    cur = base
    for _ in range(n_max - 1):
        cur = _trim(_convolve(cur, base, fast=True).normalized())
        peak = cur.values.max()
        if max(cur.values[0], cur.values[-1]) > 1e-10 * max(peak, 1.0):
            raise GridTooNarrow("convolution support reaches the grid boundary")
        out.append(cur)
    return out


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
    for n_copies, dens in enumerate(_sum_density_steps(m, n_max, h), start=1):
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
    lam = spectral_gap(m, gap_options) if gap_options else spectral_gap(m)
    sigma = math.sqrt(m.variance)
    one = np.array([profile_1d(m, t) for t in ts])
    low = np.array([tensor_lower_bound(m, t, lam=lam) for t in ts])
    gauss = np.array([0.0 if t in (0.0, 1.0) else
                      math.exp(-0.5 * ndtri(t) ** 2) / math.sqrt(2 * math.pi)
                      / sigma for t in ts])
    up = np.minimum(one, gauss)
    trace: tuple[float, ...] = ()
    if clt_n_max > 0:
        trace = tuple(clt_upper_bound(m, 0.5, clt_n_max))
    return ProfileBounds(ts, one, low, up, trace)
