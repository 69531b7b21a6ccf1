"""Grids, adaptive quadrature, tabulated densities and discrete convolution."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, GridTooNarrow, NoConvergence

_XL, _WL = roots_legendre(10)
_XH, _WH = roots_legendre(21)


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """High/low embedded Gauss estimates on [a, b]."""
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    hi = r * float(np.dot(_WH, f(c + r * _XH)))
    lo = r * float(np.dot(_WL, f(c + r * _XL)))
    return hi, abs(hi - lo)


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              points: tuple[float, ...] = (), max_depth: int = 50) -> float:
    """Adaptive embedded-Gauss quadrature of ``f`` on [a, b].

    ``points`` are declared singular/kink locations; panels are pre-split
    there so the rule never straddles them.  Error is controlled against the
    difference of the embedded pair; raises NoConvergence past ``max_depth``
    bisections on any panel.
    """
    if b < a:
        return -integrate(f, b, a, rel_tol, points, max_depth)
    if a == b:
        return 0.0
    cuts = sorted({a, b, *(p for p in points if a < p < b)})
    # stack entries: (lo, hi, depth)
    stack = [(cuts[i], cuts[i + 1], 0) for i in range(len(cuts) - 1)]
    # first pass for a magnitude scale
    total = sum(_panel(f, lo, hi)[0] for lo, hi, _ in stack)
    scale = max(abs(total), 1e-300)
    acc = 0.0
    while stack:
        lo, hi, depth = stack.pop()
        est, err = _panel(f, lo, hi)
        if err <= rel_tol * scale * max((hi - lo) / (b - a), 1e-6) or \
           err <= rel_tol * max(abs(est), 1e-300):
            acc += est
            continue
        if depth >= max_depth:
            raise NoConvergence(
                f"quadrature failed to converge on [{lo:g}, {hi:g}]")
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return acc


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with an odd number of nodes.

    Oddness guarantees that 0 is a node whenever the grid is symmetric.
    """

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise DomainError("grid needs an odd node count >= 3")
        if not self.b > self.a:
            raise DomainError("grid interval is empty")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    @property
    def symmetric(self) -> bool:
        return abs(self.a + self.b) <= 1e-12 * max(1.0, abs(self.b))

    @staticmethod
    def symmetric_grid(b: float, n: int) -> "Grid":
        return Grid(-b, b, n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.h)
        w[0] = w[-1] = self.h / 2.0
        return w

    def refined(self) -> "Grid":
        return Grid(self.a, self.b, 2 * self.n - 1)


@dataclass(frozen=True)
class TabulatedDensity:
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DomainError("value vector does not match grid")
        if np.any(v < 0):
            raise DomainError("density values must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.h))

    def normalized(self) -> "TabulatedDensity":
        return TabulatedDensity(self.grid, self.values / self.mass)

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid.nodes(), self.values, left=0.0, right=0.0)

    def mean(self) -> float:
        x = self.grid.nodes()
        return float(np.trapezoid(x * self.values, dx=self.grid.h) / self.mass)

    def variance(self) -> float:
        x = self.grid.nodes()
        m = self.mean()
        return float(np.trapezoid((x - m) ** 2 * self.values, dx=self.grid.h) / self.mass)

    def cdf_values(self) -> np.ndarray:
        """Cumulative trapezoid of the (normalized) values."""
        v = self.values / self.mass
        inc = 0.5 * (v[1:] + v[:-1]) * self.grid.h
        return np.concatenate([[0.0], np.cumsum(inc)])

    def quantile(self, t: float) -> float:
        if not 0.0 < t < 1.0:
            raise DomainError("quantile level must lie in (0,1)")
        c = self.cdf_values()
        x = self.grid.nodes()
        return float(np.interp(t, c, x))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# grid a={self.grid.a:.17g} b={self.grid.b:.17g} n={self.grid.n}\n")
        buf.write("x,value\n")
        for xi, vi in zip(self.grid.nodes(), self.values):
            buf.write(f"{xi:.17g},{vi:.17g}\n")
        return buf.getvalue()


def tabulate(m, g: Grid) -> TabulatedDensity:
    """Pointwise density samples of a measure on a grid."""
    return TabulatedDensity(g, np.asarray(m.density(g.nodes()), dtype=float))


def _rescale(d: TabulatedDensity, w: float) -> TabulatedDensity:
    """Density of w*X from the density of X, resampled on a same-spacing grid."""
    if w == 0.0:
        raise DomainError("zero weights are not allowed")
    aw = abs(w)
    h = d.grid.h
    b_new = aw * max(abs(d.grid.a), abs(d.grid.b))
    n_new = 2 * max(1, int(np.ceil(b_new / h))) + 1
    g = Grid.symmetric_grid(h * (n_new - 1) / 2.0, n_new)
    x = g.nodes()
    vals = d(x / w) / aw
    return TabulatedDensity(g, vals)


def _convolve(d1: TabulatedDensity, d2: TabulatedDensity,
              fast: bool = False) -> TabulatedDensity:
    h = d1.grid.h
    if abs(d2.grid.h - h) > 1e-12 * h:
        raise DomainError("convolution requires matching grid spacing")
    if fast:
        from scipy.signal import fftconvolve
        vals = fftconvolve(d1.values, d2.values) * h
    else:
        vals = np.convolve(d1.values, d2.values) * h
    a = d1.grid.a + d2.grid.a
    n = len(vals)
    g = Grid(a, a + h * (n - 1), n if n % 2 == 1 else n)  # n1+n2-1 is odd
    return TabulatedDensity(g, np.clip(vals, 0.0, None))


def _trim(d: TabulatedDensity, floor: float = 1e-16) -> TabulatedDensity:
    """Drop symmetric tails below floor*max to keep grids desk-sized."""
    v = d.values
    keep = np.nonzero(v > floor * v.max())[0]
    if len(keep) == 0:
        return d
    lo, hi = keep[0], keep[-1]
    # symmetric trim so 0 stays a node on symmetric grids
    cut = min(lo, d.grid.n - 1 - hi)
    if cut <= 1:
        return d
    vals = v[cut:d.grid.n - cut]
    x = d.grid.nodes()
    g = Grid(x[cut], x[d.grid.n - 1 - cut], len(vals))
    return TabulatedDensity(g, vals)


def self_convolve_scaled(d: TabulatedDensity, n_copies: int,
                         weights) -> TabulatedDensity:
    """Density of sum_i w_i X_i for independent copies X_i of ``d``.

    Each rescaled factor density is renormalized before convolving and the
    running result is renormalized after every step to stop mass drift.
    Raises GridTooNarrow when the result carries boundary mass above 1e-10.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_copies,):
        raise DomainError("need one weight per copy")
    if not np.any(weights != 0.0):
        raise DomainError("weights must not all vanish")
    base = d.normalized()
    out: TabulatedDensity | None = None
    for w in weights:
        factor = _rescale(base, w).normalized()
        out = factor if out is None else _convolve(out, factor).normalized()
        out = _trim(out)
    peak = out.values.max()
    if max(out.values[0], out.values[-1]) > 1e-10 * max(peak, 1.0):
        raise GridTooNarrow("convolution support reaches the grid boundary")
    return out
