"""Grids, adaptive quadrature, tabulated densities and the spectra of sums.

Densities of weighted sums of independent factors come from one pipeline.
``_convolve`` multiplies the factors' characteristic functions on one
frequency grid: a closed form where the kind has one, else the FFT of the
density sampled at a common spacing.  It checks that the period holds the
sum, and ``Spectrum.inversion`` is the one reader of the density and the
CDF of the sum, or of n copies of it, for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridTooNarrow, NoConvergence

# The embedded 10/21-point Gauss-Legendre pair on [-1, 1], as scipy.special's
# roots_legendre rounds it; numpy's leggauss rounds the 21-point weights up to
# 1.7e-14 differently, no closer to the exact ones.
_XL = np.array([
    -0.9739065285171717, -0.8650633666889844, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163116, 0.14887433898163116, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889844, 0.9739065285171717])
_WL = np.array([
    0.06667134430868714, 0.14945134915058053, 0.21908636251598224, 0.26926671930999674,
    0.2955242247147533, 0.2955242247147533, 0.26926671930999674, 0.21908636251598224,
    0.14945134915058053, 0.06667134430868714])
_XH = np.array([
    -0.9937521706203896, -0.9672268385663063, -0.9200993341504009, -0.8533633645833172,
    -0.768439963475678, -0.6671388041974123, -0.5516188358872198, -0.4243421202074388,
    -0.2880213168024011, -0.14556185416089512, 0.0, 0.14556185416089512, 0.2880213168024011,
    0.4243421202074388, 0.5516188358872198, 0.6671388041974123, 0.768439963475678,
    0.8533633645833172, 0.9200993341504009, 0.9672268385663063, 0.9937521706203896])
_WH = np.array([
    0.016017228257774067, 0.03695378977085202, 0.057134425426857004, 0.0761001136283796,
    0.09344442345603364, 0.10879729916714863, 0.12183141605372863, 0.13226893863333766,
    0.1398873947910734, 0.14452440398997013, 0.14608113364969053, 0.14452440398997013,
    0.1398873947910734, 0.13226893863333766, 0.12183141605372863, 0.10879729916714863,
    0.09344442345603364, 0.0761001136283796, 0.057134425426857004, 0.03695378977085202,
    0.016017228257774067])
_MAX_DEPTH = 50     # bisections of one panel before integrate gives up
_NEWTON_STEPS = 60  # evaluations of one bracketed Newton solve
_WRAP_TOL = 1e-10    # density half a period from the mean, relative to it
_PHI_FLOOR = 1e-17   # |phi| below this is negligible in the inversion sums


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """High/low embedded Gauss estimates on [a, b]."""
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    hi = r * float(np.dot(_WH, f(c + r * _XH)))
    lo = r * float(np.dot(_WL, f(c + r * _XL)))
    return hi, abs(hi - lo)


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              points: tuple[float, ...] = ()) -> float:
    """Adaptive embedded-Gauss quadrature of ``f`` on [a, b].

    ``points`` are declared singular/kink locations; panels are pre-split
    there so the rule never straddles them.  Error is controlled against the
    difference of the embedded pair; raises NoConvergence past ``_MAX_DEPTH``
    bisections on any panel.  The bounds must be finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a}, {b}]")
    if b < a:
        return -integrate(f, b, a, rel_tol, points)
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
        if depth >= _MAX_DEPTH:
            raise NoConvergence(
                f"quadrature failed to converge on [{lo:g}, {hi:g}]")
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return acc


def _composite_nodes(cuts, panels: int, x: np.ndarray):
    """Ends of ``panels`` equal panels per segment between sorted ``cuts``,
    the nodes ``x`` on [-1, 1] mapped into each panel (one row per panel)
    and the panels' half-lengths."""
    ends = np.concatenate(
        [np.linspace(lo, hi, panels + 1)[:-1]
         for lo, hi in zip(cuts, cuts[1:])] + [[cuts[-1]]])
    c = 0.5 * (ends[1:] + ends[:-1])
    r = 0.5 * (ends[1:] - ends[:-1])
    return ends, c[:, None] + r[:, None] * x, r


def _bracketed_newton(fun, lo: float, hi: float, x: float,
                      tol: float) -> float:
    """Root in [lo, hi] of an increasing ``fun``, by Newton steps from x.

    ``fun(x)`` returns (value, derivative).  Every evaluation narrows the
    bracket, and a step that leaves it is replaced by bisection.  Stops when
    |value| <= tol or when the step or the bracket reaches round-off;
    raises NoConvergence after 60 evaluations.
    """
    for _ in range(_NEWTON_STEPS):
        val, der = fun(x)
        if abs(val) <= tol:
            return x
        if val > 0.0:
            hi = x
        else:
            lo = x
        nx = x - val / der if der > 0.0 else math.nan
        if abs(nx - x) <= 4.0 * math.ulp(x):
            return nx
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            return nx
        x = nx
    raise NoConvergence(f"Newton iteration did not converge in [{lo!r}, {hi!r}]")


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

    @staticmethod
    def covering(b: float, h: float) -> "Grid":
        """Smallest symmetric grid of spacing h that reaches +-b."""
        n = 2 * max(1, int(np.ceil(b / h))) + 1
        return Grid.symmetric_grid(h * (n - 1) / 2.0, n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.h)
        w[0] = w[-1] = self.h / 2.0
        return w


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

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid.nodes(), self.values, left=0.0, right=0.0)

    def mean(self) -> float:
        x = self.grid.nodes()
        return float(np.trapezoid(x * self.values, dx=self.grid.h) / self.mass)

    def variance(self) -> float:
        x = self.grid.nodes()
        m = self.mean()
        return float(np.trapezoid((x - m) ** 2 * self.values, dx=self.grid.h) / self.mass)


def tabulate(m, g: Grid) -> TabulatedDensity:
    """Pointwise density samples of a measure on a grid."""
    return TabulatedDensity(g, np.asarray(m.density(g.nodes()), dtype=float))


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: numpy.fft's radix-2, 3 and 5 lengths,
    never more than the next power of two and often far less."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            # the smallest power-of-two multiple of odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def _reach(factors) -> float:
    """Half-width meant to hold the sum of v X over the (measure, v) factors
    around its mean: the widest factor's 1e-12 truncation plus seven
    standard deviations of the sum."""
    return max(abs(v) * m.truncation_interval(1e-12)[1] for m, v in factors) \
        + 7.0 * math.sqrt(sum(v * v * m.variance for m, v in factors))


class Spectrum(NamedTuple):
    """Characteristic function phi(w_k) of a sum at w_k = k pi / R, their
    weights in the inversion sums (2, or 1 at an even FFT length's Nyquist
    frequency), the mean that phi carries and the half-period R."""

    w: np.ndarray
    weight: np.ndarray
    phi: np.ndarray
    mean: float
    half: float

    def inversion(self, n: int = 1):
        """x -> (F(x), f(x)) of the sum of n copies by Gil-Pelaez's sums
        (Biometrika 38, 1951; discrete as in Abate and Whitt, Queueing
        Systems 10, 1992), exact for the 2R-periodic wrap of the sum:

            f(x) = dw/2pi (1 + sum_k weight_k Re(exp(-i w_k x) phi(w_k)^n)),
            F(x) = 1/2 + dw/2pi (x - n mean
                                 - sum_k weight_k Im(exp(-i w_k x) phi(w_k)^n) / w_k),

        with dw = pi / R, over the k where |phi(w_k)|^n > _PHI_FLOOR.
        """
        keep = np.abs(self.phi) > _PHI_FLOOR ** (1.0 / n)
        wk, re, pk = self.w[keep], self.weight[keep], self.phi[keep] ** n
        im = re / wk
        centre, scale = n * self.mean, 0.5 / self.half

        def at(x: float) -> tuple[float, float]:
            e = pk * np.exp(-1j * wk * x)
            cdf = 0.5 + (x - centre - float(e.imag @ im)) * scale
            return cdf, (1.0 + float(e.real @ re)) * scale
        return at


def _convolve(factors, h: float, copies: int = 1) -> Spectrum:
    """Spectrum of the sum of v X over independent (measure, v) factors, at
    w_k = k pi / R up to the Nyquist frequency pi / h, cut after the last
    |phi| > _PHI_FLOOR, with R = h / 2 times an FFT length that covers
    ``_reach`` of ``copies`` independent copies of the sum.  A factor's phi
    is its closed form at v w where the kind has one, else the normalized
    FFT of f(x / v) sampled on the symmetric grid of spacing h that covers
    |v| times its 1e-12 truncation, as point masses.  Raises GridTooNarrow
    unless the density of the copies half a period from their mean stays
    below _WRAP_TOL of its value at the mean.
    """
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
    # R holds 7 standard deviations, so |phi(w_1)| >= 1 - (pi / 7)^2 / 2
    n = np.flatnonzero(np.abs(phi) > _PHI_FLOOR)[-1] + 1
    spectrum = Spectrum(w[:n], weight[:n], phi[:n], mean, half)
    density = spectrum.inversion(copies)
    if density(copies * mean + half)[1] > _WRAP_TOL * density(copies * mean)[1]:
        raise GridTooNarrow(f"half-period {half:g} does not hold the sum")
    return spectrum
