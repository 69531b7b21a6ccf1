"""One-dimensional probability measures given through their log-density.

A measure is described by its log-density ``psi`` (density ``exp(psi)``),
together with structural flags (symmetry, log-concavity) that downstream
classification routines rely on.  Built-in kinds: logistic, Gaussian,
two-sided exponential, power-law ``exp(-|x|^p)``, Gaussian-with-bump
perturbation, and user-supplied potentials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import ndtr, ndtri

from .errors import DomainError, NonDifferentiablePoint
from .numerics import integrate

STRICTLY_LOG_CONCAVE = "strictly_log_concave"
LOG_CONCAVE = "log_concave"
UNKNOWN = "unknown"

_DEFAULT_TAIL = 1e-12


def _mollifier(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth compactly supported atom exp(1 - 1/(1-u^2)) on |u|<1.

    Returns (value, first, second derivative) w.r.t. ``u``; all three vanish
    identically outside the support.
    """
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    val = np.zeros_like(u)
    d1 = np.zeros_like(u)
    d2 = np.zeros_like(u)
    ui = u[inside]
    s = 1.0 - ui * ui
    g = 1.0 - 1.0 / s
    phi = np.exp(g)
    gp = -2.0 * ui / (s * s)
    gpp = -2.0 * (1.0 + 3.0 * ui * ui) / (s * s * s)
    val[inside] = phi
    d1[inside] = phi * gp
    d2[inside] = phi * (gp * gp + gpp)
    return val, d1, d2


@dataclass(frozen=True)
class BumpFunction:
    """Even, smooth, compactly supported linear combination of atoms.

    Atoms are mollifier bumps of given half-width.  A positive center ``c``
    stands for the mirrored pair at ``+-c`` so the sum is even by
    construction; center 0 is a single atom.
    """

    coefficients: tuple[float, ...]
    centers: tuple[float, ...]
    widths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.coefficients) == len(self.centers) == len(self.widths)):
            raise DomainError("coefficients, centers, widths must have equal length")
        if any(c < 0 for c in self.centers):
            raise DomainError("atom centers must be given as nonnegative reals")
        if any(w <= 0 for w in self.widths):
            raise DomainError("atom widths must be positive")

    @property
    def support_radius(self) -> float:
        if not self.centers:
            return 0.0
        return max(c + w for c, w in zip(self.centers, self.widths))

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (bump, bump', bump'') at ``x`` (vectorized)."""
        x = np.asarray(x, dtype=float)
        val = np.zeros_like(x)
        d1 = np.zeros_like(x)
        d2 = np.zeros_like(x)
        for beta, c, w in zip(self.coefficients, self.centers, self.widths):
            sides = (0.0,) if c == 0.0 else (c, -c)
            for s in sides:
                v, p1, p2 = _mollifier((x - s) / w)
                val += beta * v
                d1 += beta * p1 / w
                d2 += beta * p2 / (w * w)
        return val, d1, d2

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)[0]

    def scaled(self, factor: float) -> "BumpFunction":
        return BumpFunction(
            tuple(factor * b for b in self.coefficients), self.centers, self.widths
        )

    def atoms(self) -> list["BumpFunction"]:
        return [
            BumpFunction((1.0,), (c,), (w,))
            for c, w in zip(self.centers, self.widths)
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "coefficients": list(self.coefficients),
                "centers": list(self.centers),
                "widths": list(self.widths),
            }
        )

    @staticmethod
    def from_json(text: str) -> "BumpFunction":
        d = json.loads(text)
        return BumpFunction(
            tuple(d["coefficients"]), tuple(d["centers"]), tuple(d["widths"])
        )


@dataclass(frozen=True)
class MeasureSpec:
    """A 1-D probability measure with density exp(psi).

    ``psi`` is always the *normalized* log-density; kinds whose natural form
    is unnormalized (power-law, Gaussian-with-bump, custom) subtract the log
    of the numerically computed mass.
    """

    kind: str
    sigma: float = 1.0
    p: float = 2.0
    eps: float = 0.0
    bump: BumpFunction | None = None
    potential: Callable | None = None
    symmetric: bool = True
    log_concavity: str = STRICTLY_LOG_CONCAVE
    label: str = field(default="", compare=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def logistic() -> "MeasureSpec":
        return MeasureSpec(kind="logistic", log_concavity=STRICTLY_LOG_CONCAVE,
                           label="logistic")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "MeasureSpec":
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        return MeasureSpec(kind="gaussian", sigma=float(sigma),
                           log_concavity=STRICTLY_LOG_CONCAVE,
                           label=f"gaussian(sigma={sigma:g})")

    @staticmethod
    def two_sided_exponential() -> "MeasureSpec":
        return MeasureSpec(kind="exponential", log_concavity=LOG_CONCAVE,
                           label="exponential")

    @staticmethod
    def power_law(p: float) -> "MeasureSpec":
        if p <= 1:
            raise DomainError("power-law exponent must exceed 1")
        return MeasureSpec(kind="power", p=float(p),
                           log_concavity=STRICTLY_LOG_CONCAVE if p >= 2 else LOG_CONCAVE,
                           label=f"power(p={p:g})")

    @staticmethod
    def gaussian_bump(eps: float, bump: BumpFunction) -> "MeasureSpec":
        return MeasureSpec(kind="gaussian_bump", eps=float(eps), bump=bump,
                           log_concavity=UNKNOWN if eps else STRICTLY_LOG_CONCAVE,
                           label=f"gaussian_bump(eps={eps:g})")

    @staticmethod
    def custom(potential: Callable, symmetric: bool = False,
               log_concavity: str = UNKNOWN, label: str = "custom") -> "MeasureSpec":
        """``potential(x) -> (v, v', v'')`` vectorized, density prop. exp(-v)."""
        return MeasureSpec(kind="custom", potential=potential, symmetric=symmetric,
                           log_concavity=log_concavity, label=label)

    # -- normalization ------------------------------------------------

    @cached_property
    def _log_norm(self) -> float:
        """log of the raw-density mass; 0 for exactly normalized kinds."""
        if self.kind in ("logistic", "gaussian", "exponential"):
            return 0.0
        if self.kind == "power":
            return math.log(2.0 * gamma_fn(1.0 + 1.0 / self.p))
        b = self._raw_truncation(1e-15)
        mass = integrate(lambda x: np.exp(self._raw_psi(x)[0]), -b, b,
                         rel_tol=1e-13, points=self._singular_points())
        return math.log(mass)

    @property
    def normalization(self) -> float:
        return math.exp(self._log_norm)

    def _singular_points(self) -> tuple[float, ...]:
        if self.kind in ("exponential", "power"):
            return (0.0,)
        return ()

    # -- log-density and derivatives ----------------------------------

    def _raw_psi(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unnormalized (psi, psi', psi''); no kink checks."""
        x = np.asarray(x, dtype=float)
        if self.kind == "logistic":
            ax = np.abs(x)
            psi = -ax - 2.0 * np.log1p(np.exp(-ax))
            dpsi = -np.tanh(x / 2.0)
            e = np.exp(-ax)
            f = e / (1.0 + e) ** 2
            ddpsi = -2.0 * f
            return psi, dpsi, ddpsi
        if self.kind == "gaussian":
            s2 = self.sigma ** 2
            psi = -x * x / (2.0 * s2) - 0.5 * math.log(2.0 * math.pi * s2)
            return psi, -x / s2, np.full_like(x, -1.0 / s2)
        if self.kind == "exponential":
            psi = -np.abs(x) - math.log(2.0)
            return psi, -np.sign(x), np.zeros_like(x)
        if self.kind == "power":
            p = self.p
            ax = np.abs(x)
            psi = -(ax ** p)
            dpsi = -p * np.sign(x) * ax ** (p - 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ddpsi = np.where(ax > 0, -p * (p - 1.0) * ax ** (p - 2.0),
                                 -2.0 if p == 2.0 else (0.0 if p > 2.0 else np.nan))
            return psi, dpsi, ddpsi
        if self.kind == "gaussian_bump":
            b, b1, b2 = self.bump.evaluate(x)
            psi = -(x * x / 2.0 + self.eps * b)
            return psi, -(x + self.eps * b1), -(1.0 + self.eps * b2)
        if self.kind == "custom":
            v, dv, ddv = self.potential(x)
            return (-np.asarray(v, dtype=float), -np.asarray(dv, dtype=float),
                    -np.asarray(ddv, dtype=float))
        raise DomainError(f"unknown measure kind {self.kind!r}")

    def log_density(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized (psi, psi', psi''); raises at non-differentiable points."""
        xa = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xa)):
            raise DomainError("evaluation points must be finite")
        if self.kind == "power" and self.p < 2.0 and np.any(xa == 0.0):
            raise NonDifferentiablePoint(
                "power-law psi'' undefined at 0 for p < 2")
        if self.kind == "exponential" and np.any(xa == 0.0):
            raise NonDifferentiablePoint(
                "two-sided exponential psi', psi'' undefined at 0")
        psi, dpsi, ddpsi = self._raw_psi(xa)
        psi = psi - self._log_norm
        if np.ndim(x) == 0:
            return float(psi), float(dpsi), float(ddpsi)
        return psi, dpsi, ddpsi

    def density(self, x) -> np.ndarray:
        """Normalized density exp(psi); safe at kinks (value only)."""
        psi, _, _ = self._raw_psi(x)
        out = np.exp(psi - self._log_norm)
        return float(out) if np.ndim(x) == 0 else out

    # -- cdf / quantile -----------------------------------------------

    def cdf(self, x: float) -> float:
        if self.kind == "logistic":
            return float(1.0 / (1.0 + np.exp(-x)))
        if self.kind == "gaussian":
            return float(ndtr(x / self.sigma))
        if self.kind == "exponential":
            return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)
        b = self._raw_truncation(1e-15)
        if x <= -b:
            return 0.0
        if x >= b:
            return 1.0
        pts = tuple(p for p in self._singular_points() if -b < p < x)
        return float(integrate(self.density, -b, x, rel_tol=1e-12, points=pts))

    def quantile(self, prob: float) -> float:
        if not 0.0 < prob < 1.0:
            raise DomainError("quantile probability must lie in (0,1)")
        if self.kind == "logistic":
            return math.log(prob / (1.0 - prob))
        if self.kind == "gaussian":
            return float(self.sigma * ndtri(prob))
        if self.kind == "exponential":
            return math.log(2.0 * prob) if prob <= 0.5 else -math.log(2.0 * (1.0 - prob))
        from scipy.optimize import brentq  # slow to import; needed only here

        b = self._raw_truncation(min(prob, 1.0 - prob, 1e-6) * 1e-3)
        return float(brentq(lambda x: self.cdf(x) - prob, -b, b, xtol=1e-12))

    def cdf_quantile(self, x_or_p: float, direction: str) -> float:
        """Spec-facing dispatcher: direction in {"cdf", "quantile"}."""
        if direction == "cdf":
            return self.cdf(x_or_p)
        if direction == "quantile":
            return self.quantile(x_or_p)
        raise DomainError(f"unknown direction {direction!r}")

    # -- moments ------------------------------------------------------

    @cached_property
    def mean(self) -> float:
        if self.symmetric:
            return 0.0
        b = self._raw_truncation(1e-14)
        return float(integrate(lambda x: x * self.density(x), -b, b,
                               rel_tol=1e-10, points=self._singular_points()))

    @cached_property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.sigma ** 2
        b = self._raw_truncation(1e-14)
        m = self.mean
        return float(integrate(lambda x: (x - m) ** 2 * self.density(x), -b, b,
                               rel_tol=1e-9, points=self._singular_points()))

    # -- truncation ---------------------------------------------------

    def _raw_truncation(self, tail_mass: float) -> float:
        """Symmetric b with complement mass <= tail_mass (no precondition check)."""
        s = tail_mass / 2.0  # per-tail budget
        if self.kind == "logistic":
            return math.log(1.0 / s - 1.0)
        if self.kind == "gaussian":
            return float(self.sigma * abs(ndtri(s)))
        if self.kind == "exponential":
            return math.log(1.0 / tail_mass)
        if self.kind == "power":
            # tail(b) <= exp(-b^p) / (p b^(p-1) Z) for b >= 1; fixed point
            z = 2.0 * gamma_fn(1.0 + 1.0 / self.p)
            b = max(1.5, math.log(1.0 / (s * z)) ** (1.0 / self.p))
            for _ in range(40):
                nb = (math.log(1.0 / (s * z * self.p * max(b, 1.0) ** (self.p - 1.0)))
                      ** (1.0 / self.p))
                nb = max(nb, 1.0)
                if abs(nb - b) < 1e-12:
                    break
                b = nb
            return max(b, 1.5)
        if self.kind == "gaussian_bump":
            r = self.bump.support_radius if self.bump else 0.0
            # outside the bump support the raw density is the raw Gaussian
            return max(float(abs(ndtri(s / 2.0))), r + 1.0)
        if self.kind == "custom":
            # raw (unnormalized) density: the normalized one needs _log_norm,
            # whose computation calls back into this truncation search
            def raw(x):
                return np.exp(self._raw_psi(x)[0])

            b = 2.0
            while b < 1e6:
                core = integrate(raw, -b, b, rel_tol=1e-8)
                left = integrate(raw, -4 * b, -b, rel_tol=1e-6)
                right = integrate(raw, b, 4 * b, rel_tol=1e-6)
                if left + right <= tail_mass * 0.5 * (core + left + right):
                    return b
                b *= 1.5
            raise DomainError("could not locate custom-measure truncation")
        raise DomainError(f"unknown measure kind {self.kind!r}")

    def truncation_interval(self, tail_mass: float = _DEFAULT_TAIL) -> tuple[float, float]:
        if not 0.0 < tail_mass < 1e-3:
            raise DomainError("tail_mass must lie in (0, 1e-3)")
        b = self._raw_truncation(tail_mass)
        return (-b, b)

    # -- diagnostics --------------------------------------------------

    def verify_flags(self, samples: int = 512, tol: float = 1e-10) -> dict:
        """Sampled check of the declared symmetry / log-concavity flags."""
        b = self._raw_truncation(1e-10)
        x = np.linspace(1e-3, b * 0.999, samples)
        fx = self.density(x)
        fmx = self.density(-x)
        sym_dev = float(np.max(np.abs(fx - fmx)))
        _, _, dd = self._raw_psi(np.concatenate([-x[::-1], x]))
        max_dd = float(np.nanmax(dd))
        report = {
            "symmetry_deviation": sym_dev,
            "symmetry_ok": (not self.symmetric) or sym_dev <= tol,
            "max_psi_second": max_dd,
            "log_concavity_ok": True,
        }
        if self.log_concavity == STRICTLY_LOG_CONCAVE:
            report["log_concavity_ok"] = max_dd < 0.0
        elif self.log_concavity == LOG_CONCAVE:
            report["log_concavity_ok"] = max_dd <= tol
        return report

    @property
    def is_log_concave(self) -> bool:
        return self.log_concavity in (STRICTLY_LOG_CONCAVE, LOG_CONCAVE)

    # -- JSON descriptor ----------------------------------------------

    @staticmethod
    def from_descriptor(desc: "str | dict") -> "MeasureSpec":
        """Build from {"kind": ..., params...}; also accepts bare kind names."""
        if isinstance(desc, str):
            text = desc.strip()
            if text.startswith("{"):
                desc = json.loads(text)
            else:
                desc = {"kind": text}
        kind = desc.get("kind", "").lower()
        if kind == "logistic":
            return MeasureSpec.logistic()
        if kind == "gaussian":
            return MeasureSpec.gaussian(float(desc.get("sigma", 1.0)))
        if kind == "exponential":
            return MeasureSpec.two_sided_exponential()
        if kind == "power":
            return MeasureSpec.power_law(float(desc["p"]))
        if kind == "gaussian_bump":
            bump = desc["bump"]
            if isinstance(bump, dict):
                bump = BumpFunction(tuple(bump["coefficients"]),
                                    tuple(bump["centers"]), tuple(bump["widths"]))
            return MeasureSpec.gaussian_bump(float(desc.get("eps", 0.0)), bump)
        raise DomainError(f"unknown measure descriptor kind {kind!r}")
