"""One-dimensional probability measures given through their log-density.

A measure is described by its log-density ``psi`` (density ``exp(psi)``),
together with structural flags (symmetry, log-concavity) that downstream
classification routines rely on.  Built-in kinds: logistic, Gaussian,
two-sided exponential, power-law ``exp(-|x|^p)``, Gaussian-with-bump
perturbation, and user-supplied potentials.

Logistic, Gaussian and two-sided exponential measures have closed-form CDFs,
quantiles and characteristic functions.  The other kinds share one cached
two-sided CDF table per measure (``MeasureSpec._cdf_table``): Gauss panels
on the interval outside which the two tails hold less than 1e-300 of the
mass, with the signed tail masses -(1 - F) and F at each node.  Every read
of the table goes through one panel reader (``MeasureSpec._panel_reads``),
which adds one Gauss rule on the panel holding each point, from a single
evaluation of the raw density alone.  ``quantile`` inverts the table on the
side of the smaller tail by Newton steps with the density, kept inside the
panel's bracket, so tail quantiles keep their relative accuracy down to
probabilities near 5e-286, below which the mass the table leaves out
exceeds 1e-15 of the level; an array of levels is inverted in one batch of
such steps.
Quadratures split at the singular points: the origin of the exponential
and power laws, and the breakpoints of a Gaussian's bump.  The kinks, the
points where psi'' does not exist, are one list (``MeasureSpec._kinks``):
0 for the exponential and for power laws with p < 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NonDifferentiablePoint
from .numerics import (_WH, _WL, _XH, _XL, _bracketed_newton, _bracketed_newton_batch,
                       _composite_nodes, integrate)

STRICTLY_LOG_CONCAVE = "strictly_log_concave"
LOG_CONCAVE = "log_concave"
UNKNOWN = "unknown"

_DEFAULT_TAIL = 1e-12
_FLAG_TOL = 1e-10    # absolute deviation verify_flags still accepts
_ndtri = NormalDist().inv_cdf
# elementwise over an array (numpy has no inverse normal CDF), object dtype
_ndtri_each = np.frompyfunc(_ndtri, 1, 1)

# The CDF table: mass left outside [-b, b] (far below any level a tail
# quantile is asked for, so it keeps its relative accuracy), Gauss panels per
# segment between singular points, the embedded-pair disagreement, relative
# to the total mass, above which a panel is integrated adaptively, and the
# tolerance of that adaptive quadrature.
_TABLE_TAIL = 1e-300
_TABLE_PANELS = 64
# the smallest tail level a table quantile answers: below it the mass left
# outside one end of the table, up to _TABLE_TAIL / 2, exceeds 1e-15 of it
_LEVEL_FLOOR = 0.5 * _TABLE_TAIL / 1e-15
_PANEL_PAIR_TOL = 1e-16
_PANEL_REL_TOL = 1e-14


class _CdfTable(NamedTuple):
    nodes: np.ndarray      # the N panel ends on [-b, b], singular points among them
    tails: np.ndarray      # -(1 - F) at each node, then F at each node (increasing)
    adaptive: np.ndarray   # panels whose Gauss pair disagreed
    total: float           # tabulated mass of the raw density exp(psi_raw)
    mean: float            # and its mean and variance, by the 21-point rule
    variance: float


def _atom(u: np.ndarray) -> np.ndarray:
    """The atom exp(1 - 1/(1-u^2)) on |u|<1 alone, zero outside."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    val = np.zeros_like(u)
    ui = u[inside]
    val[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return val


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
        return self.breakpoints[-1] if self.centers else 0.0

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The sorted atom ends +-c +-w, where the bump is not analytic."""
        return tuple(sorted({s * c + d * w
                             for c, w in zip(self.centers, self.widths)
                             for s in (1.0, -1.0) for d in (1.0, -1.0)}))

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
        """The bump alone at ``x`` (vectorized), without its derivatives."""
        x = np.asarray(x, dtype=float)
        val = np.zeros_like(x)
        for beta, c, w in zip(self.coefficients, self.centers, self.widths):
            for s in ((0.0,) if c == 0.0 else (c, -c)):
                val += beta * _atom((x - s) / w)
        return val

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
        return _bump_from_dict(json.loads(text))


def _field(d: dict, key: str, convert, default=None):
    """``convert(d[key])``, or ``default`` when one is given and the key is
    absent; a missing or mistyped field raises DomainError naming it."""
    if key not in d:
        if default is None:
            raise DomainError(f"descriptor lacks the field {key!r}")
        return default
    try:
        return convert(d[key])
    except (TypeError, ValueError):
        raise DomainError(
            f"descriptor field {key!r} has a malformed value {d[key]!r}") from None


def _bump_from_dict(d) -> BumpFunction:
    """The bump of a {"coefficients", "centers", "widths"} JSON object."""
    if not isinstance(d, dict):
        raise DomainError("a bump descriptor must be a JSON object")
    return BumpFunction(*(_field(d, k, lambda v: tuple(map(float, v)))
                          for k in ("coefficients", "centers", "widths")))


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
        if not 0 < sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {sigma}")
        return MeasureSpec(kind="gaussian", sigma=float(sigma),
                           log_concavity=STRICTLY_LOG_CONCAVE,
                           label=f"gaussian(sigma={sigma:g})")

    @staticmethod
    def two_sided_exponential() -> "MeasureSpec":
        return MeasureSpec(kind="exponential", log_concavity=LOG_CONCAVE,
                           label="exponential")

    @staticmethod
    def power_law(p: float) -> "MeasureSpec":
        if not 1 < p < math.inf:
            raise DomainError(
                f"power-law exponent must exceed 1 and be finite, got {p}")
        return MeasureSpec(kind="power", p=float(p),
                           log_concavity=STRICTLY_LOG_CONCAVE if p >= 2 else LOG_CONCAVE,
                           label=f"power(p={p:g})")

    @staticmethod
    def gaussian_bump(eps: float, bump: BumpFunction) -> "MeasureSpec":
        if not math.isfinite(eps):
            raise DomainError(f"bump amplitude eps must be finite, got {eps}")
        return MeasureSpec(kind="gaussian_bump", eps=float(eps), bump=bump,
                           log_concavity=UNKNOWN if eps else STRICTLY_LOG_CONCAVE,
                           label=f"gaussian_bump(eps={eps:g})")

    @staticmethod
    def custom(potential: Callable, symmetric: bool = False,
               log_concavity: str = UNKNOWN, label: str = "custom") -> "MeasureSpec":
        """``potential(x) -> (v, v', v'')`` vectorized, density prop. exp(-v).

        v must be twice differentiable: a custom measure declares no kinks,
        so psi'' = -v'' is read everywhere and a kink goes unseen.  v must
        also be finite wherever exp(-v) is above 1e-300 of its peak, since
        the CDF table, and with it the mass, reaches that far into each
        tail.
        """
        return MeasureSpec(kind="custom", potential=potential, symmetric=symmetric,
                           log_concavity=log_concavity, label=label)

    # -- normalization ------------------------------------------------

    @cached_property
    def _log_norm(self) -> float:
        """log of the raw-density mass: a closed form, or the CDF table's."""
        if self.kind in ("logistic", "gaussian", "exponential"):
            return 0.0
        if self.kind == "power":
            return math.log(2.0 * math.gamma(1.0 + 1.0 / self.p))
        return math.log(self._cdf_table.total)

    def _singular_points(self) -> tuple[float, ...]:
        """Where the density is not analytic: kinks, and a bump's breakpoints."""
        if self.kind in ("exponential", "power"):
            return (0.0,)
        if self.kind == "gaussian_bump":
            return self.bump.breakpoints
        return ()

    # -- log-density and derivatives ----------------------------------

    def _raw_log(self, x) -> np.ndarray:
        """Unnormalized psi alone, without its derivatives: what the CDF
        table, its reads and the densities need."""
        x = np.asarray(x, dtype=float)
        if self.kind == "logistic":
            ax = np.abs(x)
            return -ax - 2.0 * np.log1p(np.exp(-ax))
        if self.kind == "gaussian":
            s2 = self.sigma ** 2
            return -x * x / (2.0 * s2) - 0.5 * math.log(2.0 * math.pi * s2)
        if self.kind == "exponential":
            return -np.abs(x) - math.log(2.0)
        if self.kind == "power":
            return -(np.abs(x) ** self.p)
        if self.kind == "gaussian_bump":
            return -(x * x / 2.0 + self.eps * self.bump(x))
        if self.kind == "custom":
            return -np.asarray(self.potential(x)[0], dtype=float)
        raise DomainError(f"unknown measure kind {self.kind!r}")

    def _raw_psi(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unnormalized (psi, psi', psi''); no kink checks."""
        x = np.asarray(x, dtype=float)
        if self.kind == "custom":
            v, dv, ddv = self.potential(x)
            return (-np.asarray(v, dtype=float), -np.asarray(dv, dtype=float),
                    -np.asarray(ddv, dtype=float))
        if self.kind == "gaussian_bump":
            # one pass over the atoms for the bump and its derivatives
            b, b1, b2 = self.bump.evaluate(x)
            return (-(x * x / 2.0 + self.eps * b), -(x + self.eps * b1),
                    -(1.0 + self.eps * b2))
        psi = self._raw_log(x)
        if self.kind == "logistic":
            e = np.exp(-np.abs(x))
            return psi, -np.tanh(x / 2.0), -2.0 * (e / (1.0 + e) ** 2)
        if self.kind == "gaussian":
            s2 = self.sigma ** 2
            return psi, -x / s2, np.full_like(x, -1.0 / s2)
        if self.kind == "exponential":
            return psi, -np.sign(x), np.zeros_like(x)
        if self.kind == "power":
            p = self.p
            ax = np.abs(x)
            dpsi = -p * np.sign(x) * ax ** (p - 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ddpsi = np.where(ax > 0, -p * (p - 1.0) * ax ** (p - 2.0),
                                 -2.0 if p == 2.0 else (0.0 if p > 2.0 else np.nan))
            return psi, dpsi, ddpsi
        raise DomainError(f"unknown measure kind {self.kind!r}")

    def _kinks(self) -> tuple[float, ...]:
        """Where psi'' does not exist: 0 for the two-sided exponential (psi'
        jumps there) and for power laws with p < 2."""
        if self.kind == "exponential" or (self.kind == "power" and self.p < 2.0):
            return (0.0,)
        return ()

    def _require_differentiable(self, x: np.ndarray) -> None:
        """Raise unless every point of x is finite and off ``_kinks``."""
        if not np.all(np.isfinite(x)):
            raise DomainError("evaluation points must be finite")
        if any(np.any(x == k) for k in self._kinks()):
            raise NonDifferentiablePoint(
                f"{self.kind} psi'' undefined at its kinks {self._kinks()}")

    def log_density(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized (psi, psi', psi''); raises at non-differentiable points."""
        xa = np.asarray(x, dtype=float)
        self._require_differentiable(xa)
        psi, dpsi, ddpsi = self._raw_psi(xa)
        psi = psi - self._log_norm
        if np.ndim(x) == 0:
            return float(psi), float(dpsi), float(ddpsi)
        return psi, dpsi, ddpsi

    def _raw_density(self, x) -> np.ndarray:
        """Unnormalized density exp(psi_raw), which the CDF table integrates."""
        return np.exp(self._raw_log(x))

    def density(self, x) -> np.ndarray:
        """Normalized density exp(psi); safe at kinks (value only)."""
        out = np.exp(self._raw_log(x) - self._log_norm)
        return float(out) if np.ndim(x) == 0 else out

    # -- cdf / quantile -----------------------------------------------

    @cached_property
    def _cdf_table(self) -> _CdfTable:
        """Panel nodes on the 1e-300 truncation interval and the signed tail
        masses at each node, -(1 - F) for all nodes followed by F for all
        nodes, one increasing array that a single search places a level in,
        for the kinds without a closed-form CDF.

        The raw density is evaluated for every panel in one call; the
        21-point sums give the mass, mean and variance.  Panels end at the
        singular points; a panel whose 21/10-point pair still disagrees by
        more than ``_PANEL_PAIR_TOL`` of the mass (a custom potential's
        steep or kinked stretch) is integrated adaptively and remembered, so
        that ``_panel_reads`` integrates adaptively there too.
        """
        b = self._raw_truncation(_TABLE_TAIL)
        cuts = [-b, *(s for s in self._singular_points() if -b < s < b), b]
        nodes, x, r = _composite_nodes(cuts, _TABLE_PANELS,
                                       np.concatenate([_XH, _XL]))
        f = self._raw_density(x.ravel()).reshape(x.shape)
        xh, fh = x[:, :len(_XH)], f[:, :len(_XH)]
        mass = r * (fh @ _WH)
        adaptive = (np.abs(mass - r * (f[:, len(_XH):] @ _WL))
                    > _PANEL_PAIR_TOL * mass.sum())
        for j in np.nonzero(adaptive)[0]:
            mass[j] = integrate(self._raw_density, nodes[j], nodes[j + 1],
                                rel_tol=_PANEL_REL_TOL)
        total = float(mass.sum())
        mean = float(r @ ((fh * xh) @ _WH)) / total
        variance = float(r @ ((fh * (xh - mean) ** 2) @ _WH)) / total
        tails = np.concatenate([-np.cumsum(mass[::-1])[::-1], [-0.0, 0.0],
                                np.cumsum(mass)]) / total
        return _CdfTable(nodes, tails, adaptive, total, mean, variance)

    def _panel_reads(self, i, x):
        """(signed tail mass, density) at x, a numpy scalar or a 1-D array,
        with ``i`` of the same shape.

        ``i`` indexes ``tails``: i < N reads 1 - F(x) in panel i, as
        -(1 - F), and i >= N reads F(x) in panel i - N.  Each is the table
        entry at the panel end on that side plus one Gauss rule from there
        to x; the rules' nodes and the points take one raw-density call, and
        a panel whose pair disagreed is integrated adaptively instead.
        """
        t = self._cdf_table
        n = len(t.nodes)
        end = i + (i < n)             # the panel end on the side of the tail
        a = t.nodes[end % n]
        half = 0.5 * (x - a)          # signed: the rule runs from a to x
        pts = np.empty(np.shape(x) + (len(_XH) + 1,))
        np.multiply(np.abs(half)[..., None], _XH, out=pts[..., :-1])
        pts[..., :-1] += (0.5 * (a + x))[..., None]
        pts[..., -1] = x
        f = self._raw_density(pts.ravel()).reshape(pts.shape) / t.total
        mass = t.tails[end] + half * np.vecdot(f[..., :-1], _WH)
        refine = t.adaptive[i % n]
        if refine.any():
            mass = np.array(mass)
            for k in np.flatnonzero(refine):
                lo, hi = sorted((np.ravel(a)[k], np.ravel(x)[k]))
                part = integrate(self._raw_density, lo, hi, rel_tol=_PANEL_REL_TOL)
                mass.flat[k] = (np.ravel(t.tails[end])[k]
                                + math.copysign(part / t.total, np.ravel(half)[k]))
        return mass, f[..., -1]

    def cdf(self, x: float) -> float:
        if self.kind == "logistic":
            e = float(np.exp(-abs(x)))    # never exp of a positive number
            return 1.0 / (1.0 + e) if x >= 0 else e / (1.0 + e)
        if self.kind == "gaussian":
            return 0.5 * math.erfc(-x / self.sigma / math.sqrt(2.0))
        if self.kind == "exponential":
            return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)
        t = self._cdf_table
        if x <= t.nodes[0]:
            return 0.0
        if x >= t.nodes[-1]:
            return 1.0
        n = len(t.nodes)
        j = int(np.searchsorted(t.nodes, x, side="right")) - 1
        upper = bool(t.tails[n + j] >= 0.5)    # read the smaller tail
        mass = float(self._panel_reads(j if upper else n + j, x)[0])
        return 1.0 + mass if upper else mass

    def quantile(self, prob):
        """F^-1 at a level in (0, 1), a float, or at every level of an
        array, an array of its shape.

        Closed forms for the logistic, Gaussian and two-sided exponential.
        The other kinds invert the CDF table on the side of each level's
        smaller tail, 1 - prob above 1/2 (exact there): one search of the
        table's signed tails finds the panel, and Newton steps with the
        density, kept inside the panel's bracket, start from the linear
        interpolant of its end masses and stop within 4 ulps of the tail
        mass.  A float level takes the scalar ``numerics._bracketed_newton``;
        an array takes the same steps and stops for all its levels at once
        (``numerics._bracketed_newton_batch``), so that each step reads the
        table once for the levels still open.  A tail level below 5e-286
        raises DomainError: the table leaves out up to 5e-301 beyond each
        end, more than 1e-15 of such a level.
        """
        p = np.asarray(prob, dtype=float)
        if not ((p > 0.0) & (p < 1.0)).all():
            raise DomainError("quantile probability must lie in (0,1)")
        if self.kind == "logistic":
            x = np.log(p / (1.0 - p))
        elif self.kind == "gaussian":
            x = self.sigma * np.asarray(_ndtri_each(p), dtype=float)
        elif self.kind == "exponential":
            x = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
        else:
            x = self._table_quantile(p)
        return float(x) if p.ndim == 0 else x

    def _table_quantile(self, levels: np.ndarray):
        """``quantile`` from the CDF table: the scalar Newton loop for a
        0-d array of levels, else the batch over all of them."""
        t = self._cdf_table
        # a 0-d level becomes a numpy scalar, which pays no array overhead
        p = levels.reshape(-1) if levels.ndim else levels[()]
        tail = p - (p > 0.5)          # p, or -(1 - p) exactly above 1/2
        if (abs(tail) < _LEVEL_FLOOR).any():
            raise DomainError(f"tail levels below {_LEVEL_FLOOR:.0e} lie "
                              "beyond the reach of the CDF table")
        i = t.tails.searchsorted(tail, side="right") - 1
        lo, hi = t.nodes[i % len(t.nodes)], t.nodes[(i + 1) % len(t.nodes)]
        below, above = t.tails[i], t.tails[i + 1]
        x = lo + (tail - below) / (above - below) * (hi - lo)
        tol = 4.0 * np.spacing(abs(tail))

        def residuals(live, at):
            # live indexes the levels still open; () takes the 0-d level
            mass, f = self._panel_reads(i[live], at)
            return mass - tail[live], f

        if levels.ndim:
            return _bracketed_newton_batch(residuals, lo, hi, x, tol).reshape(levels.shape)

        def residual(at: float) -> tuple[float, float]:
            val, f = residuals((), at)
            return float(val), float(f)
        return _bracketed_newton(residual, lo, hi, x, tol)[0]

    def characteristic(self, w) -> np.ndarray | None:
        """Closed-form characteristic function E[exp(i w X)] at ``w``, or
        None for the kinds that have none: pi w / sinh(pi w) (logistic),
        exp(-sigma^2 w^2 / 2) (Gaussian), 1 / (1 + w^2) (two-sided
        exponential).  All three are real, even and nonincreasing in |w| up
        to a few ulps of rounding (and the logistic's subnormal tail), which
        ``numerics._convolve`` relies on: once |phi| is at or below half its
        floor at some |w|, it stays below the floor at every larger |w|."""
        w = np.asarray(w, dtype=float)
        if self.kind == "logistic":
            x = np.pi * np.abs(w)
            with np.errstate(invalid="ignore"):
                out = 2.0 * x * np.exp(-x) / -np.expm1(-2.0 * x)
            return np.where(x == 0.0, 1.0, out)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (self.sigma * w) ** 2)
        if self.kind == "exponential":
            return 1.0 / (1.0 + w * w)
        return None

    # -- moments ------------------------------------------------------

    @cached_property
    def mean(self) -> float:
        return 0.0 if self.symmetric else self._cdf_table.mean

    @cached_property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.sigma ** 2
        if self.kind == "logistic":
            return math.pi ** 2 / 3.0
        if self.kind == "exponential":
            return 2.0
        if self.kind == "power":
            return math.gamma(3.0 / self.p) / math.gamma(1.0 / self.p)
        return self._cdf_table.variance

    # -- truncation ---------------------------------------------------

    def _raw_truncation(self, tail_mass: float) -> float:
        """Symmetric b with complement mass <= tail_mass (no precondition check)."""
        s = tail_mass / 2.0  # per-tail budget
        if self.kind == "logistic":
            return math.log(1.0 / s - 1.0)
        if self.kind == "gaussian":
            return self.sigma * abs(_ndtri(s))
        if self.kind == "exponential":
            return math.log(1.0 / tail_mass)
        if self.kind == "power":
            # tail(b) <= exp(-b^p) / (p b^(p-1) Z) for b >= 1; fixed point
            z = 2.0 * math.gamma(1.0 + 1.0 / self.p)
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
            return max(abs(_ndtri(s / 2.0)), r + 1.0)
        if self.kind == "custom":
            # the raw density: the normalized one reads the table built on b
            b = 2.0
            while b < 1e6:
                core = integrate(self._raw_density, -b, b, rel_tol=1e-8)
                left = integrate(self._raw_density, -4 * b, -b, rel_tol=1e-6)
                right = integrate(self._raw_density, b, 4 * b, rel_tol=1e-6)
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

    def verify_flags(self) -> dict:
        """Sampled check of the declared symmetry / log-concavity flags, at
        512 points per side, to an absolute 1e-10."""
        b = self._raw_truncation(1e-10)
        x = np.linspace(1e-3, b * 0.999, 512)
        fx = self.density(x)
        fmx = self.density(-x)
        sym_dev = float(np.max(np.abs(fx - fmx)))
        _, _, dd = self._raw_psi(np.concatenate([-x[::-1], x]))
        max_dd = float(np.nanmax(dd))
        report = {
            "symmetry_deviation": sym_dev,
            "symmetry_ok": (not self.symmetric) or sym_dev <= _FLAG_TOL,
            "max_psi_second": max_dd,
            "log_concavity_ok": True,
        }
        if self.log_concavity == STRICTLY_LOG_CONCAVE:
            report["log_concavity_ok"] = max_dd < 0.0
        elif self.log_concavity == LOG_CONCAVE:
            report["log_concavity_ok"] = max_dd <= _FLAG_TOL
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
        kind = _field(desc, "kind", str.lower)
        if kind == "logistic":
            return MeasureSpec.logistic()
        if kind == "gaussian":
            return MeasureSpec.gaussian(_field(desc, "sigma", float, 1.0))
        if kind == "exponential":
            return MeasureSpec.two_sided_exponential()
        if kind == "power":
            return MeasureSpec.power_law(_field(desc, "p", float))
        if kind == "gaussian_bump":
            bump = _field(desc, "bump", lambda b: b if isinstance(b, BumpFunction)
                          else _bump_from_dict(b))
            return MeasureSpec.gaussian_bump(_field(desc, "eps", float, 0.0), bump)
        raise DomainError(f"unknown measure descriptor kind {kind!r}")
