"""Stationarity classification and stability verdicts for half-spaces.

A half-space {x : <x, v> < t} of a product measure is stationary exactly
when its weighted mean curvature sum_i v_i psi_i'(x_i) is constant on the
boundary hyperplane, the one rule tested here (its psi'' identities hold
for smooth factors only).  Stability is decided through
eigenvalue margins: the spectral-gap criterion for coordinate directions
and the two weighted Poincare conditions for the two-equal-component
directions.  The coordinate stable region is the sign set of the same
margin, cut at the measure's kinks (``MeasureSpec._kinks``), where
psi'' and with it the verdict do not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
)
from .measures import STRICTLY_LOG_CONCAVE, MeasureSpec
from .numerics import Grid, TabulatedDensity, _convolve
from .spectral import (
    DEFAULT_SOLVER_MARGIN,
    STABLE,
    GapOptions,
    _verdict,
    check_P1,
    check_P2,
    spectral_gap,
)
from .spectral import INCONCLUSIVE, UNSTABLE  # noqa: F401 - re-exported

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CURVATURE_SAMPLES = 1000    # boundary points where H is sampled
_CURVATURE_SEED = 3          # their generator, three or more components
_CURVATURE_TOL = 1e-10       # H spread still constant, relative to rounding
_REGION_SCAN = 4001          # levels scanned by coordinate_stable_region
_PROJECTION_H = 0.005        # grid spacing of the projection densities

COORDINATE = "coordinate"
TWO_COMPONENT_MATCHED = "two_component_matched"
GAUSSIAN_ALL = "gaussian_all"
PERIODIC_MINUS = "periodic_minus"
SYMMETRIC_PLUS = "symmetric_plus"
NOT_STATIONARY = "not_stationary"


@dataclass(frozen=True)
class HalfSpace:
    """Unit direction and offset: the set {x : <x, v> < t}.

    The direction is normalized at construction; ``reference`` is the index
    of the largest-magnitude component, with tau = t / v_ref and
    alpha_i = v_i / v_ref the reduced parameters.
    """

    v: tuple[float, ...]
    t: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.v, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("direction must be a nonempty vector")
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not np.isfinite(norm):
            raise DomainError("direction must be a finite nonzero vector")
        object.__setattr__(self, "v", tuple(arr / norm))

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.v) if abs(c) > 1e-12)

    @property
    def reference(self) -> int:
        return int(np.argmax(np.abs(self.v)))

    @property
    def tau(self) -> float:
        return self.t / self.v[self.reference]

    def alpha(self, i: int) -> float:
        return self.v[i] / self.v[self.reference]

    @staticmethod
    def coordinate(axis: int, t: float, dim: int) -> "HalfSpace":
        v = [0.0] * dim
        v[axis] = 1.0
        return HalfSpace(tuple(v), t)

    @staticmethod
    def bisector(sign: int, t: float, dim: int = 2) -> "HalfSpace":
        """Two-equal-component direction (1, +-1, 0, ..)/sqrt(2)."""
        if sign not in (1, -1):
            raise DomainError("bisector sign must be +1 or -1")
        if dim < 2:
            raise DomainError("bisector needs dimension >= 2")
        v = [0.0] * dim
        v[0] = 1.0 / math.sqrt(2.0)
        v[1] = sign / math.sqrt(2.0)
        return HalfSpace(tuple(v), t)


@dataclass(frozen=True)
class StationarityVerdict:
    tag: str
    residual: float
    details: dict = field(default_factory=dict, compare=False)

    @property
    def stationary(self) -> bool:
        return self.tag != NOT_STATIONARY

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "residual": self.residual,
                "details": {k: v for k, v in self.details.items()}}


@dataclass(frozen=True)
class StabilityVerdict:
    tag: str
    certificates: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "certificates": dict(self.certificates)}


def _require_dim(measures: list[MeasureSpec], hs: HalfSpace) -> None:
    if len(measures) != hs.dim:
        raise DimensionMismatch(
            f"{len(measures)} measures for a {hs.dim}-dimensional direction")


def _psi_derivatives(m: MeasureSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(psi', psi''): the unnormalized psi has the same derivatives, so the
    measure's mass is never computed."""
    x = np.asarray(x, dtype=float)
    m._require_differentiable(x)
    return m._raw_psi(x)[1:]


def _boundary_curvature(measures: list[MeasureSpec], hs: HalfSpace
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Boundary points (rows), H = sum_i v_i psi_i'(x_i) there, and the
    tolerance on H's spread: ``_CURVATURE_TOL`` times the rounding scale
    1 + max sum_i |v_i psi_i'|.  Free components span their 1e-10
    truncation windows, quasi-uniformly for one and by a seeded draw for
    several; the reference coordinate solves <x, v> = t.
    """
    active, j = hs.nonzero, hs.reference
    free = [i for i in active if i != j]
    if len(free) == 1:
        u = [np.mod(np.arange(1, _CURVATURE_SAMPLES + 1) * _GOLDEN, 1.0)]
    else:
        u = np.random.default_rng(_CURVATURE_SEED).random(
            (len(free), _CURVATURE_SAMPLES))
    x = np.zeros((_CURVATURE_SAMPLES, hs.dim))
    for i, ui in zip(free, u):
        x[:, i] = measures[i].truncation_interval(1e-10)[1] * (2.0 * ui - 1.0)
    x[:, j] = (hs.t - x @ np.asarray(hs.v)) / hs.v[j]
    terms = np.array([hs.v[i] * _psi_derivatives(measures[i], x[:, i])[0]
                      for i in active])
    tol = _CURVATURE_TOL * (1.0 + float(np.max(np.sum(np.abs(terms), 0))))
    return x, terms.sum(axis=0), tol


def classify_stationary(measures: list[MeasureSpec],
                        hs: HalfSpace) -> StationarityVerdict:
    """Stationary iff the weighted mean curvature is constant on the boundary.

    ``residual`` is the spread of H = sum_i v_i psi_i'(x_i) over the points
    of ``_boundary_curvature``; above its tolerance the half-space is
    ``not_stationary``, which also catches kinks, where psi'' has a point
    mass.  Otherwise: one active component is the coordinate case; two, i
    free and j = ``HalfSpace.reference``, are matched (for smooth factors
    psi_i''(x) = psi_j''(tau - alpha x)), and for one measure with
    |alpha| = 1 periodic (alpha = -1) or symmetric about tau/2 (alpha = 1);
    three or more are Gaussians of one variance.
    """
    _require_dim(measures, hs)
    if hs.dim < 2:
        raise DimensionMismatch("need ambient dimension >= 2")
    active = hs.nonzero
    if len(active) == 1:
        return StationarityVerdict(COORDINATE, 0.0,
                                   {"axis": active[0], "t": hs.tau})
    x, h, tol = _boundary_curvature(measures, hs)
    resid = float(np.max(h) - np.min(h))
    if len(active) > 2:
        if resid > tol:
            return StationarityVerdict(NOT_STATIONARY, resid)
        return StationarityVerdict(GAUSSIAN_ALL, resid,
                                   {"mean_curvature": float(np.mean(h))})
    j = hs.reference
    i = active[0] if active[1] == j else active[1]
    alpha, tau = hs.alpha(i), hs.tau
    details = {"alpha": alpha, "tau": tau, "i": i, "j": j}
    if resid > tol:
        k = int(np.argmax(np.abs(h - np.mean(h))))
        details["violating_sample"] = float(x[k, i])
        return StationarityVerdict(NOT_STATIONARY, resid, details)
    if measures[i] != measures[j] or abs(abs(alpha) - 1.0) > 1e-12:
        return StationarityVerdict(TWO_COMPONENT_MATCHED, resid, details)
    if alpha < 0:
        details["period"] = abs(tau)
        return StationarityVerdict(PERIODIC_MINUS, resid, details)
    details["symmetry_center"] = tau / 2.0
    return StationarityVerdict(SYMMETRIC_PLUS, resid, details)


def mean_curvature_residual(measures: list[MeasureSpec],
                            hs: HalfSpace) -> float:
    """Spread of the weighted mean curvature over boundary points: the
    ``residual`` of ``classify_stationary``, zero up to rounding exactly
    for stationary half-spaces."""
    _require_dim(measures, hs)
    if len(hs.nonzero) == 1:
        return 0.0
    _, h, _ = _boundary_curvature(measures, hs)
    return float(np.max(h) - np.min(h))


def coordinate_stability(m: MeasureSpec, t: float,
                         solver_margin: float = DEFAULT_SOLVER_MARGIN,
                         gap_options: GapOptions | None = None) -> StabilityVerdict:
    """Stability of {x_i < t}: holds iff -psi''(t) <= spectral gap."""
    lam = spectral_gap(m, gap_options)
    psi2 = float(_psi_derivatives(m, t)[1])
    certs = {"lambda": lam, "psi_second_at_t": psi2, "margin": lam + psi2}
    tag = _verdict((lam + psi2,), solver_margin, threshold=0.0)
    if m.kind == "gaussian":
        # exact threshold case: every half-space of a Gaussian is stable
        certs["note"] = "stable at threshold (Gaussian)"
        tag = STABLE
    return StabilityVerdict(tag, certs)


def coordinate_stable_region(m: MeasureSpec,
                             gap_options: GapOptions | None = None
                             ) -> list[tuple[float, float]]:
    """Sublevel region {t : -psi''(t) <= spectral gap} as intervals.

    The sign set of ``coordinate_stability``'s margin lambda + psi''(t), up
    to the solver's slack, sampled at the midpoints of a scan of the 1e-10
    truncation interval; all crossings are refined together by one
    bisection.  A scan end inside the region extends to that infinity (the
    built-in potentials are monotone past the truncation), and intervals
    are cut at the measure's kinks, where psi'' does not exist.
    """
    lam = spectral_gap(m, gap_options)
    slack = 1e-8 * (1.0 + abs(lam))    # solver accuracy at the threshold

    def inside(t: np.ndarray) -> np.ndarray:
        return lam + _psi_derivatives(m, t)[1] >= -slack

    nodes = np.linspace(*m.truncation_interval(1e-10), _REGION_SCAN)
    ts = 0.5 * (nodes[:-1] + nodes[1:])
    scan = inside(ts)
    i = np.flatnonzero(scan[:-1] != scan[1:])
    a, c = ts[i], ts[i + 1]    # a stays on ts[i]'s side of each crossing
    for _ in range(80):
        mid = 0.5 * (a + c)
        same = inside(mid) == scan[i]
        a, c = np.where(same, mid, a), np.where(same, c, mid)
    ends = np.concatenate([[-math.inf] if scan[0] else [], 0.5 * (a + c),
                           [math.inf] if scan[-1] else []])
    cut = [k for k in m._kinks() if np.searchsorted(ends, k) % 2]    # in an interval
    ends = np.sort(np.concatenate([ends, cut, cut])).tolist()
    return list(zip(ends[::2], ends[1::2]))


def boundary_density(m: MeasureSpec, alpha: float, tau: float,
                     grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Weights for the reduced 1-D problems of a two-component half-space.

    Returns (nu, theta) on the grid: nu(y) proportional to
    f(y/sqrt2) f(tau - alpha y/sqrt2), and theta(y) = -psi''(y/sqrt2).  The
    conditions on nu are Rayleigh quotients, unchanged by a constant
    factor, so nu is formed in log space from the unnormalized psi and
    scaled to peak at 1: it cannot underflow however far tau lies from the
    centre.  Raises NonDifferentiablePoint where theta does not exist.
    """
    y = grid.nodes()
    s = y / math.sqrt(2.0)
    m._require_differentiable(s)
    psi, _, ddpsi = m._raw_psi(s)
    # on the bisector (alpha = -1, tau = 0) the second factor is f(s) itself
    log_nu = psi + (psi if alpha == -1 and tau == 0.0
                    else m._raw_log(tau - alpha * s))
    nu = np.exp(log_nu - np.max(log_nu))
    return nu, -ddpsi


def noncoordinate_stability(m: MeasureSpec, alpha: int, tau: float,
                            dim: int,
                            solver_margin: float = DEFAULT_SOLVER_MARGIN,
                            gap_options: GapOptions | None = None,
                            n: int = 4001) -> StabilityVerdict:
    """Stability of a two-equal-component half-space of the product m^dim.

    The problem reduces to the two 1-D weighted Poincare conditions on the
    boundary density: dimension 2 needs only the zero-mean condition, and
    dimension >= 3 additionally the shifted unconstrained one; verdicts do
    not depend on the dimension beyond that split.  The certificates hold
    lambda_tau and, for each condition checked, its value with the lower
    end of its certified bracket and its residual.
    """
    if alpha not in (1, -1):
        raise DomainError("alpha must be +1 or -1")
    if dim < 2:
        raise DomainError("ambient dimension must be at least 2")
    if not m.symmetric:
        raise HypothesisViolated("measure must be even")
    b = m.truncation_interval(1e-12)[1]
    if m.log_concavity != STRICTLY_LOG_CONCAVE:
        # unknown flag (e.g. perturbed Gaussians): certify by sampling, off
        # the kinks, where psi'' does not exist
        s = np.linspace(0.0, b, 2001)
        psi2 = _psi_derivatives(m, s[~np.isin(s, m._kinks())])[1]
        if np.any(psi2 >= 0.0):
            raise HypothesisViolated("measure must be strictly log-concave")

    lam = spectral_gap(m, gap_options)
    half_width = math.sqrt(2.0) * (b + abs(tau))
    grid = Grid.symmetric_grid(half_width, n)
    nu, theta = boundary_density(m, alpha, tau, grid)

    p1 = check_P1(nu, theta, grid)
    certs = {"lambda_tau": lam, "p1_eigenvalue": p1.value,
             "p1_lower_bound": p1.lower_bound, "p1_residual": p1.residual}
    checks = [p1.value]
    if dim >= 3:
        p2 = check_P2(nu, theta, lam, grid)
        certs.update(p2_infimum=p2.value, p2_lower_bound=p2.lower_bound,
                     p2_residual=p2.residual)
        checks.append(p2.value)
    return StabilityVerdict(_verdict(checks, solver_margin), certs)


def projection_density(measures: list[MeasureSpec],
                       hs: HalfSpace) -> TabulatedDensity:
    """Density of sum_i v_i X_i on a grid of spacing ``_PROJECTION_H`` that
    has the offset t among its nodes.

    One inverse real FFT of the spectrum from ``numerics._convolve``,
    times exp(-i w c), gives the density at the nodes of one period,
    centred on the point c of t + hZ nearest the mean (so the grid is
    symmetric at t = 0 for even factors).  A factor with a closed-form phi
    keeps its law at any width; a sampled factor narrower than h is still
    one point mass at 0 and loses its variance.
    """
    h = _PROJECTION_H
    w, _, phi, mean, half = _convolve(
        [(measures[i], hs.v[i]) for i in hs.nonzero], h)
    size, centre = round(2.0 * half / h), hs.t + h * round((mean - hs.t) / h)
    spec = np.concatenate(([1.0], np.conj(phi * np.exp(-1j * w * centre))))
    j = (size - 1) // 2
    vals = np.roll(np.fft.irfft(spec, size) / h, j)[:2 * j + 1]
    return TabulatedDensity(Grid(centre - j * h, centre + j * h, 2 * j + 1),
                            np.clip(vals, 0.0, None))


def boundary_measure(measures: list[MeasureSpec], hs: HalfSpace) -> float:
    """Weighted perimeter of the half-space boundary.

    Equals the density of the projection sum_i v_i X_i at the offset t:
    coordinate directions use the factor density directly, the others
    invert the product spectrum at t itself (``numerics.Spectrum.inversion``),
    over a period widened to hold t where t lies beyond the sum's reach.
    """
    _require_dim(measures, hs)
    active = hs.nonzero
    if len(active) == 1:
        i = active[0]
        return float(measures[i].density(hs.t / hs.v[i]) / abs(hs.v[i]))
    spectrum = _convolve([(measures[i], hs.v[i]) for i in active],
                         _PROJECTION_H, point=hs.t)
    return max(0.0, spectrum.inversion()(hs.t)[1])
