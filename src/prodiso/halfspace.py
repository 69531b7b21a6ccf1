"""Stationarity classification and stability verdicts for half-spaces.

A half-space {x : <x, v> < t} of a product measure is stationary exactly
when its weighted mean curvature is constant on the boundary hyperplane;
for products this reduces to pointwise identities between the second
log-derivatives of the factor measures.  Stability is decided through
eigenvalue margins: the spectral-gap criterion for coordinate directions
and the two weighted Poincare conditions for the two-equal-component
directions.
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
_STATIONARY_SAMPLES = 1000   # quasi-uniform points per psi'' identity
_STATIONARY_TOL = 1e-8       # psi'' mismatch still counted as an identity
_CURVATURE_SAMPLES = 200     # boundary points of mean_curvature_residual
_CURVATURE_SEED = 3
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


def _quasi_uniform(lo: float, hi: float, count: int) -> np.ndarray:
    """Golden-ratio low-discrepancy points in (lo, hi), avoiding endpoints."""
    k = np.arange(1, count + 1, dtype=float)
    u = np.mod(k * _GOLDEN, 1.0)
    return lo + (hi - lo) * u


def _psi2(m: MeasureSpec, x: np.ndarray) -> np.ndarray:
    return m.log_density(x)[2]


def classify_stationary(measures: list[MeasureSpec],
                        hs: HalfSpace) -> StationarityVerdict:
    """Decide whether the half-space has constant weighted mean curvature.

    One active component: always stationary (coordinate case).  Two active
    components i, j: stationary iff psi_i''(x) = psi_j''(tau - alpha x) on
    the line; for identical measures with equal magnitudes this specializes
    to periodicity (opposite signs) or symmetry about tau/2 (equal signs)
    of psi''.  Three or more active components: stationary iff every active
    factor is Gaussian with the same variance.  The identities are checked
    at 1000 quasi-uniform points, to 1e-8 (relative to 1 + |psi''| where
    psi'' must be constant).
    """
    if len(measures) != hs.dim:
        raise DimensionMismatch(
            f"{len(measures)} measures for a {hs.dim}-dimensional direction")
    if hs.dim < 2:
        raise DimensionMismatch("need ambient dimension >= 2")
    active = hs.nonzero
    if len(active) == 1:
        i = active[0]
        return StationarityVerdict(COORDINATE, 0.0,
                                   {"axis": i, "t": hs.t / hs.v[i]})

    if len(active) == 2:
        i, j = active
        if abs(hs.v[i]) < abs(hs.v[j]):
            i, j = j, i    # j, the larger component, is the reference
        # boundary: x_j = tau - alpha * x_i with the identity below
        alpha = hs.v[i] / hs.v[j]
        tau = hs.t / hs.v[j]
        mi, mj = measures[i], measures[j]
        bi = mi.truncation_interval(1e-10)[1]
        bj = mj.truncation_interval(1e-10)[1]
        # sample where both arguments stay inside the truncation windows
        ends = sorted(((tau - bj) / alpha, (tau + bj) / alpha))
        lo, hi = max(-bi, ends[0]), min(bi, ends[1])
        if not hi > lo:
            lo, hi = -1.0, 1.0
        s = _quasi_uniform(lo, hi, _STATIONARY_SAMPLES)
        diff = np.abs(_psi2(mi, s) - _psi2(mj, tau - alpha * s))
        resid = float(np.max(diff))
        same = mi == mj
        details = {"alpha": alpha, "tau": tau, "i": i, "j": j}
        if resid <= _STATIONARY_TOL:
            if same and abs(abs(alpha) - 1.0) <= 1e-12:
                if alpha < 0:
                    details["period"] = abs(tau)
                    return StationarityVerdict(PERIODIC_MINUS, resid, details)
                details["symmetry_center"] = tau / 2.0
                return StationarityVerdict(SYMMETRIC_PLUS, resid, details)
            return StationarityVerdict(TWO_COMPONENT_MATCHED, resid, details)
        details["violating_sample"] = float(s[int(np.argmax(diff))])
        return StationarityVerdict(NOT_STATIONARY, resid, details)

    # three or more active components: all-Gaussian with equal variance
    consts = []
    dev_max = 0.0
    for i in active:
        b = measures[i].truncation_interval(1e-10)[1]
        dd = _psi2(measures[i], _quasi_uniform(-b, b, _STATIONARY_SAMPLES))
        mean = float(np.mean(dd))
        dev = float(np.max(dd) - np.min(dd))
        dev_max = max(dev_max, dev)
        if not dev <= _STATIONARY_TOL * (1.0 + abs(mean)):
            return StationarityVerdict(
                NOT_STATIONARY, dev_max,
                {"reason": "non-constant psi''", "axis": i})
        consts.append(mean)
    spread = max(consts) - min(consts)
    if spread > _STATIONARY_TOL * (1.0 + abs(consts[0])):
        return StationarityVerdict(
            NOT_STATIONARY, float(spread),
            {"reason": "unequal Gaussian variances", "values": consts})
    return StationarityVerdict(GAUSSIAN_ALL, float(max(dev_max, spread)),
                               {"psi_second": consts[0]})


def mean_curvature_residual(measures: list[MeasureSpec],
                            hs: HalfSpace) -> float:
    """Spread (max - min) of the weighted mean curvature over boundary points.

    Direct numeric cross-check of ``classify_stationary``: the residual is
    zero (up to sampling noise) exactly for stationary half-spaces.
    """
    if len(measures) != hs.dim:
        raise DimensionMismatch(
            f"{len(measures)} measures for a {hs.dim}-dimensional direction")
    active = hs.nonzero
    if len(active) == 1:
        return 0.0
    j = hs.reference
    rng = np.random.default_rng(_CURVATURE_SEED)
    vals = np.empty(_CURVATURE_SAMPLES)
    free = [i for i in active if i != j]
    for k in range(_CURVATURE_SAMPLES):
        x = np.zeros(hs.dim)
        for i in free:
            b = measures[i].truncation_interval(1e-6)[1]
            x[i] = rng.uniform(-0.8 * b, 0.8 * b)
        x[j] = (hs.t - sum(hs.v[i] * x[i] for i in free)) / hs.v[j]
        h = 0.0
        for i in active:
            h += hs.v[i] * measures[i].log_density(x[i])[1]
        vals[k] = h
    return float(np.max(vals) - np.min(vals))


def coordinate_stability(m: MeasureSpec, t: float,
                         solver_margin: float = DEFAULT_SOLVER_MARGIN,
                         gap_options: GapOptions | None = None) -> StabilityVerdict:
    """Stability of {x_i < t}: holds iff -psi''(t) <= spectral gap."""
    lam = spectral_gap(m, gap_options)
    psi2 = m.log_density(t)[2]
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

    Scans the truncation interval and refines crossings by bisection; a
    scan endpoint inside the region is extended to the corresponding
    infinity (the built-in potentials are monotone past the truncation).
    """
    lam = spectral_gap(m, gap_options)
    b = m.truncation_interval(1e-10)[1]
    ts = np.linspace(-b, b, _REGION_SCAN)
    if m._singular_points():
        ts = ts + 0.5 * (ts[1] - ts[0])     # dodge kinks at grid points
        ts = ts[ts < b]
    slack = 1e-8 * (1.0 + abs(lam))    # solver accuracy at the threshold
    s = -_psi2(m, ts) - lam
    inside = s <= slack
    if not np.any(inside):
        return []

    def refine(a: float, c: float) -> float:
        # a is inside the region, c outside; bisect to the crossing
        for _ in range(80):
            mid = 0.5 * (a + c)
            if (-m.log_density(mid)[2] - lam) <= slack:
                a = mid
            else:
                c = mid
        return 0.5 * (a + c)

    intervals: list[tuple[float, float]] = []
    i = 0
    n = len(ts)
    while i < n:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and inside[j + 1]:
            j += 1
        lo = -math.inf if i == 0 else refine(ts[i], ts[i - 1])
        hi = math.inf if j == n - 1 else refine(ts[j], ts[j + 1])
        intervals.append((lo, hi))
        i = j + 1
    return intervals


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
    log_nu = psi + m._raw_psi(tau - alpha * s)[0]
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
        # unknown flag (e.g. perturbed Gaussians): certify by sampling
        if np.any(m.log_density(np.linspace(0.0, b, 2001))[2] >= 0.0):
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
    invert the product spectrum at t itself (``numerics.Spectrum.inversion``).
    """
    if len(measures) != hs.dim:
        raise DimensionMismatch(
            f"{len(measures)} measures for a {hs.dim}-dimensional direction")
    active = hs.nonzero
    if len(active) == 1:
        i = active[0]
        return float(measures[i].density(hs.t / hs.v[i]) / abs(hs.v[i]))
    spectrum = _convolve([(measures[i], hs.v[i]) for i in active], _PROJECTION_H)
    return max(0.0, spectrum.inversion()(hs.t)[1])
