"""Designer for bump perturbations of the Gaussian measure.

Perturbs the standard Gaussian potential to x^2/2 + eps * bump(x) and
tracks three eigenvalue curves: the spectral gap lambda(eps), the
zero-mean weighted Poincare constant k(eps) of the reduced bisector
problem, and the shifted supremum a(eps).  First-order slopes at eps = 0
are explicit Gaussian integrals against fixed polynomial kernels, taken
by one composite Gauss rule whose panels end at the bump's breakpoints; a
bump whose slopes satisfy k_dot > 0 and lambda_dot > a_dot pushes the
two-equal-component half-space strictly inside the stability region for
small eps, which finite differences of the eigenvalue curves confirm; the
curves use ``halfspace.boundary_density``, as the stability verdicts do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, InfeasibleBasis, NonEvenBump
from .halfspace import boundary_density
from .measures import BumpFunction, MeasureSpec
from .numerics import _WH, _XH, Grid, _composite_nodes
from .spectral import assemble, check_P1, solve_smallest, spectral_gap

# Gauss panels per interval between bump breakpoints: the atoms are not
# analytic at their ends, and 16 panels leave 1e-14 relative errors there
_SLOPE_PANELS = 32
_CURVE_NODES = 4001         # the eigenvalue curves' grid on the bisector
_CURVE_HALF_WIDTH = 16.0
_FEASIBILITY_SLACK = 1e-3
# (k_dot, lambda_dot - a_dot) targets; deliberately small because the
# eigenvalue curves bend concavely in eps and large slopes come with large
# coefficients whose second-order effect erases the margin near eps = 0.01.
# These values maximize the worst of the two realized stability margins at
# eps = 0.01 over the default basis.
_SLOPE_TARGETS = (0.422, 0.292)


@dataclass(frozen=True)
class PerturbationReport:
    slopes: tuple[float, float, float]          # (lambda_dot, k_dot, a_dot)
    fd_slopes: tuple[float, float, float] | None = None
    epsilons: tuple[float, ...] = ()
    feasible: bool = False
    baselines: tuple[float, float, float] | None = None
    bump: BumpFunction | None = field(default=None, compare=False)

    def to_json(self) -> str:
        d = {
            "slopes": {"lambda_dot": self.slopes[0], "k_dot": self.slopes[1],
                       "a_dot": self.slopes[2]},
            "feasible": self.feasible,
            "epsilons": list(self.epsilons),
        }
        if self.fd_slopes is not None:
            d["fd_slopes"] = {"lambda_dot": self.fd_slopes[0],
                              "k_dot": self.fd_slopes[1],
                              "a_dot": self.fd_slopes[2]}
        if self.baselines is not None:
            d["baselines"] = {"lambda": self.baselines[0],
                              "k": self.baselines[1], "a": self.baselines[2]}
        if self.bump is not None:
            d["bump"] = json.loads(self.bump.to_json())
        return json.dumps(d)


def _require_even(bump: BumpFunction) -> None:
    r = bump.support_radius
    if r == 0.0:
        return
    x = np.linspace(0.05 * r, 0.95 * r, 64)
    if np.max(np.abs(bump(x) - bump(-x))) > 1e-12:
        raise NonEvenBump("perturbation bump must be even")


def perturbation_slopes(bump: BumpFunction) -> tuple[float, float, float]:
    """First-order slopes (lambda_dot, k_dot, a_dot) at eps = 0.

    Gaussian integrals of the bump against the kernels (x^2 - 1) e^{-x^2/2}
    (normalized by 1/sqrt(2 pi)) and (-4x^4 + 12x^2 - 3), (2x^2 - 1)
    against e^{-x^2} (normalized by 2/sqrt(pi)), by one composite Gauss
    rule with ``_SLOPE_PANELS`` panels between consecutive breakpoints.
    """
    _require_even(bump)
    if bump.support_radius == 0.0:
        return (0.0, 0.0, 0.0)
    _, x, r = _composite_nodes(bump.breakpoints, _SLOPE_PANELS, _XH)
    x = x.ravel()
    weighted = bump(x) * (r[:, None] * _WH).ravel()
    x2 = x * x
    e2 = np.exp(-x2)
    lam_dot = weighted @ ((x2 - 1.0) * np.exp(-x2 / 2.0)) \
        / math.sqrt(2.0 * math.pi)
    k_dot = weighted @ ((-4.0 * x2 * x2 + 12.0 * x2 - 3.0) * e2) \
        * 2.0 / math.sqrt(math.pi)
    a_dot = weighted @ ((2.0 * x2 - 1.0) * e2) * 2.0 / math.sqrt(math.pi)
    return (float(lam_dot), float(k_dot), float(a_dot))


def default_basis() -> list[BumpFunction]:
    """Two atoms with a well-conditioned slope matrix.

    The atom near 1 sits in the band where the k_dot kernel is positive and
    carries most of that slope; the centered atom repairs the
    lambda_dot - a_dot deficit the first one creates.
    """
    return [BumpFunction((1.0,), (1.0,), (1.0,)),
            BumpFunction((1.0,), (0.0,), (1.5,))]


def design_bump() -> tuple[BumpFunction, PerturbationReport]:
    """Find a bump with k_dot and lambda_dot - a_dot both at least
    ``_FEASIBILITY_SLACK``, from ``default_basis()``.

    Both requirements are linear functionals of the bump, so the least-norm
    coefficients hitting ``_SLOPE_TARGETS`` = (k_dot, lambda_dot - a_dot)
    come from a direct two-functional linear solve.  Raises InfeasibleBasis
    when the combined bump misses either margin.
    """
    basis = default_basis()
    cols = []
    for atom in basis:
        ld, kd, ad = perturbation_slopes(atom)
        cols.append((kd, ld - ad))
    mat = np.array(cols).T                       # 2 x k functional matrix
    coeffs = np.linalg.pinv(mat) @ np.asarray(_SLOPE_TARGETS, dtype=float)
    combined = _combine(basis, coeffs)
    slopes = perturbation_slopes(combined)
    feasible = slopes[1] >= _FEASIBILITY_SLACK and \
        slopes[0] - slopes[2] >= _FEASIBILITY_SLACK
    if not feasible:
        raise InfeasibleBasis("designed coefficients missed the slack margins")
    return combined, PerturbationReport(slopes, feasible=True, bump=combined)


def _combine(basis: list[BumpFunction], coeffs) -> BumpFunction:
    cs: list[float] = []
    centers: list[float] = []
    widths: list[float] = []
    for w, atom in zip(coeffs, basis):
        for b, c, wd in zip(atom.coefficients, atom.centers, atom.widths):
            cs.append(float(w) * b)
            centers.append(c)
            widths.append(wd)
    return BumpFunction(tuple(cs), tuple(centers), tuple(widths))


def eigen_curves(bump: BumpFunction, eps: float) -> tuple[float, float, float]:
    """(lambda(eps), k(eps), a(eps)) by direct eigenvalue computation.

    lambda is the perturbed measure's spectral gap; k and a come from its
    boundary density on the bisector {x1 = x2}.  Raises HypothesisViolated
    where the perturbed potential is not convex.
    """
    measure = MeasureSpec.gaussian_bump(eps, bump) if eps else \
        MeasureSpec.gaussian(1.0)
    lam = spectral_gap(measure)

    grid = Grid.symmetric_grid(_CURVE_HALF_WIDTH, _CURVE_NODES)
    nu, theta = boundary_density(measure, -1, 0.0, grid)
    if np.any(theta <= 0.0):
        raise HypothesisViolated(
            "perturbed potential loses convexity at this eps")
    k_val = check_P1(nu, theta, grid).value

    # a(eps) = - min Rayleigh of (stiffness - Theta-mass) against plain mass
    prob = assemble(nu, nu, grid, shift=-1.0, shift_mass_weight=theta * nu)
    a_val = -solve_smallest(prob).value
    return float(lam), float(k_val), float(a_val)


def finite_diff_validate(bump: BumpFunction,
                         eps_list=(0.01, 0.02)) -> PerturbationReport:
    """Compare analytic slopes with finite differences of the eigen curves.

    Central differences at the two smallest magnitudes in ``eps_list``,
    e1 < e2 (larger ones are neither evaluated nor reported), Richardson
    combined; one magnitude gives the plain central difference.  The
    central difference errs by C e^2 + O(e^4), so with r = e2 / e1 the
    combination (r^2 d1 - d2) / (r^2 - 1) cancels the e^2 term for any
    ratio.  Also checks the unperturbed baselines
    lambda(0) = k(0) = a(0) = 1.
    """
    _require_even(bump)
    slopes = perturbation_slopes(bump)
    mags = sorted({abs(e) for e in eps_list if e != 0.0})[:2]
    if not mags:
        raise HypothesisViolated("need at least one nonzero eps")
    base = np.array(eigen_curves(bump, 0.0))

    diffs = []
    for e in mags:
        hi = np.array(eigen_curves(bump, e))
        lo = np.array(eigen_curves(bump, -e))
        diffs.append((hi - lo) / (2.0 * e))
    if len(diffs) >= 2:
        r2 = (mags[1] / mags[0]) ** 2
        fd = (r2 * diffs[0] - diffs[1]) / (r2 - 1.0)
    else:
        fd = diffs[0]
    feasible = slopes[1] >= _FEASIBILITY_SLACK and \
        slopes[0] - slopes[2] >= _FEASIBILITY_SLACK
    eps_used = tuple(e for m in mags for e in (m, -m))
    return PerturbationReport(slopes, tuple(float(v) for v in fd),
                              eps_used, feasible,
                              tuple(float(v) for v in base), bump)
