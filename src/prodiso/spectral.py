"""Sturm-Liouville discretization and eigensolving.

Discretizes weighted Rayleigh quotients  inf  (int w u'^2) / (int m u^2)
by a finite-volume scheme with Neumann boundary.  One certified solver
handles every resulting 1-D pencil, shifted or restricted to a single
linear constraint (zero weighted mean): shift-invert iteration with
tridiagonal LAPACK solves, the constraint eliminated by the Schur
complement, and an LDL^T inertia count that certifies the eigenvalue as
the smallest admissible one.  The spectral gap, whose mass equals its
stiffness weight, keeps LAPACK bisection on the mass-scaled matrix.

Also hosts the weighted-tensorization condition checks, a Brascamp-Lieb
residual evaluator, and a dense 2-D product-grid oracle that cross-checks
the 1-D conditions against the genuinely two-dimensional eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dstebz
from scipy.sparse.linalg import splu

from .errors import (
    DomainError,
    NoConvergence,
    NonConvexPotential,
    OutOfBudget,
    SignedWeight,
    SingularShift,
)
from .numerics import Grid, integrate

DEFAULT_SOLVER_MARGIN = 0.01
_THETA_ZERO_MASS = 1e-14


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenProblem:
    """Discrete pencil (A, M) with optional linear constraints.

    ``diag``/``off`` hold the symmetric tridiagonal stiffness A scaled so
    that u^T A u approximates  int w u'^2  (Neumann: outside fluxes dropped,
    hence A @ 1 = 0 exactly).  ``mass_diag`` holds node masses m_i * trapz_i
    so u^T M u approximates  int m u^2.  Each row of ``constraints`` is a
    vector c with admissible u satisfying c @ u = 0.
    """

    grid: Grid
    diag: np.ndarray
    off: np.ndarray
    mass_diag: np.ndarray
    constraints: tuple[np.ndarray, ...] = ()

    @property
    def n(self) -> int:
        return self.grid.n

    def apply_stiffness(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out


@dataclass(frozen=True)
class EigenResult:
    """Smallest admissible eigenvalue of a pencil, with its certificate:
    an inertia count found no admissible eigenvalue below ``lower_bound``,
    so it lies in [lower_bound, eigenvalues[0]], whose upper end is the
    Rayleigh quotient of ``eigenvector``.  ``solves`` counts the solves."""

    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    eigenvector: np.ndarray | None = None
    grid: Grid | None = None
    lower_bound: float = -math.inf
    solves: int = 0


def assemble(stiffness_weight, mass_weight, grid: Grid,
             constraint_weight=None, shift: float = 0.0,
             shift_mass_weight=None) -> EigenProblem:
    """Finite-volume discretization of the weighted Rayleigh quotient.

    Half-node stiffness weights are geometric means of the node weights
    (exact for exponential-form weights, keeps positivity).  ``shift`` adds
    shift * (int shift_mass u^2) to the stiffness quadratic form.
    """
    w = np.asarray(stiffness_weight, dtype=float)
    m = np.asarray(mass_weight, dtype=float)
    if w.shape != (grid.n,) or m.shape != (grid.n,):
        raise DomainError("weight vectors must match the grid")
    if np.any(w < 0) or np.any(m < 0):
        raise DomainError("stiffness and mass weights must be nonnegative")
    h = grid.h
    # geometric-mean half-node weights; factored square roots so the
    # product cannot underflow for representable node weights
    wh = np.sqrt(w[:-1]) * np.sqrt(w[1:])
    off = -wh / h
    diag = np.zeros(grid.n)
    diag[:-1] += wh / h
    diag[1:] += wh / h
    trap = grid.trapezoid_weights()
    mass = m * trap
    constraints: tuple[np.ndarray, ...] = ()
    if constraint_weight is not None:
        c = np.asarray(constraint_weight, dtype=float) * trap
        constraints = (c,)
    if shift:
        sm = m if shift_mass_weight is None else np.asarray(shift_mass_weight,
                                                            dtype=float)
        diag = diag + shift * sm * trap
    return EigenProblem(grid=grid, diag=diag, off=off, mass_diag=mass,
                        constraints=constraints)


# ---------------------------------------------------------------------------
# certified shift-invert solver
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_CONVERGED = 1e-13    # Rayleigh-quotient step ending the iteration, relative
_CERTIFIED = 1e-9     # certificate shift below the eigenvalue, relative
_ROUNDING = 64.0      # eps * |y|^T |A| |y| multiples treated as rounding noise
_GUARD = 10.0         # a new shift sits this many last steps below rho
_RESHIFT = 0.5        # ... and must halve the distance from shift to rho
_FAST = 1e-2          # step ratio below which the shift is left alone
_START_GAP = 1e-10    # first shift below the diagonal bound, relative
_MAX_SOLVES = 200


def _negative_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Nonpositive eigenvalues of a symmetric tridiagonal matrix: dstebz's
    Sturm count of negative LDL^T pivots (Barth, Martin and Wilkinson 1967)
    between a Gershgorin bound and 0, stopped there by its tolerance."""
    low = float(np.min(diag)) - 2.0 * float(np.max(np.abs(off))) - 1.0
    return int(dstebz(diag, off, 1, low, 0.0, 0, 0, -low, b"B")[0])


def _start_shift(problem: EigenProblem) -> float:
    """A shift strictly below the pencil's spectrum.

    A = L + diag(s) with L = sum |a_{i,i+1}| (e_i -+ e_{i+1})(...)^T
    positive semidefinite, so u^T A u >= sum s_i u_i^2 >= beta u^T M u for
    beta = min s_i / m_i, provided s_i >= 0 wherever m_i = 0.
    """
    a, off, m = problem.diag, np.abs(problem.off), problem.mass_diag
    pos = m > 0
    if not np.any(pos):
        raise DomainError("mass is identically zero")
    s = a.copy()
    s[:-1] -= off
    s[1:] -= off
    # a pure Laplacian row sums to rounding noise, not to a negative shift
    s[np.abs(s) <= 16.0 * _EPS * np.abs(a)] = 0.0
    if np.any(s[~pos] < 0):
        raise DomainError("stiffness is negative where the mass vanishes")
    beta = float(np.min(s[pos] / m[pos]))
    return beta - _START_GAP * (abs(beta) + float(np.median(a[pos] / m[pos])))


def _shift_invert(problem: EigenProblem, y: np.ndarray) -> EigenResult:
    """Smallest admissible eigenvalue of (A, M) by shift-invert iteration.

    Every shift in use has passed an inertia count showing no admissible
    eigenvalue below it, so the iteration converges to the smallest one;
    a Rayleigh-quotient shift that would overshoot fails the count, which
    then halves the bracket.  One constraint c^T u = 0 is handled by the
    Schur complement (Golub 1973): with S = A - sigma M, the admissible
    count below sigma is neg(S) + [c^T S^{-1} c > 0] - 1.  The result is
    returned once the shift sits within a small relative margin below the
    Rayleigh quotient, which brackets the eigenvalue.
    """
    a, off, m = problem.diag, problem.off, problem.mass_diag
    if len(problem.constraints) > 1:
        raise DomainError("at most one linear constraint is supported")
    c = problem.constraints[0] if problem.constraints else None
    # symmetric equilibration: D (A - sigma M) D has entries of order one
    # however graded the weights are, so pivoting keeps the tail pivots
    abs_a, abs_off = np.abs(a), np.abs(off)
    big = np.maximum(abs_a, np.maximum(np.r_[abs_off, 0], np.r_[0, abs_off]))
    if not np.all(big > 0):
        raise DomainError("stiffness matrix has a zero row")
    dsc = 1.0 / np.sqrt(big)
    sa, so, sm = a * dsc * dsc, off * dsc[:-1] * dsc[1:], m * dsc * dsc

    def factor(sigma: float):
        """Factors of A - sigma M, or None when an admissible eigenvalue
        lies at or below sigma."""
        diag = sa - sigma * sm
        *lu, info = dgttrf(so, diag, so)
        if info != 0:
            return None
        positive = dpttrf(diag, so)[2] == 0
        if c is None:
            return (lu, None, 0.0) if positive else None
        wc = dsc * dgttrs(*lu, dsc * c)[0]
        f = float(c @ wc)
        neg = 0 if positive else _negative_pivots(diag, so)
        return (lu, wc, f) if neg + (f > 0.0) - 1 == 0 else None

    lo = _start_shift(problem)
    state = factor(lo)
    if state is None:
        raise NoConvergence("the start shift failed the inertia count")
    hi = rho_prev = step = math.inf
    if c is not None:   # so that M y has a part the constraint keeps
        y = y - c * ((c @ y) / (c @ c))
    for solves in range(1, _MAX_SOLVES + 1):
        lu, wc, f = state
        z = dsc * dgttrs(*lu, dsc * (m * y))[0]
        if wc is not None:
            z -= wc * ((c @ z) / f)
        nz = math.sqrt(float(z @ (m * z)))
        if not math.isfinite(nz) or nz == 0.0:
            raise NoConvergence("shift-invert produced a null vector")
        y = z / nz
        ay = problem.apply_stiffness(y)
        rho = float(y @ ay)
        ya = np.abs(y)
        noise = _ROUNDING * _EPS * float(
            ya @ (abs_a * ya) + 2.0 * ya[:-1] @ (abs_off * ya[1:]))
        margin = max(_CERTIFIED * abs(rho), noise)
        step, prev_step = abs(rho_prev - rho), step
        rho_prev = rho
        if step <= max(_CONVERGED * abs(rho), noise):
            if lo >= rho - margin:
                break
            cand = rho - 0.5 * margin
        elif _GUARD * step <= _RESHIFT * (rho - lo) \
                and step > _FAST * prev_step:
            cand = rho - max(_GUARD * step, margin)
        else:
            continue
        if cand >= hi:
            cand = 0.5 * (lo + hi)
        if cand > lo:
            new = factor(cand)
            if new is None:
                hi = cand
            else:
                lo, state = cand, new
    else:
        raise NoConvergence("shift-invert iteration did not converge")

    r = ay - rho * (m * y)
    if c is not None:
        r -= c * ((c @ r) / (c @ c))
    residual = float(np.linalg.norm(r) / np.linalg.norm(m * y))
    return EigenResult(np.array([rho]), np.array([residual]),
                       y / np.max(np.abs(y)), problem.grid, lo, solves)


def solve_smallest(problem: EigenProblem) -> EigenResult:
    """Smallest eigenvalue of the assembled pencil on its constraint space.

    Certified: the result carries its residual and a shift below which an
    LDL^T inertia count found no admissible eigenvalue; a failed count
    raises NoConvergence instead of returning a higher mode.
    """
    # start near the usual minimizers: the constant without a constraint (the
    # ground state is positive), else the coordinate; the count guards the rest
    y = problem.grid.nodes() if problem.constraints else np.ones(problem.n)
    return _shift_invert(problem, y)


def _pencil_smallest_core(a_mat: sp.spmatrix, mass: np.ndarray,
                          constraint: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the sparse PSD pencil (A, M) on c^T u = 0.

    Inverse power iteration on (A - sigma M)^{-1} M with shifts kept strictly
    below the current Rayleigh estimate, so the iteration cannot jump past
    the smallest admissible eigenvalue.  The constraint is enforced exactly
    by a bordered (saddle-point) factorization; the border also regularizes
    the Neumann null space when the constant vector is inadmissible.
    """
    n = a_mat.shape[0]
    c_mat = constraint[None, :]

    def factor(sigma: float):
        s_mat = (a_mat - sigma * sp.diags(mass)) if sigma else a_mat
        return splu(sp.bmat([[s_mat, sp.csc_matrix(c_mat.T)],
                             [sp.csc_matrix(c_mat), None]], format="csc"))

    pos = mass > 0
    if not np.any(pos):
        raise DomainError("mass is identically zero")
    scale = float(np.median(a_mat.diagonal()[pos] / mass[pos]) + 1.0)

    tol, max_iter = 1e-9, 10000
    y = np.random.default_rng(11).standard_normal(n)
    coef, *_ = np.linalg.lstsq(c_mat.T, y, rcond=None)
    y = y - c_mat.T @ coef
    ny = np.sqrt(y @ (mass * y))
    y = y / (ny if ny > 0 else np.linalg.norm(y))

    sigma = 0.0
    retries = 0
    try:
        lu = factor(sigma)
    except RuntimeError:
        sigma = -1e-10 * scale
        lu = factor(sigma)

    rho_prev = math.inf
    rho = math.inf
    best_err = math.inf
    best: tuple[float, np.ndarray] | None = None
    for it in range(max_iter):
        z = lu.solve(np.concatenate([mass * y, np.zeros(1)]))[:n]
        nz = np.sqrt(z @ (mass * z))
        if not np.isfinite(nz) or nz == 0.0:
            retries += 1
            if retries > 5:
                raise SingularShift("inverse iteration produced a null vector")
            sigma -= 1e-8 * scale * retries
            lu = factor(sigma)
            continue
        z = z / nz
        az = a_mat @ z
        rho_prev, rho = rho, float(z @ az)
        r = az - rho * mass * z
        coef, *_ = np.linalg.lstsq(c_mat.T, r, rcond=None)
        r = r - c_mat.T @ coef
        err = np.linalg.norm(r) / max(np.linalg.norm(az), 1e-300)
        delta = abs(rho - rho_prev)
        y = z
        if err < best_err:
            best_err, best = err, (rho, y)
        if err < tol and delta <= 1e-9 * (1.0 + abs(rho)):
            return rho, y
        # rounding noise amplified through the tails can impose an error
        # floor; accept the best iterate once it meets the residual contract
        if it >= 400 and best_err < 1e-8:
            return best
        # occasional shift update, kept safely below the target eigenvalue
        if it >= 10 and it % 15 == 0 and np.isfinite(rho_prev):
            guard = max(100.0 * delta, 1e-9 * (1.0 + abs(rho)))
            new_sigma = rho - guard
            if new_sigma > sigma + 1e-12 * (1.0 + abs(sigma)):
                try:
                    lu = factor(new_sigma)
                    sigma = new_sigma
                except RuntimeError:
                    retries += 1
                    if retries > 5:
                        raise SingularShift(
                            "shifted solve repeatedly singular")
    raise NoConvergence("inverse iteration did not converge")


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapOptions:
    tail_mass: float = 1e-12
    n: int = 4001
    b: float | None = None
    extrapolate: bool = True


def _gap_single(m, b: float, n: int) -> float:
    grid = Grid.symmetric_grid(b, n)
    w = m.density(grid.nodes())
    # drop tails where the density underflows outright; the tridiagonal
    # bisection solver tolerates any representable dynamic range
    grid, w = _crop_support(w, grid, floor=1e-290)
    prob = assemble(w, w, grid)
    # with mass = stiffness weight the mean constraint only removes the
    # constant null mode: the gap is the second eigenvalue of the
    # mass-scaled matrix, whose entries stay of order 1/h^2
    s = 1.0 / np.sqrt(prob.mass_diag)
    return float(eigh_tridiagonal(prob.diag * s * s, prob.off * s[:-1] * s[1:],
                                  select="i", select_range=(1, 1),
                                  eigvals_only=True)[0])


def spectral_gap(m, opts: GapOptions = GapOptions()) -> float:
    """Best Poincare constant of the measure.

    Solved on the truncated line; Richardson-extrapolated in the mesh size
    and in the truncation length.  The latter matters for measures whose
    continuous spectrum starts at the gap (exponential-type tails), where
    the truncated eigenvalue converges only like 1/b^2.
    """
    b = opts.b if opts.b is not None else m.truncation_interval(opts.tail_mass)[1]
    n = opts.n
    if not opts.extrapolate:
        return _gap_single(m, b, n)
    lam_h = _gap_single(m, b, n)
    lam_h2 = _gap_single(m, b, 2 * n - 1)
    lam_b = lam_h2 + (lam_h2 - lam_h) / 3.0
    lam2_h = _gap_single(m, 2 * b, 2 * n - 1)
    lam2_h2 = _gap_single(m, 2 * b, 4 * n - 3)
    lam_2b = lam2_h2 + (lam2_h2 - lam2_h) / 3.0
    # model gap(b) = L + A/b^2
    return (4.0 * lam_2b - lam_b) / 3.0


# ---------------------------------------------------------------------------
# weighted tensorization conditions
# ---------------------------------------------------------------------------

def _crop_support(nu: np.ndarray, grid: Grid, *arrays,
                  floor: float = 1e-16):
    """Restrict to the window where nu is numerically meaningful.

    Outside it 1/nu overwhelms double precision and the discrete pencil
    acquires spurious ill-conditioned tail modes; cropping there perturbs
    the low eigenvalues only at the level of the discarded mass.
    """
    mx = float(np.max(nu))
    if mx <= 0.0:
        raise DomainError("weight nu vanishes identically")
    keep = np.nonzero(nu >= floor * mx)[0]
    lo, hi = int(keep[0]), int(keep[-1])
    if (hi - lo + 1) % 2 == 0:    # grid node counts must stay odd
        if hi < grid.n - 1:
            hi += 1
        else:
            lo -= 1
    if lo == 0 and hi == grid.n - 1:
        return (grid, nu) + arrays
    x = grid.nodes()
    sub = Grid(x[lo], x[hi], hi - lo + 1)
    return (sub, nu[lo:hi + 1]) + tuple(a[lo:hi + 1] for a in arrays)


def _check_theta(theta: np.ndarray) -> None:
    mx = float(np.max(np.abs(theta))) if theta.size else 0.0
    if mx == 0.0:
        return
    if np.any(theta < -1e-12 * mx):
        raise SignedWeight("weight must be nonnegative on the grid")


def _theta_mass(theta: np.ndarray, nu: np.ndarray, grid: Grid) -> float:
    return float(np.sum(theta * nu * grid.trapezoid_weights()))


@dataclass(frozen=True)
class ConditionCheck:
    value: float          # P1: the eigenvalue; P2: the infimum
    holds: bool
    margin: float         # value - 1


def check_P1(nu, theta, grid: Grid,
             solver_margin: float = DEFAULT_SOLVER_MARGIN) -> ConditionCheck:
    """Zero-mean weighted Poincare condition.

    Computes lambda* = inf { int v'^2 dnu / int v^2 theta dnu :
    int v dnu = 0 }; the condition holds iff lambda* >= 1.
    """
    return _condition(nu, theta, grid, solver_margin, constrained=True)


def check_P2(nu, theta, lambda_tau: float, grid: Grid,
             solver_margin: float = DEFAULT_SOLVER_MARGIN) -> ConditionCheck:
    """Shifted (unconstrained) weighted Poincare condition.

    Computes inf ( lambda_tau int v^2 dnu + int v'^2 dnu ) / int v^2 theta
    dnu over all v; holds iff the infimum is >= 1.
    """
    if lambda_tau < 0:
        raise DomainError("lambda_tau must be nonnegative")
    return _condition(nu, theta, grid, solver_margin, shift=lambda_tau)


def _condition(nu, theta, grid: Grid, solver_margin: float,
               constrained: bool = False,
               shift: float = 0.0) -> ConditionCheck:
    """Smallest eigenvalue of the cropped pencil (nu stiffness, theta nu
    mass), mean-constrained or shifted by ``shift`` nu, against 1."""
    nu = np.asarray(nu, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    if _theta_mass(theta, nu, grid) < _THETA_ZERO_MASS:
        return ConditionCheck(math.inf, True, math.inf)
    grid, nu, theta = _crop_support(nu, grid, theta)
    prob = assemble(nu, theta * nu, grid,
                    constraint_weight=nu if constrained else None,
                    shift=shift, shift_mass_weight=nu)
    val = float(solve_smallest(prob).eigenvalues[0])
    return ConditionCheck(val, val >= 1.0 - solver_margin, val - 1.0)


# ---------------------------------------------------------------------------
# Brascamp-Lieb residual
# ---------------------------------------------------------------------------

def brascamp_lieb_residual(m, u, du=None, rel_tol: float = 1e-10) -> float:
    """Residual  int u'^2 / g'' dmu  -  Var_mu(u)  for dmu = e^{-g} dx.

    Nonnegative for strictly convex g by the weighted Poincare inequality of
    strictly log-concave measures.  ``u`` (and optionally ``du``) are
    vectorized callables; when ``du`` is missing a central difference with
    h = 1e-6 is used.
    """
    a, b = m.truncation_interval(1e-10)
    xs = np.linspace(a * 0.999, b * 0.999, 401)
    _, _, dd = m.log_density(xs)
    if np.any(dd >= 0.0):
        raise NonConvexPotential("potential must be strictly convex")
    if du is None:
        def du(x, _u=u):  # noqa: E731 - simple fallback closure
            h = 1e-6
            return (np.asarray(_u(x + h)) - np.asarray(_u(x - h))) / (2 * h)
    mass = integrate(lambda x: m.density(x), a, b, rel_tol=rel_tol)
    mean = integrate(lambda x: np.asarray(u(x)) * m.density(x), a, b,
                     rel_tol=rel_tol) / mass
    var = integrate(lambda x: (np.asarray(u(x)) - mean) ** 2 * m.density(x),
                    a, b, rel_tol=rel_tol) / mass

    def energy(x):
        _, _, ddl = m.log_density(x)
        return np.asarray(du(x)) ** 2 / (-ddl) * m.density(x)

    en = integrate(energy, a, b, rel_tol=rel_tol) / mass
    return float(en - var)


# ---------------------------------------------------------------------------
# 2-D tensorization oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorOracleResult:
    lambda_2d: float
    agrees: bool
    p1: ConditionCheck
    p2: ConditionCheck
    lambda_tau: float
    inconclusive: bool = False
    witness: np.ndarray | None = field(default=None, compare=False)


def tensor_oracle_2d(nu, tau, theta, grid: Grid, budget: int = 201,
                     threshold: float = 0.02) -> TensorOracleResult:
    """Dense product-grid falsification oracle for the two 1-D conditions.

    Solves  inf int |Du|^2 dtau dnu / int u^2 theta(y) dtau dnu  over
    product-mean-zero u on the (tau x nu) grid and checks that the verdict
    "infimum >= 1" matches (P1 and P2).  Near-threshold instances (within
    ``threshold`` of 1 on either side) count as inconclusive agreement.
    """
    if grid.n > budget:
        raise OutOfBudget(f"product grid {grid.n}x{grid.n} exceeds budget")
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    grid, nu, tau, theta = _crop_support(nu, grid, tau, theta)
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)

    # 1-D side: lambda_tau on the same grid for consistency
    prob_tau = assemble(tau, tau, grid, constraint_weight=tau)
    lambda_tau = float(solve_smallest(prob_tau).eigenvalues[0])
    p1 = check_P1(nu, theta, grid)
    p2 = check_P2(nu, theta, lambda_tau, grid)

    if _theta_mass(theta, nu, grid) < _THETA_ZERO_MASS:
        return TensorOracleResult(math.inf, True, p1, p2, lambda_tau, True)

    trap = grid.trapezoid_weights()
    prob_nu = assemble(nu, nu, grid)
    ax = sp.diags([prob_tau.off, prob_tau.diag, prob_tau.off], [-1, 0, 1],
                  format="csr")
    ay = sp.diags([prob_nu.off, prob_nu.diag, prob_nu.off], [-1, 0, 1],
                  format="csr")
    a2 = sp.kron(sp.diags(nu * trap), ax) + sp.kron(ay, sp.diags(tau * trap))
    mass2 = np.outer(theta * nu * trap, tau * trap).ravel()
    c2 = np.outer(nu * trap, tau * trap).ravel()
    lam2d, vec = _pencil_smallest_core(a2.tocsr(), mass2, c2)

    verdict_2d = lam2d >= 1.0
    verdict_1d = p1.holds and p2.holds
    near = (abs(lam2d - 1.0) <= threshold
            or abs(p1.value - 1.0) <= threshold
            or abs(p2.value - 1.0) <= threshold)
    agrees = verdict_2d == verdict_1d or near
    return TensorOracleResult(
        float(lam2d), bool(agrees), p1, p2, lambda_tau,
        inconclusive=bool(near and verdict_2d != verdict_1d),
        witness=None if agrees else vec.reshape(grid.n, grid.n))


def random_oracle_instance(rng: np.random.Generator,
                           n: int = 101) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, Grid]:
    """Random (nu, tau, theta, grid) instance for the tensorization oracle.

    nu and tau are strictly log-concave densities e^{-V} with
    V(x) = a x^2 / 2 + c log cosh(d x), so V'' = a + c d^2 / cosh^2(d x) > 0
    is available in closed form.  theta is V_nu'' times a random factor in
    [0.6, 1.5]: factor 1 makes the weighted inequality hold by the
    Brascamp-Lieb bound, larger factors push instances across the threshold.
    """
    def draw():
        a = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.0, 1.5)
        d = rng.uniform(0.5, 2.0)
        return a, c, d

    a_nu, c_nu, d_nu = draw()
    a_tau, c_tau, d_tau = draw()
    b = 7.0 / math.sqrt(min(a_nu, a_tau))
    grid = Grid.symmetric_grid(b, n)
    x = grid.nodes()

    def dens(a, c, d):
        return np.exp(-(a * x * x / 2.0 + c * np.log(np.cosh(d * x))))

    nu = dens(a_nu, c_nu, d_nu)
    tau = dens(a_tau, c_tau, d_tau)
    rho = rng.uniform(0.6, 1.5)
    theta = rho * (a_nu + c_nu * d_nu ** 2 / np.cosh(d_nu * x) ** 2)
    return nu, tau, theta, grid
