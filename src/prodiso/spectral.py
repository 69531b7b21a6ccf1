"""Sturm-Liouville discretization and eigensolving.

Discretizes weighted Rayleigh quotients  inf  (int w u'^2) / (int m u^2)
by a finite-volume scheme with Neumann boundary.  One certified solver
handles every resulting pencil, shifted or restricted to a single linear
constraint (zero weighted mean): shift-invert iteration with the
constraint eliminated by the Schur complement, and an LDL^T inertia count
that certifies the eigenvalue as the smallest admissible one.  The 1-D
pencils are factored by tridiagonal LAPACK, the 2-D oracle's by sparse
symmetric SuperLU.  The spectral gap, whose mass equals its stiffness
weight, keeps LAPACK bisection on the mass-scaled matrix.

Also hosts the weighted-tensorization condition checks, a Brascamp-Lieb
residual evaluator, and a sparse 2-D product-grid oracle that cross-checks
the 1-D conditions against the genuinely two-dimensional eigenvalue.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dstebz
# bound only for bench/tracer.py to wrap, until ROADMAP item 5 retires both
from scipy.sparse.linalg import splu  # noqa: F401

from .errors import (
    DomainError,
    NoConvergence,
    NonConvexPotential,
    OutOfBudget,
    SignedWeight,
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
        """A u, along u's last axis."""
        return _tridiagonal_apply(self.diag, self.off, u)


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
_START_GAP = 1e-10    # first shift below the row-sum bound, relative
_MAX_SOLVES = 200


class _Pencil(NamedTuple):
    """A pencil (A, M) with at most one constraint c^T u = 0, as the
    shift-invert iteration uses it.

    ``factor(sigma)`` returns a solve with A - sigma M and the count of its
    negative pivots, or None when it has no count; ``apply`` multiplies by
    A and ``apply_abs`` by |A|, its entrywise absolute value; ``lo`` is the
    start shift.
    """

    factor: Callable
    apply: Callable
    apply_abs: Callable
    mass: np.ndarray
    constraint: np.ndarray | None
    lo: float


def _negative_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Nonpositive eigenvalues of a symmetric tridiagonal matrix: dstebz's
    Sturm count of negative LDL^T pivots (Barth, Martin and Wilkinson 1967)
    between a Gershgorin bound and 0, stopped there by its tolerance."""
    low = float(np.min(diag)) - 2.0 * float(np.max(np.abs(off))) - 1.0
    return int(dstebz(diag, off, 1, low, 0.0, 0, 0, -low, b"B")[0])


def _start_shift(diag: np.ndarray, row_sum: np.ndarray,
                 mass: np.ndarray) -> float:
    """A shift strictly below the pencil's spectrum.

    When the off-diagonal entries of A are nonpositive, as assembly makes
    them, A = L + diag(s) with s = A 1 the row sums and L a weighted graph
    Laplacian, positive semidefinite, so u^T A u >= sum s_i u_i^2 >=
    beta u^T M u for beta = min s_i / m_i, provided s_i >= 0 wherever
    m_i = 0.  The inertia count at the start shift checks the result.
    """
    pos = mass > 0
    if not np.any(pos):
        raise DomainError("mass is identically zero")
    # a pure Laplacian row sums to rounding noise, not to a negative shift
    s = np.where(np.abs(row_sum) <= 16.0 * _EPS * np.abs(diag), 0.0, row_sum)
    if np.any(s[~pos] < 0):
        raise DomainError("stiffness is negative where the mass vanishes")
    beta = float(np.min(s[pos] / mass[pos]))
    return beta - _START_GAP * (abs(beta)
                                + float(np.median(diag[pos] / mass[pos])))


def _row_scaling(big: np.ndarray) -> np.ndarray:
    """Symmetric equilibration D = diag(big)^(-1/2), ``big`` the largest
    |entry| of each row of A: D (A - sigma M) D has entries of order one
    however graded the weights are, so the factors keep the tail pivots."""
    if not np.all(big > 0):
        raise DomainError("stiffness matrix has a zero row")
    return 1.0 / np.sqrt(big)


def _tridiagonal_apply(diag: np.ndarray, off: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal (diag, off) times u along u's last axis."""
    out = diag * u
    out[..., :-1] += off * u[..., 1:]
    out[..., 1:] += off * u[..., :-1]
    return out


def _tridiagonal_pencil(a: np.ndarray, off: np.ndarray, m: np.ndarray,
                        constraint: np.ndarray | None = None) -> _Pencil:
    """The tridiagonal pencil (A, M), A = (a, off) and M = diag(m), factored
    by LAPACK: dgttrf solves, no negative pivot when dpttrf succeeds, else
    dstebz's Sturm count."""
    abs_a, abs_off = np.abs(a), np.abs(off)
    dsc = _row_scaling(np.maximum(abs_a, np.maximum(np.r_[abs_off, 0],
                                                    np.r_[0, abs_off])))
    sa, so, sm = a * dsc * dsc, off * dsc[:-1] * dsc[1:], m * dsc * dsc

    def factor(sigma: float):
        diag = sa - sigma * sm
        *lu, info = dgttrf(so, diag, so)
        if info != 0:
            return None
        neg = 0 if dpttrf(diag, so)[2] == 0 else _negative_pivots(diag, so)
        return (lambda r: dsc * dgttrs(*lu, dsc * r)[0]), neg

    def apply(u):
        return _tridiagonal_apply(a, off, u)

    return _Pencil(factor, apply,
                   lambda u: _tridiagonal_apply(abs_a, abs_off, u), m,
                   constraint, _start_shift(a, apply(np.ones(len(a))), m))


def _shift_invert(pencil: _Pencil, y: np.ndarray,
                  grid: Grid | None = None) -> EigenResult:
    """Smallest admissible eigenvalue of (A, M) by shift-invert iteration.

    Every shift in use has passed an inertia count showing no admissible
    eigenvalue below it, so the iteration converges to the smallest one;
    a Rayleigh-quotient shift that would overshoot fails the count, and
    the next shift then halves the bracket.  One constraint c^T u = 0 is
    handled by the Schur complement (Golub 1973): with S = A - sigma M, the
    admissible count below sigma is neg(S) + [c^T S^{-1} c > 0] - 1.  The
    result is returned once the shift sits within a small relative margin
    below the Rayleigh quotient, which brackets the eigenvalue.
    """
    m, c = pencil.mass, pencil.constraint

    def count(sigma: float):
        """A solve with A - sigma M and its Schur-complement terms, or None
        when an admissible eigenvalue may lie at or below sigma."""
        factored = pencil.factor(sigma)
        if factored is None:
            return None
        solve, neg = factored
        if c is None:
            return (solve, None, 0.0) if neg == 0 else None
        wc = solve(c)
        f = float(c @ wc)
        return (solve, wc, f) if neg + (f > 0.0) - 1 == 0 else None

    lo = pencil.lo
    state = count(lo)
    if state is None:
        raise NoConvergence("the start shift failed the inertia count")
    hi = rho_prev = step = math.inf
    failed = False
    if c is not None:   # so that M y has a part the constraint keeps
        y = y - c * ((c @ y) / (c @ c))
    for solves in range(1, _MAX_SOLVES + 1):
        solve, wc, f = state
        z = solve(m * y)
        if wc is not None:
            z -= wc * ((c @ z) / f)
        nz = math.sqrt(float(z @ (m * z)))
        if not math.isfinite(nz) or nz == 0.0:
            raise NoConvergence("shift-invert produced a null vector")
        y = z / nz
        ay = pencil.apply(y)
        rho = float(y @ ay)
        ya = np.abs(y)
        noise = _ROUNDING * _EPS * float(ya @ pencil.apply_abs(ya))
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
        if failed or cand >= hi:
            cand = 0.5 * (lo + hi)
        if cand > lo:
            new = count(cand)
            failed = new is None
            if failed:
                hi = cand
            else:
                lo, state = cand, new
    else:
        raise NoConvergence("shift-invert iteration did not converge")

    return EigenResult(np.array([rho]),
                       np.array([_residual(ay, rho, m * y, c)]),
                       y / np.max(np.abs(y)), grid, lo, solves)


def _residual(au: np.ndarray, rho: float, mass_u: np.ndarray,
              c: np.ndarray | None) -> float:
    """|A u - rho M u| / |M u|, on the constraint space when there is one."""
    r = au - rho * mass_u
    if c is not None:
        r -= c * ((c @ r) / (c @ c))
    return float(np.linalg.norm(r) / np.linalg.norm(mass_u))


def solve_smallest(problem: EigenProblem) -> EigenResult:
    """Smallest eigenvalue of the assembled pencil on its constraint space.

    Certified: the result carries its residual and a shift below which an
    LDL^T inertia count found no admissible eigenvalue; a failed count
    raises NoConvergence instead of returning a higher mode.
    """
    # start near the usual minimizers: the constant without a constraint (the
    # ground state is positive), else the coordinate; the count guards the rest
    if len(problem.constraints) > 1:
        raise DomainError("at most one linear constraint is supported")
    y = problem.grid.nodes() if problem.constraints else np.ones(problem.n)
    pencil = _tridiagonal_pencil(problem.diag, problem.off, problem.mass_diag,
                                 *problem.constraints)
    return _shift_invert(pencil, y, problem.grid)


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


def spectral_gap(m, opts: GapOptions | None = None) -> float:
    """Best Poincare constant of the measure.

    Solved on the truncated line; Richardson-extrapolated in the mesh size
    and in the truncation length.  The latter matters for measures whose
    continuous spectrum starts at the gap (exponential-type tails), where
    the truncated eigenvalue converges only like 1/b^2.
    """
    if opts is None:
        opts = GapOptions()
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
    residual: float = field(default=math.nan, compare=False)


_DECOUPLED = 1e-13    # per node: orthogonality and residual of Q, relative


def _decoupled_pencil(x: EigenProblem, y: EigenProblem,
                      weight: np.ndarray) -> tuple[_Pencil, np.ndarray]:
    """The product pencil of two 1-D problems on x and y,

        A2 = diag(weight) (x) A_x + A_y (x) M_x,   M2 = M_y (x) M_x,

    with the constraint c_y (x) c_x, decoupled in x by fast diagonalization
    (Lynch, Rice and Thomas 1964).  Vectors u are indexed (y, x), x fastest.

    With Q, mu the eigenpairs of S = M_x^(-1/2) A_x M_x^(-1/2) and Phi =
    M_x^(-1/2) Q, Phi^T A_x Phi = diag(mu) and Phi^T M_x Phi = I, so the
    congruence I (x) Phi turns A2 - sigma M2 into the n_x tridiagonal blocks
    mu_k diag(weight) + A_y - sigma M_y, stacked here k by k with zero
    couplings at the joins; by Sylvester's law of inertia their count is the
    product pencil's.  That holds while Phi is a congruence: NoConvergence
    is raised unless Q is orthogonal and S Q = Q diag(mu), each to a
    relative n_x * 1e-13.  Returns the pencil and Phi; the pencil's vector
    v is u = (I (x) Phi) v, that is U = (Phi V)^T for V = v.reshape(n_x, -1).
    """
    s = 1.0 / np.sqrt(x.mass_diag)
    d, e = x.diag * s * s, x.off * s[:-1] * s[1:]
    mu, q = eigh_tridiagonal(d, e)
    n = len(mu)
    tol = _DECOUPLED * n
    orthogonality = np.max(np.abs(q.T @ q - np.eye(n)))
    residual = np.max(np.abs(_tridiagonal_apply(d, e, q.T)
                             - mu[:, None] * q.T))
    # |S| <= max|d| + 2 max|e| by Gershgorin
    if orthogonality > tol or residual > tol * (np.max(np.abs(d))
                                                + 2.0 * np.max(np.abs(e))):
        raise NoConvergence("the x factor's eigenvectors are not a congruence")
    phi = s[:, None] * q
    pencil = _tridiagonal_pencil(
        (mu[:, None] * weight + y.diag).ravel(),
        np.tile(np.r_[y.off, 0.0], n)[:-1], np.tile(y.mass_diag, n),
        np.outer(phi.T @ x.constraints[0], y.constraints[0]).ravel())
    return pencil, phi


def tensor_oracle_2d(nu, tau, theta, grid: Grid, budget: int = 201,
                     threshold: float = 0.02) -> TensorOracleResult:
    """Product-grid falsification oracle for the two 1-D conditions.

    Solves  inf int |Du|^2 dtau dnu / int u^2 theta(y) dtau dnu  over
    product-mean-zero u on the (tau x nu) grid, by the certified solver on
    the 2-D pencil decoupled in the tau factor, and checks that the verdict
    "infimum >= 1" matches (P1 and P2).  The reported lambda_2d and its
    ``residual`` are those of the eigenvector on the assembled 2-D operator.
    Near-threshold instances (within ``threshold`` of 1 on either side)
    count as inconclusive agreement.
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

    prob_nu = assemble(nu, theta * nu, grid, constraint_weight=nu)
    nu_w, tau_w = prob_nu.constraints[0], prob_tau.mass_diag
    pencil, phi = _decoupled_pencil(prob_tau, prob_nu, nu_w)
    # start from the sum of the coordinates, which has parts along both
    # separable candidates, the P1 mode v(y) and the P2 mode v(y) phi_1(x);
    # (I (x) Phi)^-1 = I (x) Phi^T M_x
    x = grid.nodes()
    v0 = (phi.T * tau_w) @ np.add.outer(x, x).T
    v = _shift_invert(pencil, v0.ravel()).eigenvector.reshape(grid.n, grid.n)

    # the Rayleigh quotient and residual on the assembled operator, with
    # A2 and M2 applied along each axis
    u = (phi @ v).T
    c2 = np.outer(nu_w, tau_w)
    u -= c2 * (np.sum(c2 * u) / np.sum(c2 * c2))
    au = (nu_w[:, None] * prob_tau.apply_stiffness(u)
          + prob_nu.apply_stiffness(u.T).T * tau_w)
    mass_u = np.outer(prob_nu.mass_diag, tau_w) * u
    lam2d = float(np.sum(u * au) / np.sum(u * mass_u))
    residual = _residual(au.ravel(), lam2d, mass_u.ravel(), c2.ravel())

    verdict_2d = lam2d >= 1.0
    verdict_1d = p1.holds and p2.holds
    near = (abs(lam2d - 1.0) <= threshold
            or abs(p1.value - 1.0) <= threshold
            or abs(p2.value - 1.0) <= threshold)
    agrees = verdict_2d == verdict_1d or near
    return TensorOracleResult(
        lam2d, bool(agrees), p1, p2, lambda_tau,
        inconclusive=bool(near and verdict_2d != verdict_1d),
        witness=None if agrees else u / np.max(np.abs(u)),
        residual=residual)


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
