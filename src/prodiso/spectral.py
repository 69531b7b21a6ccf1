"""Sturm-Liouville discretization and eigensolving.

Discretizes weighted Rayleigh quotients  inf  (int w u'^2) / (int m u^2)
by a finite-volume scheme with Neumann boundary into an ``EigenProblem``,
a tridiagonal pencil with at most one linear constraint (zero weighted
mean) that carries its own equilibrated LAPACK factor.  One certified
solver handles every such pencil, shifted or constrained: shift-invert
iteration with the constraint eliminated by the Schur complement, and an
inertia count that certifies the eigenvalue as the smallest admissible
one.  Each shift takes its count and, when positive definite, its solve
from one unpivoted LDL^T pass (dpttrf); only a shift with exactly one
negative pivot, which the constraint can absorb, adds a pivoted LU
(dgttrf), and only over the block of nonzero couplings that holds that
pivot.  The 2-D oracle's pencil is an ``EigenProblem`` too, once fast
diagonalization in one factor splits it into tridiagonal blocks, whose
zero couplings the same pass goes through; its solve starts from the
lower ends of the 1-D brackets of P1 and P2, which its own count checks.
The spectral gap is the same solver's mean-constrained eigenvalue, at two
meshes on one interval, the finer started from the coarser's eigenvector,
extrapolated in the mesh size and capped by the ground-state potential at
the interval's ends, which is the gap for exponential-type tails; it is
memoized per (measure, options).

Also hosts the weighted-tensorization condition checks, whose values and
zero-mass test do not change when the boundary density is scaled, a
Brascamp-Lieb residual evaluator, and a 2-D product-grid oracle that
cross-checks the 1-D conditions against the two-dimensional eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgeqrf, dgttrf, dgttrs, dpttrf, dpttrs
# bound only for bench/tracer.py to wrap, until ROADMAP item 9 retires both
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
STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"
_THETA_ZERO_MASS = 1e-14    # int theta nu against max|theta| int nu


def _verdict(values, margin: float, threshold: float = 1.0) -> str:
    """The stability tag of eigenvalues against threshold +- margin."""
    if not 0.0 < margin < math.inf:
        raise DomainError(f"solver margin must be in (0, inf), got {margin}")
    if any(v <= threshold - margin for v in values):
        return UNSTABLE
    if all(v >= threshold + margin for v in values):
        return STABLE
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenProblem:
    """Discrete pencil (A, M) with at most one linear constraint.

    ``diag``/``off`` hold the symmetric tridiagonal stiffness A scaled so
    that u^T A u approximates  int w u'^2  (Neumann: outside fluxes dropped,
    hence A @ 1 = 0 exactly).  ``mass_diag`` holds node masses m_i * trapz_i
    so u^T M u approximates  int m u^2.  Admissible u satisfy
    ``constraint`` @ u = 0 when a constraint is given.  ``grid`` is None
    for a pencil that no single grid carries, such as the 2-D oracle's.
    """

    grid: Grid | None
    diag: np.ndarray
    off: np.ndarray
    mass_diag: np.ndarray
    constraint: np.ndarray | None = None

    @functools.cached_property
    def _equilibrated(self) -> tuple[np.ndarray, ...]:
        """D = diag(big)^(-1/2), ``big`` the largest |entry| of each row of
        A, with D A D as (diag, off) and D M D as its diagonal: D (A - sigma
        M) D has entries of order one however graded the weights are, so
        the factors keep the tail pivots."""
        big = np.abs(self.diag)
        abs_off = np.abs(self.off)
        np.maximum(big[:-1], abs_off, out=big[:-1])
        np.maximum(big[1:], abs_off, out=big[1:])
        if not np.all(big > 0):
            raise DomainError("stiffness matrix has a zero row")
        dsc = 1.0 / np.sqrt(big)
        return (dsc, self.diag * dsc * dsc, self.off * dsc[:-1] * dsc[1:],
                self.mass_diag * dsc * dsc)

    @functools.cached_property
    def _splits(self) -> np.ndarray:
        """Indices i of the zero couplings off[i], where the pencil splits
        into independent tridiagonal blocks, as the 2-D oracle's stacked
        pencil does at its joins."""
        return np.flatnonzero(self.off == 0.0)

    def _block(self, k: int) -> tuple[int, int]:
        """The block [s, t): the run of nonzero couplings that holds node k."""
        splits = self._splits
        i = int(np.searchsorted(splits, k))
        return (int(splits[i - 1]) + 1 if i else 0,
                int(splits[i]) + 1 if i < len(splits) else len(self.diag))

    def _factor(self, sigma: float):
        """A solve with A - sigma M and its count of negative pivots, 0 or 1,
        from one unpivoted LDL^T pass (dpttrf); None when there is no count,
        or a count that no shift can pass.

        A positive definite shift solves on the same factor (dpttrs).  When
        dpttrf stops at a negative pivot d_k, the pass restarts on the
        trailing Schur complement, whose first entry loses e_k^2 / d_k: if
        that succeeds there is exactly one negative pivot, the count of
        A - sigma M by Sylvester's law of inertia.  Only then does the
        indefinite solve pay for a pivoted LU (dgttrf), and only over the
        block [s, t) of nonzero couplings that holds k: the blocks before
        it solve on the first pass's factor and those after it on the
        restart's, so a pencil with no zero coupling, every 1-D one, takes
        one LU over all of it.  Two or more negative pivots, a zero or
        non-finite one, or one with no constraint to absorb it give None
        without an LU."""
        dsc, sa, so, sm = self._equilibrated
        diag = sa - sigma * sm
        d, e, info = dpttrf(diag, so)
        if info == 0:
            return (lambda r: dsc * dpttrs(d, e, dsc * r)[0]), 0
        k = info - 1
        pivot = float(d[k])
        if self.constraint is None or not -math.inf < pivot < 0.0:
            return None
        n = len(diag)
        if k + 1 < n:
            # d[k + 1:] and e[k + 1:] still hold diag and so; a subnormal
            # pivot makes this entry +inf, which still counts as positive
            with np.errstate(over="ignore"):
                d[k + 1] -= so[k] * so[k] / pivot
            if k + 2 == n:    # dpttrf takes no empty off-diagonal
                if not d[k + 1] > 0.0:
                    return None
            else:
                d[k + 1:], e[k + 1:], info = dpttrf(d[k + 1:], e[k + 1:])
                if info != 0:
                    return None
        s, t = self._block(k)
        if t - s == 1:
            def block_solve(x):
                return x / pivot
        else:
            # pivoted LU, not the LDL^T above: its multiplier e_k / d_k, and
            # with it the unpivoted solve's backward error, grows as d_k
            # nears zero
            *lu, info = dgttrf(so[s:t - 1], diag[s:t], so[s:t - 1])
            if info != 0:
                return None

            def block_solve(x):
                return dgttrs(*lu, x)[0]
        if t - s == n:
            return (lambda r: dsc * block_solve(dsc * r)), 1
        # the positive definite blocks solve in one dpttrs, with the
        # indefinite block's rows of the factor set to the identity: solved
        # on d_k, those rows can overflow, and 0 * inf at a zero coupling
        # would carry it into the blocks around them
        d[s:t], e[s:t - 1] = 1.0, 0.0

        def solve(r):
            x = dsc * r
            out = dpttrs(d, e, x)[0]
            out[s:t] = block_solve(x[s:t])
            return dsc * out

        return solve, 1


@dataclass(frozen=True)
class EigenResult:
    """Smallest admissible eigenvalue of a pencil, with its certificate:
    an inertia count found no admissible eigenvalue below ``lower_bound``,
    so it lies in [lower_bound, value], whose upper end is the Rayleigh
    quotient of ``eigenvector``; ``residual`` is |A u - value M u| / |M u|.
    ``solves`` counts the solves and ``factorizations`` the shifts
    factored."""

    value: float
    residual: float
    eigenvector: np.ndarray | None = None
    lower_bound: float = -math.inf
    solves: int = 0
    factorizations: int = 0


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
    constraint = None
    if constraint_weight is not None:
        constraint = np.asarray(constraint_weight, dtype=float) * trap
    if shift:
        sm = m if shift_mass_weight is None else np.asarray(shift_mass_weight,
                                                            dtype=float)
        diag = diag + shift * sm * trap
    return EigenProblem(grid, diag, off, mass, constraint)


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


def _start_shift(problem: EigenProblem) -> float:
    """A shift strictly below the pencil's spectrum.

    When the off-diagonal entries of A are nonpositive, as assembly makes
    them, A = L + diag(s) with s = A 1 the row sums and L a weighted graph
    Laplacian, positive semidefinite, so u^T A u >= sum s_i u_i^2 >=
    beta u^T M u for beta = min s_i / m_i, provided s_i >= 0 wherever
    m_i = 0.  The inertia count at the start shift checks the result.
    """
    diag, mass = problem.diag, problem.mass_diag
    row_sum = _tridiagonal_apply(diag, problem.off, np.ones(len(diag)))
    pos = mass > 0
    if not np.any(pos):
        raise DomainError("mass is identically zero")
    # a pure Laplacian row sums to rounding noise, not to a negative shift
    s = np.where(np.abs(row_sum) <= 16.0 * _EPS * np.abs(diag), 0.0, row_sum)
    if np.any(s[~pos] < 0):
        raise DomainError("stiffness is negative where the mass vanishes")
    beta = float(np.min(s[pos] / mass[pos]))
    return beta - _START_GAP * (abs(beta) + _median(diag[pos] / mass[pos]))


def _median(a: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D array, bit for bit, by partition:
    the middle entry, or the mean of the two middle ones."""
    half = len(a) // 2
    if len(a) % 2:
        return float(np.partition(a, half)[half])
    lo, hi = np.partition(a, (half - 1, half))[half - 1:half + 1]
    return float(lo + hi) / 2.0


def _tridiagonal_apply(diag: np.ndarray, off: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal (diag, off) times u along u's last axis."""
    out = diag * u
    out[..., :-1] += off * u[..., 1:]
    out[..., 1:] += off * u[..., :-1]
    return out


def _shift_invert(problem: EigenProblem, y: np.ndarray,
                  start: float | None = None) -> EigenResult:
    """Smallest admissible eigenvalue of (A, M) by shift-invert iteration.

    Every shift in use has passed an inertia count showing no admissible
    eigenvalue below it, so the iteration converges to the smallest one;
    a Rayleigh-quotient shift that would overshoot fails the count, and
    the next shift then halves the bracket.  One constraint c^T u = 0 is
    handled by the Schur complement (Golub 1973): with S = A - sigma M, the
    admissible count below sigma is neg(S) + [c^T S^{-1} c > 0] - 1.  The
    result is returned once the shift sits within a small relative margin
    below the Rayleigh quotient, which brackets the eigenvalue.

    The first shift is ``start`` when that is finite, above the row-sum
    bound of ``_start_shift`` and passes the count; a start close below the
    eigenvalue leaves the iteration little to do.  A start that fails its
    count costs that one factorization and is otherwise forgotten: the
    solve runs from the row-sum bound exactly as without it, bracket and
    value alike.
    """
    a, off, m, c = (problem.diag, problem.off, problem.mass_diag,
                    problem.constraint)
    abs_a, abs_off = np.abs(a), np.abs(off)
    factorizations = 0

    def count(sigma: float):
        """A solve with A - sigma M and its Schur-complement terms, or None
        when an admissible eigenvalue may lie at or below sigma."""
        nonlocal factorizations
        factorizations += 1
        factored = problem._factor(sigma)
        if factored is None:
            return None
        solve, neg = factored
        if c is None:
            return (solve, None, 0.0) if neg == 0 else None
        wc = solve(c)
        f = float(c @ wc)
        return (solve, wc, f) if neg + (f > 0.0) - 1 == 0 else None

    lo = _start_shift(problem)
    state = None
    if start is not None and lo < start < math.inf:
        state = count(start)
        if state is not None:
            lo = start
    if state is None:
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
        ay = _tridiagonal_apply(a, off, y)
        rho = float(y @ ay)
        ya = np.abs(y)
        noise = _ROUNDING * _EPS * float(ya @ _tridiagonal_apply(abs_a, abs_off,
                                                                 ya))
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

    return EigenResult(rho, _residual(ay, rho, m * y, c),
                       y / np.max(np.abs(y)), lo, solves, factorizations)


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
    if problem.constraint is None:
        return _shift_invert(problem, np.ones(len(problem.diag)))
    return _shift_invert(problem, problem.grid.nodes())


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapOptions:
    """How ``spectral_gap`` discretizes: the truncation ``b`` (finite, > 0),
    by default the half-width whose tails hold ``tail_mass``, and ``n`` (odd,
    >= 3); the gap is solved on [-2b, 2b] at 2n - 1 and 4n - 3 nodes."""

    tail_mass: float = 1e-12
    n: int = 4001
    b: float | None = None

    def __post_init__(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise DomainError(f"gap mesh needs an odd n >= 3, got {self.n}")
        if self.b is not None and not 0.0 < self.b < math.inf:
            raise DomainError(f"gap truncation must be positive, got {self.b}")


def _gap_single(m, b: float, n: int,
                coarse: tuple[np.ndarray, EigenResult] | None = None
                ) -> tuple[np.ndarray, EigenResult]:
    """The gap's pencil on ``Grid.symmetric_grid(b, n)``, solved: the
    cropped grid's nodes and the result on them.  The solve starts from the
    coordinate, or from the eigenvector of ``coarse``, an earlier mesh's
    return value, interpolated onto these nodes and held at its end values
    beyond them; the start changes only the work, not the certificate."""
    grid = Grid.symmetric_grid(b, n)
    # the gap is a Rayleigh quotient with w in both forms, so w need not be
    # normalized: the raw density scaled to peak 1 skips the CDF table that
    # normalizes the kinds without a closed-form mass
    psi = m._raw_log(grid.nodes())
    w = np.exp(psi - np.max(psi))
    # drop only the tails where the density underflows outright, so that
    # b, not the floor, sets the truncation; the solver's equilibrated
    # factor takes any representable dynamic range
    sub, w = _crop_support(w, grid, floor=1e-290)
    x = sub.nodes()
    y = x if coarse is None else np.interp(x, coarse[0], coarse[1].eigenvector)
    # with mass = stiffness weight the mean constraint removes exactly the
    # constant null mode, so the constrained minimum is the gap
    pencil = assemble(w, w, sub, constraint_weight=w)
    res = _shift_invert(pencil, y)
    u = res.eigenvector
    # the value as the edge sum -off (du)^2, which is u^T A u exactly since
    # A 1 = 0 and does not cancel: y . A y loses about eps |A| / gap, 1e-11
    # relative on a fine mesh, in a way that moves with the BLAS threads
    return x, replace(res, value=float(-pencil.off @ np.diff(u) ** 2
                                       / (pencil.mass_diag @ (u * u))))


_GAP_MEMO_SIZE = 128    # (measure, options) pairs whose gaps are kept
_GAP_STEP_TOL = 1e-2    # largest Richardson step, relative to the gap


def spectral_gap(m, opts: GapOptions | None = None) -> float:
    """Best Poincare constant of the measure.

    Solved on [-2b, 2b] (see ``GapOptions``) at 2n - 1 nodes, then at
    4n - 3 from that eigenvector, and Richardson-extrapolated in the mesh
    size; the weight is the density up to a constant, so no measure is
    normalized.  Raises NoConvergence when the extrapolated value is not
    positive or its step, (fine - coarse) / 3, exceeds 1e-2 of it: the
    built-in kinds take steps below 1e-6 of the gap at the default n and
    below 1e-4 at n = 401, and above 1e-2 at n = 5.

    The gap is at most the bottom of the essential spectrum, lim inf W at
    infinity of the ground-state potential W = psi'^2/4 + psi''/2 (Bakry,
    Gentil and Ledoux 2014, section 4.9), so the result is capped by W at
    the fine mesh's ends.  That assumes W has settled beyond 2b, or stays
    above the gap there, as for every built-in kind: the cap
    gives the logistic and exponential tails their 1/4, which the truncated
    eigenvalue exceeds by about (pi / 4b)^2, and superlinear tails never
    reach it.

    Memoized per (measure, options), ``None`` standing for ``GapOptions()``,
    for the 128 most recently used pairs; a measure that cannot be hashed,
    such as a custom one whose potential defines ``__eq__`` without
    ``__hash__``, is computed on every call.
    """
    if opts is None:
        opts = GapOptions()
    try:
        hash((m, opts))
    except TypeError:
        return _spectral_gap.__wrapped__(m, opts)
    return _spectral_gap(m, opts)


@functools.lru_cache(maxsize=_GAP_MEMO_SIZE)
def _spectral_gap(m, opts: GapOptions) -> float:
    b = opts.b if opts.b is not None else m.truncation_interval(opts.tail_mass)[1]
    coarse = _gap_single(m, 2.0 * b, 2 * opts.n - 1)
    x, fine = _gap_single(m, 2.0 * b, 4 * opts.n - 3, coarse)
    step = (fine.value - coarse[1].value) / 3.0
    lam = fine.value + step
    if not lam > 0.0 or abs(step) > _GAP_STEP_TOL * lam:
        raise NoConvergence(
            f"gap meshes of {2 * opts.n - 1} and {4 * opts.n - 3} nodes "
            f"extrapolate to {lam:g} by a step of {step:g}; refine the mesh")
    _, dpsi, ddpsi = m._raw_psi(x[[0, -1]])
    return min(lam, float(np.min(dpsi * dpsi / 4.0 + ddpsi / 2.0)))


# ---------------------------------------------------------------------------
# weighted tensorization conditions
# ---------------------------------------------------------------------------

def _crop_support(nu: np.ndarray, grid: Grid, *arrays,
                  floor: float = 1e-16):
    """Restrict to the window where nu is numerically meaningful.

    Outside it 1/nu overwhelms double precision and the discrete pencil
    acquires spurious ill-conditioned tail modes; cropping there perturbs
    the low end of the spectrum only at the level of the discarded mass.
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


def _weights(grid: Grid, *weights) -> tuple[np.ndarray, ...]:
    """The weights as float arrays, each checked before any cropping:
    DomainError for one whose shape is not (grid.n,) or that holds a
    non-finite value."""
    out = tuple(np.asarray(w, dtype=float) for w in weights)
    for w in out:
        if w.shape != (grid.n,):
            raise DomainError(f"weight of shape {w.shape} does not match "
                              f"the grid of {grid.n} nodes")
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
    return out


def _check_theta(theta: np.ndarray) -> None:
    if np.any(theta < -1e-12 * np.max(np.abs(theta))):
        raise SignedWeight("weight must be nonnegative on the grid")


def _theta_negligible(theta: np.ndarray, nu: np.ndarray, grid: Grid) -> bool:
    """Whether int theta nu is rounding against max|theta| int nu, so that
    the conditions hold; scale-free in nu and theta, as the quotients are."""
    trap = grid.trapezoid_weights()
    scale = float(np.max(np.abs(theta))) * float(np.sum(nu * trap))
    return float(np.sum(theta * nu * trap)) <= _THETA_ZERO_MASS * scale


def check_P1(nu, theta, grid: Grid) -> EigenResult:
    """Zero-mean weighted Poincare condition.

    Computes lambda* = inf { int v'^2 dnu / int v^2 theta dnu :
    int v dnu = 0 }; the condition holds iff lambda* >= 1.  Returns the
    certified solver's result, whose ``value`` is lambda*.
    """
    return _condition(nu, theta, grid, constrained=True)


def check_P2(nu, theta, lambda_tau: float, grid: Grid) -> EigenResult:
    """Shifted (unconstrained) weighted Poincare condition.

    Computes inf ( lambda_tau int v^2 dnu + int v'^2 dnu ) / int v^2 theta
    dnu over all v; holds iff the infimum is >= 1.  Returns the certified
    solver's result, whose ``value`` is the infimum.  A ``lambda_tau``
    outside [0, inf), NaN included, raises DomainError.
    """
    if not 0.0 <= lambda_tau < math.inf:
        raise DomainError(f"lambda_tau must be nonnegative and finite, "
                          f"got {lambda_tau}")
    return _condition(nu, theta, grid, shift=lambda_tau)


def _condition(nu, theta, grid: Grid, constrained: bool = False,
               shift: float = 0.0) -> EigenResult:
    """Smallest eigenvalue of the cropped pencil (nu stiffness, theta nu
    mass), mean-constrained or shifted by ``shift`` nu; infinite when
    theta carries no mass against nu."""
    nu, theta = _weights(grid, nu, theta)
    _check_theta(theta)
    if _theta_negligible(theta, nu, grid):
        return EigenResult(math.inf, 0.0, lower_bound=math.inf)
    grid, nu, theta = _crop_support(nu, grid, theta)
    return solve_smallest(assemble(nu, theta * nu, grid,
                                   constraint_weight=nu if constrained else None,
                                   shift=shift, shift_mass_weight=nu))


# ---------------------------------------------------------------------------
# Brascamp-Lieb residual
# ---------------------------------------------------------------------------

_BL_REL_TOL = 1e-10    # of each of the four integrals


def brascamp_lieb_residual(m, u, du=None) -> float:
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
    mass = integrate(lambda x: m.density(x), a, b, rel_tol=_BL_REL_TOL)
    mean = integrate(lambda x: np.asarray(u(x)) * m.density(x), a, b,
                     rel_tol=_BL_REL_TOL) / mass
    var = integrate(lambda x: (np.asarray(u(x)) - mean) ** 2 * m.density(x),
                    a, b, rel_tol=_BL_REL_TOL) / mass

    def energy(x):
        _, _, ddl = m.log_density(x)
        return np.asarray(du(x)) ** 2 / (-ddl) * m.density(x)

    en = integrate(energy, a, b, rel_tol=_BL_REL_TOL) / mass
    return float(en - var)


# ---------------------------------------------------------------------------
# 2-D tensorization oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorOracleResult:
    lambda_2d: float
    agrees: bool
    p1: EigenResult
    p2: EigenResult
    lambda_tau: float
    inconclusive: bool = False
    witness: np.ndarray | None = field(default=None, compare=False)
    residual: float = field(default=math.nan, compare=False)


_DECOUPLED = 1e-13    # per node: orthogonality and residual of Q, relative
_CUT_SLACK = 2.0      # mu_cut over min(P1, P2) max theta: the blocks kept
_ORACLE_BUDGET = 201  # largest n of an n x n product grid
_ORACLE_NEAR = 0.02   # distance from 1 within which a split verdict is a tie


def _decoupled_pencil(x: EigenProblem, y: EigenProblem, weight: np.ndarray,
                      mu_cut: float
                      ) -> tuple[EigenProblem, np.ndarray, float]:
    """The product pencil of two 1-D problems on x and y,

        A2 = diag(weight) (x) A_x + A_y (x) M_x,   M2 = M_y (x) M_x,

    with the constraint c_y (x) c_x, decoupled in x by fast diagonalization
    (Lynch, Rice and Thomas 1964) and cut to the blocks at or below
    ``mu_cut``.  Vectors u are indexed (y, x), x fastest; ``weight`` must be
    nonnegative.

    With Q, mu the eigenpairs of S = M_x^(-1/2) A_x M_x^(-1/2) and Phi =
    M_x^(-1/2) Q, Phi^T A_x Phi = diag(mu) and Phi^T M_x Phi = I, so the
    congruence I (x) Phi turns A2 - sigma M2 into the n_x tridiagonal blocks
    mu_k diag(weight) + A_y - sigma M_y; by Sylvester's law of inertia their
    count is the product pencil's.  Only the K eigenpairs with mu_k <=
    mu_cut are computed, and only their blocks are stacked, k by k with
    zero couplings at the joins.  That holds while Phi is a congruence:
    NoConvergence is raised unless Q is orthogonal and S Q = Q diag(mu),
    each to a relative n_x * 1e-13, or when no block is kept.

    The dropped blocks leave the product pencil's constrained minimum alone
    while it lies below ``floor``, the row-sum bound of ``_start_shift`` for
    the block at mu_cut, and the constraint misses them:
      - each dropped block lies above the floor, since mu_k > mu_cut,
        weight >= 0 and the row sums of A_y are >= 0;
      - their part of Q^T M_x^(-1/2) c_x is at most |S r| / mu_cut for
        r = M_x^(-1/2) c_x, as q_k^T r = q_k^T S r / mu_k.  For the mean
        constraint c_x = M_x 1, S r = M_x^(-1/2) A_x 1 is rounding;
        NoConvergence is raised unless |S r| / mu_cut is at most
        n_x * 1e-13 |r|, |r| being |c_x| in M_x^(-1).
    The floor is inf when nothing is dropped.  Returns the pencil, Phi
    (n_x by K) and the floor; the pencil's vector v is u = (I (x) Phi) v,
    that is U = (Phi V)^T for V = v.reshape(K, -1).
    """
    s = 1.0 / np.sqrt(x.mass_diag)
    d, e = x.diag * s * s, x.off * s[:-1] * s[1:]
    mu, q = eigh_tridiagonal(d, e, select="v",
                             select_range=(-math.inf, mu_cut))
    n, kept = len(d), len(mu)
    if kept == 0:
        raise NoConvergence(f"no block of the product pencil is at or "
                            f"below mu_cut = {mu_cut:g}")
    tol = _DECOUPLED * n
    orthogonality = np.max(np.abs(q.T @ q - np.eye(kept)))
    residual = np.max(np.abs(_tridiagonal_apply(d, e, q.T)
                             - mu[:, None] * q.T))
    # |S| <= max|d| + 2 max|e| by Gershgorin
    if orthogonality > tol or residual > tol * (np.max(np.abs(d))
                                                + 2.0 * np.max(np.abs(e))):
        raise NoConvergence("the x factor's eigenvectors are not a congruence")
    floor = math.inf
    if kept < n:
        r = s * x.constraint
        leak = float(np.linalg.norm(
            s * _tridiagonal_apply(x.diag, x.off, x.constraint / x.mass_diag)))
        if not leak <= tol * mu_cut * float(np.linalg.norm(r)):
            raise NoConvergence("the constraint meets the dropped blocks")
        floor = _start_shift(EigenProblem(None, mu_cut * weight + y.diag,
                                          y.off, y.mass_diag))
    phi = s[:, None] * q
    pencil = EigenProblem(
        None, (mu[:, None] * weight + y.diag).ravel(),
        np.tile(np.r_[y.off, 0.0], kept)[:-1], np.tile(y.mass_diag, kept),
        np.outer(phi.T @ x.constraint, y.constraint).ravel())
    return pencil, phi, floor


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _stiffness_gram(problem: EigenProblem, a: np.ndarray) -> np.ndarray:
    """a A a^T for the rows of a, as the edge sums -off (da)^2 plus the row
    sums r = A 1 as sum r a^2: neither cancels, whereas a (A a^T) loses
    about eps |A| / lambda.  Assembly makes r rounding, not zero, so it is
    summed exactly, by two TwoSums; dropping it moves the quotient by as
    much as the cancellation would."""
    off, zero = problem.off, np.zeros(1)
    s, e = _two_sum(problem.diag, np.concatenate((off, zero)))
    s, e2 = _two_sum(s, np.concatenate((zero, off)))
    d = np.diff(a)
    return (d * -off) @ d.T + (a * (s + (e + e2))) @ a.T


def _low_rank_norm(p: np.ndarray, q: np.ndarray) -> float:
    """|P^T Q|_F for row factors p and q, as |P^T R^T|_F for R the
    triangular factor of a thin QR of Q^T (LAPACK dgeqrf): P^T R^T has the
    shape of P^T, not of the n x n P^T Q, and its entries cancel no more than
    those of P^T Q would."""
    qr = dgeqrf(q.T)[0]
    return float(np.linalg.norm(p.T @ np.triu(qr[:len(q)]).T))


def tensor_oracle_2d(nu, tau, theta, grid: Grid) -> TensorOracleResult:
    """Product-grid falsification oracle for the two 1-D conditions.

    Solves  inf int |Du|^2 dtau dnu / int u^2 theta(y) dtau dnu  over
    product-mean-zero u on the (tau x nu) grid, by the certified solver on
    the 2-D pencil decoupled in the tau factor, and checks that the verdict
    "infimum >= 1" matches (P1 and P2).  The reported lambda_2d and its
    ``residual`` are those of the eigenvector on the assembled 2-D operator,
    read from its rank-(K + 1) factors u = L R^T, K the blocks kept (below):
    the n x n eigenvector is formed only for the witness of a disagreement.
    Near-threshold instances (within 0.02 of 1 on either side) count as
    inconclusive agreement.  Grids above n = 201 raise OutOfBudget; a
    weight whose shape is not (grid.n,) or that holds a non-finite value
    raises DomainError.

    Only the blocks that can hold the minimum are solved: those of the tau
    eigenvalues mu_k <= mu_cut = 2 min(P1, P2) max theta.  P1 and P2 are
    Rayleigh quotients of admissible 2-D trial vectors, so they bound
    lambda_2d from above, and every dropped block lies above the row-sum
    floor of the block at mu_cut, which is mu_cut / max theta = 2 min(P1,
    P2) up to rounding (see ``_decoupled_pencil``).  The count of the cut
    pencil is the whole product pencil's only below that floor, so
    NoConvergence is raised unless lambda_2d lies below it.

    The 2-D solve starts at the smaller of the lower ends of P1's and P2's
    certified brackets: on the grid, blocks 0 and 1 of the decoupled pencil
    are P1's and P2's pencils, so lambda_2d = min(P1, P2) up to rounding and
    the start sits just below it.  The start only saves work: lambda_2d is
    certified by the 2-D pencil's own inertia count and Rayleigh quotient.
    Were an instance to break tensorization, with lambda_2d below the
    start, the start would fail that count and the cold solve would run,
    so the oracle can still falsify the 1-D conditions.
    """
    if grid.n > _ORACLE_BUDGET:
        raise OutOfBudget(f"product grid {grid.n}x{grid.n} exceeds budget")
    nu, tau, theta = _weights(grid, nu, tau, theta)
    _check_theta(theta)
    grid, nu, tau, theta = _crop_support(nu, grid, tau, theta)
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)

    # 1-D side: lambda_tau, P1 and P2 on the grid of the 2-D pencil, whose
    # factors their pencils are; each is assembled once, here, on the arrays
    # cropped above
    prob_tau = assemble(tau, tau, grid, constraint_weight=tau)
    lambda_tau = solve_smallest(prob_tau).value
    if _theta_negligible(theta, nu, grid):
        # the infinite result of check_P1 and check_P2 here
        inf = EigenResult(math.inf, 0.0, lower_bound=math.inf)
        return TensorOracleResult(math.inf, True, inf, inf, lambda_tau, True)
    p2 = solve_smallest(assemble(nu, theta * nu, grid, shift=lambda_tau,
                                 shift_mass_weight=nu))
    prob_nu = assemble(nu, theta * nu, grid, constraint_weight=nu)
    p1 = solve_smallest(prob_nu)
    nu_w, tau_w = prob_nu.constraint, prob_tau.mass_diag
    pencil, phi, floor = _decoupled_pencil(
        prob_tau, prob_nu, nu_w,
        _CUT_SLACK * min(p1.value, p2.value) * float(np.max(theta)))
    # start from the sum of the coordinates, which has parts along both
    # separable candidates, the P1 mode v(y) and the P2 mode v(y) phi_1(x);
    # (I (x) Phi)^-1 = I (x) Phi^T M_x takes x_y + x_x to
    # (Phi^T M_x x)_k + (Phi^T M_x 1)_k x_y
    x = grid.nodes()
    v0 = (phi.T @ (tau_w * x))[:, None] + np.outer(phi.T @ tau_w, x)
    # just below lambda_2D = min(P1, P2); the 2-D count still decides
    v = _shift_invert(pencil, v0.ravel(),
                      start=min(p1.lower_bound, p2.lower_bound)
                      ).eigenvector.reshape(phi.shape[1], grid.n)

    # with its part along c2 = nu_w tau_w^T removed, the eigenvector is
    # u = L R^T for L = [V^T, -gamma nu_w] and R = [Phi, tau_w], of rank
    # K + 1; the assembled A2 and M2 act on the factors, rows here, so the
    # quotient and residual take (K + 1)-square contractions, and u is
    # formed only for a witness
    c2_norm = float(nu_w @ nu_w) * float(tau_w @ tau_w)
    gamma = float((v @ nu_w) @ (phi.T @ tau_w)) / c2_norm
    lt, rt = np.vstack([v, -gamma * nu_w]), np.vstack([phi.T, tau_w])
    nu_lt, mass_lt, mass_rt = lt * nu_w, lt * prob_nu.mass_diag, rt * tau_w
    r_mass = mass_rt @ rt.T
    lam2d = float((np.sum((nu_lt @ lt.T) * _stiffness_gram(prob_tau, rt))
                   + np.sum(_stiffness_gram(prob_nu, lt) * r_mass))
                  / np.sum((mass_lt @ lt.T) * r_mass))
    if not lam2d < floor:
        raise NoConvergence(
            f"lambda_2D = {lam2d:g} is not below the floor {floor:g} of the "
            f"blocks the cut dropped")
    # A2 u - lambda M2 u = P Q^T, less its part along c2, as in _residual
    p = np.vstack([nu_lt, _tridiagonal_apply(prob_nu.diag, prob_nu.off, lt)
                   - lam2d * mass_lt])
    q = np.vstack([_tridiagonal_apply(prob_tau.diag, prob_tau.off, rt),
                   mass_rt])
    delta = float((p @ nu_w) @ (q @ tau_w)) / c2_norm
    residual = (_low_rank_norm(np.vstack([p, -delta * nu_w]),
                               np.vstack([q, tau_w]))
                / _low_rank_norm(mass_lt, mass_rt))

    values = (p1.value, p2.value)
    verdict_2d = lam2d >= 1.0
    verdict_1d = _verdict(values, DEFAULT_SOLVER_MARGIN) != UNSTABLE
    near = any(abs(v - 1.0) <= _ORACLE_NEAR for v in (lam2d, *values))
    agrees = verdict_2d == verdict_1d or near
    witness = None
    if not agrees:
        u = lt.T @ rt
        witness = u / np.max(np.abs(u))
    return TensorOracleResult(
        lam2d, bool(agrees), p1, p2, lambda_tau,
        inconclusive=bool(near and verdict_2d != verdict_1d),
        witness=witness, residual=residual)


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
