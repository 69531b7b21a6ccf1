"""Eigenvalue solver, spectral gaps, weighted conditions and the 2-D oracle."""

import contextlib
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from prodiso import spectral
from prodiso.errors import (
    DomainError,
    NoConvergence,
    NonConvexPotential,
    OutOfBudget,
    SignedWeight,
)
from prodiso.measures import MeasureSpec
from prodiso.numerics import Grid, integrate
from prodiso.perturb import design_bump, eigen_curves
from prodiso.spectral import (
    GapOptions,
    _crop_support,
    _decoupled_pencil,
    _gap_single,
    _shift_invert,
    assemble,
    brascamp_lieb_residual,
    check_P1,
    check_P2,
    random_oracle_instance,
    solve_smallest,
    spectral_gap,
    tensor_oracle_2d,
)
from prodiso.halfspace import boundary_density


def test_neumann_null_mode():
    # constants are exact discrete null modes of the unconstrained pencil;
    # the mean constraint removes them and leaves the gap, whose
    # eigenfunction is odd
    m = MeasureSpec.gaussian(1.0)
    grid = Grid.symmetric_grid(8.0, 801)
    w = m.density(grid.nodes())
    res = solve_smallest(assemble(w, w, grid))
    assert abs(res.value) < 1e-10
    assert res.residual < 1e-8
    assert np.ptp(res.eigenvector) < 1e-8
    res = solve_smallest(assemble(w, w, grid, constraint_weight=w))
    assert abs(res.value - 1.0) < 1e-4
    assert res.residual < 1e-8
    v = res.eigenvector
    assert np.max(np.abs(v + v[::-1])) < 1e-8


def test_gaussian_gap_and_scaling():
    for sigma in (1.0, 0.5, 2.0):
        lam = spectral_gap(MeasureSpec.gaussian(sigma))
        assert abs(lam * sigma ** 2 - 1.0) <= 2e-12
    # power(2) is the Gaussian of variance 1/2
    assert abs(spectral_gap(MeasureSpec.power_law(2.0)) - 2.0) <= 4e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(sigma=st.floats(0.3, 7.0))
def test_gaussian_gap_scales_as_inverse_variance(sigma):
    # lambda(sigma) sigma^2 = lambda(1): the truncation, the grid and the
    # density all scale with sigma, so only rounding separates the two
    opts = GapOptions(n=401)
    unit = spectral_gap(MeasureSpec.gaussian(1.0), opts)
    lam = spectral_gap(MeasureSpec.gaussian(sigma), opts)
    assert abs(lam * sigma ** 2 - unit) <= 1e-11 * unit


@pytest.mark.parametrize("m, n", [(MeasureSpec.gaussian(1.0), 3),
                                  (MeasureSpec.logistic(), 5),
                                  (MeasureSpec.power_law(3.0), 5)])
def test_gap_of_a_too_coarse_mesh_is_refused(m, n):
    # the extrapolated value is negative, or its Richardson step is over 1e-2
    # of it, instead of being returned as a gap
    with pytest.raises(NoConvergence):
        spectral_gap(m, GapOptions(n=n))


def test_logistic_gap():
    lam = spectral_gap(MeasureSpec.logistic())
    assert abs(lam - 0.25) <= np.spacing(0.25)


def test_truncation_extrapolation_model():
    # at fixed truncation b the logistic eigenvalue sits near 1/4 + (pi/2b)^2
    m = MeasureSpec.logistic()
    for b in (20.0, 40.0):
        lam_b = _gap_single(m, b, 4001)[1].value
        model = 0.25 + (math.pi / (2 * b)) ** 2
        assert abs(lam_b - model) < 2e-5


def test_mesh_convergence_monotone():
    m = MeasureSpec.logistic()
    limit = 0.25 + (math.pi / 80.0) ** 2
    errs = [abs(_gap_single(m, 40.0, n)[1].value - limit)
            for n in (501, 1001, 2001)]
    assert errs[0] > errs[1] > errs[2]


def _exponential_truncated_gap(b):
    # on [-b, b] the two-sided exponential's odd mode is e^{x/2} sin(kx) for
    # x > 0, with eigenvalue 1/4 + k^2; Neumann u'(b) = 0 makes
    # tan(kb) = -2k, whose first root lies in (pi/2b, pi/b)
    k = brentq(lambda k: 0.5 * math.sin(k * b) + k * math.cos(k * b),
               math.pi / (2.0 * b), math.pi / b, xtol=1e-300)
    return 0.25 + k * k


def test_truncated_gaps_match_the_exponential_closed_form():
    # the gap's two meshes on [-2b, 2b], the finer started from the coarser's
    # eigenvector, mesh-extrapolated but not capped, against the exact
    # truncated gap
    m = MeasureSpec.two_sided_exponential()
    b2 = 2.0 * m.truncation_interval(1e-12)[1]
    coarse = _gap_single(m, b2, 8001)
    fine = _gap_single(m, b2, 16001, coarse)[1].value
    lam = fine + (fine - coarse[1].value) / 3.0
    exact = _exponential_truncated_gap(b2)
    assert abs(lam - exact) <= 1e-11 * exact


def test_gap_is_steady_under_a_one_ulp_truncation_change():
    # the certified solve leaves rounding-level noise in the extrapolated
    # gap, not the 1e-10 of a bisection tolerance scaled by |S| ~ 1/h^2
    m = MeasureSpec.gaussian(1.3)
    b = m.truncation_interval(1e-12)[1]
    gaps = [spectral._spectral_gap.__wrapped__(m, GapOptions(b=bb))
            for bb in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
    assert max(gaps) - min(gaps) <= 2e-11 * min(gaps)


def _double_well(x):
    x = np.asarray(x, dtype=float)
    return x ** 4 / 4.0 - 3.0 * x ** 2, x ** 3 - 6.0 * x, 3.0 * x ** 2 - 6.0


def test_crop_keeps_an_odd_count_at_the_last_node():
    # the kept window (nodes 7..10) reaches the last node with an even
    # count, so it grows by one node to the left
    grid = Grid(0.0, 10.0, 11)
    nu = np.array([0.0] * 7 + [1.0] * 4)
    sub, w, x = _crop_support(nu, grid, grid.nodes())
    assert (sub.a, sub.b, sub.n) == (6.0, 10.0, 5)
    assert np.array_equal(w, nu[6:])
    assert np.array_equal(x, grid.nodes()[6:])


def test_small_gap_matches_tight_bisection():
    # a double well's gap, about 3e-4, far below |S| ~ 1e7: the certified
    # value agrees with a bisection run to full precision on the same
    # mass-scaled matrix
    m = MeasureSpec.custom(_double_well, symmetric=True)
    b, n = m.truncation_interval(1e-12)[1], 8001
    grid = Grid.symmetric_grid(b, n)
    grid, w = _crop_support(m.density(grid.nodes()), grid, floor=1e-290)
    prob = assemble(w, w, grid)
    s = 1.0 / np.sqrt(prob.mass_diag)
    ref = scipy.linalg.eigh_tridiagonal(
        prob.diag * s * s, prob.off * s[:-1] * s[1:], select="i",
        select_range=(1, 1), eigvals_only=True, tol=1e-300)[0]
    assert 1e-4 < ref < 1e-3
    assert abs(_gap_single(m, b, n)[1].value - ref) <= 2e-7 * ref


def test_power_law_gap_in_remark_bracket():
    # inf V'' <= lambda <= int V'' dnu for strictly log-concave measures
    m = MeasureSpec.power_law(4.0)
    lam = spectral_gap(m)
    a, b = m.truncation_interval(1e-14)
    mean_vdd = integrate(lambda x: -m.log_density(x)[2] * m.density(x),
                         a, b, rel_tol=1e-10, points=(0.0,))
    assert 0.0 <= lam <= mean_vdd + 1e-8
    # the Ritz value of 30 odd monomials, in 120-digit arithmetic, agrees
    # with that of 20 to 19 digits: the gap itself to double precision
    ritz = 2.7371850419544415
    assert abs(lam - ritz) <= 1e-13 * ritz


def _count_gap_singles(monkeypatch) -> list:
    """Clear the gap memo and record every _gap_single call from here on."""
    spectral._spectral_gap.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return _gap_single(*args)

    monkeypatch.setattr(spectral, "_gap_single", counted)
    return calls


def test_gap_memo_shares_equal_specs(monkeypatch):
    calls = _count_gap_singles(monkeypatch)
    opts = GapOptions(n=401)
    first = spectral_gap(MeasureSpec.logistic(), opts)
    assert len(calls) == 2
    # an equal but distinct spec and options object hit the same entry
    assert spectral_gap(MeasureSpec.logistic(), GapOptions(n=401)) is first
    bump = design_bump()[0]
    bumped = spectral_gap(MeasureSpec.gaussian_bump(0.02, bump), opts)
    assert spectral_gap(MeasureSpec.gaussian_bump(0.02, bump), opts) is bumped
    assert len(calls) == 4


def test_gap_memo_keys_on_options(monkeypatch):
    calls = _count_gap_singles(monkeypatch)
    m = MeasureSpec.gaussian(2.0)
    # None stands for the default options and shares their entry
    default = spectral_gap(m)
    assert spectral_gap(m, GapOptions()) is default
    assert len(calls) == 2
    assert spectral._spectral_gap.cache_info().currsize == 1
    # other options miss
    spectral_gap(m, GapOptions(n=401))
    assert len(calls) == 4
    spectral_gap(m, GapOptions(tail_mass=1e-6))
    assert len(calls) == 6
    assert spectral._spectral_gap.cache_info().currsize == 3


def _gap_and_solves(monkeypatch, m, warm):
    """The uncached gap of m and the solves of its two meshes, coarse then
    fine; unless ``warm``, the fine mesh starts cold from the coordinate."""
    solves = []

    def single(m, b, n, coarse=None):
        out = _gap_single(m, b, n, coarse if warm else None)
        solves.append(out[1].solves)
        return out

    monkeypatch.setattr(spectral, "_gap_single", single)
    return spectral._spectral_gap.__wrapped__(m, GapOptions()), solves


_BUMP = design_bump()[0]


@pytest.mark.parametrize("m", [
    MeasureSpec.logistic(), MeasureSpec.two_sided_exponential(),
    *(MeasureSpec.gaussian(s) for s in (0.5, 1.0, 2.0)),
    *(MeasureSpec.power_law(p) for p in (2.0, 3.0, 4.0)),
    *(MeasureSpec.gaussian_bump(e, _BUMP)
      for e in (-0.03, -0.02, -0.01, 0.01, 0.02, 0.03)),
], ids=lambda m: m.label)
def test_warm_meshes_keep_the_cold_gap(monkeypatch, m):
    warm, warm_solves = _gap_and_solves(monkeypatch, m, warm=True)
    cold, cold_solves = _gap_and_solves(monkeypatch, m, warm=False)
    assert abs(warm - cold) <= 1e-11 * cold
    # the coarse mesh starts cold either way; the fine one gains the most
    # where the cold start is slow
    assert warm_solves[0] == cold_solves[0]
    assert warm_solves[1] <= cold_solves[1]
    if m.kind in ("logistic", "exponential"):
        assert warm_solves[1] <= 0.6 * cold_solves[1]


def test_warm_meshes_keep_the_double_well_gap(monkeypatch):
    # its gap, about 3e-4, sits so far below |S| ~ 1e7 that the Rayleigh
    # quotient's rounding leaves each mesh about 1e-8 off a tight bisection
    # (test_small_gap_matches_tight_bisection allows 2e-7), warm or cold;
    # its 2b meshes crop the tails, so one start is read on a cropped mesh
    # and the next from one
    m = MeasureSpec.custom(_double_well, symmetric=True)
    warm, _ = _gap_and_solves(monkeypatch, m, warm=True)
    cold, _ = _gap_and_solves(monkeypatch, m, warm=False)
    assert abs(warm - cold) <= 2e-7 * cold


def _abs_potential(x):
    # the two-sided exponential written as a custom potential
    x = np.asarray(x, dtype=float)
    return np.abs(x), np.sign(x), np.zeros_like(x)


_ABS = MeasureSpec.custom(_abs_potential, symmetric=True, label="custom |x|")
_EXPONENTIAL_TAILS = [MeasureSpec.logistic(), MeasureSpec.two_sided_exponential(),
                      _ABS]
_SUPERLINEAR_TAILS = [
    *(MeasureSpec.gaussian(s) for s in (0.5, 1.0, 2.0)),
    *(MeasureSpec.power_law(p) for p in (1.05, 2.0, 3.0, 4.0)),
    *(MeasureSpec.gaussian_bump(e, _BUMP) for e in (-0.03, 0.03)),
    MeasureSpec.custom(_double_well, symmetric=True, label="double well"),
]


@pytest.mark.parametrize("m", [MeasureSpec.two_sided_exponential(), _ABS],
                         ids=lambda m: m.label)
def test_exponential_gap_is_the_bottom_of_the_essential_spectrum(m):
    # W = psi'^2/4 + psi''/2 is 1/4 everywhere off the kink, and the gap is
    # that bottom, not the truncated eigenvalue 1/4 + k^2 above it
    assert spectral_gap(m) == 0.25


@pytest.mark.parametrize("m, rtol", [
    *((m, 1e-10) for m in (
        MeasureSpec.logistic(), MeasureSpec.two_sided_exponential(),
        MeasureSpec.gaussian(1.0), MeasureSpec.power_law(3.0),
        MeasureSpec.power_law(4.0), MeasureSpec.gaussian_bump(-0.03, _BUMP),
        MeasureSpec.gaussian_bump(0.03, _BUMP), _ABS)),
    # its W grows like x^0.1, so the gap settles slowly in b
    (MeasureSpec.power_law(1.05), 1e-6),
], ids=lambda v: getattr(v, "label", None))
def test_gap_is_invariant_under_the_truncation(m, rtol):
    lam = spectral_gap(m, GapOptions(tail_mass=1e-12))
    deep = spectral_gap(m, GapOptions(tail_mass=1e-16))
    assert abs(deep - lam) <= rtol * lam


def _gap_parts(monkeypatch, m):
    """The uncached gap of m, its mesh-extrapolated value before the cap,
    and W at the fine mesh's end nodes."""
    meshes = []

    def single(*args):
        meshes.append(_gap_single(*args))
        return meshes[-1]

    monkeypatch.setattr(spectral, "_gap_single", single)
    gap = spectral._spectral_gap.__wrapped__(m, GapOptions())
    (_, coarse), (x, fine) = meshes
    _, dpsi, ddpsi = m._raw_psi(x[[0, -1]])
    return (gap, fine.value + (fine.value - coarse.value) / 3.0,
            np.min(dpsi * dpsi / 4.0 + ddpsi / 2.0))


@pytest.mark.parametrize("m", _EXPONENTIAL_TAILS + _SUPERLINEAR_TAILS,
                         ids=lambda m: m.label)
def test_gap_cap_engages_only_for_exponential_tails(monkeypatch, m):
    gap, uncapped, w_end = _gap_parts(monkeypatch, m)
    if m in _EXPONENTIAL_TAILS:
        assert gap == w_end < uncapped
    else:
        assert gap == uncapped < w_end


@pytest.mark.parametrize("kwargs", [
    {"n": 4}, {"n": 2}, {"n": 1}, {"n": -3},
    {"b": 0.0}, {"b": -1.0}, {"b": math.inf}, {"b": math.nan},
])
def test_gap_options_check_their_fields(kwargs):
    with pytest.raises(DomainError):
        GapOptions(**kwargs)


class _UnhashablePotential:
    """A Gaussian potential that compares by value and so has no hash."""

    def __eq__(self, other):
        return isinstance(other, _UnhashablePotential)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x * x / 2.0, x, np.ones_like(x)


def test_gap_memo_skips_unhashable_measures(monkeypatch):
    calls = _count_gap_singles(monkeypatch)
    m = MeasureSpec.custom(_UnhashablePotential(), symmetric=True)
    with pytest.raises(TypeError):
        hash(m)
    opts = GapOptions(n=401)
    lam = spectral_gap(m, opts)
    assert abs(lam - spectral_gap(MeasureSpec.gaussian(1.0), opts)) < 1e-6
    assert spectral_gap(m, opts) == lam
    assert len(calls) == 6
    assert spectral._spectral_gap.cache_info().currsize == 1


def test_odd_parity_matches_gap():
    # the mean-constrained minimum is the gap of the same grid, and its
    # eigenfunction is odd
    m = MeasureSpec.gaussian(1.0)
    grid = Grid.symmetric_grid(8.0, 1601)
    w = m.density(grid.nodes())
    res = solve_smallest(assemble(w, w, grid, constraint_weight=w))
    assert abs(res.value - _gap_single(m, 8.0, 1601)[1].value) < 1e-8
    v = res.eigenvector
    assert np.max(np.abs(v + v[::-1])) < 1e-8


def test_certificate_recovers_from_even_start():
    # an even start vector has no component along the odd minimizer; the
    # inertia count refuses the even mode and the bracket closes on the
    # smallest eigenvalue anyway
    m = MeasureSpec.gaussian(1.0)
    grid = Grid.symmetric_grid(8.0, 1601)
    w = m.density(grid.nodes())
    prob = assemble(w, w, grid, constraint_weight=w)
    expect = solve_smallest(prob).value
    for y0 in (np.ones(grid.n), grid.nodes() ** 2):
        res = _shift_invert(prob, y0)
        assert abs(res.value - expect) < 1e-9
        assert res.lower_bound <= res.value
        v = res.eigenvector
        assert np.max(np.abs(v + v[::-1])) < 1e-8


def test_certificate_does_not_depend_on_the_start_vector():
    # started on the dense reference's second admissible eigenvector, with
    # no part along the first but rounding, the count still refuses the
    # second mode and the solver returns the smallest admissible eigenvalue
    for seed in range(4):
        nu, _, theta, grid = random_oracle_instance(
            np.random.default_rng(seed), 41)
        grid, nu, theta = _crop_support(nu, grid, theta)
        prob = assemble(nu, theta * nu, grid, constraint_weight=nu)
        q = scipy.linalg.null_space(prob.constraint[None, :])
        lam, v = scipy.linalg.eigh(q.T @ _dense(prob) @ q,
                                   q.T @ np.diag(prob.mass_diag) @ q,
                                   subset_by_index=(0, 1))
        res = _shift_invert(prob, q @ v[:, 1])
        assert abs(res.value - lam[0]) <= 1e-12 * lam[0]
        assert res.lower_bound <= res.value


def test_failed_count_raises(monkeypatch):
    # a count that never passes must end in NoConvergence, not in a value
    grid, nu, theta = _logistic_bisector_weights(n=1001)
    constrained = assemble(nu, theta * nu, grid, constraint_weight=nu)
    shifted = assemble(nu, theta * nu, grid, shift=0.25, shift_mass_weight=nu)
    factor = spectral.EigenProblem._factor

    def definite_only(self, sigma):
        factored = factor(self, sigma)
        return factored if factored is not None and factored[1] == 0 else None

    # only positive definite shifts pass: the start shift does, but every
    # shift above the constrained pencil's unconstrained ground state fails,
    # and the bracket halves until the iteration gives up
    monkeypatch.setattr(spectral.EigenProblem, "_factor", definite_only)
    with pytest.raises(NoConvergence, match="did not converge"):
        solve_smallest(constrained)
    # no count at all fails at the start shift
    monkeypatch.setattr(spectral.EigenProblem, "_factor",
                        lambda self, sigma: None)
    for prob in (constrained, shifted):
        with pytest.raises(NoConvergence, match="start shift"):
            solve_smallest(prob)


def test_result_is_certified():
    grid, nu, theta = _logistic_bisector_weights()
    grid, nu, theta = _crop_support(nu, grid, theta)
    for prob in (assemble(nu, theta * nu, grid, constraint_weight=nu),
                 assemble(nu, theta * nu, grid, shift=0.25,
                          shift_mass_weight=nu)):
        res = solve_smallest(prob)
        lam = res.value
        assert res.lower_bound <= lam <= res.lower_bound + 1e-8 * lam
        assert res.residual < 1e-9


def _start_cases():
    """A constrained and a shifted 1-D pencil and a product pencil, each
    with the start vector its solver uses."""
    grid, nu, theta = _logistic_bisector_weights(n=1001)
    grid, nu, theta = _crop_support(nu, grid, theta)
    pencil, *_, v0 = _small_product_pencil()
    return {
        "constrained": (assemble(nu, theta * nu, grid, constraint_weight=nu),
                        grid.nodes()),
        "shifted": (assemble(nu, theta * nu, grid, shift=0.25,
                             shift_mass_weight=nu), np.ones(grid.n)),
        "product": (pencil, v0),
    }


@pytest.mark.parametrize("case", ["constrained", "shifted", "product"])
def test_start_shift_falls_back_to_the_cold_start(case):
    prob, y0 = _start_cases()[case]
    cold = _shift_invert(prob, y0)
    lam = cold.value
    # a start above the eigenvalue fails its count and is forgotten: the
    # cold solve runs as without it, one factorization later
    for start in (lam * (1.0 + 1e-6), 2.0 * lam + 1.0):
        res = _shift_invert(prob, y0, start=start)
        assert res.value == lam
        assert res.lower_bound == cold.lower_bound
        assert res.solves == cold.solves
        assert res.factorizations == cold.factorizations + 1
        assert np.array_equal(res.eigenvector, cold.eigenvector)
    # a start at or below the row-sum bound, or not finite, is not tried
    bound = spectral._start_shift(prob)
    for start in (bound, bound - 1.0, -math.inf, math.inf, math.nan):
        res = _shift_invert(prob, y0, start=start)
        assert (res.value, res.lower_bound, res.factorizations) == (
            lam, cold.lower_bound, cold.factorizations)
    # a start that passes is the bracket's lower end, and the iteration
    # needs no other shift
    res = _shift_invert(prob, y0, start=cold.lower_bound)
    assert res.lower_bound == cold.lower_bound <= res.value
    assert abs(res.value - lam) <= 1e-12 * abs(lam)
    assert res.factorizations == 1


def _logistic_bisector_weights(n=4001, half_width=56.0):
    grid = Grid.symmetric_grid(half_width, n)
    return grid, *boundary_density(MeasureSpec.logistic(), -1, 0.0, grid)


def test_check_P1_logistic_bisector():
    grid, nu, theta = _logistic_bisector_weights()
    p1 = check_P1(nu, theta, grid)
    assert p1.value >= 0.99
    assert abs(p1.value - 1.5) < 1e-3


def test_check_P2_logistic_bisector():
    grid, nu, theta = _logistic_bisector_weights()
    p2 = check_P2(nu, theta, 0.25, grid)
    assert not p2.value >= 0.99
    assert abs(p2.value - 0.6125) < 1e-3


def test_logistic_bisector_refinement():
    # P2 = sqrt(6)/4 and 4 P1 = 6 in closed form; neither drifts as the
    # mesh is refined
    errs = []
    for n in (1001, 4001, 16001):
        grid, nu, theta = _logistic_bisector_weights(n)
        errs.append(abs(4.0 * check_P1(nu, theta, grid).value - 6.0))
        p2 = check_P2(nu, theta, 0.25, grid).value
        if n > 1001:
            assert abs(p2 - math.sqrt(6.0) / 4.0) < 1e-6
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_shifted_indefinite_matches_bisection():
    # a(eps) assembles stiffness minus Theta-mass, an indefinite pencil;
    # reference values from LAPACK bisection on the mass-scaled matrix
    bump, _ = design_bump()
    for eps, a_ref in ((0.01, 0.9850310638383624),
                       (-0.01, 1.017619798361323)):
        assert abs(eigen_curves(bump, eps)[2] - a_ref) < 1e-9


def test_power_p2_with_zero_centre_mass():
    # theta = 12 s^2 vanishes at the centre node, so M is singular there;
    # reference: eliminate that node (static condensation) and solve the
    # dense definite pencil that is left
    m = MeasureSpec.power_law(4.0)
    grid = Grid.symmetric_grid(4.0, 401)
    nu, theta = boundary_density(m, -1, 0.0, grid)
    k = grid.n // 2
    assert theta[k] == 0.0
    prob = assemble(nu, theta * nu, grid, shift=2.7, shift_mass_weight=nu)
    a = np.diag(prob.diag) + np.diag(prob.off, 1) + np.diag(prob.off, -1)
    rest = np.arange(grid.n) != k
    a_red = a[np.ix_(rest, rest)] - np.outer(a[rest, k], a[k, rest]) / a[k, k]
    ref = scipy.linalg.eigh(a_red, np.diag(prob.mass_diag[rest]),
                            eigvals_only=True, subset_by_index=(0, 0))[0]
    res = solve_smallest(prob)
    assert abs(res.value - ref) < 1e-9 * ref
    assert abs(check_P2(nu, theta, 2.7, grid).value - ref) < 1e-9 * ref


def _dense(prob):
    return np.diag(prob.diag) + np.diag(prob.off, 1) + np.diag(prob.off, -1)


def _dense_smallest(prob):
    a, m = _dense(prob), np.diag(prob.mass_diag)
    if prob.constraint is not None:
        c = prob.constraint
        q, _ = np.linalg.qr(np.column_stack([c, np.eye(c.size)[:, :-1]]))
        a, m = q[:, 1:].T @ a @ q[:, 1:], q[:, 1:].T @ m @ q[:, 1:]
    return scipy.linalg.eigh(a, m, eigvals_only=True,
                             subset_by_index=(0, 0))[0]


def test_solver_matches_dense_reference():
    # mean-constrained, shifted and indefinite pencils of random
    # log-concave instances against a dense solve on the constraint space
    rng = np.random.default_rng(1)
    for _ in range(8):
        nu, _, theta, grid = random_oracle_instance(rng, 101)
        grid, nu, theta = _crop_support(nu, grid, theta)
        for prob in (assemble(nu, theta * nu, grid, constraint_weight=nu),
                     assemble(nu, theta * nu, grid, shift=rng.uniform(0, 3),
                              shift_mass_weight=nu),
                     assemble(nu, nu, grid, shift=-1.0,
                              shift_mass_weight=theta * nu)):
            ref = _dense_smallest(prob)
            res = solve_smallest(prob)
            assert abs(res.value - ref) < 1e-9 * abs(ref)
            assert res.lower_bound <= res.value


def _mp_eigenvalue(prob, k):
    """The (k + 1)-th smallest eigenvalue of the pencil (A, M), M diagonal,
    at 30 digits: bisection on the Sturm count of M^(-1/2) A M^(-1/2),
    built from the same double entries, from its Gershgorin interval."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = [1 / mpmath.sqrt(mpmath.mpf(float(m))) for m in prob.mass_diag]
        a = [mpmath.mpf(float(d)) * si * si for d, si in zip(prob.diag, s)]
        off = [abs(mpmath.mpf(float(e)) * s[i] * s[i + 1])
               for i, e in enumerate(prob.off)]
        b2 = [e * e for e in off]
        radius = [x + y for x, y in zip([0, *off], [*off, 0])]

        def below(x):
            """The eigenvalues below x: the negative pivots of T - x."""
            count, d = 0, a[0] - x
            for i in range(len(a)):
                if i:
                    d = a[i] - x - b2[i - 1] / d
                if d == 0:
                    d = mpmath.mpf(10) ** -60
                count += d < 0
            return count

        lo = min(x - r for x, r in zip(a, radius))
        hi = max(x + r for x, r in zip(a, radius))
        for _ in range(100):
            mid = (lo + hi) / 2
            if below(mid) > k:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("n", [21, 41, 201])
@pytest.mark.parametrize("seed", [5, 6])
def test_solver_matches_mpmath_eigenvalues(seed, n):
    # a shifted pencil's smallest eigenvalue, its shift mass not its mass,
    # and the mean-constrained minimum of (w, w), which is the pencil's
    # second eigenvalue: the constraint removes the constant null mode
    rng = np.random.default_rng(seed)
    grid = Grid.symmetric_grid(rng.uniform(1.0, 5.0), n)
    w, mass, shift_mass = np.exp(rng.normal(0.0, 1.0, (3, n)))
    shifted = assemble(w, mass, grid, shift=rng.uniform(0.1, 3.0),
                       shift_mass_weight=shift_mass)
    for prob, k in ((shifted, 0),
                    (assemble(w, w, grid, constraint_weight=w), 1)):
        ref = _mp_eigenvalue(prob, k)
        res = solve_smallest(prob)
        assert abs(res.value - ref) <= 1e-12 * ref
        assert res.lower_bound <= ref


def test_check_P2_rejects_a_negative_shift():
    grid = Grid.symmetric_grid(4.0, 101)
    nu = np.exp(-0.5 * grid.nodes() ** 2)
    with pytest.raises(DomainError, match="nonnegative"):
        check_P2(nu, np.ones(grid.n), -0.1, grid)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(range(5, 42, 2)),
       kind=st.sampled_from(("constrained", "shifted", "indefinite")),
       shift=st.floats(0.1, 3.0))
def test_random_pencils_are_certified(seed, n, kind, shift):
    # the certified bracket of a 1-D pencil contains the dense reference
    nu, _, theta, grid = random_oracle_instance(np.random.default_rng(seed), n)
    grid, nu, theta = _crop_support(nu, grid, theta)
    if kind == "constrained":
        prob = assemble(nu, theta * nu, grid, constraint_weight=nu)
    elif kind == "shifted":
        prob = assemble(nu, theta * nu, grid, shift=shift,
                        shift_mass_weight=nu)
    else:
        prob = assemble(nu, nu, grid, shift=-1.0, shift_mass_weight=theta * nu)
    ref = _dense_smallest(prob)
    res = solve_smallest(prob)
    assert res.lower_bound <= ref + 1e-9 * abs(ref)
    assert res.value >= ref - 1e-9 * abs(ref)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(range(5, 42, 2)),
       shift=st.sampled_from((0.0, 0.5, 2.0)),
       weighted=st.booleans())
def test_constrained_minimum_interlaces(seed, n, shift, weighted):
    # one linear constraint puts the constrained minimum between the first
    # two eigenvalues of the unconstrained pencil (Courant-Fischer), and
    # the certified bracket holds the dense constrained reference
    rng = np.random.default_rng(seed)
    nu, _, theta, grid = random_oracle_instance(rng, n)
    grid, nu, theta = _crop_support(nu, grid, theta)
    c = nu * np.exp(rng.normal(0.0, 0.5, grid.n)) if weighted else nu
    free = assemble(nu, theta * nu, grid, shift=shift, shift_mass_weight=nu)
    prob = assemble(nu, theta * nu, grid, constraint_weight=c, shift=shift,
                    shift_mass_weight=nu)
    lam1, lam2 = scipy.linalg.eigh(_dense(free), np.diag(free.mass_diag),
                                   eigvals_only=True, subset_by_index=(0, 1))
    res = solve_smallest(prob)
    ref = _dense_smallest(prob)
    tol = 1e-9 * lam2
    assert lam1 - tol <= ref <= lam2 + tol
    assert lam1 - tol <= res.value <= lam2 + tol
    assert res.lower_bound <= ref + tol
    assert res.value >= ref - tol


def _backward_error(prob, sigma, solve, r):
    """Componentwise backward error of solve(r) as a solve with
    A - sigma M."""
    shifted = prob.diag - sigma * prob.mass_diag
    x = solve(r)
    back = spectral._tridiagonal_apply(shifted, prob.off, x)
    size = spectral._tridiagonal_apply(np.abs(shifted), np.abs(prob.off),
                                       np.abs(x))
    return float(np.max(np.abs(back - r) / (size + np.abs(r))))


def _graded_blocks(rng, blocks, n, constrained):
    """Tridiagonal pencils with node weights over many decades, stacked
    block by block with zero couplings at the joins."""
    grid = Grid.symmetric_grid(1.0, n)
    parts = []
    for _ in range(blocks):
        w = np.exp(np.cumsum(rng.normal(0.0, 2.0, n)))
        parts.append(assemble(w, w * rng.uniform(0.5, 2.0, n), grid,
                              constraint_weight=w, shift=rng.uniform(-20, 20)))
    return spectral.EigenProblem(
        None, np.concatenate([p.diag for p in parts]),
        np.concatenate([np.r_[p.off, 0.0] for p in parts])[:-1],
        np.concatenate([p.mass_diag for p in parts]),
        np.concatenate([p.constraint for p in parts]) if constrained else None)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       blocks=st.integers(1, 3),
       n=st.sampled_from(range(3, 30, 2)),
       below=st.integers(0, 3),
       constrained=st.booleans())
def test_factor_counts_zero_or_one_negative_pivot(seed, blocks, n, below,
                                                  constrained):
    # _factor counts the pencil's eigenvalues below the shift when there
    # are at most one, and one only with a constraint to absorb it; two or
    # more give None.  Its solve is backward stable either way.
    prob = _graded_blocks(np.random.default_rng(seed), blocks, n, constrained)
    ev = scipy.linalg.eigvalsh(_scaled(_dense(prob), prob.mass_diag))
    sigma = (2.0 * ev[0] - ev[1] if below == 0
             else 0.5 * (ev[below - 1] + ev[below]))
    assume(np.min(np.abs(ev - sigma)) > 1e-8 * np.max(np.abs(ev)))
    factored = prob._factor(sigma)
    if below >= 2 or (below == 1 and not constrained):
        assert factored is None
        return
    solve, neg = factored
    assert neg == below
    r = np.cos(np.arange(len(prob.diag)))
    assert _backward_error(prob, sigma, solve, r) <= 1e-14


def _pivot_problem(diag, off, constrained=True):
    # row maxima of 1 or 4 keep the equilibration exact, so the pivots at
    # sigma = 0 are the ones written in each case
    n = len(diag)
    return spectral.EigenProblem(None, np.array(diag, dtype=float),
                                 np.array(off, dtype=float), np.ones(n),
                                 np.ones(n) if constrained else None)


@pytest.mark.parametrize("diag, off, count", [
    # first nonpositive pivot at the last index, nothing left to restart on
    ([4.0, 4.0, -1.0], [-1.0, -1.0], 1),
    # a negative pivot then a one-entry tail: positive, then negative
    ([4.0, -1.0, 4.0], [-1.0, -1.0], 1),
    ([4.0, -1.0, -4.0], [-1.0, -1.0], None),
    # a negative pivot then a longer tail with a second one
    ([4.0, -1.0, 4.0, -4.0], [-1.0, -1.0, -1.0], None),
    # exact zero pivots, inside and at the last index, have no count
    ([1.0, 1.0, 4.0], [-1.0, -1.0], None),
    ([1.0, 1.0], [-1.0], None),
    # a tiny negative pivot, whose unpivoted solve loses backward stability
    ([-1e-12, 1.0, 1.0, 1.0], [1.0, 0.5, 0.5], 1),
    # a subnormal one, whose Schur update e_k^2 / d_k overflows to -inf
    ([1.0, -1e-320, 1.0, 1.0, 1.0], [0.0, 1.0, 0.5, 0.5], 1),
], ids=["last", "tail-of-one", "tail-of-one-negative", "two-negative",
        "zero", "zero-last", "tiny-negative", "subnormal-negative"])
def test_factor_edge_pivots(diag, off, count):
    # None leaves the shift failed, which is right only with an eigenvalue
    # at or below it
    prob = _pivot_problem(diag, off)
    ev = np.linalg.eigvalsh(_dense(prob))
    factored = prob._factor(0.0)
    if count is None:
        assert factored is None
        assert np.min(ev) <= 1e-15
        return
    solve, neg = factored
    assert neg == count == np.count_nonzero(ev < 0.0)
    assert _backward_error(prob, 0.0, solve, np.ones(len(diag))) <= 1e-14
    # one negative pivot and no constraint to absorb it: no count
    assert _pivot_problem(diag, off, constrained=False)._factor(0.0) is None


def test_indefinite_block_keeps_its_overflow():
    # the solve of the definite block before a join must not read the
    # indefinite block's rows of the LDL^T factor, whose tiny pivot makes
    # them overflow
    prob = _pivot_problem([1.0, -1e-300, 1.0, 1.0], [0.0, 1.0, 0.5])
    assert np.count_nonzero(np.linalg.eigvalsh(_dense(prob)) < 0.0) == 1
    solve, neg = prob._factor(0.0)
    assert neg == 1
    r = np.array([1.0, 1e10, 1.0, 1.0])
    assert _backward_error(prob, 0.0, solve, r) <= 1e-14


def test_lu_only_at_one_negative_pivot(monkeypatch):
    # positive definite shifts solve on their LDL^T factor; dgttrf runs
    # only at shifts with exactly one negative pivot
    grid, nu, theta = _logistic_bisector_weights()
    grid, nu, theta = _crop_support(nu, grid, theta)
    calls = []
    dgttrf = spectral.dgttrf

    def counted(dl, d, du):
        calls.append((d.copy(), dl.copy()))
        return dgttrf(dl, d, du)

    monkeypatch.setattr(spectral, "dgttrf", counted)
    p2 = solve_smallest(assemble(nu, theta * nu, grid, shift=0.25,
                                 shift_mass_weight=nu))
    assert p2.factorizations >= 2
    assert calls == []
    p1 = solve_smallest(assemble(nu, theta * nu, grid, constraint_weight=nu))
    assert 1 <= len(calls) <= p1.factorizations
    for d, e in calls:
        ev = scipy.linalg.eigvalsh_tridiagonal(d, e)
        assert np.count_nonzero(ev < 0.0) == 1


def _stacked_with_one_indefinite(sizes, indefinite):
    """Graded pencils L + M stacked with zero couplings at the joins, except
    block ``indefinite``, which is L - M/4: at shift 0 its ground state,
    the constant, gives the one negative eigenvalue.  A one-node block is
    the 1 x 1 pencil (1, 1) or (-1/4, 1)."""
    rng = np.random.default_rng(len(sizes))
    diag, off, mass = [], [], []
    for b, n in enumerate(sizes):
        shift = -0.25 if b == indefinite else 1.0
        if n == 1:
            diag.append([shift])
            off.append([0.0])
            mass.append([1.0])
            continue
        w = np.exp(rng.normal(0.0, 1.0, n))
        p = assemble(w, w * rng.uniform(0.5, 2.0, n),
                     Grid.symmetric_grid(1.0, n), shift=shift)
        diag.append(p.diag)
        off.append(np.r_[p.off, 0.0])
        mass.append(p.mass_diag)
    mass = np.concatenate(mass)
    return spectral.EigenProblem(None, np.concatenate(diag),
                                 np.concatenate(off)[:-1], mass, mass)


@pytest.mark.parametrize("sizes, indefinite", [
    ((5, 7, 3), 0), ((5, 7, 3), 1), ((5, 7, 3), 2), ((5, 1, 3), 1),
    ((1, 7, 1), 1)],
    ids=["first", "middle", "last", "one-node", "one-node-neighbours"])
def test_lu_covers_only_the_indefinite_block(monkeypatch, sizes, indefinite):
    # the blocks around the negative pivot solve on the LDL^T factors; the
    # pivoted LU sees only the block that holds it, and none of one node
    prob = _stacked_with_one_indefinite(sizes, indefinite)
    ev = scipy.linalg.eigvalsh(_scaled(_dense(prob), prob.mass_diag))
    assert np.count_nonzero(ev < 0.0) == 1
    assert np.min(np.abs(ev)) > 1e-3
    lengths = []
    dgttrf = spectral.dgttrf

    def counted(dl, d, du):
        lengths.append(len(d))
        return dgttrf(dl, d, du)

    monkeypatch.setattr(spectral, "dgttrf", counted)
    solve, neg = prob._factor(0.0)
    assert neg == 1
    r = np.cos(np.arange(len(prob.diag)))
    assert _backward_error(prob, 0.0, solve, r) <= 1e-14
    size = sizes[indefinite]
    assert lengths == ([size] if size > 1 else [])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.sampled_from((MeasureSpec.logistic(), MeasureSpec.gaussian(1.0),
                          MeasureSpec.power_law(4.0))),
       tau=st.floats(-2.0, 2.0),
       log_c=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(range(5, 32, 2)))
def test_conditions_are_scale_free(m, tau, log_c, seed, n):
    # P1, P2 and lambda_2D are Rayleigh quotients: nu -> c nu leaves them
    c = 10.0 ** log_c
    grid = Grid.symmetric_grid(math.sqrt(2.0) * (8.0 + abs(tau)), 4001)
    nu, theta = boundary_density(m, -1, tau, grid)
    for check in (functools.partial(check_P1, theta=theta, grid=grid),
                  functools.partial(check_P2, theta=theta, lambda_tau=0.5,
                                    grid=grid)):
        ref = check(nu).value
        assert abs(check(c * nu).value - ref) <= 1e-10 * ref
    nu, tau_w, theta, grid = random_oracle_instance(
        np.random.default_rng(seed), n)
    ref = tensor_oracle_2d(nu, tau_w, theta, grid).lambda_2d
    scaled = tensor_oracle_2d(c * nu, tau_w, theta, grid).lambda_2d
    assert abs(scaled - ref) <= 1e-10 * ref


def test_check_P1_power_witness():
    # u(x) = x witnesses the constrained infimum 1/3 for p = 4
    m = MeasureSpec.power_law(4.0)
    grid = Grid.symmetric_grid(8.0, 4001)
    nu, theta = boundary_density(m, -1, 0.0, grid)
    p1 = check_P1(nu, theta, grid)
    assert not p1.value >= 0.99
    assert abs(p1.value - 1.0 / 3.0) < 1e-4


def _zero_mass_instance():
    # theta lives only where nu has underflowed to 0, so int theta nu = 0
    grid = Grid.symmetric_grid(8.0, 101)
    x = grid.nodes()
    nu = np.exp(-50.0 * x * x)
    theta = np.where(np.abs(x) > 7.0, 1.0, 0.0)
    assert np.all(nu[theta > 0.0] == 0.0)
    return nu, np.exp(-0.5 * x * x), theta, grid


def test_zero_mass_conditions_are_infinite():
    nu, _, theta, grid = _zero_mass_instance()
    for res in (check_P1(nu, theta, grid), check_P2(nu, theta, 0.5, grid)):
        assert res.value == math.inf
        assert res.lower_bound == math.inf
        assert res.residual == 0.0


def test_zero_mass_oracle_is_inconclusive():
    r = tensor_oracle_2d(*_zero_mass_instance())
    assert r.lambda_2d == math.inf
    assert r.p1.value == r.p2.value == math.inf
    assert r.agrees and r.inconclusive


def test_signed_weight_rejected():
    grid = Grid.symmetric_grid(5.0, 201)
    nu = np.exp(-grid.nodes() ** 2)
    theta = np.ones(grid.n)
    theta[10] = -0.5
    with pytest.raises(SignedWeight):
        check_P1(nu, theta, grid)


def _malformed_weights(name, how):
    # one weight of a fixed instance two nodes short or long, or with one
    # non-finite node inside the support
    nu, tau, theta, grid = random_oracle_instance(np.random.default_rng(3), 51)
    weights = {"nu": nu, "tau": tau, "theta": theta}
    w = weights[name]
    if how == "short":
        w = w[:-2]
    elif how == "long":
        w = np.r_[w, w[-2:]]
    else:
        w = w.copy()
        w[grid.n // 2] = float(how)
    weights[name] = w
    return weights, grid


_WEIGHT_CALLS = {
    "oracle": lambda w, grid: tensor_oracle_2d(w["nu"], w["tau"], w["theta"],
                                               grid),
    "P1": lambda w, grid: check_P1(w["nu"], w["theta"], grid),
    "P2": lambda w, grid: check_P2(w["nu"], w["theta"], 0.5, grid),
}


# before the shared check, the oracle cropped mis-sized arrays and returned
# a value, P1 raised numpy's broadcast error on them, a NaN in nu raised
# IndexError from the crop, an inf in theta passed P1 as inf, and a NaN in
# theta failed the oracle's start-shift count
@pytest.mark.parametrize("call, name, how", [
    ("oracle", "theta", "short"), ("oracle", "theta", "long"),
    ("oracle", "tau", "short"), ("oracle", "tau", "long"),
    ("P1", "theta", "short"), ("P1", "theta", "long"),
    ("P1", "nu", "nan"), ("oracle", "nu", "nan"),
    ("P1", "theta", "inf"), ("oracle", "theta", "nan"),
    ("P2", "nu", "short"), ("P2", "theta", "-inf"),
])
def test_malformed_weights_are_refused(call, name, how):
    weights, grid = _malformed_weights(name, how)
    with pytest.raises(DomainError, match="weight"):
        _WEIGHT_CALLS[call](weights, grid)


def test_brascamp_lieb_values():
    # Gaussian, u = x^2: Var = 2 and int u'^2 / V'' = 4, residual 2
    m = MeasureSpec.gaussian(1.0)
    r = brascamp_lieb_residual(m, lambda x: np.asarray(x) ** 2,
                               du=lambda x: 2.0 * np.asarray(x))
    assert abs(r - 2.0) < 1e-6    # truncation at 1e-10 tail mass
    # u = x saturates the inequality exactly
    r = brascamp_lieb_residual(m, lambda x: np.asarray(x),
                               du=lambda x: np.ones_like(np.asarray(x)))
    assert abs(r) < 1e-6


def test_brascamp_lieb_requires_convexity():
    def pot(x):
        x = np.asarray(x, dtype=float)
        # double well: concave near the origin
        return (x ** 2 - 1.0) ** 2, 4 * x * (x ** 2 - 1), 12 * x ** 2 - 4.0

    m = MeasureSpec.custom(pot, symmetric=True)
    with pytest.raises(NonConvexPotential):
        brascamp_lieb_residual(m, lambda x: np.asarray(x))


def _product_pencil(nu, tau, theta, grid, mu_cut=math.inf):
    # the oracle's decoupled pencil, cut at mu_cut (by default whole), and
    # the floor of the blocks it drops, with the whole assembled 2-D
    # counterpart as a dense reference: A2, the diagonal of M2, c2 and the
    # start vector
    x = grid.nodes()
    px = assemble(tau, tau, grid, constraint_weight=tau)
    py = assemble(nu, theta * nu, grid, constraint_weight=nu)
    pencil, phi, floor = _decoupled_pencil(px, py, py.constraint, mu_cut)

    def tri(p):
        return sp.diags([p.off, p.diag, p.off], [-1, 0, 1])

    a2 = (sp.kron(sp.diags(py.constraint), tri(px))
          + sp.kron(tri(py), sp.diags(px.mass_diag))).toarray()
    mass2 = np.outer(py.mass_diag, px.mass_diag).ravel()
    c2 = np.outer(py.constraint, px.constraint).ravel()
    v0 = (phi.T @ (px.mass_diag * x))[:, None] + np.outer(
        phi.T @ px.mass_diag, x)
    return pencil, floor, a2, mass2, c2, v0.ravel()


def _scaled(a2, mass2):
    # M2^(-1/2) A2 M2^(-1/2): the tails' stiffness and mass scale together,
    # so its entries stay of order 1/h^2 where M2 spans many decades
    s = 1.0 / np.sqrt(mass2)
    return s[:, None] * a2 * s


def _constrained_reference(a2, mass2, c2):
    q = scipy.linalg.null_space((c2 / np.sqrt(mass2))[None, :])
    return scipy.linalg.eigh(q.T @ _scaled(a2, mass2) @ q, eigvals_only=True,
                             subset_by_index=(0, 0))[0]


def _small_product_pencil():
    # two Gaussians and a non-constant theta, small enough for a dense
    # reference; tau off-centre, so that every x mode meets the constraint
    grid = Grid.symmetric_grid(5.0, 21)
    x = grid.nodes()
    return _product_pencil(
        np.exp(-0.5 * x ** 2), np.exp(-0.5 * ((x - 0.8) / 1.3) ** 2),
        1.0 + 0.3 * np.cos(x), grid)


def test_product_pencil_is_certified(monkeypatch):
    pencil, floor, a2, mass2, c2, v0 = _small_product_pencil()
    assert floor == math.inf
    res = _shift_invert(pencil, v0)
    lam = res.value
    assert res.lower_bound <= lam <= res.lower_bound + 1e-9 * lam
    ref = _constrained_reference(a2, mass2, c2)
    assert res.lower_bound <= ref * (1 + 1e-12)
    assert lam >= ref * (1 - 1e-12)
    # the blocks' negative pivots count the assembled pencil's eigenvalues
    # below the shift (Sylvester): one below gives 1, two give no count
    ev = scipy.linalg.eigvalsh(_scaled(a2, mass2))
    assert pencil._factor(0.5 * (ev[0] + ev[1]))[1] == 1
    assert pencil._factor(0.5 * (ev[1] + ev[2])) is None
    # a start shift above the eigenvalue fails its count
    monkeypatch.setattr(spectral, "_start_shift", lambda p: 2.0 * lam)
    with pytest.raises(NoConvergence):
        _shift_invert(pencil, v0)


def test_decoupling_refuses_a_non_congruence(monkeypatch):
    # the count is the 2-D one only while Phi is a congruence; eigenvectors
    # off by 1e-9 must be refused, not used
    eigh_tridiagonal = spectral.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        mu, q = eigh_tridiagonal(*args, **kwargs)
        return mu, q + 1e-9 * np.cos(np.arange(q.size)).reshape(q.shape)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", perturbed)
    with pytest.raises(NoConvergence):
        tensor_oracle_2d(*random_oracle_instance(np.random.default_rng(3)))


@contextlib.contextmanager
def _two_d_solves():
    """The results of the solves inside the block whose pencil no single
    grid carries: the oracle's 2-D solves."""
    solves = []
    shift_invert = spectral._shift_invert

    def recorded(problem, y, start=None):
        res = shift_invert(problem, y, start)
        if problem.grid is None:
            solves.append(res)
        return res

    with mock.patch.object(spectral, "_shift_invert", recorded):
        yield solves


@contextlib.contextmanager
def _cuts():
    """The (mu_cut, blocks kept, floor) of each decoupled pencil the oracle
    builds."""
    cuts = []
    decoupled = spectral._decoupled_pencil

    def recorded(x, y, weight, mu_cut):
        pencil, phi, floor = decoupled(x, y, weight, mu_cut)
        cuts.append((mu_cut, phi.shape[1], floor))
        return pencil, phi, floor

    with mock.patch.object(spectral, "_decoupled_pencil", recorded):
        yield cuts


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(range(5, 26, 2)))
def test_random_product_pencils(seed, n):
    nu, tau, theta, grid = random_oracle_instance(np.random.default_rng(seed),
                                                  n)
    with _two_d_solves() as solves:
        r = tensor_oracle_2d(nu, tau, theta, grid)
    expect = min(r.p1.value, r.p2.value)
    assert abs(r.lambda_2d - expect) <= 1e-9 * expect
    assert r.residual <= 1e-10
    # started from the 1-D brackets, the 2-D count passes at once
    assert [res.factorizations for res in solves] == [1]
    # the certified bracket of the pencil the oracle solves contains the
    # dense reference
    grid, nu, tau, theta = _crop_support(nu, grid, tau, theta)
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)
    pencil, _, a2, mass2, c2, v0 = _product_pencil(nu, tau, theta, grid)
    res = _shift_invert(pencil, v0)
    ref = _constrained_reference(a2, mass2, c2)
    assert res.lower_bound <= ref * (1 + 1e-9)
    assert res.value >= ref * (1 - 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_cut_pencil_brackets_the_whole_product_pencil(seed):
    # the oracle solves only the blocks at or below mu_cut; its value and
    # bracket must still contain the whole assembled pencil's minimum
    nu, tau, theta, grid = random_oracle_instance(np.random.default_rng(seed),
                                                  25)
    with _two_d_solves() as solves, _cuts() as cuts:
        r = tensor_oracle_2d(nu, tau, theta, grid)
    [(mu_cut, kept, floor)] = cuts
    [res] = solves
    grid, nu, tau, theta = _crop_support(nu, grid, tau, theta)
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)
    assert kept < grid.n
    _, _, a2, mass2, c2, _ = _product_pencil(nu, tau, theta, grid)
    ref = _constrained_reference(a2, mass2, c2)
    assert res.lower_bound <= ref * (1 + 1e-12)
    assert r.lambda_2d >= ref * (1 - 1e-12)
    assert res.value >= ref * (1 - 1e-12)
    assert r.lambda_2d < floor
    # every dropped block lies above the floor: mu_k W + A_y on M_y, whole
    px = assemble(tau, tau, grid, constraint_weight=tau)
    py = assemble(nu, theta * nu, grid, constraint_weight=nu)
    s = 1.0 / np.sqrt(px.mass_diag)
    mu = scipy.linalg.eigvalsh_tridiagonal(px.diag * s * s,
                                           px.off * s[:-1] * s[1:])
    assert np.count_nonzero(mu <= mu_cut) == kept
    dropped = mu[kept:]
    ay = np.diag(py.diag) + np.diag(py.off, 1) + np.diag(py.off, -1)
    sy = 1.0 / np.sqrt(py.mass_diag)
    for m in dropped:
        block = sy[:, None] * (m * np.diag(py.constraint) + ay) * sy
        assert scipy.linalg.eigvalsh(block)[0] >= floor


def test_cut_below_lambda_2d_is_refused(monkeypatch):
    # a P1 reported at 0.1x its value puts mu_cut, and the floor of the
    # dropped blocks, at 0.2 P1, below lambda_2D = P1: the cut pencil's
    # count no longer speaks for the whole one, and the oracle must say so
    # instead of returning a higher mode
    inst = _random_instance(900, 37, 101)
    ref = tensor_oracle_2d(*inst)
    assert ref.p1.value < ref.p2.value
    check = spectral.check_P1

    def too_low(nu, theta, grid):
        res = check(nu, theta, grid)
        return dataclasses.replace(res, value=0.1 * res.value)

    monkeypatch.setattr(spectral, "check_P1", too_low)
    with pytest.raises(NoConvergence, match="floor"):
        tensor_oracle_2d(*inst)


def _logistic_bisector_instance():
    grid = Grid.symmetric_grid(24.0, 151)
    m = MeasureSpec.logistic()
    nu, theta = boundary_density(m, -1, 0.0, grid)
    return nu, m.density(grid.nodes()), theta, grid


def _random_instance(gen_seed, draw, n):
    rng = np.random.default_rng(gen_seed)
    for _ in range(draw):
        inst = random_oracle_instance(rng, n)
    return inst


@pytest.mark.parametrize("instance, holds, most_blocks", [
    # the logistic tau has a gap of 1/4, so more of its modes lie below the
    # cut
    pytest.param(_logistic_bisector_instance, False, 10,
                 id="logistic-bisector"),
    # P1 and P2 within 0.95-3.4% of each other, and near ties 0.02%, 1.2%
    # and 0.8% apart
    *(pytest.param(functools.partial(_random_instance, *k), holds, 4,
                   id="-".join(map(str, k)))
      for k, holds in (((7, 12, 201), True), ((5, 8, 151), False),
                       ((903, 47, 201), True), ((904, 36, 151), True),
                       ((900, 97, 101), True), ((900, 37, 101), False),
                       ((901, 61, 151), False))),
])
def test_tensor_oracle_matches_1d_conditions(instance, holds, most_blocks):
    with _two_d_solves() as solves, _cuts() as cuts:
        r = tensor_oracle_2d(*instance())
    assert [res.factorizations for res in solves] == [1]
    # the cut keeps a few of the 87-173 blocks, and every dropped one lies
    # above lambda_2D
    [(_, kept, floor)] = cuts
    assert kept <= most_blocks
    assert floor > r.lambda_2d
    # every value lies outside the 0.02 band around 1 where a split verdict
    # is a tie, so the two verdicts agree outright
    assert r.agrees and not r.inconclusive
    assert (min(r.p1.value, r.p2.value) >= 0.99) == holds
    # fast diagonalization in the tau factor splits the 2-D pencil into the
    # P1 pencil and P2 pencils shifted by the tau eigenvalues, so on the
    # grid lambda_2D = min(P1, P2) exactly
    expect = min(r.p1.value, r.p2.value)
    assert abs(r.lambda_2d - expect) <= 1e-9 * expect


def test_near_tie_takes_one_factorization():
    # P1 and P2 0.8% apart: a cold start spent 13 factorizations here, 8 of
    # them on overshoot, and reached lambda_2D = 0.7044267873075059
    with _two_d_solves() as solves:
        r = tensor_oracle_2d(*_random_instance(901, 61, 151))
    assert [res.factorizations for res in solves] == [1]
    assert abs(r.lambda_2d - 0.7044267873075059) <= 1e-13 * r.lambda_2d


def test_oracle_falls_back_from_a_wrong_bracket(monkeypatch):
    # the start only saves work: with P1's bracket 1.5x too high the start
    # lies above lambda_2D, fails the 2-D count, and the cold solve of the
    # cut pencil runs
    inst = _random_instance(900, 37, 101)
    ref = tensor_oracle_2d(*inst)
    assert ref.p1.value < ref.p2.value
    check = spectral.check_P1

    def too_high(nu, theta, grid):
        res = check(nu, theta, grid)
        return dataclasses.replace(res, lower_bound=1.5 * res.lower_bound)

    factor = spectral.EigenProblem._factor
    shifts = []

    def counted(self, sigma):
        factored = factor(self, sigma)
        if self.grid is None:
            shifts.append((sigma, factored is not None))
        return factored

    monkeypatch.setattr(spectral, "check_P1", too_high)
    monkeypatch.setattr(spectral.EigenProblem, "_factor", counted)
    r = tensor_oracle_2d(*inst)
    assert abs(r.lambda_2d - ref.lambda_2d) <= 1e-13 * ref.lambda_2d
    start = min(1.5 * ref.p1.lower_bound, ref.p2.lower_bound)
    first, *rest = shifts
    assert first == (start, False)
    # the rest is the cold solve of the same cut pencil, shift for shift;
    # the bracket moved, P1's value did not, and with it the cut
    grid, nu, tau, theta = _crop_support(inst[0], inst[3], inst[1], inst[2])
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)
    mu_cut = (spectral._CUT_SLACK * min(ref.p1.value, ref.p2.value)
              * float(np.max(theta)))
    pencil, *_, v0 = _product_pencil(nu, tau, theta, grid, mu_cut)
    shifts.clear()
    cold = _shift_invert(pencil, v0)
    assert rest == shifts
    assert len(shifts) == cold.factorizations > 1
    assert shifts[0] == (spectral._start_shift(pencil), True)


def test_tensor_oracle_budget():
    grid = Grid.symmetric_grid(8.0, 301)
    w = np.exp(-grid.nodes() ** 2)
    with pytest.raises(OutOfBudget):
        tensor_oracle_2d(w, w, np.ones(grid.n), grid)


def test_random_oracle_instance_deterministic():
    a = random_oracle_instance(np.random.default_rng(5))
    b = random_oracle_instance(np.random.default_rng(5))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[2], b[2])
    assert a[3] == b[3]
    assert np.all(a[2] > 0.0)
