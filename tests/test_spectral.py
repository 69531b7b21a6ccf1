"""Eigenvalue solver, spectral gaps, weighted conditions and the 2-D oracle."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _tridiagonal_pencil,
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
    assert abs(res.eigenvalues[0]) < 1e-10
    assert res.residual_norms[0] < 1e-8
    assert np.ptp(res.eigenvector) < 1e-8
    res = solve_smallest(assemble(w, w, grid, constraint_weight=w))
    assert abs(res.eigenvalues[0] - 1.0) < 1e-4
    assert res.residual_norms[0] < 1e-8
    v = res.eigenvector
    assert np.max(np.abs(v + v[::-1])) < 1e-8


def test_gaussian_gap_and_scaling():
    assert abs(spectral_gap(MeasureSpec.gaussian(1.0)) - 1.0) < 1e-6
    for sigma in (0.5, 2.0):
        lam = spectral_gap(MeasureSpec.gaussian(sigma))
        assert abs(lam * sigma ** 2 - 1.0) < 1e-6


def test_logistic_gap():
    lam = spectral_gap(MeasureSpec.logistic())
    assert abs(lam - 0.25) < 1e-6


def test_truncation_extrapolation_model():
    # at fixed truncation b the logistic eigenvalue sits near 1/4 + (pi/2b)^2
    m = MeasureSpec.logistic()
    for b in (20.0, 40.0):
        lam_b = spectral_gap(m, GapOptions(n=4001, b=b, extrapolate=False))
        model = 0.25 + (math.pi / (2 * b)) ** 2
        assert abs(lam_b - model) < 2e-5


def test_mesh_convergence_monotone():
    m = MeasureSpec.logistic()
    limit = 0.25 + (math.pi / 80.0) ** 2
    errs = [abs(spectral_gap(m, GapOptions(n=n, b=40.0, extrapolate=False))
                - limit) for n in (501, 1001, 2001)]
    assert errs[0] > errs[1] > errs[2]


def test_power_law_gap_in_remark_bracket():
    # inf V'' <= lambda <= int V'' dnu for strictly log-concave measures
    m = MeasureSpec.power_law(4.0)
    lam = spectral_gap(m)
    a, b = m.truncation_interval(1e-14)
    mean_vdd = integrate(lambda x: -m.log_density(x)[2] * m.density(x),
                         a, b, rel_tol=1e-10, points=(0.0,))
    assert 0.0 <= lam <= mean_vdd + 1e-8
    assert abs(lam - 2.7371850) < 1e-3


def test_solver_rejects_two_constraints():
    m = MeasureSpec.gaussian(1.0)
    grid = Grid.symmetric_grid(8.0, 801)
    w = m.density(grid.nodes())
    prob = assemble(w, w, grid, constraint_weight=w)
    prob = spectral.EigenProblem(prob.grid, prob.diag, prob.off,
                                 prob.mass_diag, (w, w * grid.nodes()))
    with pytest.raises(DomainError):
        solve_smallest(prob)


def test_odd_parity_matches_gap():
    # the mean-constrained minimum is the gap, found by bisection on the
    # same grid, and its eigenfunction is odd
    m = MeasureSpec.gaussian(1.0)
    grid = Grid.symmetric_grid(8.0, 1601)
    w = m.density(grid.nodes())
    res = solve_smallest(assemble(w, w, grid, constraint_weight=w))
    assert abs(res.eigenvalues[0] - _gap_single(m, 8.0, 1601)) < 1e-8
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
    expect = solve_smallest(prob).eigenvalues[0]
    pencil = _tridiagonal_pencil(prob.diag, prob.off, prob.mass_diag,
                                 *prob.constraints)
    for y0 in (np.ones(grid.n), grid.nodes() ** 2):
        res = _shift_invert(pencil, y0)
        assert abs(res.eigenvalues[0] - expect) < 1e-9
        assert res.lower_bound <= res.eigenvalues[0]
        v = res.eigenvector
        assert np.max(np.abs(v + v[::-1])) < 1e-8


def test_failed_count_raises(monkeypatch):
    # a count that never passes must end in NoConvergence, not in a value
    grid, nu, theta = _logistic_bisector_weights(n=1001)
    prob = assemble(nu, theta * nu, grid, constraint_weight=nu)
    monkeypatch.setattr(spectral, "_negative_pivots", lambda d, q: len(d))
    with pytest.raises(NoConvergence):
        solve_smallest(prob)


def test_result_is_certified():
    grid, nu, theta = _logistic_bisector_weights()
    grid, nu, theta = _crop_support(nu, grid, theta)
    for prob in (assemble(nu, theta * nu, grid, constraint_weight=nu),
                 assemble(nu, theta * nu, grid, shift=0.25,
                          shift_mass_weight=nu)):
        res = solve_smallest(prob)
        lam = res.eigenvalues[0]
        assert res.lower_bound <= lam <= res.lower_bound + 1e-8 * lam
        assert res.residual_norms[0] < 1e-9


def _logistic_bisector_weights(n=4001, half_width=56.0):
    grid = Grid.symmetric_grid(half_width, n)
    return grid, *boundary_density(MeasureSpec.logistic(), -1, 0.0, grid)


def test_check_P1_logistic_bisector():
    grid, nu, theta = _logistic_bisector_weights()
    p1 = check_P1(nu, theta, grid)
    assert p1.holds
    assert abs(p1.value - 1.5) < 1e-3


def test_check_P2_logistic_bisector():
    grid, nu, theta = _logistic_bisector_weights()
    p2 = check_P2(nu, theta, 0.25, grid)
    assert not p2.holds
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
    assert abs(res.eigenvalues[0] - ref) < 1e-9 * ref
    assert abs(check_P2(nu, theta, 2.7, grid).value - ref) < 1e-9 * ref


def _dense_smallest(prob):
    a = np.diag(prob.diag) + np.diag(prob.off, 1) + np.diag(prob.off, -1)
    m = np.diag(prob.mass_diag)
    if prob.constraints:
        c = prob.constraints[0]
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
            assert abs(res.eigenvalues[0] - ref) < 1e-9 * abs(ref)
            assert res.lower_bound <= res.eigenvalues[0]


def test_check_P1_power_witness():
    # u(x) = x witnesses the constrained infimum 1/3 for p = 4
    m = MeasureSpec.power_law(4.0)
    grid = Grid.symmetric_grid(8.0, 4001)
    nu, theta = boundary_density(m, -1, 0.0, grid)
    p1 = check_P1(nu, theta, grid)
    assert not p1.holds
    assert abs(p1.value - 1.0 / 3.0) < 1e-4


def test_signed_weight_rejected():
    grid = Grid.symmetric_grid(5.0, 201)
    nu = np.exp(-grid.nodes() ** 2)
    theta = np.ones(grid.n)
    theta[10] = -0.5
    with pytest.raises(SignedWeight):
        check_P1(nu, theta, grid)


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


def _product_pencil(nu, tau, theta, grid):
    # the oracle's decoupled pencil with its assembled 2-D counterpart, as
    # a dense reference: A2, the diagonal of M2, c2 and the start vector
    x = grid.nodes()
    px = assemble(tau, tau, grid, constraint_weight=tau)
    py = assemble(nu, theta * nu, grid, constraint_weight=nu)
    pencil, phi = _decoupled_pencil(px, py, py.constraints[0])

    def tri(p):
        return sp.diags([p.off, p.diag, p.off], [-1, 0, 1])

    a2 = (sp.kron(sp.diags(py.constraints[0]), tri(px))
          + sp.kron(tri(py), sp.diags(px.mass_diag))).toarray()
    mass2 = np.outer(py.mass_diag, px.mass_diag).ravel()
    c2 = np.outer(py.constraints[0], px.constraints[0]).ravel()
    v0 = (phi.T * px.mass_diag) @ np.add.outer(x, x).T
    return pencil, a2, mass2, c2, v0.ravel()


def _scaled(a2, mass2):
    # M2^(-1/2) A2 M2^(-1/2): the tails' stiffness and mass scale together,
    # so its entries stay of order 1/h^2 where M2 spans many decades
    s = 1.0 / np.sqrt(mass2)
    return s[:, None] * a2 * s


def _constrained_reference(a2, mass2, c2):
    q = scipy.linalg.null_space((c2 / np.sqrt(mass2))[None, :])
    return scipy.linalg.eigh(q.T @ _scaled(a2, mass2) @ q, eigvals_only=True,
                             subset_by_index=(0, 0))[0]


def test_product_pencil_is_certified():
    # two Gaussians and a non-constant theta, small enough for a dense
    # reference; tau off-centre, so that every x mode meets the constraint
    grid = Grid.symmetric_grid(5.0, 21)
    x = grid.nodes()
    pencil, a2, mass2, c2, v0 = _product_pencil(
        np.exp(-0.5 * x ** 2), np.exp(-0.5 * ((x - 0.8) / 1.3) ** 2),
        1.0 + 0.3 * np.cos(x), grid)
    res = _shift_invert(pencil, v0)
    lam = res.eigenvalues[0]
    assert res.lower_bound <= lam <= res.lower_bound + 1e-9 * lam
    ref = _constrained_reference(a2, mass2, c2)
    assert res.lower_bound <= ref * (1 + 1e-12)
    assert lam >= ref * (1 - 1e-12)
    # the blocks' negative pivots count the assembled pencil's eigenvalues
    # below the shift (Sylvester)
    ev = scipy.linalg.eigvalsh(_scaled(a2, mass2))
    for sigma in (pencil.lo, 0.5 * (ev[1] + ev[2]), 0.5 * (ev[6] + ev[7])):
        assert pencil.factor(sigma)[1] == np.count_nonzero(ev < sigma)
    # a start shift above the eigenvalue fails its count
    with pytest.raises(NoConvergence):
        _shift_invert(pencil._replace(lo=2.0 * lam), v0)


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(range(5, 26, 2)))
def test_random_product_pencils(seed, n):
    nu, tau, theta, grid = random_oracle_instance(np.random.default_rng(seed),
                                                  n)
    r = tensor_oracle_2d(nu, tau, theta, grid)
    expect = min(r.p1.value, r.p2.value)
    assert abs(r.lambda_2d - expect) <= 1e-9 * expect
    assert r.residual <= 1e-10
    # the certified bracket of the pencil the oracle solves contains the
    # dense reference
    grid, nu, tau, theta = _crop_support(nu, grid, tau, theta)
    grid, tau, nu, theta = _crop_support(tau, grid, nu, theta)
    pencil, a2, mass2, c2, v0 = _product_pencil(nu, tau, theta, grid)
    res = _shift_invert(pencil, v0)
    ref = _constrained_reference(a2, mass2, c2)
    assert res.lower_bound <= ref * (1 + 1e-9)
    assert res.eigenvalues[0] >= ref * (1 - 1e-9)


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


@pytest.mark.parametrize("instance, holds", [
    pytest.param(_logistic_bisector_instance, False, id="logistic-bisector"),
    # P1 and P2 within 0.95-3.4% of each other, and a 0.02% near tie
    *(pytest.param(functools.partial(_random_instance, *k), holds,
                   id="-".join(map(str, k)))
      for k, holds in (((7, 12, 201), True), ((5, 8, 151), False),
                       ((903, 47, 201), True), ((904, 36, 151), True),
                       ((900, 97, 101), True))),
])
def test_tensor_oracle_matches_1d_conditions(instance, holds):
    r = tensor_oracle_2d(*instance())
    assert r.agrees
    assert (r.p1.holds and r.p2.holds) == holds
    # fast diagonalization in the tau factor splits the 2-D pencil into the
    # P1 pencil and P2 pencils shifted by the tau eigenvalues, so on the
    # grid lambda_2D = min(P1, P2) exactly
    expect = min(r.p1.value, r.p2.value)
    assert abs(r.lambda_2d - expect) <= 1e-9 * expect


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
