"""Half-space geometry, stationarity classification and stability verdicts."""

import math

import numpy as np
import pytest

from prodiso.errors import DomainError, HypothesisViolated, NonDifferentiablePoint
from prodiso.halfspace import (
    COORDINATE,
    GAUSSIAN_ALL,
    HalfSpace,
    INCONCLUSIVE,
    NOT_STATIONARY,
    PERIODIC_MINUS,
    STABLE,
    SYMMETRIC_PLUS,
    UNSTABLE,
    boundary_density,
    boundary_measure,
    classify_stationary,
    coordinate_stability,
    coordinate_stable_region,
    mean_curvature_residual,
    noncoordinate_stability,
    projection_density,
)
from prodiso.measures import BumpFunction, MeasureSpec
from prodiso.numerics import Grid, TabulatedDensity, _partial_sums

LOGISTIC = MeasureSpec.logistic()
GAUSSIAN = MeasureSpec.gaussian(1.0)
POWER4 = MeasureSpec.power_law(4.0)


def test_halfspace_normalization():
    hs = HalfSpace((3.0, 4.0), 5.0)
    assert abs(np.linalg.norm(hs.v) - 1.0) < 1e-14
    assert hs.reference == 1
    assert abs(hs.tau - 5.0 / 0.8) < 1e-12
    with pytest.raises(DomainError):
        HalfSpace((0.0, 0.0), 1.0)


def test_constructors():
    hs = HalfSpace.coordinate(1, 0.7, 3)
    assert hs.v == (0.0, 1.0, 0.0)
    assert hs.nonzero == (1,)
    b = HalfSpace.bisector(-1, 0.0, 4)
    assert b.nonzero == (0, 1)
    assert abs(b.v[0] - 1 / math.sqrt(2)) < 1e-14
    assert abs(b.alpha(1) + 1.0) < 1e-14
    with pytest.raises(DomainError):
        HalfSpace.bisector(2, 0.0)


def test_classify_coordinate():
    v = classify_stationary([LOGISTIC] * 3, HalfSpace.coordinate(2, 1.3, 3))
    assert v.tag == COORDINATE
    assert v.stationary


def test_classify_bisector_minus():
    v = classify_stationary([LOGISTIC, LOGISTIC], HalfSpace.bisector(-1, 0.0))
    assert v.tag == PERIODIC_MINUS
    assert v.stationary
    assert v.residual < 1e-10


def test_classify_bisector_plus():
    v = classify_stationary([LOGISTIC, LOGISTIC], HalfSpace.bisector(1, 0.0))
    assert v.tag == SYMMETRIC_PLUS
    assert v.stationary


def test_classify_not_stationary():
    # logistic bisector with nonzero offset breaks the matching identity
    v = classify_stationary([LOGISTIC, LOGISTIC], HalfSpace.bisector(1, 0.8))
    assert v.tag == NOT_STATIONARY
    assert not v.stationary
    assert v.residual > 1e-3


def test_classify_gaussian_any_direction():
    hs = HalfSpace((0.6, -0.8, 0.1), 0.4)
    v = classify_stationary([GAUSSIAN] * 3, hs)
    assert v.tag == GAUSSIAN_ALL
    assert v.stationary


def test_mean_curvature_cross_check():
    r = mean_curvature_residual([LOGISTIC, LOGISTIC],
                                HalfSpace.bisector(-1, 0.0))
    assert r < 1e-10
    r = mean_curvature_residual([LOGISTIC, LOGISTIC],
                                HalfSpace.bisector(1, 0.8))
    assert r > 1e-3


def test_coordinate_stability_logistic():
    # -psi''(0) = 1/2 > 1/4 = gap: the symmetric half-line is unstable
    assert coordinate_stability(LOGISTIC, 0.0).tag == UNSTABLE
    assert coordinate_stability(LOGISTIC, 3.0).tag == STABLE


def test_coordinate_stability_gaussian_threshold():
    # Gaussian sits exactly at threshold for every t and is stable
    for t in (0.0, 1.0, -2.5):
        assert coordinate_stability(GAUSSIAN, t).tag == STABLE


def test_coordinate_stable_region_logistic():
    region = coordinate_stable_region(LOGISTIC)
    assert len(region) == 2
    # threshold: 2 F(t) (1 - F(t)) = 1/4, i.e. |t| = 2 log(1 + sqrt 2)
    t_star = 2.0 * math.log(1.0 + math.sqrt(2.0))
    assert region[0][0] == -math.inf and region[1][1] == math.inf
    assert abs(region[0][1] + t_star) < 1e-6
    assert abs(region[1][0] - t_star) < 1e-6


def test_coordinate_stable_region_gaussian_and_power():
    assert coordinate_stable_region(GAUSSIAN) == [(-math.inf, math.inf)]
    region = coordinate_stable_region(POWER4)
    assert len(region) == 1
    lam = 2.7371850433
    t_star = math.sqrt(lam / 12.0)
    assert abs(region[0][0] + t_star) < 1e-4
    assert abs(region[0][1] - t_star) < 1e-4


def test_noncoordinate_logistic_dims():
    assert noncoordinate_stability(LOGISTIC, -1, 0.0, 2).tag == STABLE
    v = noncoordinate_stability(LOGISTIC, -1, 0.0, 3)
    assert v.tag == UNSTABLE
    assert v.certificates["p2_infimum"] < 1.0
    # verdicts are dimension independent beyond the 2 / >=3 split
    assert noncoordinate_stability(LOGISTIC, -1, 0.0, 7).tag == UNSTABLE


def test_noncoordinate_power_unstable_in_dim2():
    assert noncoordinate_stability(POWER4, -1, 0.0, 2).tag == UNSTABLE


def test_noncoordinate_gaussian_inconclusive():
    # the Gaussian sits exactly at the stability threshold
    assert noncoordinate_stability(GAUSSIAN, 1, 0.0, 3).tag == INCONCLUSIVE


@pytest.mark.parametrize("m, alpha, tau, dim, tag", [
    # far from the centre the boundary density is tiny (max 1.7e-23 at
    # power(4), tau = 4.5, as f(s) f(tau + s)); an absolute zero-mass test
    # read each of these rows as stable with P1 = P2 = inf
    *((POWER4, -1, tau, 3, UNSTABLE) for tau in (4.5, 5.0, 6.0, 8.0, 12.0)),
    # P1 = 1 exactly for a Gaussian at every tau
    *((GAUSSIAN, -1, tau, 3, INCONCLUSIVE) for tau in (11.0, 12.0, 30.0)),
    (LOGISTIC, -1, 34.0, 2, UNSTABLE),
])
def test_noncoordinate_far_offsets(m, alpha, tau, dim, tag):
    v = noncoordinate_stability(m, alpha, tau, dim)
    assert v.tag == tag
    assert all(math.isfinite(x) for x in v.certificates.values())
    assert v.certificates["p1_eigenvalue"] < 1.0 + 1e-2


def test_noncoordinate_rejects_asymmetric():
    with pytest.raises(HypothesisViolated):
        noncoordinate_stability(MeasureSpec.custom(
            lambda x: ((np.asarray(x) - 0.3) ** 2 / 2, np.asarray(x) - 0.3,
                       np.ones_like(np.asarray(x, dtype=float)))), 1, 0.0, 2)
    with pytest.raises(DomainError):
        noncoordinate_stability(LOGISTIC, 2, 0.0, 3)


def test_projection_density_variance():
    hs = HalfSpace((1.0, 1.0), 0.0)
    d = projection_density([LOGISTIC, LOGISTIC], hs)
    var = LOGISTIC.variance
    assert abs(d.variance() - var) < 1e-4
    assert abs(d.mean()) < 1e-10


def test_projection_density_gaussian_stability():
    # a unit-norm combination of standard Gaussians is standard Gaussian;
    # factors sampled directly leave only round-off at the grid nodes
    hs = HalfSpace((0.6, -0.48, 0.64), 0.0)
    proj = projection_density([GAUSSIAN] * 3, hs)
    x = proj.grid.nodes()
    exact = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(proj.values - exact)) < 1e-10


def test_projection_density_matches_self_convolve_scaled():
    # the scaled self-convolution of one law is the fold of its directly
    # sampled factors: projection_density gives the same values, and the
    # sum keeps the law's variance for a unit direction
    hs = HalfSpace((0.6, -0.48, 0.64), 0.0)
    b = LOGISTIC.truncation_interval(1e-12)[1]
    factors = []
    for w in hs.v:
        g = Grid.covering(abs(w) * b, 0.005)
        factors.append(TabulatedDensity(
            g, LOGISTIC.density(g.nodes() / w) / abs(w)).normalized())
    for out in _partial_sums(factors):
        pass
    proj = projection_density([LOGISTIC] * 3, hs)
    assert out.grid == proj.grid
    assert np.max(np.abs(out.values - proj.values)) <= 1e-15
    assert abs(proj.variance() - LOGISTIC.variance) < 1e-8


def test_boundary_measure_coordinate_exact():
    hs = HalfSpace.coordinate(0, 1.0, 2)
    val = boundary_measure([GAUSSIAN, GAUSSIAN], hs)
    expect = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(val - expect) < 1e-12


def test_boundary_measure_bisector_logistic():
    hs = HalfSpace.bisector(-1, 0.0)
    val = boundary_measure([LOGISTIC, LOGISTIC], hs)
    assert abs(val - math.sqrt(2.0) / 6.0) < 1e-10


def _random_gaussian_offsets():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(6):
        v = rng.standard_normal(3)
        cases.append((tuple(v / np.linalg.norm(v)), float(rng.uniform(-2.0, 2.0))))
    return cases


@pytest.mark.parametrize("v, t", _random_gaussian_offsets())
def test_boundary_measure_off_the_centre_is_a_node_value(v, t):
    # a unit combination of standard Gaussians is standard Gaussian; the
    # projection grid has t as a node, so no interpolation error enters
    val = boundary_measure([GAUSSIAN] * 3, HalfSpace(v, t))
    expect = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    assert abs(val / expect - 1.0) < 1e-10


@pytest.mark.parametrize("v, t", [((0.002, -0.78, -0.62), 0.85),
                                  ((0.0003, 0.6, -0.8), -1.37)])
def test_boundary_measure_with_a_factor_narrower_than_the_spacing(v, t):
    # the shifted grid is the widest factor's: a factor of width below the
    # spacing stays a point mass at a node instead of vanishing between two
    val = boundary_measure([GAUSSIAN] * 3, HalfSpace(v, t))
    expect = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    assert abs(val / expect - 1.0) < 1e-6


def test_boundary_measure_permutation_equivariant():
    # same two-component direction on different coordinate pairs
    a = boundary_measure([LOGISTIC] * 3, HalfSpace((1.0, -1.0, 0.0), 0.2))
    b = boundary_measure([LOGISTIC] * 3, HalfSpace((0.0, 1.0, -1.0), 0.2))
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("m", [MeasureSpec.two_sided_exponential(),
                               MeasureSpec.power_law(1.5)],
                         ids=lambda m: m.label)
def test_boundary_density_rejects_kinks(m):
    # theta = -psi'' does not exist at 0, a node of every symmetric grid
    with pytest.raises(NonDifferentiablePoint):
        boundary_density(m, -1, 0.0, Grid.symmetric_grid(4.0, 101))


def test_boundary_density_of_bumped_gaussian():
    # on the bisector x1 = x2 of the perturbed Gaussian, nu is proportional
    # to exp(-2 V(s)) and theta is V''(s), V(s) = s^2/2 + eps bump(s)
    bump = BumpFunction((0.7, -0.3), (1.0, 0.0), (1.0, 1.5))
    eps = 0.05
    grid = Grid.symmetric_grid(16.0, 801)
    nu, theta = boundary_density(MeasureSpec.gaussian_bump(eps, bump), -1,
                                 0.0, grid)
    s = grid.nodes() / math.sqrt(2.0)
    b, _, b2 = bump.evaluate(s)
    assert np.array_equal(theta, 1.0 + eps * b2)
    ref = np.exp(-(s * s + 2.0 * eps * b))
    assert np.max(np.abs(nu / nu.max() - ref / ref.max())) <= 1e-14
