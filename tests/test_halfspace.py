"""Half-space geometry, stationarity classification and stability verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso import numerics
from prodiso.errors import (
    DomainError,
    GridTooNarrow,
    HypothesisViolated,
    NonDifferentiablePoint,
)
from prodiso.halfspace import (
    COORDINATE,
    GAUSSIAN_ALL,
    HalfSpace,
    INCONCLUSIVE,
    NOT_STATIONARY,
    PERIODIC_MINUS,
    STABLE,
    SYMMETRIC_PLUS,
    TWO_COMPONENT_MATCHED,
    UNSTABLE,
    _boundary_curvature,
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
from prodiso.numerics import Grid
from prodiso.perturb import design_bump
from prodiso.spectral import DEFAULT_SOLVER_MARGIN, _verdict

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


EXPONENTIAL = MeasureSpec.two_sided_exponential()


@pytest.mark.parametrize("hs, tag", [
    (HalfSpace.bisector(-1, 0.0), PERIODIC_MINUS),
    (HalfSpace.bisector(1, 0.0), SYMMETRIC_PLUS),
    (HalfSpace.bisector(-1, 0.3), NOT_STATIONARY),
    (HalfSpace.bisector(1, 0.3), NOT_STATIONARY),
    (HalfSpace((0.5, 1.0), 0.3), NOT_STATIONARY),
    (HalfSpace((0.5, 1.0), 0.0), NOT_STATIONARY),
    (HalfSpace((1.0, 1.0, 1.0), 0.0), NOT_STATIONARY),
], ids=repr)
def test_exponential_kink_is_seen(hs, tag):
    # H = -sum_i v_i sign(x_i) is constant on the boundary only when
    # t = 0 and |v_i| = |v_j|: psi'' = 0 off the kink, but psi' jumps
    v = classify_stationary([EXPONENTIAL] * hs.dim, hs)
    assert v.tag == tag
    assert v.residual == mean_curvature_residual([EXPONENTIAL] * hs.dim, hs)
    assert (v.residual > 0.5) == (tag == NOT_STATIONARY)


@pytest.mark.parametrize("measures, hs", [
    ([LOGISTIC, POWER4], HalfSpace((0.5, 1.0), 0.3)),
    ([LOGISTIC, GAUSSIAN, POWER4], HalfSpace((0.6, -0.8, 0.1), 0.4)),
], ids=["two", "three"])
def test_boundary_curvature_matches_a_pointwise_sum(measures, hs):
    # the sampled points lie on <x, v> = t, and H is the sum, point by
    # point, of v_i psi_i'(x_i) read through the normalized log-density
    x, h, _ = _boundary_curvature(measures, hs)
    assert np.max(np.abs(x @ np.asarray(hs.v) - hs.t)) <= 1e-12
    for row, hk in zip(x[::50], h[::50]):
        ref = sum(vi * m.log_density(xi)[1]
                  for vi, m, xi in zip(hs.v, measures, row))
        assert abs(hk - ref) <= 1e-12 * (1.0 + abs(ref))


def test_two_component_details_follow_the_reference():
    # j is the larger component, and tau the offset stability reads
    hs = HalfSpace((0.5, 1.0), 0.3)
    v = classify_stationary([LOGISTIC, LOGISTIC], hs)
    assert v.tag == NOT_STATIONARY
    assert (v.details["i"], v.details["j"]) == (0, hs.reference) == (0, 1)
    assert v.details["tau"] == hs.tau
    assert v.details["alpha"] == hs.alpha(0)
    assert abs(v.details["alpha"] - 0.5) <= 1e-15
    assert abs(v.details["violating_sample"]) < 40.0
    g = classify_stationary([GAUSSIAN, GAUSSIAN], hs)
    assert g.tag == TWO_COMPONENT_MATCHED and g.details["tau"] == hs.tau


def test_derivative_readers_never_normalize():
    # psi' and psi'' do not depend on the mass: no call below may run the
    # bumped Gaussian's normalizing quadrature, and the values are those
    # of the normalized reader
    bump = design_bump()[0]
    m = MeasureSpec.gaussian_bump(0.02, bump)
    coord = coordinate_stability(m, 0.5)
    region = coordinate_stable_region(m)
    noncoordinate_stability(m, -1, 0.0, 3, n=1001)
    classify_stationary([m, m], HalfSpace.bisector(1, 0.3))
    mean_curvature_residual([m] * 3, HalfSpace((0.6, -0.8, 0.1), 0.4))
    assert "_log_norm" not in m.__dict__
    ref = MeasureSpec.gaussian_bump(0.02, bump)
    psi2 = ref.log_density(0.5)[2]
    assert coord.certificates["psi_second_at_t"] == psi2
    assert coord.certificates["margin"] == coord.certificates["lambda"] + psi2
    assert region and "_log_norm" in ref.__dict__


def test_coordinate_stability_logistic():
    # -psi''(0) = 1/2 > 1/4 = gap: the symmetric half-line is unstable
    assert coordinate_stability(LOGISTIC, 0.0).tag == UNSTABLE
    assert coordinate_stability(LOGISTIC, 3.0).tag == STABLE


M = DEFAULT_SOLVER_MARGIN


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("values, threshold, tag", [
    # coordinate inputs: lambda + psi''(t) against 0, where 0 +- m is exact
    ((M,), 0.0, STABLE),
    ((_above(M),), 0.0, STABLE),
    ((_below(M),), 0.0, INCONCLUSIVE),
    ((0.0,), 0.0, INCONCLUSIVE),
    ((_above(-M),), 0.0, INCONCLUSIVE),
    ((-M,), 0.0, UNSTABLE),
    ((_below(-M),), 0.0, UNSTABLE),
    # one weighted Poincare value against 1
    ((1.0 + M,), 1.0, STABLE),
    ((_below(1.0 + M),), 1.0, INCONCLUSIVE),
    ((_above(1.0 - M),), 1.0, INCONCLUSIVE),
    ((1.0 - M,), 1.0, UNSTABLE),
    ((math.inf,), 1.0, STABLE),
    # two values: one low value decides, stable needs both high
    ((1.0 + M, 1.0 - M), 1.0, UNSTABLE),
    ((math.inf, 1.0 - M), 1.0, UNSTABLE),
    ((1.0 + M, _below(1.0 + M)), 1.0, INCONCLUSIVE),
    ((1.0 + M, 2.0), 1.0, STABLE),
])
def test_verdict_bands(values, threshold, tag):
    assert _verdict(values, M, threshold) == tag


@pytest.mark.parametrize("margin", [0.0, -1.0, -0.01, math.nan, math.inf])
def test_verdict_rejects_a_margin_outside_zero_inf(margin):
    with pytest.raises(DomainError):
        _verdict((1.0,), margin)
    # the Gaussian's threshold case does not skip the check
    with pytest.raises(DomainError):
        coordinate_stability(GAUSSIAN, 0.0, margin)


def test_coordinate_tag_at_the_margin():
    # a solver margin equal to |lambda + psi''(t)| puts the value on the
    # band's edge, which belongs to the verdict; one ulp more is a tie
    for t, tag in ((0.5, UNSTABLE), (3.0, STABLE)):
        edge = abs(coordinate_stability(LOGISTIC, t).certificates["margin"])
        assert coordinate_stability(LOGISTIC, t, edge).tag == tag
        assert coordinate_stability(LOGISTIC, t, _above(edge)).tag \
            == INCONCLUSIVE


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


_REGION_MEASURES = [LOGISTIC, MeasureSpec.gaussian(0.5), MeasureSpec.gaussian(2.0),
                    MeasureSpec.power_law(1.5), MeasureSpec.power_law(3.0), POWER4,
                    MeasureSpec.two_sided_exponential(),
                    MeasureSpec.gaussian_bump(0.3, design_bump()[0])]


def test_coordinate_stable_region_cuts_at_the_kink():
    # psi'' = 0 on both sides of the exponential's kink, where it does not
    # exist and coordinate_stability raises
    region = coordinate_stable_region(MeasureSpec.two_sided_exponential())
    assert region == [(-math.inf, 0.0), (0.0, math.inf)]
    assert all(type(e) is float for interval in region for e in interval)


@pytest.mark.parametrize("m", _REGION_MEASURES, ids=lambda m: m.label)
def test_coordinate_stable_region_agrees_with_the_verdict(m):
    # inside every interval the verdict's own margin is within the slack
    # and the verdict exists
    region = coordinate_stable_region(m)
    assert all(type(e) is float for interval in region for e in interval)
    ends = [e for interval in region for e in interval]
    assert ends == sorted(ends)
    b = m.truncation_interval(1e-10)[1]
    for lo, hi in region:
        for t in np.linspace(max(lo, -b), min(hi, b), 9)[1:-1]:
            certs = coordinate_stability(m, float(t)).certificates
            lam = certs["lambda"]
            assert -certs["psi_second_at_t"] <= lam + 1e-8 * (1.0 + lam)


def test_bumped_region_ends_are_pinned():
    # the five intervals where the bumped Gaussian's -psi'' stays below its
    # gap; the ends follow the gap, so a change of about 1e-11 in it moves
    # them by about 2e-12 relative
    pinned = [(-1.7491533940730566, -1.426060109893747),
              (-1.1644076185594643, -0.2292868492786611),
              (-0.04158256251697684, 0.04158256251697684),
              (0.2292868492786611, 1.1644076185594643),
              (1.426060109893747, 1.7491533940730566)]
    region = coordinate_stable_region(_REGION_MEASURES[-1])
    assert np.allclose(region, pinned, rtol=1e-12, atol=0.0)


def test_noncoordinate_logistic_dims():
    assert noncoordinate_stability(LOGISTIC, -1, 0.0, 2).tag == STABLE
    v = noncoordinate_stability(LOGISTIC, -1, 0.0, 3)
    assert v.tag == UNSTABLE
    assert v.certificates["p2_infimum"] < 1.0
    # verdicts are dimension independent beyond the 2 / >=3 split
    assert noncoordinate_stability(LOGISTIC, -1, 0.0, 7).tag == UNSTABLE


def test_noncoordinate_certificates_carry_brackets():
    # every eigenvalue behind the verdict comes with its certified bracket
    # and residual, P2's only where P2 is checked
    v2 = noncoordinate_stability(LOGISTIC, -1, 0.0, 2).certificates
    v3 = noncoordinate_stability(LOGISTIC, -1, 0.0, 3).certificates
    assert not any(k.startswith("p2_") for k in v2)
    for certs, name, key in ((v2, "p1", "p1_eigenvalue"),
                             (v3, "p1", "p1_eigenvalue"),
                             (v3, "p2", "p2_infimum")):
        value = certs[key]
        assert certs[name + "_lower_bound"] <= value
        assert value <= certs[name + "_lower_bound"] + 1e-8 * value
        assert 0.0 <= certs[name + "_residual"] < 1e-9
    assert {k: v3[k] for k in v2} == v2


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


def test_noncoordinate_log_concavity_sample_skips_the_kinks():
    # the exponential is not strictly log-concave (psi'' = 0 off the kink);
    # power(1.5) is, but theta = -psi'' does not exist at its kink, a node
    # of the boundary grid
    with pytest.raises(HypothesisViolated, match="strictly log-concave"):
        noncoordinate_stability(MeasureSpec.two_sided_exponential(), -1, 0.0, 2)
    with pytest.raises(NonDifferentiablePoint):
        noncoordinate_stability(MeasureSpec.power_law(1.5), -1, 0.0, 2)


def test_noncoordinate_rejects_a_sampled_convexity_failure():
    # a bump this large makes psi'' positive somewhere: the unknown flag is
    # checked by sampling and refused
    m = MeasureSpec.gaussian_bump(3.0, design_bump()[0])
    with pytest.raises(HypothesisViolated, match="strictly log-concave"):
        noncoordinate_stability(m, -1, 0.0, 2)


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


@pytest.mark.parametrize("v", [(0.6, -0.8), (0.6, -0.48, 0.64)])
def test_sampled_projection_is_the_discrete_convolution_of_its_factors(v):
    # a kind with no closed-form phi is sampled at the spacing h: at t = 0
    # the projection's nodes are those of the factors' sum, its values are
    # the discrete convolution of the unit-sum factor samples over h, zero
    # beyond their span, and a unit direction keeps the factor's variance
    hs = HalfSpace(v, 0.0)
    h = 0.005
    b = POWER4.truncation_interval(1e-12)[1]
    conv = np.ones(1)
    for w in hs.v:
        x = Grid.covering(abs(w) * b, h).nodes()
        p = POWER4.density(x / w)
        conv = np.convolve(conv, p / p.sum())
    proj = projection_density([POWER4] * len(v), hs)
    assert proj.grid.symmetric and abs(proj.grid.h - h) < 1e-15
    mid, half = proj.grid.n // 2, len(conv) // 2
    padded = np.zeros(proj.grid.n)
    padded[mid - half:mid + half + 1] = conv / h
    assert np.max(np.abs(proj.values - padded)) <= 1e-13 * padded.max()
    assert abs(proj.variance() - POWER4.variance) < 1e-8


def test_projection_reach_too_short_is_refused(monkeypatch):
    monkeypatch.setattr(numerics, "_reach", lambda factors, copies=1: 1.0)
    with pytest.raises(GridTooNarrow):
        projection_density([GAUSSIAN] * 3, HalfSpace((0.6, -0.48, 0.64), 0.3))


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


@pytest.mark.parametrize("t", [10.0 + 0.25 * i for i in range(201)])
def test_boundary_measure_far_offset_is_not_read_from_the_wrap(t):
    # the spectrum's period holds t, so no alias of the bulk lands there;
    # the phases are integer multiples of one rounded dw t, so the rounding
    # of the sums stays near 1e-16 over the whole sweep of t in [10, 60]
    val = boundary_measure([GAUSSIAN, GAUSSIAN], HalfSpace((0.6, 0.8), t))
    assert abs(val - math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)) <= 1e-16


def test_boundary_measure_far_offset_of_two_logistics():
    for t in (60.0, -60.0):
        assert boundary_measure([LOGISTIC, LOGISTIC], HalfSpace((0.6, 0.8), t)) <= 1e-16


@pytest.mark.parametrize("v, t", _random_gaussian_offsets())
def test_boundary_measure_off_the_centre_is_a_node_value(v, t):
    # a unit combination of standard Gaussians is standard Gaussian; the
    # projection grid has t as a node, so no interpolation error enters
    val = boundary_measure([GAUSSIAN] * 3, HalfSpace(v, t))
    expect = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    assert abs(val / expect - 1.0) < 1e-10


@pytest.mark.parametrize("v, t", [((0.002, -0.78, -0.62), 0.85),
                                  ((0.0003, 0.6, -0.8), -1.37),
                                  ((0.0311, -0.9995, -0.0006), -0.652),
                                  ((0.0005, -0.986, -0.164), 0.41)])
def test_boundary_measure_with_a_factor_narrower_than_the_spacing(v, t):
    # a Gaussian factor narrower than the spacing enters by its closed-form
    # phi, so its variance is kept, not lost as a point mass at 0
    val = boundary_measure([GAUSSIAN] * 3, HalfSpace(v, t))
    expect = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    assert abs(val / expect - 1.0) < 1e-12


def _two_exponential_density(a: float, b: float, t: float) -> float:
    """Density of a X + b Y at t for independent two-sided exponentials,
    a, b > 0."""
    t = abs(t)
    if a == b:
        return (1.0 + t / a) * math.exp(-t / a) / (4.0 * a)
    return (a * math.exp(-t / a) - b * math.exp(-t / b)) / (2.0 * (a * a - b * b))


@pytest.mark.parametrize("v, t", [((math.cos(0.1), -math.sin(0.1)), 0.37),
                                  ((math.cos(0.1), math.sin(0.1)), -1.1),
                                  ((0.6, 0.8), 2.3),
                                  ((0.6, -0.8), 0.37),
                                  ((1.0, 1.0), 0.0),
                                  ((1.0, -1.0), -1.1),
                                  ((math.cos(1.52), math.sin(1.52)), 0.37),
                                  ((math.cos(1.52), -math.sin(1.52)), 2.3)])
def test_boundary_measure_of_two_exponentials(v, t):
    e = MeasureSpec.two_sided_exponential()
    hs = HalfSpace(v, t)
    expect = _two_exponential_density(abs(hs.v[0]), abs(hs.v[1]), t)
    assert abs(boundary_measure([e, e], hs) / expect - 1.0) < 1e-7


@pytest.mark.parametrize("v, t", [((0.6, -0.48, 0.64), 0.83),
                                  ((-0.3015, -0.7859, -0.5399), -0.9557),
                                  ((0.05, 0.9, -0.4), 1.9)])
def test_boundary_measure_of_three_logistics(v, t):
    mpmath = pytest.importorskip("mpmath")
    hs = HalfSpace(v, t)
    with mpmath.workdps(30):
        def integrand(w):
            out = mpmath.cos(w * t)
            for c in hs.v:
                x = mpmath.pi * c * w
                out *= x / mpmath.sinh(x) if x else 1
            return out
        expect = float(mpmath.quad(integrand, [0, 1, 4, mpmath.inf]) / mpmath.pi)
    assert abs(boundary_measure([LOGISTIC] * 3, hs) / expect - 1.0) < 1e-12


_MIXED = [LOGISTIC, MeasureSpec.gaussian(0.5), MeasureSpec.two_sided_exponential(),
          POWER4, MeasureSpec.power_law(1.5)]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_boundary_measure_permutation_equivariant(data):
    # the perimeter of {<x, v> < t} of a product measure does not change
    # when the coordinates, with their factors, are permuted, nor when
    # (v, t) becomes (-v, -t) for even factors
    dim = data.draw(st.integers(2, 4))
    ms = data.draw(st.lists(st.sampled_from(_MIXED), min_size=dim, max_size=dim))
    component = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 1.0))
    v = [s * c for s, c in data.draw(st.lists(component, min_size=dim,
                                              max_size=dim))]
    t = data.draw(st.floats(-2.0, 2.0))
    perm = data.draw(st.permutations(range(dim)))
    val = boundary_measure(ms, HalfSpace(tuple(v), t))
    permuted = boundary_measure([ms[i] for i in perm],
                                HalfSpace(tuple(v[i] for i in perm), t))
    flipped = boundary_measure(ms, HalfSpace(tuple(-c for c in v), -t))
    assert abs(permuted - val) <= 1e-12 * val
    assert abs(flipped - val) <= 1e-12 * val


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_stationarity_tag_is_permutation_invariant(data):
    # permuting the factors with the direction's components relabels the
    # boundary, not its curvature; two components of different size keep
    # their free and reference roles, so the sampled spread is the same too
    dim = data.draw(st.integers(2, 4))
    ms = data.draw(st.lists(st.sampled_from(_MIXED + [GAUSSIAN] * 3),
                            min_size=dim, max_size=dim))
    size = st.one_of(st.floats(1e-3, 1.0), st.sampled_from((0.5, 1.0)), st.just(0.0))
    v = [s * c for s, c in data.draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), size), min_size=dim, max_size=dim))]
    if not any(v):
        v[0] = 1.0
    t = data.draw(st.sampled_from((0.0, 0.3, -1.1)))
    perm = data.draw(st.permutations(range(dim)))
    hs = HalfSpace(tuple(v), t)
    verdict = classify_stationary(ms, hs)
    permuted = classify_stationary([ms[i] for i in perm],
                                   HalfSpace(tuple(v[i] for i in perm), t))
    assert permuted.tag == verdict.tag
    sizes = [abs(hs.v[i]) for i in hs.nonzero]
    if len(sizes) == 2 and sizes[0] != sizes[1]:
        assert permuted.residual == verdict.residual


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_boundary_measure_reads_the_projection_density_at_t(data):
    # boundary_measure inverts the product spectrum at t itself, while
    # projection_density inverts it on a lattice through t by one inverse
    # FFT: the two readers of one spectrum agree, on and off the lattice,
    # up to round-off on the scale of the density's peak in the tails
    dim = data.draw(st.integers(2, 4))
    ms = data.draw(st.lists(st.sampled_from(_MIXED), min_size=dim, max_size=dim))
    component = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 1.0))
    v = [s * c for s, c in data.draw(st.lists(component, min_size=dim,
                                              max_size=dim))]
    t = data.draw(st.one_of(st.integers(-400, 400).map(lambda k: 0.005 * k),
                            st.floats(-2.0, 2.0)))
    hs = HalfSpace(tuple(v), t)
    proj = projection_density(ms, hs)
    lattice = float(proj(t))
    assert abs(boundary_measure(ms, hs) - lattice) \
        <= 1e-13 * lattice + 1e-14 * proj.values.max()


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


@pytest.mark.parametrize("m", [LOGISTIC, GAUSSIAN, MeasureSpec.power_law(1.5),
                               POWER4,
                               MeasureSpec.gaussian_bump(0.3, design_bump()[0]),
                               MeasureSpec.gaussian_bump(-0.3,
                                                         design_bump()[0])],
                         ids=lambda m: m.label)
def test_bisector_density_reuses_psi(m):
    # on the bisector the second factor f(tau - alpha s) is f(s): reusing
    # psi must give nu and theta bit for bit as evaluating it twice does
    grid = Grid(-12.0, 11.0, 401)    # no node at the kink 0
    s = grid.nodes() / math.sqrt(2.0)
    psi, _, ddpsi = m._raw_psi(s)
    log_nu = psi + m._raw_log(0.0 - (-1) * s)
    nu, theta = boundary_density(m, -1, 0.0, grid)
    assert np.array_equal(nu, np.exp(log_nu - np.max(log_nu)))
    assert np.array_equal(theta, -ddpsi)
