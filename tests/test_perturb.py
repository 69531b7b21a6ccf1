"""Gaussian-perturbation slopes, bump design and eigenvalue validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodiso import perturb
from prodiso.errors import DomainError, HypothesisViolated, NonEvenBump
from prodiso.measures import BumpFunction, MeasureSpec
from prodiso.numerics import integrate
from prodiso.perturb import (
    default_basis,
    design_bump,
    eigen_curves,
    finite_diff_validate,
    perturbation_slopes,
)
from prodiso.spectral import solve_smallest


def test_zero_bump_slopes():
    assert perturbation_slopes(BumpFunction((), (), ())) == (0.0, 0.0, 0.0)


def test_slope_signs_of_atoms():
    # kernel x^2 - 1 is negative where a centered atom concentrates
    ld, _, _ = perturbation_slopes(BumpFunction((1.0,), (0.0,), (0.8,)))
    assert ld < 0.0
    # and positive where an atom pair at +-3 lives
    ld, _, _ = perturbation_slopes(BumpFunction((1.0,), (3.0,), (0.8,)))
    assert ld > 0.0


def test_slopes_linear():
    b1 = BumpFunction((1.0,), (0.5,), (0.7,))
    b2 = BumpFunction((1.0,), (2.0,), (1.1,))
    s1 = np.array(perturbation_slopes(b1))
    s2 = np.array(perturbation_slopes(b2))
    comb = BumpFunction((2.0, -0.5), (0.5, 2.0), (0.7, 1.1))
    sc = np.array(perturbation_slopes(comb))
    assert np.max(np.abs(sc - (2.0 * s1 - 0.5 * s2))) < 1e-12


_KERNELS = (
    lambda x: (x * x - 1.0) * np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
    lambda x: (-4.0 * x ** 4 + 12.0 * x * x - 3.0) * np.exp(-x * x)
    * 2.0 / math.sqrt(math.pi),
    lambda x: (2.0 * x * x - 1.0) * np.exp(-x * x) * 2.0 / math.sqrt(math.pi),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(atoms=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0),
                                st.floats(0.2, 4.0)), min_size=1, max_size=3))
def test_fixed_rule_slopes_match_adaptive_quadrature(atoms):
    bump = BumpFunction(*map(tuple, zip(*atoms)))
    cuts = bump.breakpoints
    ref = [integrate(lambda x: bump(x) * k(x), cuts[0], cuts[-1],
                     rel_tol=1e-13, points=cuts) for k in _KERNELS]
    scale = sum(abs(c) for c in bump.coefficients)
    for got, want in zip(perturbation_slopes(bump), ref):
        assert abs(got - want) <= 1e-13 * scale


def test_wide_flat_bump_lambda_slope_vanishes():
    # int (x^2 - 1) dgamma = 0: a bump that is flat across the Gaussian
    # bulk has nearly zero lambda slope
    vals = []
    for r in (4.0, 8.0, 16.0):
        flat = BumpFunction((1.0,), (0.0,), (r,))
        vals.append(abs(perturbation_slopes(flat)[0]))
    assert vals[0] > vals[1] > vals[2]
    # the atom flattens like 1/r^2 over the Gaussian bulk
    assert vals[2] < vals[0] / 10.0


def test_non_even_rejected():
    class Lopsided:
        support_radius = 2.0

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < 2.0, x + 2.0, 0.0)

    with pytest.raises(NonEvenBump):
        perturbation_slopes(Lopsided())


def test_design_default():
    bump, report = design_bump()
    assert report.feasible
    ld, kd, ad = report.slopes
    assert kd >= 1e-3
    assert ld - ad >= 1e-3
    # the designed slopes hit the documented targets
    assert abs(kd - 0.422) < 1e-9
    assert abs((ld - ad) - 0.292) < 1e-9


def test_eigen_curve_baselines():
    zero = BumpFunction((), (), ())
    for eps in (0.0, 0.05):
        lam, k, a = eigen_curves(zero, eps)
        assert abs(lam - 1.0) < 1e-3
        assert abs(k - 1.0) < 1e-3
        assert abs(a - 1.0) < 1e-3


def test_eigen_curves_reject_convexity_loss():
    bump, _ = design_bump()
    with pytest.raises(HypothesisViolated):
        eigen_curves(bump, 0.5)


def test_finite_diff_matches_analytic():
    bump, _ = design_bump()
    report = finite_diff_validate(bump, (0.01, 0.02))
    assert report.epsilons == (0.01, -0.01, 0.02, -0.02)
    for fd, an in zip(report.fd_slopes, report.slopes):
        assert abs(fd - an) / (abs(an) + 1e-6) <= 0.05
    for base in report.baselines:
        assert abs(base - 1.0) <= 1e-3
    assert report.feasible


def test_finite_diff_richardson_any_ratio():
    # magnitudes in ratio 3: the Richardson weights must follow the ratio
    # (the ratio-2 weights miss k_dot by 2%)
    bump, _ = design_bump()
    report = finite_diff_validate(bump, (0.01, 0.03))
    assert report.epsilons == (0.01, -0.01, 0.03, -0.03)
    for fd, an in zip(report.fd_slopes, report.slopes):
        assert abs(fd - an) / abs(an) <= 2e-3


def test_finite_diff_evaluates_only_the_two_smallest_magnitudes(monkeypatch):
    # a third magnitude would not enter the Richardson combination
    bump, _ = design_bump()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return eigen_curves(*args)

    monkeypatch.setattr(perturb, "eigen_curves", counted)
    report = finite_diff_validate(bump, (0.03, 0.01, -0.02))
    assert sorted(calls) == [-0.02, -0.01, 0.0, 0.01, 0.02]
    assert report.epsilons == (0.01, -0.01, 0.02, -0.02)
    pair = finite_diff_validate(bump, (0.01, 0.02))
    assert report.fd_slopes == pair.fd_slopes


def test_finite_diff_single_atom():
    atom = BumpFunction((1.0,), (1.0,), (1.0,))
    report = finite_diff_validate(atom, (0.01,))
    for fd, an in zip(report.fd_slopes, report.slopes):
        assert abs(fd - an) / (abs(an) + 1e-6) <= 0.05


def test_report_serialization():
    bump, report = design_bump()
    import json
    d = json.loads(report.to_json())
    assert d["feasible"] is True
    assert abs(d["slopes"]["k_dot"] - report.slopes[1]) < 1e-15
    assert d["bump"]["centers"] == list(bump.centers)


@pytest.mark.parametrize("eps", [1e-300, -1e-7, 9.9e-7, math.nan, math.inf])
def test_finite_diff_refuses_eps_it_cannot_resolve(eps):
    # at 1e-300 the curves do not move and all three slopes came out 0
    bump, _ = design_bump()
    with pytest.raises(DomainError, match="eps"):
        finite_diff_validate(bump, (eps, 0.01))


def test_finite_diff_takes_the_smallest_resolvable_eps():
    bump, _ = design_bump()
    report = finite_diff_validate(bump, (1e-6,))
    for fd, an in zip(report.fd_slopes, report.slopes):
        assert abs(fd - an) <= 1e-4 * abs(an)


def _cold_curves(bump, eps):
    """eigen_curves' k and a pencils at eps, each solved from the row-sum
    bound, with the gap."""
    measure = MeasureSpec.gaussian_bump(eps, bump) if eps else \
        MeasureSpec.gaussian(1.0)
    lam, pencils = perturb._curve_pencils(measure)
    return lam, pencils, [solve_smallest(p) for p in pencils]


def _recorded(monkeypatch):
    """The results of eigen_curves' started solves, as they are made."""
    results = []
    solve = perturb._shift_invert

    def recorded(problem, y, start):
        results.append(solve(problem, y, start))
        return results[-1]

    monkeypatch.setattr(perturb, "_shift_invert", recorded)
    return results


def test_unperturbed_curves_are_the_cold_solve_for_any_bump():
    lam, _, (k, a) = _cold_curves(None, 0.0)
    want = (lam, k.value, -a.value)
    for bump in [BumpFunction((), (), ()), design_bump()[0], *default_basis()]:
        assert eigen_curves(bump, 0.0) == want
    assert perturb._unperturbed()[1] == (k.lower_bound, a.lower_bound)


@pytest.mark.parametrize("bump", [design_bump()[0], *default_basis()],
                         ids=["designed", "atom0", "atom1"])
def test_started_curves_match_the_cold_solve(bump):
    for eps in (0.01, -0.03):
        lam, _, (k, a) = _cold_curves(bump, eps)
        got = eigen_curves(bump, eps)
        assert got[0] == lam
        for v, want in zip(got[1:], (k.value, -a.value)):
            assert abs(v - want) <= 1e-11 * abs(want)


def test_default_ladders_start_below_and_keep_their_brackets(monkeypatch):
    # a cold start took 6 solves and 4 factorizations on k, 4-6 and 2-4 on a
    results = _recorded(monkeypatch)
    bump, _ = design_bump()
    finite_diff_validate(bump, (0.01, 0.02))
    finite_diff_validate(bump, (0.01, 0.03))
    assert len(results) == 16
    for res in results:
        assert res.solves <= 5 and res.factorizations == 2
        assert res.lower_bound <= res.value \
            <= res.lower_bound + 1e-8 * abs(res.value)
        assert res.residual < 1e-9


def test_unperturbed_curves_are_solved_once_per_process(monkeypatch):
    cold = []
    solve = perturb.solve_smallest

    def counted(problem):
        cold.append(problem)
        return solve(problem)

    monkeypatch.setattr(perturb, "solve_smallest", counted)
    started = _recorded(monkeypatch)
    perturb._unperturbed.cache_clear()
    bump, _ = design_bump()
    first = finite_diff_validate(bump, (0.01, 0.02))
    second = finite_diff_validate(bump, (0.01, 0.02))
    assert len(cold) == 2           # k and a at eps = 0, in the first call
    assert len(started) == 16       # k and a at each of the 2 x 4 eps != 0
    assert first == second


def test_a_start_above_the_eigenvalue_falls_back_to_the_cold_solve(
        monkeypatch):
    # lower bounds far above k and a put both starts above their
    # eigenvalues: each fails its count, which costs one factorization, and
    # the solve then runs from the row-sum bound as solve_smallest's does
    curves, _ = perturb._unperturbed()
    monkeypatch.setattr(perturb, "_unperturbed",
                        lambda: (curves, (10.0, 10.0)))
    results = _recorded(monkeypatch)
    bump, _ = design_bump()
    eigen_curves(bump, 0.02)
    _, _, cold = _cold_curves(bump, 0.02)
    for got, want in zip(results, cold, strict=True):
        assert got.factorizations == want.factorizations + 1
        assert np.array_equal(got.eigenvector, want.eigenvector)
        assert (got.value, got.residual, got.lower_bound, got.solves) == \
            (want.value, want.residual, want.lower_bound, want.solves)
