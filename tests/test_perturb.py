"""Gaussian-perturbation slopes, bump design and eigenvalue validation."""

import math

import numpy as np
import pytest

from prodiso.errors import HypothesisViolated, InfeasibleBasis, NonEvenBump
from prodiso.measures import BumpFunction
from prodiso.perturb import (
    design_bump,
    eigen_curves,
    finite_diff_validate,
    perturbation_slopes,
)


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


def test_design_infeasible_cases():
    with pytest.raises(InfeasibleBasis):
        design_bump(basis=[])
    # a single atom cannot satisfy both sign requirements
    with pytest.raises(InfeasibleBasis):
        design_bump(basis=[BumpFunction((1.0,), (3.0,), (1.2,))])


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
