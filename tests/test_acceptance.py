"""Acceptance suite: one pass/fail line per criterion.

Each test prints "PASS criterion N: ..." (or FAIL via the assert) so the
suite output doubles as a checklist.
"""

import math
import sys
import time

import numpy as np
from scipy.special import gamma

from prodiso.halfspace import (
    STABLE,
    UNSTABLE,
    boundary_measure,
    HalfSpace,
    noncoordinate_stability,
)
from prodiso.isoprofile import (
    clt_upper_bound,
    compute_c,
    compute_c_maximizer,
    profile_1d,
)
from prodiso.measures import MeasureSpec
from prodiso.numerics import Grid, integrate
from prodiso.perturb import design_bump, finite_diff_validate
from prodiso.spectral import (
    GapOptions,
    assemble,
    brascamp_lieb_residual,
    random_oracle_instance,
    solve_smallest,
    spectral_gap,
    tensor_oracle_2d,
)

LOGISTIC = MeasureSpec.logistic()
GAUSSIAN = MeasureSpec.gaussian(1.0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}",
          file=sys.stderr)
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_logistic_spectral_gap():
    t0 = time.perf_counter()
    lam = spectral_gap(LOGISTIC, GapOptions(n=8001, b=40.0))
    dt = time.perf_counter() - t0
    ok = abs(lam - 0.25) <= 1e-3 and dt < 5.0
    _report(1, ok, f"logistic gap {lam:.10f} (target 0.25 +- 1e-3), "
                   f"{dt:.2f}s (< 5s)")


def test_criterion_02_gaussian_gap_scaling():
    lam1 = spectral_gap(GAUSSIAN)
    ok = abs(lam1 - 1.0) <= 1e-3
    details = [f"sigma=1: {lam1:.8f}"]
    for sigma in (0.5, 2.0):
        lam = spectral_gap(MeasureSpec.gaussian(sigma))
        ok = ok and abs(lam * sigma ** 2 - 1.0) <= 3e-3
        details.append(f"sigma={sigma}: lam*sigma^2={lam * sigma ** 2:.8f}")
    _report(2, ok, "; ".join(details))


def test_criterion_03_logistic_profile_exact():
    ts = np.linspace(0.0, 1.0, 1001)
    err = max(abs(profile_1d(LOGISTIC, t) - t * (1.0 - t)) for t in ts)
    _report(3, err <= 1e-12,
            f"max |I(t) - t(1-t)| = {err:.2e} on 1001 points (<= 1e-12)")


def test_criterion_04_constant_c():
    u = compute_c_maximizer()
    e = math.exp(-2.0 * u)
    foc = abs(4.0 * u * e - (1.0 - e))
    c = compute_c()
    ok = c > 0.45125 - 1e-4 and foc <= 1e-10
    _report(4, ok, f"c = {c:.10f} (> 0.45115), stationarity residual "
                   f"{foc:.2e} (<= 1e-10)")


def test_criterion_05_bisector_boundary_measure():
    val = boundary_measure([LOGISTIC, LOGISTIC], HalfSpace.bisector(-1, 0.0))
    target = math.sqrt(2.0) / 6.0
    err = abs(val - target)
    _report(5, err <= 1e-4,
            f"lo^2 bisector boundary measure {val:.8f} vs sqrt(2)/6 = "
            f"{target:.8f} (err {err:.2e} <= 1e-4)")


def test_criterion_06_logistic_noncoordinate_verdicts():
    v2 = noncoordinate_stability(LOGISTIC, -1, 0.0, 2)
    # the reduced problem here lives on y = sqrt(2) x; the eigenvalue in the
    # unscaled variable is 4x larger, where the certified floor is 6
    p1_scaled = 4.0 * v2.certificates["p1_eigenvalue"]
    v3 = noncoordinate_stability(LOGISTIC, -1, 0.0, 3)
    p2 = v3.certificates["p2_infimum"]
    ok = (v2.tag == STABLE and p1_scaled >= 6.0 - 0.05
          and v3.tag == UNSTABLE and p2 <= 5.0 / 8.0 + 0.02)
    _report(6, ok, f"dim 2 {v2.tag} with 4*P1 = {p1_scaled:.5f} (>= 5.95); "
                   f"dim 3 {v3.tag} with P2 = {p2:.5f} (<= 0.645)")


def test_criterion_07_power_law_witness():
    p = 4.0
    m = MeasureSpec.power_law(p)
    v = noncoordinate_stability(m, -1, 0.0, 2)

    # witness functional for u(x) = x against the two-equal-component
    # boundary weights, evaluated by quadrature
    coef = 2.0 ** (1.0 - p / 2.0)

    def weight(x):
        return np.exp(-coef * np.abs(x) ** p)

    first = 2.0 ** (-(p - 2.0) / 2.0) * p * (p - 1.0) * integrate(
        lambda x: x * x * np.abs(x) ** (p - 2.0) * weight(x),
        -30.0, 30.0, rel_tol=1e-13, points=(0.0,))
    second = integrate(weight, -30.0, 30.0, rel_tol=1e-13, points=(0.0,))
    witness = first - second

    stated = 2.0 ** (1.5 - 1.0 / p) * (p - 2.0) * gamma(1.0 / p)
    corrected = 2.0 ** (1.5 - 1.0 / p) * (p - 2.0) * gamma(1.0 + 1.0 / p)
    # the stated closed form carries a factor-p slip: Gamma(1/p) appears
    # where the integral produces Gamma(1 + 1/p) = Gamma(1/p) / p
    ok = (v.tag == UNSTABLE and witness > 0.0
          and abs(witness - corrected) <= 1e-6
          and abs(witness * p - stated) <= 1e-6 * stated)
    _report(7, ok,
            f"p=4 bisector {v.tag}; witness {witness:.10f} = "
            f"2^(3/2-1/p)(p-2)Gamma(1+1/p) (err {abs(witness - corrected):.2e}"
            f" <= 1e-6); stated constant {stated:.6f} = p * witness")


def test_criterion_08_tensorization_oracle():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(25):
        nu, tau, theta, grid = random_oracle_instance(rng, n=101)
        r = tensor_oracle_2d(nu, tau, theta, grid)
        if not r.agrees:
            disagreements += 1
    _report(8, disagreements == 0,
            f"25 randomized instances, {disagreements} disagreements "
            f"between the 2-D eigenvalue verdict and (P1 and P2)")


def test_criterion_09_clt_trace():
    t0 = time.perf_counter()
    trace = clt_upper_bound(LOGISTIC, 0.5, 64)
    dt = time.perf_counter() - t0
    limit = (math.sqrt(3.0) / math.pi) / math.sqrt(2.0 * math.pi)
    rel = abs(trace[63] - limit) / limit
    ok = rel <= 0.015 and trace[1] > limit and dt < 30.0
    _report(9, ok, f"N=64 value {trace[63]:.6f} vs limit {limit:.6f} "
                   f"(rel err {rel:.4f} <= 0.015); N=2 value {trace[1]:.6f} "
                   f"> limit; {dt:.2f}s (< 30s)")


def test_criterion_10_perturbation_designer():
    bump, design_report = design_bump()
    ld, kd, ad = design_report.slopes
    ok = kd >= 1e-3 and ld - ad >= 1e-3

    report = finite_diff_validate(bump, (0.01, 0.02))
    rel = max(abs(f - a) / (abs(a) + 1e-6)
              for f, a in zip(report.fd_slopes, report.slopes))
    ok = ok and rel <= 0.05
    base_err = max(abs(b - 1.0) for b in report.baselines)
    ok = ok and base_err <= 1e-3

    # realized stability margins at eps = 0.01 are ~1.6e-3 (second-order
    # effects cap them), so the direct check runs with a tighter guard band
    # than the 1e-2 default; the eigenvalues themselves are good to ~1e-6
    verdict = noncoordinate_stability(MeasureSpec.gaussian_bump(0.01, bump),
                                      -1, 0.0, 3, solver_margin=1e-3)
    ok = ok and verdict.tag == STABLE
    _report(10, ok,
            f"designed slopes k_dot={kd:.4f}, lambda_dot-a_dot={ld - ad:.4f} "
            f"(>= 1e-3); fd match {rel:.4f} (<= 0.05); baseline err "
            f"{base_err:.2e} (<= 1e-3); eps=0.01 dim-3 verdict {verdict.tag}")


def _bl_random_cases(count: int = 50) -> float:
    def pot_factory(a, c, d, e):
        def pot(x):
            x = np.asarray(x, dtype=float)
            # c log cosh(dx), written so that no tail overflows
            log_cosh = np.logaddexp(d * x, -d * x) - math.log(2.0)
            t = np.tanh(d * x)
            return (a * x * x / 2.0 + c * log_cosh + e * x,
                    a * x + c * d * t + e,
                    a + c * d * d * (1.0 - t * t))
        return pot

    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(count):
        a = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.0, 1.5)
        d = rng.uniform(0.5, 2.0)
        e = rng.uniform(-0.5, 0.5)
        m = MeasureSpec.custom(pot_factory(a, c, d, e))
        coeffs = rng.uniform(-1.0, 1.0, 5)

        def u(x, cc=coeffs):
            x = np.asarray(x, dtype=float)
            return np.polyval(cc, x) * np.exp(-(x / 4.0) ** 2)

        worst = min(worst, brascamp_lieb_residual(m, u))
    return worst


def _remark_bracket_ok() -> tuple[bool, str]:
    # inf V'' <= lambda <= int V'' dmu for smooth strictly log-concave kinds
    cases = [MeasureSpec.gaussian(0.5), GAUSSIAN, MeasureSpec.gaussian(2.0),
             LOGISTIC, MeasureSpec.power_law(2.0), MeasureSpec.power_law(3.0),
             MeasureSpec.power_law(4.0)]
    worst = math.inf
    for m in cases:
        lam = spectral_gap(m)
        a, b = m.truncation_interval(1e-14)
        xs = np.linspace(a * 0.999, b * 0.999, 4001)
        inf_vdd = float(np.min(-m.log_density(xs)[2]))
        mean_vdd = integrate(lambda x: -m.log_density(x)[2] * m.density(x),
                             a, b, rel_tol=1e-10,
                             points=m._singular_points())
        lo_slack = lam - inf_vdd
        hi_slack = mean_vdd - lam
        worst = min(worst, lo_slack, hi_slack)
        if lo_slack < -1e-6 or hi_slack < -1e-6:
            return False, f"{m.label}: {inf_vdd:.4f} <= {lam:.4f} <= " \
                          f"{mean_vdd:.4f} violated"
    return True, f"bracket holds on {len(cases)} measures " \
                 f"(worst slack {worst:.3e})"


def test_criterion_11_property_suites():
    worst_bl = _bl_random_cases(50)
    ok = worst_bl >= -1e-8

    bracket_ok, bracket_msg = _remark_bracket_ok()
    ok = ok and bracket_ok

    # Neumann null mode and symmetry/normalization invariants
    grid = Grid.symmetric_grid(8.0, 801)
    w = GAUSSIAN.density(grid.nodes())
    null = abs(solve_smallest(assemble(w, w, grid)).value)
    ok = ok and null < 1e-10

    sym_ok = True
    norm_ok = True
    for m in (LOGISTIC, GAUSSIAN, MeasureSpec.power_law(4.0),
              MeasureSpec.two_sided_exponential()):
        a, b = m.truncation_interval(1e-14)
        mass = integrate(m.density, a, b, rel_tol=1e-12,
                         points=m._singular_points())
        norm_ok = norm_ok and abs(mass - 1.0) < 1e-9
        xs = np.linspace(0.1, b * 0.9, 64)
        sym_ok = sym_ok and np.max(np.abs(m.density(xs)
                                          - m.density(-xs))) < 1e-12
    ok = ok and sym_ok and norm_ok
    _report(11, ok,
            f"Brascamp-Lieb worst residual {worst_bl:.3e} over 50 cases "
            f"(>= -1e-8); {bracket_msg}; null mode {null:.2e}; "
            f"symmetry and normalization invariants "
            f"{'hold' if sym_ok and norm_ok else 'violated'}")
