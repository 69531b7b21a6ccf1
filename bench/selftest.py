"""Fast self-tests of the benchmark itself.

    python3 bench/selftest.py          # from the root of a checkout

The reference tests need only numpy, scipy and mpmath.  The reduced-size
pass runs one round of each workload through a worker (about half a
minute) and requires that the only failing calls are the known faults of
checks.EXPECTED_FAILURES, each of which must fail.
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_constant_c():
    assert abs(ref.constant_c() - 0.451256234) < 1e-9


def test_logistic_p1_eigenvalue_is_six():
    assert abs(ref.logistic_p1_eigenvalue() - 6.0) < 1e-12


def test_logistic_conditions_reach_closed_forms():
    p1, p2 = ref.logistic_conditions(0.0)
    assert abs(p1 - 1.5) < 1e-12
    assert abs(p2 - math.sqrt(6.0) / 4.0) < 1e-12
    # the problem is symmetric under alpha tau -> -alpha tau
    a, b = ref.logistic_conditions(0.7), ref.logistic_conditions(-0.7)
    assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12


def test_exponential_clt_at_one_is_half():
    ex = ref._key({"kind": "exponential"})
    assert ref.clt_value(ex, 0.5, 1) == 0.5
    assert abs(ref.exponential_clt_half(1) - 0.5) < 1e-15
    # the variance-gamma density tends to the Gamma-ratio value at 0 and
    # integrates to one
    for n in (2, 5, 16):
        near0 = math.sqrt(n) * ref._laplace_sum_density(n, 1e-7)
        assert abs(near0 / ref.exponential_clt_half(n) - 1.0) < 1e-6
        assert abs(ref._laplace_sum_cdf(n, 80.0) - 1.0) < 1e-10


def test_logistic_clt_two_is_bisector_boundary():
    lg = ref._key({"kind": "logistic"})
    assert abs(ref.clt_value(lg, 0.5, 2) - ref.LOGISTIC_BISECTOR_BOUNDARY) \
        < 1e-12
    # Fourier inversion at t = 1/2 matches the mpmath value
    dens = ref._logistic_sum_parts(4, 0.0)[0] * 2.0
    assert abs(dens / ref.clt_value(lg, 0.5, 4) - 1.0) < 1e-9


def test_power_profile_from_gammaincinv():
    # p = 2: exp(-x^2) is N(0, 1/2), so the profile is the scaled Gaussian
    d = {"kind": "power", "p": 2.0}
    for t in (0.1, 0.3, 0.8):
        expect = ref.gauss_profile(t) * math.sqrt(2.0)
        assert abs(ref.profile_1d(d, t) / expect - 1.0) < 1e-12


def test_power_ritz_reaches_closed_forms():
    # exp(-x^2) is the Gaussian with variance 1/2: gap 2, and its
    # two-component half-spaces sit at the threshold, P1 = P2 = 1
    assert abs(ref.power_gap(2) - 2.0) < 1e-14
    assert all(abs(v - 1.0) < 1e-14 for v in ref.power_conditions(2))
    # power(4): P1 = 1/(p - 1) with minimizer v = s; 0 < gap <= 1/Var
    p1, p2 = ref.power_conditions(4)
    assert abs(p1 - 1.0 / 3.0) < 1e-14
    gap = ref.power_gap(4)
    assert 0.0 < gap < 1.0 / ref.variance({"kind": "power", "p": 4.0})
    assert 1.0 / 3.0 < p2 < 1.0


def test_tail_percentile_leaves_ten_calls():
    for w in workloads.WORKLOADS:
        n_min = workloads.MIN_ROUNDS[w] * len(workloads.round_plan(w, 0, 0))
        assert n_min >= 40
        assert n_min * (1.0 - run.tail_percentile(w) / 100.0) >= 10.0


def test_plans_repeat_and_keep_their_shape():
    for w in workloads.WORKLOADS:
        a = workloads.round_plan(w, 5, 2)
        assert a == workloads.round_plan(w, 5, 2)
        b = workloads.round_plan(w, 6, 2)
        assert [c["fn"] for c in a] == [c["fn"] for c in b]
        assert sum(checks.failure_key(c) in checks.EXPECTED_FAILURES[w]
                   for c in a) == len(checks.EXPECTED_FAILURES[w])


def test_reduced_pass_fails_only_known_faults():
    root = os.path.dirname(HERE)
    for w in workloads.WORKLOADS:
        job = {"workload": w, "seed": 12345, "seconds": 0, "min_rounds": 1,
               "max_rounds": 1, "src": os.path.join(root, "src")}
        result = run.run_worker(job, root)
        summary = run.evaluate(w, 12345, result)
        assert not summary["unexpected"], summary["unexpected"]
        failed = {call_id for call_id, _ in summary["failed"]}
        specs = {c["id"]: c for c in workloads.round_plan(w, 12345, 0)}
        expected = {i for i, c in specs.items()
                    if checks.failure_key(c) in checks.EXPECTED_FAILURES[w]}
        assert failed == expected, (failed, expected)


if __name__ == "__main__":
    names = [n for n in sorted(globals()) if n.startswith("test_")]
    bad = 0
    for name in names:
        try:
            globals()[name]()
            print(f"ok    {name}")
        except AssertionError as exc:
            bad += 1
            print(f"FAIL  {name}: {exc}")
    sys.exit(1 if bad else 0)
