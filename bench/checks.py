"""Checks of each call's output against bench/reference.py.

``check(spec, output)`` returns ``(ok, digits, why)``.  ``digits`` lists the
correct significant digits, -log10 of the relative error capped at 15, of
every output compared with a numeric reference; checks against a property
(a bound, a tag, a flag) add none.  Tolerances are the accuracy each
computation is built for, stated next to each check.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
import workloads

SOLVER_MARGIN = 0.01       # prodiso's default guard band for verdicts
EIG_RTOL = 2e-3            # extrapolated / discretized eigenvalues
FD_RTOL = 0.01             # finite-difference slopes against quadrature
CLT_RTOL = 0.015           # tabulated convolution traces (h = 0.01)
BOUNDARY_RTOL = 1e-3       # tabulated projection densities (h = 0.005)
QUAD_RTOL = 1e-7           # quadrature and root-finding results
IDENTITY_RTOL = 1e-8       # lambda_2D = min(P1, P2) on the discrete grid
ORACLE_2D_RTOL = 1e-2      # 2-D Gaussian closed form, n >= 101 on +-7 sigma


def digits_of(value, reference) -> float:
    v = np.asarray(value, dtype=float).ravel()
    r = np.asarray(reference, dtype=float).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(v - r) / np.abs(r)
    worst = float(np.max(rel))
    if not math.isfinite(worst):
        return 0.0
    return 15.0 if worst <= 1e-15 else min(15.0, -math.log10(worst))


class _Check:
    def __init__(self):
        self.ok = True
        self.digits: list[float] = []
        self.why: list[str] = []

    def close(self, name: str, value, reference, rtol: float) -> None:
        v = np.asarray(value, dtype=float).ravel()
        r = np.asarray(reference, dtype=float).ravel()
        if v.shape != r.shape or not np.all(np.isfinite(v)):
            self.fail(f"{name}: shape or finiteness")
            return
        self.digits.append(digits_of(v, r))
        if np.any(np.abs(v - r) > rtol * np.abs(r)):
            i = int(np.argmax(np.abs(v - r) / np.abs(r)))
            self.fail(f"{name}: {v[i]!r} vs reference {r[i]!r}")

    def at_most(self, name: str, value: float, bound: float,
                rtol: float) -> None:
        if not value <= bound * (1.0 + rtol):
            self.fail(f"{name}: {value!r} above bound {bound!r}")

    def require(self, name: str, cond: bool) -> None:
        if not cond:
            self.fail(name)

    def fail(self, why: str) -> None:
        self.ok = False
        self.why.append(why)


def _tag_for(values: list[float]) -> str:
    """The verdict rule of the program, applied to reference values."""
    if any(v <= 1.0 - SOLVER_MARGIN for v in values):
        return "unstable"
    if all(v >= 1.0 + SOLVER_MARGIN for v in values):
        return "stable"
    return "inconclusive"


def _check_gap(c: _Check, a: dict, out: float) -> None:
    m = a["measure"]
    lam = ref.gap(m)
    if lam is not None:
        c.close("gap", out, lam, EIG_RTOL)
    else:
        # Poincare with the identity: 0 < lambda <= 1 / Var
        c.require("gap positive", out > 0.0)
        c.at_most("gap <= 1/Var", out, 1.0 / ref.variance(m), 1e-9)


def _check_coordinate(c: _Check, a: dict, out: dict) -> None:
    m, t = a["measure"], a["t"]
    c.close("coordinate lambda", out["lambda"], ref.gap(m), EIG_RTOL)
    if m["kind"] == "gaussian":
        # every half-space of a Gaussian is stable (equality case)
        c.require("gaussian half-space stable", out["tag"] == "stable")
        return
    margin = ref.gap(m) + ref.psi2(m, t)
    if abs(margin) > SOLVER_MARGIN + EIG_RTOL:
        expected = "stable" if margin > 0 else "unstable"
        c.require(f"tag {out['tag']} vs {expected} (margin {margin:.4g})",
                  out["tag"] == expected)


def _check_noncoordinate(c: _Check, a: dict, out: dict) -> None:
    m, alpha, tau, dim = a["measure"], a["alpha"], a["tau"], a["dim"]
    c.require("p2 present iff dim >= 3", ("p2" in out) == (dim >= 3))
    values = [out["p1"]] + ([out["p2"]] if "p2" in out else [])
    c.require("tag follows the certificates", out["tag"] == _tag_for(values))
    c.close("lambda_tau", out["lambda_tau"], ref.gap(m), EIG_RTOL)
    # Gaussian: P1 = P2 = 1 (the threshold); logistic: 3/2 and sqrt(6)/4 at
    # tau = 0, converged Ritz values elsewhere; power(4): Ritz values
    p1, p2 = ref.two_component_conditions(ref._key(m), alpha, tau)
    c.close("P1", out["p1"], p1, EIG_RTOL)
    if "p2" in out:
        c.close("P2", out["p2"], p2, EIG_RTOL)
    expected = [p1] + ([p2] if dim >= 3 else [])
    if all(abs(v - 1.0) > SOLVER_MARGIN + EIG_RTOL for v in expected):
        c.require(f"tag {out['tag']} vs {_tag_for(expected)}",
                  out["tag"] == _tag_for(expected))


def _check_design(c: _Check, out: dict) -> None:
    slopes = ref.bump_slopes(out["bump"])
    c.close("bump slopes", out["slopes"], slopes, QUAD_RTOL)
    c.require("design feasible", out["feasible"] and slopes[1] >= 1e-3
              and slopes[0] - slopes[2] >= 1e-3)


def _check_fdv(c: _Check, out: dict) -> None:
    slopes = ref.bump_slopes(out["bump"])
    c.close("analytic slopes", out["slopes"], slopes, QUAD_RTOL)
    c.close("finite-difference slopes", out["fd_slopes"], slopes, FD_RTOL)
    c.close("baselines", out["baselines"], [1.0, 1.0, 1.0], EIG_RTOL)


def _check_envelope(c: _Check, a: dict, out: dict) -> None:
    m = a["measure"]
    ts = np.asarray(a["levels"])
    c.require("levels handed back", np.array_equal(out["ts"], ts))
    one = [ref.profile_1d(m, t) for t in ts]
    c.close("one_dim profile", out["one_dim"], one, QUAD_RTOL)
    base = ref.constant_c() * ts * (1.0 - ts)
    lam = ref.gap(m)
    if lam is not None:
        c.close("lower bound", out["lower"], math.sqrt(lam) * base, EIG_RTOL)
    else:
        # no reference gap: the bound uses the program's own gap
        root = np.asarray(out["lower"]) / base
        c.require("lower / (c t(1-t)) is constant",
                  np.allclose(root, root[0], rtol=1e-12, atol=0.0))
        c.require("0 < lambda <= 1/Var", 0.0 < root[0] ** 2
                  <= (1.0 + 1e-9) / ref.variance(m))
    gauss = [ref.gauss_profile(t) / math.sqrt(ref.variance(m)) for t in ts]
    c.close("upper bound", out["upper"], np.minimum(one, gauss), QUAD_RTOL)


def _check_clt(c: _Check, a: dict, out: list) -> None:
    key = ref._key(a["measure"])
    expected = [ref.clt_value(key, a["t"], n) for n in range(1, a["n_max"] + 1)]
    c.close("clt trace", out, expected, CLT_RTOL)


def _check_oracle(c: _Check, a: dict, out: dict) -> None:
    c.require("oracle agrees with the 1-D conditions", out["agrees"])
    c.close("lambda_2D = min(P1, P2)", out["lambda_2d"],
            min(out["p1"], out["p2"]), IDENTITY_RTOL)
    if a["family"] == "gaussian":
        exact = min(a["s1"] ** -2, a["s2"] ** -2) / a["theta"]
        c.close("Gaussian lambda_2D", out["lambda_2d"], exact, ORACLE_2D_RTOL)


def check(spec: dict, out) -> tuple[bool, list[float], str]:
    c = _Check()
    a = spec["args"]
    kind = spec["check"]["type"]
    if kind == "gap":
        _check_gap(c, a, out)
    elif kind == "coordinate":
        _check_coordinate(c, a, out)
    elif kind == "noncoordinate":
        _check_noncoordinate(c, a, out)
    elif kind == "design":
        _check_design(c, out)
    elif kind == "fdv":
        _check_fdv(c, out)
    elif kind == "envelope":
        _check_envelope(c, a, out)
    elif kind == "clt":
        _check_clt(c, a, out)
    elif kind == "profile_1d":
        c.close("profile_1d", out, ref.profile_1d(a["measure"], a["t"]),
                QUAD_RTOL)
    elif kind == "boundary":
        keys = tuple(ref._key(m) for m in a["measures"])
        c.close("boundary measure", out,
                ref.boundary_value(keys, tuple(a["v"]), a["t"]),
                BOUNDARY_RTOL)
    elif kind == "oracle":
        _check_oracle(c, a, out)
    else:
        raise ValueError(f"unknown check {kind}")
    return c.ok, c.digits, "; ".join(c.why)


# names of the calls that fail by design, for the self-test
EXPECTED_FAILURES = {
    "verdicts": {("finite_diff_validate", tuple(workloads.FDV_EPS_RATIO3))},
    "oracle": {("tensor_oracle_2d", inst)
               for inst in workloads.ORACLE_FAULT_INSTANCES},
    "profiles": set(),
}


def failure_key(spec: dict) -> tuple:
    a = spec["args"]
    if spec["fn"] == "finite_diff_validate":
        return (spec["fn"], tuple(a["eps"]))
    if spec["fn"] == "tensor_oracle_2d" and a["family"] == "random":
        return (spec["fn"], (a["gen_seed"], a["draw"], a["n"]))
    return (spec["fn"], spec["id"])
