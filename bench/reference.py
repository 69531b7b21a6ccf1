"""Reference values for the benchmark checks, computed apart from prodiso.

Everything here comes from closed forms, ``scipy.special``,
``scipy.integrate.quad`` and ``mpmath``, recomputed on every run; nothing
is a stored copy of program output, and nothing imports ``prodiso``.

    python3 bench/reference.py      # print the reference table
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy import integrate, linalg, optimize, special

SQRT2 = math.sqrt(2.0)
_INF = math.inf


def _key(desc: dict) -> tuple:
    return tuple(sorted(desc.items()))


def _desc(key: tuple) -> dict:
    return dict(key)


# ---------------------------------------------------------------------------
# the four measure families
# ---------------------------------------------------------------------------

def _power_z(p: float) -> float:
    return 2.0 * special.gamma(1.0 + 1.0 / p)


def density(desc: dict, x):
    x = np.asarray(x, dtype=float)
    kind = desc["kind"]
    if kind == "logistic":
        ax = np.abs(x)
        e = np.exp(-ax)
        return e / (1.0 + e) ** 2
    if kind == "gaussian":
        s = desc["sigma"]
        return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    if kind == "exponential":
        return 0.5 * np.exp(-np.abs(x))
    if kind == "power":
        p = desc["p"]
        return np.exp(-np.abs(x) ** p) / _power_z(p)
    raise ValueError(kind)


def psi2(desc: dict, x: float) -> float:
    """Second derivative of the log-density (x != 0 for the kinks)."""
    kind = desc["kind"]
    if kind == "logistic":
        e = math.exp(-abs(x))
        return -2.0 * e / (1.0 + e) ** 2
    if kind == "gaussian":
        return -1.0 / desc["sigma"] ** 2
    if kind == "exponential":
        return 0.0
    if kind == "power":
        p = desc["p"]
        return -p * (p - 1.0) * abs(x) ** (p - 2.0)
    raise ValueError(kind)


def variance(desc: dict) -> float:
    kind = desc["kind"]
    if kind == "logistic":
        return math.pi ** 2 / 3.0
    if kind == "gaussian":
        return desc["sigma"] ** 2
    if kind == "exponential":
        return 2.0
    if kind == "power":
        p = desc["p"]
        return special.gamma(3.0 / p) / special.gamma(1.0 / p)
    raise ValueError(kind)


def gap(desc: dict) -> float | None:
    """Spectral gap where a closed form or a converged Ritz value is
    known, else None."""
    kind = desc["kind"]
    if kind in ("logistic", "exponential"):
        return 0.25
    if kind == "gaussian":
        return 1.0 / desc["sigma"] ** 2
    if kind == "power" and desc["p"] == 2.0:
        return 2.0      # exp(-x^2) is the Gaussian with variance 1/2
    if kind == "power" and desc["p"] == 4.0:
        return power_gap(4)
    return None


def quantile(desc: dict, t: float) -> float:
    kind = desc["kind"]
    if kind == "logistic":
        return math.log(t / (1.0 - t))
    if kind == "gaussian":
        return desc["sigma"] * float(special.ndtri(t))
    if kind == "exponential":
        return math.log(2.0 * t) if t <= 0.5 else -math.log(2.0 * (1.0 - t))
    if kind == "power":
        # P(|X| <= x) = P(1/p, x^p) for the density exp(-|x|^p) / Z
        p = desc["p"]
        if t == 0.5:
            return 0.0
        x = float(special.gammaincinv(1.0 / p, abs(2.0 * t - 1.0))) ** (1.0 / p)
        return x if t > 0.5 else -x
    raise ValueError(kind)


def profile_1d(desc: dict, t: float) -> float:
    """f(F^{-1}(t)) for these even log-concave measures."""
    if desc["kind"] == "logistic":
        return t * (1.0 - t)
    if desc["kind"] == "exponential":
        return min(t, 1.0 - t)
    if desc["kind"] == "gaussian":
        return gauss_profile(t) / desc["sigma"]
    return float(density(desc, quantile(desc, t)))


def gauss_profile(t: float) -> float:
    z = float(special.ndtri(t))
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def char_fn(desc: dict, w):
    w = np.asarray(w, dtype=float)
    kind = desc["kind"]
    if kind == "logistic":
        a = math.pi * np.abs(w)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.where(a < 1e-8, 1.0, a / np.sinh(np.maximum(a, 1e-300)))
        return np.where(a > 700.0, 0.0, out)
    if kind == "gaussian":
        return np.exp(-0.5 * (desc["sigma"] * w) ** 2)
    if kind == "exponential":
        return 1.0 / (1.0 + w * w)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def constant_c() -> float:
    """sup_u (1 - e^{-2u}) / (2 sqrt u), from an mpmath root of its
    first-order condition 4u e^{-2u} - 1 + e^{-2u} = 0."""
    mpmath.mp.dps = 30
    u = mpmath.findroot(lambda u: 4 * u * mpmath.exp(-2 * u) - 1
                        + mpmath.exp(-2 * u), 0.6)
    c = (1 - mpmath.exp(-2 * u)) / (2 * mpmath.sqrt(u))
    mpmath.mp.dps = 15
    return float(c)


def logistic_p1_eigenvalue() -> float:
    """Rayleigh quotient of v = 2F - 1 in the logistic P1 problem, written
    in the variable s = y / sqrt 2:  int v'^2 f^2 ds / int v^2 f^3 ds.

    Equals 6 exactly; the program's form (variable y, theta = 2f) scales
    it by 1/4, so that P1 = 3/2 at tau = 0.
    """
    def f(s):
        return mpmath.exp(-abs(s)) / (1 + mpmath.exp(-abs(s))) ** 2

    def v(s):
        return 2 / (1 + mpmath.exp(-s)) - 1

    num = mpmath.quad(lambda s: (2 * f(s)) ** 2 * f(s) ** 2, [-mpmath.inf, 0,
                                                               mpmath.inf])
    den = mpmath.quad(lambda s: v(s) ** 2 * f(s) ** 3, [-mpmath.inf, 0,
                                                        mpmath.inf])
    return float(num / den)


LOGISTIC_P1 = 1.5
LOGISTIC_P2 = math.sqrt(6.0) / 4.0
LOGISTIC_BISECTOR_BOUNDARY = SQRT2 / 6.0


# ---------------------------------------------------------------------------
# CLT traces:  sqrt(N) f_N(F_N^{-1}(t))  for the sum S_N of N copies
# ---------------------------------------------------------------------------

def _laplace_sum_density(n: int, x: float) -> float:
    """Density of a sum of n standard Laplace variables (variance-gamma)."""
    ax = abs(x)
    if ax < 1e-12:
        return math.exp(math.lgamma(n - 0.5) - math.lgamma(n)) \
            / (2.0 * math.sqrt(math.pi))
    nu = n - 0.5
    return math.exp(nu * math.log(ax) + math.log(special.kve(nu, ax)) - ax
                    - nu * math.log(2.0) - 0.5 * math.log(math.pi)
                    - math.lgamma(n))


def _logistic_sum_parts(n: int, x: float) -> tuple[float, float]:
    """(density, cdf) at x of a sum of n >= 2 logistic variables.

    Fourier inversion of the characteristic function (pi w / sinh pi w)^n,
    which is below 1e-12^n past w = 10: Gauss-Legendre on [0, 40/n + 10]
    with enough nodes for the cos(w x) oscillation at |x| <= 60.
    """
    top = 40.0 / n + 10.0
    w = _GL_NODES * (0.5 * top) + 0.5 * top
    phi_n = char_fn({"kind": "logistic"}, w) ** n * (_GL_WEIGHTS * 0.5 * top)
    dens = float(np.dot(np.cos(w * x), phi_n)) / math.pi
    cdf = 0.5 + x * float(np.dot(np.sinc(w * x / math.pi), phi_n)) / math.pi
    return dens, cdf


_GL_NODES, _GL_WEIGHTS = special.roots_legendre(1500)


def _logistic_sum_density(n: int, x: float) -> float:
    return _logistic_sum_parts(n, x)[0]


def _logistic_sum_cdf(n: int, x: float) -> float:
    return _logistic_sum_parts(n, x)[1]


def _laplace_sum_cdf(n: int, x: float) -> float:
    val, _ = integrate.quad(lambda y: _laplace_sum_density(n, y), 0.0,
                            abs(x), limit=200, epsabs=1e-15, epsrel=1e-12)
    return 0.5 + math.copysign(val, x)


@functools.lru_cache(maxsize=None)
def clt_value(key: tuple, t: float, n: int) -> float:
    desc = _desc(key)
    kind = desc["kind"]
    if kind == "gaussian":
        return gauss_profile(t) / desc["sigma"]
    if n == 1:
        return profile_1d(desc, t)
    if kind == "exponential":
        dens, cdf = _laplace_sum_density, _laplace_sum_cdf
    elif kind == "logistic":
        if t == 0.5:
            mpmath.mp.dps = 20
            val = mpmath.quad(lambda w: (mpmath.pi * w
                                         / mpmath.sinh(mpmath.pi * w)) ** n,
                              [-mpmath.inf, 0, mpmath.inf])
            mpmath.mp.dps = 15
            return float(math.sqrt(n) / (2.0 * math.pi) * val)
        dens, cdf = _logistic_sum_density, _logistic_sum_cdf
    else:
        raise ValueError(kind)
    if t == 0.5:
        return exponential_clt_half(n)
    sd = math.sqrt(n * variance(desc))
    z = float(special.ndtri(t)) * sd
    q = optimize.brentq(lambda x: cdf(n, x) - t, z - 3.0 * sd, z + 3.0 * sd,
                        xtol=1e-13, rtol=1e-13)
    return math.sqrt(n) * dens(n, q)


def exponential_clt_half(n: int) -> float:
    """sqrt(N) Gamma(N - 1/2) / (2 sqrt(pi) Gamma(N)): the exponential trace
    at t = 1/2."""
    return math.sqrt(n) * math.exp(math.lgamma(n - 0.5) - math.lgamma(n)) \
        / (2.0 * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# boundary measures: the density of sum v_i X_i at t
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def boundary_value(keys: tuple, v: tuple, t: float) -> float:
    descs = [_desc(k) for k in keys]
    active = [(d, c) for d, c in zip(descs, v) if abs(c) > 1e-12]
    if len(active) == 1:
        d, c = active[0]
        return float(density(d, t / c)) / abs(c)
    if all(d["kind"] == "gaussian" for d, _ in active):
        s = math.sqrt(sum((d["sigma"] * c) ** 2 for d, c in active))
        return math.exp(-0.5 * (t / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    if all(d["kind"] == "logistic" for d, _ in active) and t == 0.0 \
            and len(active) == 2 and abs(abs(active[0][1]) - 1 / SQRT2) < 1e-12:
        return LOGISTIC_BISECTOR_BOUNDARY

    def phi(w):
        out = 1.0
        for d, c in active:
            out *= float(char_fn(d, c * w))
        return out
    val, _ = integrate.quad(lambda w: math.cos(w * t) * phi(w), 0.0, _INF,
                            limit=400, epsabs=1e-14, epsrel=1e-12)
    return val / math.pi


# ---------------------------------------------------------------------------
# weighted Poincare conditions of a two-equal-component half-space
# ---------------------------------------------------------------------------
#
# In the variable s = y / sqrt 2 of the reduced problems, with
# nu(s) = f(s) f(tau - alpha s) and theta(s) = -psi''(s):
#   P1 = inf (1/2) int v'^2 nu / int v^2 theta nu  over v with int v nu = 0,
#   P2 = inf (lam_tau int v^2 nu + (1/2) int v'^2 nu) / int v^2 theta nu,
# where lam_tau is the spectral gap of the measure.  Both are computed by
# Rayleigh-Ritz in bases rich enough that the values have converged; each
# Ritz value is an upper bound that decreases to the infimum.

def _legendre(z, degree: int):
    """Legendre polynomials P_0..P_degree at z and their z-derivatives."""
    vals = np.array([special.eval_legendre(k, z) for k in range(degree + 1)])
    ders = np.zeros_like(vals)
    for k in range(1, degree + 1):
        ders[k] = k * (z * vals[k] - vals[k - 1]) / (z * z - 1.0)
    return vals, ders


def _smallest(stiff, mass) -> float:
    return float(linalg.eigh(stiff, mass, eigvals_only=True)[0])


@functools.lru_cache(maxsize=None)
def logistic_conditions(shift: float) -> tuple[float, float]:
    """(P1, P2) of the logistic reduced problems, where
    nu(s) = f(s) f(tau - alpha s) = f(s) f(s - shift) with shift = alpha tau
    (f is even), and lam_tau = 1/4.

    With u = F(s) and w = u(1 - u), nu ds = g du where
    g(u) = f(s - shift) = e^shift w / (u + e^shift (1 - u))^2, and
    theta = 2w, so that
      P1 = int v_u^2 w^2 g / (4 int v^2 w g)   with int v g = 0,
      P2 = (lam int v^2 g + (1/2) int v_u^2 w^2 g) / (2 int v^2 w g).
    P1: polynomials in z = 2u - 1 (its minimizer has a logarithmic
    singularity at u = 0, 1 when shift != 0, so the Ritz value converges
    only algebraically: to about 1e-8 at degree 100).  P2: w^a times
    polynomials, a = sqrt(1 + 2 lam) - 1 the exponent of its minimizer at
    both ends, with Gauss-Jacobi nodes for the weight w^(2a+1); converges
    geometrically.
    """
    lam = 0.25
    e = math.exp(shift)
    degree = 100
    nodes = 2 * degree + 40

    z, wq = special.roots_legendre(nodes)
    u = 0.5 * (z + 1.0)
    w = u * (1.0 - u)
    g = e * w / (u + e * (1.0 - u)) ** 2
    vals, ders = _legendre(z, degree)
    ders = 2.0 * ders                      # d/du = 2 d/dz
    stiff = (ders * w * w * g * wq) @ ders.T
    mass = 4.0 * (vals * w * g * wq) @ vals.T
    mean = vals @ (g * wq)
    q, _ = np.linalg.qr(mean[:, None], mode="complete")
    free = q[:, 1:]                        # coefficient vectors with mean 0
    p1 = _smallest(free.T @ stiff @ free, free.T @ mass @ free)

    a = math.sqrt(1.0 + 2.0 * lam) - 1.0
    z, wq = special.roots_jacobi(nodes, 2.0 * a + 1.0, 2.0 * a + 1.0)
    u = 0.5 * (z + 1.0)
    w = u * (1.0 - u)
    h = e / (u + e * (1.0 - u)) ** 2      # g / w
    vals, ders = _legendre(z, degree)
    # v = w^a P, v_u = w^(a - 1) (a (1 - 2u) P + w P_u); every integrand is
    # w^(2a+1) times a smooth factor, which the Jacobi weight carries
    grad = a * (1.0 - 2.0 * u) * vals + w * 2.0 * ders
    k = wq * h
    stiff = lam * (vals * k) @ vals.T + 0.5 * (grad * k) @ grad.T
    mass = 2.0 * (vals * w * k) @ vals.T
    p2 = _smallest(stiff, mass)
    return p1, p2


def _power_ritz(p: int, scale: int, degree: int, *, shift: float,
                grad: float, weight: float, weight_power: int,
                centred: bool) -> float:
    """Smallest value over polynomials v of the given degree of
      (shift int v^2 m + grad int v'^2 m) / (weight int s^weight_power v^2 m)
    with m = exp(-scale s^p), p and weight_power even; with ``centred``
    over v with int v m = 0.

    Exact moments of m in mpmath at 80 digits.  Odd and even polynomials
    decouple because m is even, so each parity is solved apart.
    """
    with mpmath.workdps(80):
        def mom(k):
            """int s^k m over the line."""
            if k % 2:
                return 0
            e = mpmath.mpf(k + 1) / p
            return 2 * mpmath.gamma(e) / (p * mpmath.mpf(scale) ** e)

        def mean(k):
            return mom(k) / mom(0) if centred else 0

        best = mpmath.inf
        for parity in (1, 0):
            pows = [k for k in range(parity, degree + 1, 2)
                    if not (centred and k == 0)]
            n = len(pows)
            stiff = mpmath.matrix(n, n)
            mass = mpmath.matrix(n, n)
            # basis s^a - mean(a): its products integrate by moments
            for i, a in enumerate(pows):
                for j, b in enumerate(pows):
                    stiff[i, j] = (
                        shift * (mom(a + b) - mean(a) * mean(b) * mom(0))
                        + grad * a * b * (mom(a + b - 2) if a and b else 0))
                    w = weight_power
                    mass[i, j] = weight * (
                        mom(a + b + w) - mean(a) * mom(b + w)
                        - mean(b) * mom(a + w) + mean(a) * mean(b) * mom(w))
            inv = mpmath.cholesky(mass) ** -1
            sym = inv * stiff * inv.T
            best = min(best, min(mpmath.eigsy((sym + sym.T) / 2,
                                              eigvals_only=True)))
        return float(best)


@functools.lru_cache(maxsize=None)
def power_gap(p: int) -> float:
    """Spectral gap of exp(-x^p) / Z for even p, by Ritz over centred
    polynomials of degree 33 (converged to about 1e-19 for p = 4)."""
    return _power_ritz(p, 1, 33, shift=0.0, grad=1.0, weight=1.0,
                       weight_power=0, centred=True)


@functools.lru_cache(maxsize=None)
def power_conditions(p: int) -> tuple[float, float]:
    """(P1, P2) of the power-p bisector at tau = 0, for even p:
    nu = exp(-2 s^p), theta = p (p - 1) s^(p - 2), lam_tau = power_gap(p).

    P1 equals 1 / (p - 1), with minimizer v = s; the Ritz value finds it.
    Degrees 21 and 24 agree with degree 40 to about 1e-17.
    """
    theta = p * (p - 1.0)
    p1 = _power_ritz(p, 2, 21, shift=0.0, grad=0.5, weight=theta,
                     weight_power=p - 2, centred=True)
    p2 = _power_ritz(p, 2, 24, shift=power_gap(p), grad=0.5, weight=theta,
                     weight_power=p - 2, centred=False)
    return p1, p2


@functools.lru_cache(maxsize=None)
def two_component_conditions(key: tuple, alpha: int,
                             tau: float) -> tuple[float, float]:
    """(P1, P2) of the reduced problems with nu(s) = f(s) f(tau - alpha s)
    for the measure ``key``."""
    desc = _desc(key)
    if desc["kind"] == "gaussian":
        return 1.0, 1.0
    if desc["kind"] == "logistic":
        if tau == 0.0:
            return LOGISTIC_P1, LOGISTIC_P2
        return logistic_conditions(alpha * tau)
    if desc["kind"] == "power" and tau == 0.0 and desc["p"] == 4.0:
        return power_conditions(4)
    raise ValueError(f"no reference for {desc}, tau = {tau}")


# ---------------------------------------------------------------------------
# bump perturbations of the Gaussian
# ---------------------------------------------------------------------------

def bump_value(bump: dict, x: float) -> float:
    out = 0.0
    for beta, c, w in zip(bump["coefficients"], bump["centers"],
                          bump["widths"]):
        for s in ((0.0,) if c == 0.0 else (c, -c)):
            u = (x - s) / w
            if abs(u) < 1.0:
                out += beta * math.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def bump_slopes(bump: dict) -> tuple[float, float, float]:
    """(lambda_dot, k_dot, a_dot): quad of the bump against the kernels."""
    edges = sorted({e for c, w in zip(bump["centers"], bump["widths"])
                    for s in (c, -c) for e in (s - w, s, s + w)})
    lo, hi = edges[0], edges[-1]

    def q(kernel):
        val, _ = integrate.quad(lambda x: bump_value(bump, x) * kernel(x),
                                lo, hi, points=edges[1:-1], limit=400,
                                epsabs=1e-14, epsrel=1e-12)
        return val
    lam = q(lambda x: (x * x - 1.0) * math.exp(-x * x / 2.0)) \
        / math.sqrt(2.0 * math.pi)
    k = q(lambda x: (-4.0 * x ** 4 + 12.0 * x * x - 3.0)
          * math.exp(-x * x)) * 2.0 / math.sqrt(math.pi)
    a = q(lambda x: (2.0 * x * x - 1.0) * math.exp(-x * x)) \
        * 2.0 / math.sqrt(math.pi)
    return lam, k, a


# ---------------------------------------------------------------------------
# reference table
# ---------------------------------------------------------------------------

def table() -> list[tuple[str, float]]:
    rows = [("c (profile constant)", constant_c()),
            ("logistic P1 problem, eigenvalue of 2F-1 (s form)",
             logistic_p1_eigenvalue()),
            ("logistic bisector P1 at tau=0", LOGISTIC_P1),
            ("logistic bisector P2 at tau=0 (sqrt6/4)", LOGISTIC_P2),
            ("logistic bisector (P1, P2) at tau=0 by Ritz",
             logistic_conditions(0.0)),
            ("logistic bisector boundary measure (sqrt2/6)",
             LOGISTIC_BISECTOR_BOUNDARY)]
    for d in ({"kind": "logistic"}, {"kind": "exponential"},
              {"kind": "gaussian", "sigma": 0.5},
              {"kind": "gaussian", "sigma": 2.0}, {"kind": "power", "p": 2.0}):
        rows.append((f"gap {d}", gap(d)))
    for p in (3.0, 4.0):
        d = {"kind": "power", "p": p}
        rows.append((f"gap upper bound 1/Var, power p={p:g}",
                     1.0 / variance(d)))
        rows.append((f"profile_1d power p={p:g} at t=0.2", profile_1d(d, 0.2)))
    lg = _key({"kind": "logistic"})
    ex = _key({"kind": "exponential"})
    for n in (1, 2, 4, 16):
        rows.append((f"CLT exponential t=1/2 N={n}", clt_value(ex, 0.5, n)))
        rows.append((f"CLT logistic t=1/2 N={n}", clt_value(lg, 0.5, n)))
        rows.append((f"CLT logistic t=0.2 N={n}", clt_value(lg, 0.2, n)))
        rows.append((f"CLT exponential t=0.2 N={n}", clt_value(ex, 0.2, n)))
    for shift in (0.5, 2.0):
        rows.append((f"logistic (P1, P2) at alpha tau = {shift:g}",
                     logistic_conditions(shift)))
    rows.append(("gap of power p=4 by Ritz", power_gap(4)))
    rows.append(("power(4) bisector (P1, P2) at tau=0", power_conditions(4)))
    bump = {"coefficients": [1.0], "centers": [1.0], "widths": [1.0]}
    for name, val in zip(("lambda_dot", "k_dot", "a_dot"), bump_slopes(bump)):
        rows.append((f"bump slope {name}, atom at +-1 width 1", val))
    return rows


if __name__ == "__main__":
    for name, value in table():
        values = value if isinstance(value, tuple) else (value,)
        print(f"{name:55s} " + "  ".join(f"{v:.15g}" for v in values))
