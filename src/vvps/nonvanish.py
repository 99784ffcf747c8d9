"""Distribution medians and the integral non-vanishing criteria.

The classical criterion compares nu + m_j against a closed-form threshold
linear in the weight; its sharp version compares against the median of a
gamma distribution.  The elliptic criterion bounds the level from below by
an expression in a beta-distribution median; the direct region tests verify
the two defining inequalities of the admissible Cartan-radius interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ._quad import adaptive_simpson
from .errors import DomainError
from .modgroup import GroupSpec
from .seeds import ClassicalSeed

__all__ = [
    "CriterionReport",
    "regularized_incomplete_gamma", "regularized_incomplete_beta",
    "gamma_median", "beta_median",
    "classical_criterion", "elliptic_criterion",
    "region_test_a", "region_test_c", "find_radius",
]

_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 600


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion: satisfied iff margin > 0, with the inputs
    echoed and the decisive intermediate quantities in details."""

    criterion: str
    satisfied: bool
    margin: float
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "satisfied": self.satisfied,
                "margin": self.margin, "inputs": self.inputs, "details": self.details}


def regularized_incomplete_gamma(a: float, x: float) -> float:
    """P(a, x), by series for x < a + 1 and continued fraction otherwise."""
    if a <= 0:
        raise DomainError("need a > 0")
    if x < 0:
        raise DomainError("need x >= 0")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_ITMAX):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return min(1.0, total * math.exp(-x + a * math.log(x) - lg))
    # modified Lentz for Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return max(0.0, 1.0 - q)


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by the continued fraction."""
    if a <= 0 or b <= 0:
        raise DomainError("need a, b > 0")
    if x < 0 or x > 1:
        raise DomainError("need 0 <= x <= 1")
    if x == 0.0 or x == 1.0:
        return float(x)
    bt = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                  + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _bisect_then_newton(cdf, pdf, lo, hi):
    """Median finder: bisection bracket, then a few Newton polish steps.

    The returned point satisfies |cdf - 1/2| well below 1e-12.
    """
    flo = cdf(lo) - 0.5
    for _ in range(200):
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fm = cdf(mid) - 0.5
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        dens = pdf(x)
        if dens <= 0:
            break
        step = (cdf(x) - 0.5) / dens
        x_new = x - step
        if not lo <= x_new <= hi:
            break
        x = x_new
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


@functools.lru_cache(maxsize=256)
def gamma_median(a: float) -> float:
    """Median of the gamma distribution with shape a (rate 1); for rate b
    use gamma_median(a) / b."""
    if a <= 0:
        raise DomainError("need a > 0")
    lo = max(0.0, a - 1.0 / 3.0)  # Chen-Rubin bracket
    hi = a
    lg = math.lgamma(a)

    def pdf(x):
        return math.exp((a - 1.0) * math.log(x) - x - lg) if x > 0 else 0.0

    return _bisect_then_newton(lambda x: regularized_incomplete_gamma(a, x), pdf, lo, hi)


@functools.lru_cache(maxsize=256)
def beta_median(a: float, b: float) -> float:
    """Median of the beta distribution in ]0, 1[."""
    if a <= 0 or b <= 0:
        raise DomainError("need a, b > 0")
    lb = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb)

    return _bisect_then_newton(lambda x: regularized_incomplete_beta(a, b, x),
                               pdf, 0.0, 1.0)


def classical_criterion(k: float, M: int, N: int, nu: int, m_j: float) -> CriterionReport:
    """Non-vanishing test for a classical series: satisfied when
    nu + m_j <= M N (k - 8/3) / (4 pi), with the sharper median form
    2 pi (nu + m_j)/(M N) < gamma_median(k/2 - 1) reported in details."""
    if k <= 2:
        raise DomainError("criterion requires weight k > 2")
    if not 0 < m_j <= 1:
        raise ValueError("m_j must lie in ]0, 1]")
    threshold = M * N * (k - 8.0 / 3.0) / (4.0 * math.pi)
    margin = threshold - (nu + m_j)
    details = {"threshold": threshold}
    if k <= 8.0 / 3.0:
        details["note"] = "vacuous: the right-hand side is nonpositive"
        details["sharp_satisfied"] = None
    else:
        x0 = 2.0 * math.pi * (nu + m_j) / (M * N)
        med = gamma_median(k / 2.0 - 1.0)
        details.update(x0=x0, gamma_median=med,
                       sharp_satisfied=bool(x0 < med), sharp_margin=med - x0)
    return CriterionReport("classical", bool(margin > 0), margin,
                           inputs={"k": k, "M": M, "N": N, "nu": nu, "m_j": m_j},
                           details=details)


def _elliptic_rhs(k: float, nu: int) -> tuple:
    mb = beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0)
    return 4.0 * math.sqrt(mb) / (1.0 - mb), mb


def elliptic_criterion(k: float, N: int, nu: int) -> CriterionReport:
    """Non-vanishing test for an elliptic series at xi = i: satisfied when
    N exceeds 4 sqrt(M_B) / (1 - M_B) with M_B the median of
    Beta(nu/2 + 1, k/2 - 1)."""
    if k <= 2:
        raise DomainError("criterion requires weight k > 2")
    if N < 2:
        raise ValueError("the elliptic criterion assumes level N >= 2")
    rhs, mb = _elliptic_rhs(k, nu)
    margin = N - rhs
    details = {"beta_median": mb, "rhs": rhs}
    r_max = math.acosh((N * N + 2.0) / 2.0) / 4.0
    r_star = math.atanh(math.sqrt(mb))
    details["radius_interval"] = ([r_star, r_max] if r_star < r_max else None)
    return CriterionReport("elliptic", bool(margin > 0), margin,
                           inputs={"k": k, "N": N, "nu": nu}, details=details)


def region_test_a(seed: ClassicalSeed, lam: GroupSpec, gamma: GroupSpec,
                  k: float, y_cut: float = None, check_points: bool = False) -> CriterionReport:
    """Direct test of the strip-region inequality for a classical seed.

    The mass of the seed above y = y_cut (default 1/N) must exceed the mass
    below; after substitution both sides are incomplete-gamma integrals, so
    the margin is 1 - 2 P(k/2 - 1, 2 pi (nu + m_j)/(M N)).  The no-return
    property of the region holds for the supported congruence families
    because nontrivial elements have |c| >= N; it is recorded as assumed
    unless check_points asks for a bounded numerical search.
    """
    if k <= 2:
        raise DomainError("region test requires k > 2")
    if lam.kind != "GammaInfinity":
        raise ValueError("classical region test needs lam = GammaInfinity(M)")
    n_level = gamma.level
    m_width = seed.M
    if y_cut is None:
        y_cut = 1.0 / n_level
    alpha = 2.0 * math.pi * (seed.nu + seed.m_j) / m_width
    s = k / 2.0 - 1.0
    x0 = alpha * y_cut
    p_val = regularized_incomplete_gamma(s, x0)
    scale = m_width * math.gamma(s) / alpha ** s
    lhs = scale * (1.0 - p_val)
    rhs = scale * p_val
    margin = 1.0 - 2.0 * p_val
    details = {"above_cut": lhs, "below_cut": rhs, "x0": x0,
               "gamma_median": gamma_median(s),
               "pairwise_inequivalence": "assumed (|c| >= N for the supported families)"}
    if check_points:
        details["pairwise_inequivalence"] = _search_region_overlap(gamma, m_width, y_cut)
    return CriterionReport("regionA", bool(margin > 0), margin,
                           inputs={"k": k, "M": m_width, "N": n_level,
                                   "nu": seed.nu, "m_j": seed.m_j, "y_cut": y_cut},
                           details=details)


def _search_region_overlap(gamma: GroupSpec, m_width: int, y_cut: float) -> str:
    """Bounded search for gamma-equivalent point pairs inside the region."""
    from .modgroup import enumerate_cosets, mobius_act, GroupSpec as GS

    table = enumerate_cosets(GS.plus_minus_identity(), gamma, 12.0)
    taus = [complex(x, y) for x in (0.25 * m_width, 0.75 * m_width)
            for y in (y_cut * 1.5, y_cut * 4.0, 2.0)]
    for g in table.reps:
        if g.c == 0:
            continue  # translations leave the strip coordinates unchanged
        for tau in taus:
            w = mobius_act(g, tau)
            if w.imag > y_cut and 0.0 < w.real <= m_width and abs(w - tau) > 1e-9:
                return f"violated by {g}"
    return "no violation found at height 12"


def _c3_lhs(k: float, nu: int, r: float) -> float:
    return adaptive_simpson(
        lambda t: math.tanh(t) ** nu / math.cosh(t) ** k * math.sinh(2.0 * t),
        0.0, r, tol=1e-13)


def _c3_tail(k: float, nu: int, r: float) -> float:
    # substitution s = tanh^2 t turns the tail into an incomplete beta
    a = nu / 2.0 + 1.0
    b = k / 2.0 - 1.0
    s = math.tanh(r) ** 2
    bfun = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return bfun * (1.0 - regularized_incomplete_beta(a, b, s))


def region_test_c(k: float, nu: int, N: int, r: float) -> CriterionReport:
    """Direct test of the Cartan-ball conditions for an elliptic seed at i.

    The ball of radius r must inject into the level-N quotient, which holds
    exactly when 2 cosh(4r) < N^2 + 2, and must carry more than half of the
    seed's radial mass: quadrature of the head against a closed-form
    (incomplete beta) tail.
    """
    if k <= 2:
        raise DomainError("region test requires k > 2")
    if N < 2:
        raise ValueError("need N >= 2")
    if r <= 0:
        raise ValueError("need r > 0")
    sep = math.sqrt(N * N + 2.0) - math.sqrt(2.0 * math.cosh(4.0 * r))
    lhs = _c3_lhs(k, nu, r)
    rhs = _c3_tail(k, nu, r)
    total = lhs + rhs
    mass = (lhs - rhs) / total if total > 0 else -1.0
    margin = min(sep, mass)
    details = {"separation_margin": sep, "mass_head": lhs, "mass_tail": rhs,
               "mass_margin": mass,
               "r_max": math.acosh((N * N + 2.0) / 2.0) / 4.0}
    return CriterionReport("regionC", bool(margin > 0), margin,
                           inputs={"k": k, "nu": nu, "N": N, "r": r},
                           details=details)


def find_radius(k: float, nu: int, N: int):
    """Midpoint of the feasible Cartan-radius interval [r*, r_max], or None
    when it is empty.

    The lower endpoint r* = atanh(sqrt(M_B)), with M_B the median of
    Beta(nu/2 + 1, k/2 - 1), is where the head of the seed's radial mass
    equals its tail; the upper endpoint is the injectivity bound from the
    norm separation.
    """
    interval = elliptic_criterion(k, N, nu).details["radius_interval"]
    return None if interval is None else 0.5 * (interval[0] + interval[1])
