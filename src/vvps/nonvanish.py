"""Distribution medians and the integral non-vanishing criteria.

The classical criterion compares nu + m_j against a closed-form threshold
linear in the weight; its sharp version compares against the median of a
gamma distribution.  The elliptic criterion bounds the level from below by
an expression in a beta-distribution median.  margin_grid gives the
margins of both criteria over a (k, N, nu) grid, each median once per
shape and each threshold once per (k, N); it shares the criteria's
arithmetic, so every margin is the one the criterion reports.  The region
tests evaluate each region's mass condition as one incomplete gamma or
beta CDF at the given cut, independently of the median route.  Every
criterion takes plain numbers, and each seed family's criteria refuse
through one validator, _check_classical or _check_elliptic.  The special
functions, the median finder and their accuracy live in _quad.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

from ._quad import (_bisect_then_newton, gamma_over_power, log_beta,
                    regularized_incomplete_beta, regularized_incomplete_gamma)
from .errors import DomainError, RefusalError

__all__ = [
    "CriterionReport",
    "regularized_incomplete_gamma", "regularized_incomplete_beta",
    "gamma_median", "beta_median",
    "classical_criterion", "elliptic_criterion", "margin_grid",
    "region_test_a", "region_test_c", "find_radius",
]

@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion: its margin, with the inputs echoed and the
    decisive intermediate quantities in details."""

    criterion: str
    margin: float
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        """The verdict of every criterion: a positive margin."""
        return bool(self.margin > 0)

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "satisfied": self.satisfied,
                "margin": self.margin, "inputs": self.inputs, "details": self.details}


# Both medians are cached per shape.  The criteria-grid benchmark asks for
# 369 Beta shapes (nu/2 + 1, k/2 - 1) and 41 Gamma shapes k/2 - 1; a bound
# of 256 evicted the Beta shapes before their reuse (1,633 misses in 800
# jobs).  4096 entries hold that working set; full, the two caches take
# 1.7 MB (tracemalloc).
@functools.lru_cache(maxsize=4096)
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

    # the asymptotic expansion of the median (Choi 1994) starts the search
    return _bisect_then_newton(lambda x: regularized_incomplete_gamma(a, x), pdf, lo, hi,
                               a - 1.0 / 3.0 + 8.0 / (405.0 * a))


@functools.lru_cache(maxsize=4096)
def beta_median(a: float, b: float) -> float:
    """Median of the beta distribution in ]0, 1[."""
    if a <= 0 or b <= 0:
        raise DomainError("need a, b > 0")
    lb = log_beta(a, b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb)

    # Kerman's closed-form approximation starts the search
    start = (a - 1.0 / 3.0) / (a + b - 2.0 / 3.0) if a + b > 1.0 else 0.5
    return _bisect_then_newton(lambda x: regularized_incomplete_beta(a, b, x),
                               pdf, 0.0, 1.0, start)


def _check_classical(k: float, M: int, N: int, m_j: float, nus) -> None:
    """The classical criterion's refusals, in the order it makes them."""
    if k <= 2:
        raise DomainError("criterion requires weight k > 2")
    if not 0 < m_j <= 1:
        raise ValueError("m_j must lie in ]0, 1]")
    if M < 1 or N < 1:
        raise ValueError(f"need M >= 1 and N >= 1, got M={M}, N={N}")
    _check_nus(nus)


def _check_elliptic(k: float, N: int, nus) -> None:
    """The elliptic criterion's refusals, in the order it makes them."""
    if k <= 2:
        raise DomainError("criterion requires weight k > 2")
    if N < 2:
        raise ValueError("the elliptic criterion assumes level N >= 2")
    _check_nus(nus)


def _check_nus(nus) -> None:
    for nu in nus:
        if nu < 0:
            raise ValueError(f"need nu >= 0, got {nu}")


def _threshold(k: float, M: int, N: int) -> float:
    """The classical bound M N (k - 8/3) / (4 pi) on nu + m_j."""
    return M * N * (k - 8.0 / 3.0) / (4.0 * math.pi)


def _sharp_median(k: float) -> Optional[float]:
    """gamma_median(k/2 - 1), or None where the classical bound is vacuous."""
    return gamma_median(k / 2.0 - 1.0) if k > 8.0 / 3.0 else None


def _classical_margins(threshold: float, med: Optional[float], M: int, N: int,
                       nu: int, m_j: float):
    """(margin, x0, sharp margin); x0 and the sharp margin are None without
    a median."""
    margin = threshold - (nu + m_j)
    if med is None:
        return margin, None, None
    x0 = 2.0 * math.pi * (nu + m_j) / (M * N)
    return margin, x0, med - x0


def _elliptic_rhs(k: float, nu: int):
    """(M_B, 4 sqrt(M_B) / (1 - M_B)) with M_B the median of
    Beta(nu/2 + 1, k/2 - 1)."""
    mb = beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0)
    return mb, 4.0 * math.sqrt(mb) / (1.0 - mb)


def _r_max(N: int) -> float:
    """The r with 2 cosh(4r) = N^2 + 2; the smaller balls about i inject."""
    return math.acosh((N * N + 2.0) / 2.0) / 4.0


def classical_criterion(k: float, M: int, N: int, nu: int, m_j: float) -> CriterionReport:
    """Non-vanishing test for a classical series: satisfied when
    nu + m_j <= M N (k - 8/3) / (4 pi), with the sharper median form
    2 pi (nu + m_j)/(M N) < gamma_median(k/2 - 1) reported in details."""
    _check_classical(k, M, N, m_j, (nu,))
    threshold = _threshold(k, M, N)
    med = _sharp_median(k)
    margin, x0, sharp = _classical_margins(threshold, med, M, N, nu, m_j)
    details = {"threshold": threshold}
    if med is None:
        details["note"] = "vacuous: the right-hand side is nonpositive"
        details["sharp_satisfied"] = None
    else:
        details.update(x0=x0, gamma_median=med,
                       sharp_satisfied=bool(x0 < med), sharp_margin=sharp)
    return CriterionReport("classical", margin,
                           inputs={"k": k, "M": M, "N": N, "nu": nu, "m_j": m_j},
                           details=details)


def elliptic_criterion(k: float, N: int, nu: int) -> CriterionReport:
    """Non-vanishing test for an elliptic series at xi = i: satisfied when
    N exceeds 4 sqrt(M_B) / (1 - M_B) with M_B the median of
    Beta(nu/2 + 1, k/2 - 1)."""
    _check_elliptic(k, N, (nu,))
    mb, rhs = _elliptic_rhs(k, nu)
    r_star, r_max = math.atanh(math.sqrt(mb)), _r_max(N)
    details = {"beta_median": mb, "rhs": rhs,
               "radius_interval": [r_star, r_max] if r_star < r_max else None}
    return CriterionReport("elliptic", N - rhs,
                           inputs={"k": k, "N": N, "nu": nu}, details=details)


def margin_grid(ks, levels, nus, m_j: float = 1.0, M: int = 1):
    """Rows (k, N, nu, classical margin, elliptic margin, sharp margin) over
    ks x levels x nus in that order, each margin the one classical_criterion
    and elliptic_criterion report (the elliptic one nan for N < 2, the sharp
    one None for k <= 8/3).  gamma_median is asked once per k, beta_median
    once per (k, nu) and the threshold computed once per (k, N); the
    refusals are the criteria's, checked once per (k, N) in row order."""
    rows = []
    for k in ks:
        med = rhs = None
        for n in levels:
            _check_classical(k, M, n, m_j, nus)
            threshold = _threshold(k, M, n)
            # the medians wait for the first (k, N) that passes, as rows do
            if med is None:
                med = _sharp_median(k)
            if n >= 2 and rhs is None:
                rhs = [_elliptic_rhs(k, nu)[1] for nu in nus]
            for i, nu in enumerate(nus):
                margin, _, sharp = _classical_margins(threshold, med, M, n, nu, m_j)
                el = n - rhs[i] if n >= 2 else math.nan
                rows.append((k, n, nu, margin, el, sharp))
    return rows


def region_test_a(k: float, M: int, N: int, nu: int, m_j: float) -> CriterionReport:
    """Closed-form test of the strip-region inequality for the classical
    seed e^{2 pi i (nu + m_j) tau / M} of weight k at level N.

    The mass of the seed above y = y_cut = 1/N must exceed the mass
    below; after substitution both sides are incomplete-gamma integrals, so
    the margin is 1 - 2 P(k/2 - 1, 2 pi (nu + m_j)/(M N)).  The no-return
    property of the region holds for the supported congruence families
    because nontrivial elements have |c| >= N, which the report records.
    The two sides split the seed's mass M Gamma(s) / alpha^s
    (_quad.gamma_over_power, as seed_strip_integral takes it); RefusalError
    when that mass exceeds the float range, which the margin does not need.
    The refusals are the classical criterion's.
    """
    _check_classical(k, M, N, m_j, (nu,))
    y_cut = 1.0 / N
    alpha = 2.0 * math.pi * (nu + m_j) / M
    s = k / 2.0 - 1.0
    x0 = alpha * y_cut
    p_val = regularized_incomplete_gamma(s, x0)
    try:
        scale = gamma_over_power(M, s, alpha)
    except OverflowError as exc:
        raise RefusalError(f"region A mass M Gamma(s) / alpha^s overflows at s={s}") from exc
    lhs = scale * (1.0 - p_val)
    rhs = scale * p_val
    margin = 1.0 - 2.0 * p_val
    details = {"above_cut": lhs, "below_cut": rhs, "x0": x0,
               "gamma_median": gamma_median(s),
               "pairwise_inequivalence": "assumed (|c| >= N for the supported families)"}
    return CriterionReport("regionA", margin,
                           inputs={"k": k, "M": M, "N": N, "nu": nu, "m_j": m_j,
                                   "y_cut": y_cut},
                           details=details)


def region_test_c(k: float, nu: int, N: int, r: Optional[float] = None) -> CriterionReport:
    """Closed-form test of the Cartan-ball conditions for an elliptic seed at i.

    The ball of radius r must inject into the level-N quotient, which holds
    exactly when 2 cosh(4r) < N^2 + 2, and must carry more than half of the
    seed's radial mass.  The substitution s = tanh^2 t turns the head
    (0 <= t <= r) and the tail of that mass into B I and B (1 - I), with
    I = I_{tanh^2 r}(nu/2 + 1, k/2 - 1) and B the complete beta value, so
    the mass margin is 2 I - 1.  Without r the radius is find_radius's;
    when no radius is feasible the report carries the elliptic criterion's
    margin, r None and a note.  The refusals of k, N and nu are the elliptic
    criterion's, with or without r.  A radius whose separation margin is
    not a finite float (cosh(4r) overflows from r = 178 on) is refused.
    """
    _check_elliptic(k, N, (nu,))
    if r is None:
        r = find_radius(k, nu, N)
        if r is None:
            return CriterionReport("regionC", elliptic_criterion(k, N, nu).margin,
                                   {"k": k, "nu": nu, "N": N, "r": None},
                                   {"note": "no feasible radius"})
    if r <= 0:
        raise ValueError("need r > 0")
    try:
        sep = math.sqrt(N * N + 2.0) - math.sqrt(2.0 * math.cosh(4.0 * r))
    except OverflowError:  # cosh(4r), from r = 178 on
        sep = -math.inf
    if not math.isfinite(sep):
        raise RefusalError(f"the separation margin at r={r} is not a finite float")
    a = nu / 2.0 + 1.0
    b = k / 2.0 - 1.0
    frac = regularized_incomplete_beta(a, b, math.tanh(r) ** 2)
    bfun = math.exp(log_beta(a, b))
    mass = 2.0 * frac - 1.0
    margin = min(sep, mass)
    details = {"separation_margin": sep, "mass_head": bfun * frac,
               "mass_tail": bfun * (1.0 - frac), "mass_margin": mass,
               "r_max": _r_max(N)}
    return CriterionReport("regionC", margin,
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
