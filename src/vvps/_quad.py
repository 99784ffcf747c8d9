"""Shared numerics: the Gauss-Legendre and Gauss-Laguerre rules, built once
each, Gauss-Legendre panels, the Gauss rule of a truncated
Jacobi weight, compensated sums, and the Gamma/Beta-family functions of
the non-vanishing criteria.

Measured maximum error against mpmath at 40 digits, relative unless
marked, on the grids of tests/test_nonvanish.py: the criteria's grid
(a = k/2 - 1, 2.2 < k <= 400, x in a [0.01, 3] for P; a = nu/2 + 1,
nu <= 20, b = k/2 - 1, k <= 1000, x = tanh^2 r, 0.02 <= r <= 3 for I_x
and log B) and the extended grid up to the domain's edge (P: 199 <= a
<= 1e4; I_x: a <= 1e3, 499 <= b <= 1e4; both also at -4..4 standard
deviations about the mean).  The extended column's second figure is
the worst of a denser random sample (9,000 points of a in [5e3, 1e4]
for P, 6,000 of b in [3e3, 1e4] for I_x, 1,000 shapes in the domain for
each median); medians there are against scipy:

| function | domain | method | criteria grid | extended |
|---|---|---|---|---|
| P(a, x) | 0 < a <= 1e4, x >= 0 | series if x < a + 1, else continued fraction | 1.7e-13 | 1.3e-11; 3.5e-11 |
| I_x(a, b) | 0 < a <= 1e3, 0 < b <= 1e4, 0 <= x <= 1 | continued fraction (in 1 - x past the mean) | 6.5e-13 | 1.3e-11; 2.4e-11 |
| log B(a, b) | a, b > 0 | sum and difference of three lgamma values | 6.4e-13 absolute | |
| c Gamma(s) / x^s | s, x > 0, c real or complex | c * gamma(s) / x ** s while finite, else exp(log abs(c) + lgamma(s) - s log x) c / abs(c) | 6.6e-16 direct; 6.5e-13 past it | |
| medians | a bracket of cdf = 1/2, a start | bisection to 1e-13, <= 4 Newton steps; certified steps skipped | see below | gamma 7.5e-14; 2.4e-13, beta 1.4e-11; 2.0e-11 |

Past its domain P or I_x raises RefusalError naming the shape.  Their
error is the rounding of terms like a log x and lgamma(a), so it grows
like a log a, and it passes the 5e-11 that the median finder assumes
(below) from about a = 1.5e4 (7.4e-11 at P(15631, x)) and b = 1.8e4
(5.3e-11 at I_x(3, 17893)); with a large a and b < 1 earlier (1.4e-10 at
I_x(1e4, 0.5)).  P's series runs to
convergence, which takes ~8 sqrt(a) terms near x = a, within a cap of
600 + 10 sqrt(a).

The c Gamma(s) / x^s row is measured on the shapes of the classical seed
mass (c = M, s = k/2 - 1) and the classical pairing (c = M^k, s = k - 1,
whose s the strip rule's scale shares), for k <= 400, nu in {0, 3, 20}
and M in {1, 2, 7}.

P is regularized_incomplete_gamma, I_x regularized_incomplete_beta, log B
log_beta, c Gamma(s) / x^s gamma_over_power, and the median finder
_bisect_then_newton, which
nonvanish.gamma_median (error 1.4e-14) and beta_median (4.9e-13) call;
the continued fractions are modified Lentz.

The median finder returns the bits of plain bisection and polish with
about half the cdf evaluations (20 instead of 48 per median on the
criteria's shapes).  A cdf value below 1/2 - _SURE certifies that every
point at or left of it lies below 1/2, one above 1/2 + _SURE that every
point at or right of it lies above, and the bisection evaluates only the
midpoints that no value certifies.  Those values come from Newton steps
from a closed-form start and from a window about the Newton estimate, of
half-width 4 _SURE / pdf, widened x4 until both ends certify; where none
certifies, the finder is plain bisection.  The certificate assumes the
float cdf within _SURE / 2 = 5e-11 of the true, nondecreasing cdf: 77
times the worst error of I_x on the criteria grid, 290 times that of P,
and 1.4 times the worst error sampled in either domain.

The errors of I_x, log B and the beta median come from lgamma terms near
2,600 that cancel at b = 499: the worst grid point is I_x(9, 499), and
I_{tanh^2 0.1}(5, 499) is off by 3.1e-13.  A P below the smallest normal
float is subnormal and keeps fewer bits: on 48 shapes of a in [20, 199]
it was within 2 spacings 2^-1074 plus 1.7e-13 relative, and the float
nearest to the true value where that is below 2^-1034 (P(199, 1.99) =
1.0375288837517e-314 reads 1.0375288835e-314, 0.43 spacings off).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, RefusalError

_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 600
_GAMMA_A_MAX = 1e4  # P's measured domain (see the docstring)
_BETA_A_MAX, _BETA_B_MAX = 1e3, 1e4  # I_x's
_SURE = 1e-10  # a cdf this far from 1/2 certifies its side (see the docstring)
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-5  # ~ sqrt(_SURE): one more Newton step leaves a residual near _SURE


@functools.cache
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1]
    (np.polynomial.legendre.leggauss), built once per n and read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@functools.cache
def gauss_laguerre(n: int):
    """The n-point Gauss-Laguerre nodes and weights for the weight e^-t on
    [0, inf) (np.polynomial.laguerre.laggauss), built once per n and
    read-only."""
    return _read_only(*np.polynomial.laguerre.laggauss(n))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def gauss_panels(a: float, b: float, n_panels: int):
    """Nodes and weights for composite 4-point Gauss-Legendre panels on [a, b]."""
    if n_panels < 1:
        raise ValueError("need at least one panel")
    x0, w0 = gauss_legendre(4)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


def gauss_jacobi_truncated(n: int, b: float, s_max: float):
    """Nodes and weights of the n-point Gauss rule for the weight (1 - s)^b
    on [0, s_max], b > -1 and 0 < s_max <= 1, exact for polynomials in s of
    degree up to 2n - 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    weight.  Its recurrence comes from the Stieltjes procedure on the weight
    discretised in u = -(b + 1) log(1 - s), where it is e^-u du / (b + 1),
    by 4-point Gauss panels, 8 per unit of u and of n, up to u = 745, past
    which e^-u is below the smallest float.  The weights are the
    Christoffel numbers 1 / sum_j p_j(node)^2 of the orthonormal
    polynomials p_j: they keep their relative accuracy where the
    eigenvectors' components, far below 1e-8, do not.  Against mpmath the
    moments of s^j for j <= 2n - 1 read at most 1.1e-14 (relative) for
    n <= 11 and 4.6e-13 at n = 151, for b + 2 in {2.5, 4, 7.3, 12, 40, 172}
    and s_max in {0.05, 0.75, 0.99} (tests/test_analysis.py).
    """
    u_max = min(745.0, -(b + 1.0) * math.log1p(-s_max) if s_max < 1.0 else math.inf)
    u, wu = gauss_panels(0.0, u_max, 8 * math.ceil(u_max + n + 2))
    lam = wu * np.exp(-u) / (b + 1.0)
    s, lam = -np.expm1(-u[lam > 0] / (b + 1.0)), lam[lam > 0]
    p0 = 1.0 / math.sqrt(math.fsum(lam))
    a, c = np.empty(n), np.zeros(n)
    q_prev, q = 0.0, np.full_like(s, p0)
    for i in range(n):
        a[i] = np.sum(lam * s * q * q)
        r = (s - a[i]) * q - c[i - 1] * q_prev
        c[i] = math.sqrt(np.sum(lam * r * r))
        q_prev, q = q, r / c[i]
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(c[:-1], -1))
    p_prev, p = 0.0, np.full(n, p0)
    total = p * p
    with np.errstate(over="ignore"):  # a weight below the float range comes out 0
        for i in range(n - 1):
            p_prev, p = p, ((nodes - a[i]) * p - c[i - 1] * p_prev) / c[i]
            total += p * p
    return nodes, 1.0 / total


def comp_sum_complex(values) -> complex:
    v = np.asarray(values, dtype=complex).ravel()
    if not np.isfinite(v).all():
        raise RefusalError("a sum has non-finite terms: the values overflow the float range")
    return complex(math.fsum(v.real), math.fsum(v.imag))


def block_sum(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The sum of each row of a 2-d complex array, correctly rounded but
    near a rounding boundary; x is overwritten with a residual, and buf, of
    x's shape, is scratch.

    One level of error-free extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31 (2008)), per
    row and on real and imaginary parts alike: with sigma = 2^b 2^e, 2^b >
    n + 2 and 2^e > max |x|, q = (sigma + x) - sigma and r = x - q are
    exact.  The q are multiples of ulp(sigma) / 2 whose partial sums stay
    below sigma, so their sum is exact in any order; |r| <= ulp(sigma) / 2
    <= 2^-51 (n + 2) max |x|, so the sum of the r errs by at most about
    n^2 2^-104 max |x|, and sum q + sum r is rounded once.  The result is
    the correctly rounded sum unless the exact one lies that close to a
    midpoint between two floats: where terms much smaller than the largest
    break a tie, or where the sum cancels far below max |x|.  A part
    (real or imaginary) far smaller than the other shares its sigma and is
    summed no worse than pairwise.  The result is a function of each row
    alone, and of the order of its terms only through that residual.  A
    non-finite term, or one within a factor 2(n + 2) of the float range,
    is refused.
    """
    xf, qf = x.view(float), buf.view(float)
    big = np.maximum(xf.max(axis=-1), -xf.min(axis=-1))
    exp = np.frexp(big)[1] + (x.shape[-1] + 2).bit_length()
    if not (np.isfinite(big).all() and exp.max(initial=0) < 1024):
        raise RefusalError("a sum has non-finite terms: the values overflow the float range")
    sigma = np.ldexp(1.0, exp)[:, None]
    np.add(xf, sigma, out=qf)
    qf -= sigma
    xf -= qf
    return buf.sum(axis=-1) + x.sum(axis=-1)


def gamma_over_power(c, s: float, x: float):
    """c Gamma(s) / x^s for s, x > 0 and a real or complex c.

    While c * gamma(s) / x ** s is finite, its bits; past that, exp(log|c|
    + lgamma(s) - s log x) c / |c| (exp of a logarithm near 700: 6.5e-13
    relative error, see the docstring), and c for c = 0.  OverflowError
    when the value itself exceeds the float range.
    """
    try:
        value = c * math.gamma(s) / x ** s
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if cmath.isfinite(value):
        return value
    if c == 0:
        return c
    return math.exp(math.log(abs(c)) + math.lgamma(s) - s * math.log(x)) * (c / abs(c))


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def regularized_incomplete_gamma(a: float, x: float) -> float:
    """P(a, x), by series for x < a + 1 and continued fraction otherwise."""
    if a <= 0:
        raise DomainError("need a > 0")
    if x < 0:
        raise DomainError("need x >= 0")
    if a > _GAMMA_A_MAX:
        raise RefusalError(f"P(a, x) is measured for a <= {_GAMMA_A_MAX:g} only, "
                           f"not a = {a}")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        # near x = a the series needs ~8 sqrt(a) terms
        for _ in range(_ITMAX + int(10.0 * math.sqrt(a))):
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
    if a > _BETA_A_MAX or b > _BETA_B_MAX:
        raise RefusalError(f"I_x(a, b) is measured for a <= {_BETA_A_MAX:g} and "
                           f"b <= {_BETA_B_MAX:g} only, not a = {a}, b = {b}")
    if x == 0.0 or x == 1.0:
        return float(x)
    # not log_beta: another summation order moves beta_median's last bits
    bt = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                  + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _bisect_then_newton(cdf, pdf, lo, hi, start):
    """Median finder: bisection bracket, then a few Newton polish steps.

    The returned point satisfies |cdf - 1/2| well below 1e-12.  It is the
    point that plain bisection of [lo, hi] and the same polish return, but
    the bisection evaluates cdf only where no earlier evaluation has
    certified the side of 1/2; a Newton estimate from start, inside
    [lo, hi], and a window about it make those earlier evaluations.
    """
    below, above = -math.inf, math.inf  # cdf < 1/2 up to below, > 1/2 from above

    def certify(x):
        nonlocal below, above
        fx = cdf(x) - 0.5
        if fx < -_SURE:
            below = max(below, x)
        elif fx > _SURE:
            above = min(above, x)
        return fx

    left, right = lo, hi
    x = start if lo < start < hi else 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        fx = certify(x)
        dens = pdf(x)
        if not 0 < dens < math.inf:
            break
        if abs(fx) <= _NEWTON_TOL:
            # the step squares the residual; widen x4 until both ends certify
            x -= fx / dens
            half = 4.0 * _SURE / dens
            w = half
            while x - w > max(lo, below) and certify(x - w) >= -_SURE:
                w *= 4.0
            w = half
            while x + w < min(hi, above) and certify(x + w) <= _SURE:
                w *= 4.0
            break
        left, right = (x, right) if fx < 0 else (left, x)
        x -= fx / dens
        if not left < x < right:
            x = 0.5 * (left + right)

    def side(x):
        # cdf(x) - 1/2, or a value of the same sign where that sign is certified
        if x <= below:
            return -0.5
        if x >= above:
            return 0.5
        return cdf(x) - 0.5

    flo = side(lo)
    for _ in range(200):
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fm = side(mid)
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
