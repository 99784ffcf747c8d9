import cmath
import math
import re
import sys

import numpy as np
import pytest
from scipy import integrate, special

from vvps import nonvanish
from vvps._quad import _bisect_then_newton, gamma_over_power, log_beta
from vvps.errors import DomainError, RefusalError
from vvps.modgroup import GroupSpec
from vvps.multiplier import MultiplierSystem
from vvps.nonvanish import (beta_median, classical_criterion, elliptic_criterion,
                            find_radius, gamma_median, region_test_a,
                            region_test_c, regularized_incomplete_beta,
                            regularized_incomplete_gamma)
from vvps.rep import spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, seed_strip_integral

GRID_K = (4.0, 6.0, 12.0, 20.5)
GRID_N = (2, 3, 5, 11)
GRID_NU = range(0, 7)

# The accuracy grid of the _quad docstring, over the shapes the criteria
# use: P(a, x) with a = k/2 - 1, 2.2 < k <= 400, and x in a [0.01, 3];
# I_x(a, b) with a = nu/2 + 1, nu <= 20, b = k/2 - 1, k <= 1000, and
# x = tanh^2 r, 0.02 <= r <= 3.  The references are mpmath at 40 digits.
ACC_GAMMA_A = np.geomspace(2.25, 400.0, 24) / 2.0 - 1.0
ACC_X_OVER_A = np.geomspace(0.01, 3.0, 16)
ACC_BETA_A = [nu / 2.0 + 1.0 for nu in (0, 1, 2, 4, 8, 12, 16, 20)]
ACC_BETA_B = np.geomspace(2.25, 1000.0, 12) / 2.0 - 1.0
ACC_R = np.geomspace(0.02, 3.0, 8)

# The extended grid, up to the edge of the measured domain (a <= 1e4 for
# P; a <= 1e3, b <= 1e4 for I_x): x at ACC_SPREAD standard deviations
# about the mean, where the medians evaluate, besides the grids above.
EXT_GAMMA_A = np.geomspace(400.0, 20002.0, 8) / 2.0 - 1.0
EXT_BETA_A = [1.0, 3.0, 11.0, 100.0, 1000.0]
EXT_BETA_B = np.geomspace(1000.0, 20002.0, 5) / 2.0 - 1.0
ACC_SPREAD = np.linspace(-4.0, 4.0, 9)


def rel_err(got: float, ref) -> float:
    return float(abs(ref - got) / abs(ref))


def mp_gamma_p(mpmath, a, x):
    # mpmath.gammainc's own series gives up past a ~ 1e4: below the mean,
    # P = x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x) (DLMF 8.5.1, 13.6.5)
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    if x < a:
        return (mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
                * mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 6))
    return 1 - mpmath.gammainc(a, x, mpmath.inf, regularized=True)


def mp_beta_i(mpmath, a, b, x):
    # past the mean through the other tail, whose series converges there
    x = mpmath.mpf(x)
    if x < a / (a + b):
        return mpmath.betainc(a, b, 0, x, regularized=True)
    return 1 - mpmath.betainc(b, a, 0, 1 - x, regularized=True)


def beta_spread(a, b):
    mean = a / (a + b)
    sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    return [x for x in mean + sd * ACC_SPREAD if 0.0 < x < 1.0]


def classical_seed(gamma, nu):
    ms = MultiplierSystem("trivial_even", 12.0)
    rep = trivial_rep(1, gamma)
    return ClassicalSeed(nu, 1, spectral_split(rep, ms, 1), 1)


class TestIncompleteGamma:
    def test_exponential_median(self):
        assert regularized_incomplete_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_zero(self):
        assert regularized_incomplete_gamma(3.2, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_gamma(1.0, -0.5)

    def test_against_scipy(self):
        for a in (0.3, 1.0, 2.5, 7.0, 20.0, 80.0):
            for x in (0.01, 0.5, 1.0, 3.0, 10.0, 50.0, 120.0):
                assert regularized_incomplete_gamma(a, x) == \
                    pytest.approx(float(special.gammainc(a, x)), abs=1e-13)

    def test_accuracy_against_mpmath(self):
        # results below the smallest normal float, here P(199, 1.99) ~ 1e-314,
        # are subnormal and lose relative accuracy with their bits (next test)
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a in ACC_GAMMA_A:
                for x in a * ACC_X_OVER_A:
                    ref = mpmath.gammainc(a, 0, x, regularized=True)
                    if ref >= sys.float_info.min:
                        worst = max(worst, rel_err(regularized_incomplete_gamma(a, x), ref))
        assert worst <= 1.7e-13

    def test_subnormal_results_against_mpmath(self):
        # a subnormal P is good to its spacing 2^-1074 besides the relative
        # error of a normal one: P(199, 1.99) = 1.0375288837517e-314 reads
        # 1.0375288835e-314, 0.43 spacings (2.0e-10 relative) off, the float
        # nearest to it
        mpmath = pytest.importorskip("mpmath")
        spacing = mpmath.mpf(2) ** -1074
        cases = [(199.0, 1.99)]
        for a in np.geomspace(20.0, 199.0, 8):
            # x = e^u with x^a e^-x / Gamma(a + 1) = e^t, by Newton in u from 0
            for t in np.linspace(-740.0, -709.0, 6):
                u = 0.0
                for _ in range(50):
                    u -= (a * u - math.exp(u) - math.lgamma(a + 1.0) - t) / (a - math.exp(u))
                cases.append((float(a), math.exp(u)))
        seen = 0
        with mpmath.workdps(40):
            for a, x in cases:
                ref = mp_gamma_p(mpmath, a, x)
                if spacing < ref < sys.float_info.min:
                    seen += 1
                    got = regularized_incomplete_gamma(a, x)
                    assert abs(ref - got) <= 2 * spacing + 1.7e-13 * ref, (a, x)
        assert seen >= 40

    def test_accuracy_against_mpmath_to_the_domain_edge(self):
        # the series needs ~8 sqrt(a) terms: 600 used to stop it short from
        # a ~ 5e3 on, and P(9999, 9999 - 1/3) read 0.49999999079 instead of
        # 0.49999999212
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a in EXT_GAMMA_A:
                for x in [*(a + math.sqrt(a) * ACC_SPREAD), *(a * ACC_X_OVER_A)]:
                    ref = mp_gamma_p(mpmath, a, x)
                    if ref >= sys.float_info.min:
                        worst = max(worst, rel_err(regularized_incomplete_gamma(a, x), ref))
        assert worst <= 1.3e-11

    def test_bisection_self_consistency(self):
        m = gamma_median(5.0)
        assert m == pytest.approx(4.670909, abs=1e-6)
        assert regularized_incomplete_gamma(5.0, m) == pytest.approx(0.5, abs=1e-12)


class TestIncompleteBeta:
    def test_against_scipy(self):
        for a in (0.4, 1.0, 2.5, 8.0):
            for b in (0.7, 1.0, 3.5, 11.0):
                for x in (0.05, 0.3, 0.5, 0.9):
                    assert regularized_incomplete_beta(a, b, x) == \
                        pytest.approx(float(special.betainc(a, b, x)), abs=1e-13)

    def test_accuracy_against_mpmath(self):
        # the prefactor's lgamma terms cancel: the worst point is a = 9,
        # b = 499, and I_{tanh^2 0.1}(5, 499) is off by 3.1e-13
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a in ACC_BETA_A:
                for b in ACC_BETA_B:
                    for x in np.tanh(ACC_R) ** 2:
                        ref = mpmath.betainc(a, b, 0, x, regularized=True)
                        worst = max(worst, rel_err(regularized_incomplete_beta(a, b, x), ref))
        assert worst <= 6.5e-13

    def test_log_beta_against_mpmath(self):
        # an absolute error in log B is the relative error of B
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            worst = max(float(abs(mpmath.log(mpmath.beta(a, b)) - log_beta(a, b)))
                        for a in ACC_BETA_A for b in ACC_BETA_B)
        assert worst <= 6.4e-13

    def test_accuracy_against_mpmath_to_the_domain_edge(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a in EXT_BETA_A:
                for b in map(float, EXT_BETA_B):
                    for x in [*beta_spread(a, b), *np.tanh(ACC_R) ** 2]:
                        ref = mp_beta_i(mpmath, a, b, x)
                        if ref >= sys.float_info.min:
                            worst = max(worst,
                                        rel_err(regularized_incomplete_beta(a, b, x), ref))
        assert worst <= 1.31e-11

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def literal_gamma_over_power(c, s, x):
    """c Gamma(s) / x^s as the seed mass and the classical pairing wrote
    it, or None where that is not a finite float."""
    try:
        value = c * math.gamma(s) / x ** s
    except (OverflowError, ZeroDivisionError):
        return None
    return value if cmath.isfinite(value) else None


def closed_form_shapes():
    """(c, s, x) of the classical pairing, c = M^k, and of the classical
    seed mass, c = M, for k <= 400, nu in {0, 3, 20}, M in {1, 2, 7}."""
    for M in (1, 2, 7):
        for nu in (0, 3, 20):
            for k in map(float, range(3, 401)):
                if M ** int(k) < sys.float_info.max:
                    yield M ** k, k - 1.0, 4.0 * math.pi * (nu + 1.0)
                yield M, k / 2.0 - 1.0, 2.0 * math.pi * (nu + 1.0) / M


class TestGammaOverPower:
    def test_bits_of_the_direct_expression(self):
        # wherever c * gamma(s) / x ** s is finite, the same bits
        grid = 0
        for c in (1, 2, 7, 0.3, -2.5, 1e-300, 1e300, 0.0, 1.5 - 0.7j, -1e-200 + 3e-210j):
            for s in [*np.geomspace(0.05, 171.0, 40), 171.5, 171.6, 172.0, 180.0]:
                for x in (1e-3, 0.05, 1.0, 2.0 * math.pi, 4.0 * math.pi * 20.5, 1e4):
                    value = literal_gamma_over_power(c, float(s), x)
                    if value is not None:
                        grid += 1
                        assert gamma_over_power(c, float(s), x) == value, (c, s, x)
        assert grid > 1500

    def test_accuracy_against_mpmath(self):
        # direct while the literal expression is finite, logarithms past it
        mpmath = pytest.importorskip("mpmath")
        worst = {True: 0.0, False: 0.0}
        with mpmath.workdps(40):
            for c, s, x in closed_form_shapes():
                ref = mpmath.mpf(c) * mpmath.gamma(s) / mpmath.mpf(x) ** s
                if ref < sys.float_info.max:
                    direct = literal_gamma_over_power(c, s, x) is not None
                    worst[direct] = max(worst[direct], rel_err(gamma_over_power(c, s, x), ref))
        assert worst[True] <= 6.6e-16
        assert worst[False] <= 6.5e-13

    def test_complex_and_zero_past_the_direct_form(self):
        # gamma(200) overflows: log|c| carries the size and c/|c| the phase
        z = gamma_over_power(3.0 - 4.0j, 200.0, 10.0)
        assert z == pytest.approx((0.6 - 0.8j) * gamma_over_power(5.0, 200.0, 10.0),
                                  rel=1e-15, abs=0.0)
        # |3 - 4i| Gamma(200) / 10^200
        assert abs(z) == pytest.approx(5.0 * 3.943289336823953e172, rel=1e-12)
        assert gamma_over_power(0.0, 200.0, 1.0) == 0.0
        assert gamma_over_power(0j, 200.0, 1.0) == 0j

    def test_value_beyond_the_float_range_raises(self):
        with pytest.raises(OverflowError):
            gamma_over_power(1.0, 300.0, 1.0)


class TestMedians:
    def test_gamma_median_ln2(self):
        assert abs(gamma_median(1.0) - math.log(2.0)) <= 1e-12

    def test_gamma_median_two(self):
        # oracle: bisection on the closed-form CDF 1 - e^{-x}(1+x)
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 1.0 - math.exp(-mid) * (1.0 + mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert gamma_median(2.0) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert gamma_median(2.0) == pytest.approx(1.67835, abs=1e-5)

    def test_chen_rubin_sandwich(self):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            m = gamma_median(a)
            assert a - 1.0 / 3.0 < m < a

    def test_median_condition_holds(self):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            assert abs(regularized_incomplete_gamma(a, gamma_median(a)) - 0.5) <= 1e-12

    def test_beta_symmetric(self):
        for a in (0.5, 1.0, 3.0, 9.5):
            assert abs(beta_median(a, a) - 0.5) <= 1e-12

    def test_beta_closed_form_family(self):
        for b in (1.0, 2.0, 5.0, 9.0):
            assert beta_median(1.0, b) == pytest.approx(1.0 - 2.0 ** (-1.0 / b), abs=1e-12)
        assert beta_median(1.0, 5.0) == pytest.approx(0.129449, abs=1e-6)

    def test_cached_medians_are_the_computed_ones(self):
        gamma_median.cache_clear()
        beta_median.cache_clear()
        for _ in range(2):
            assert gamma_median(4.25) == gamma_median.__wrapped__(4.25)
            assert beta_median(1.5, 5.0) == beta_median.__wrapped__(1.5, 5.0)
        assert gamma_median.cache_info().hits == 1
        assert beta_median.cache_info().hits == 1

    def test_the_criteria_grid_medians_stay_cached(self):
        # the benchmark's criteria asks for Beta(nu/2 + 1, k/2 - 1) at k in
        # 4, 4.5, ..., 24 and nu in 0..8: 369 shapes, which a bound of 256
        # evicted before their second use (738 misses for two passes)
        beta_median.cache_clear()
        for _ in range(2):
            for k in (4.0 + 0.5 * i for i in range(41)):
                for nu in range(9):
                    beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0)
        assert beta_median.cache_info().misses == 369

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        worst_gamma = worst_beta = 0.0
        with mpmath.workdps(40):
            for a in map(float, ACC_GAMMA_A):
                m = gamma_median(a)
                ref = mpmath.findroot(lambda x: mpmath.gammainc(a, 0, x, regularized=True)
                                      - 0.5, m)
                worst_gamma = max(worst_gamma, rel_err(m, ref))
            for a in ACC_BETA_A:
                for b in map(float, ACC_BETA_B):
                    m = beta_median(a, b)
                    ref = mpmath.findroot(lambda x: mpmath.betainc(a, b, 0, x, regularized=True)
                                          - 0.5, m)
                    worst_beta = max(worst_beta, rel_err(m, ref))
        assert worst_gamma <= 1.4e-14
        assert worst_beta <= 4.9e-13

    def test_medians_match_scipy_to_the_domain_edge(self):
        # with P's series cut at 600 terms gamma_median(1e4) was off by 3e-11
        worst_gamma = max(rel_err(gamma_median(a), special.gammaincinv(a, 0.5))
                          for a in map(float, EXT_GAMMA_A))
        worst_beta = max(rel_err(beta_median(a, b), special.betaincinv(a, b, 0.5))
                         for a in EXT_BETA_A for b in map(float, EXT_BETA_B))
        assert worst_gamma <= 7.5e-14
        assert worst_beta <= 1.4e-11

    @pytest.mark.parametrize("call, shape", [
        (lambda: regularized_incomplete_gamma(10001.0, 1e4), "a = 10001.0"),
        (lambda: gamma_median(99999.0), "a = 99999.0"),
        (lambda: regularized_incomplete_beta(1001.0, 2.0, 0.5), "a = 1001.0, b = 2.0"),
        (lambda: regularized_incomplete_beta(2.0, 10001.0, 1e-4), "a = 2.0, b = 10001.0"),
        (lambda: beta_median(11.0, 99999.0), "a = 11.0, b = 99999.0"),
    ], ids=["P", "gamma-median", "I-a", "I-b", "beta-median"])
    def test_shapes_beyond_the_measured_domain_refused(self, call, shape):
        # past the domain the error of P and I_x exceeds the 5e-11 that the
        # median finder's certificate assumes: 7.4e-11 at P(15631, x)
        with pytest.raises(RefusalError, match=re.escape(shape)):
            call()

    def test_beta_condition_holds(self):
        for a, b in ((0.5, 2.0), (2.0, 7.0), (4.5, 1.5)):
            assert abs(regularized_incomplete_beta(a, b, beta_median(a, b)) - 0.5) <= 1e-12


def plain_median(cdf, pdf, lo, hi):
    """The median finder as it was before it skipped certified steps:
    bisection of [lo, hi] to 1e-13, then at most 4 Newton steps."""
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


def plain_gamma_median(a: float) -> float:
    lg = math.lgamma(a)

    def pdf(x):
        return math.exp((a - 1.0) * math.log(x) - x - lg) if x > 0 else 0.0

    return plain_median(lambda x: regularized_incomplete_gamma(a, x), pdf,
                        max(0.0, a - 1.0 / 3.0), a)


def plain_beta_median(a: float, b: float) -> float:
    lb = log_beta(a, b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb)

    return plain_median(lambda x: regularized_incomplete_beta(a, b, x), pdf, 0.0, 1.0)


# the shapes of the criteria-grid benchmark: k in [4, 24] by 0.5, nu <= 8
CRITERIA_K = np.arange(4.0, 24.25, 0.5)
CRITERIA_BETA = [(nu / 2.0 + 1.0, k / 2.0 - 1.0) for k in CRITERIA_K for nu in range(9)]
CRITERIA_GAMMA = [k / 2.0 - 1.0 for k in CRITERIA_K]


def _random_shapes():
    # weights 2 < k <= 2e4, log-uniform, inside the measured domain; nu <= 20
    rng = np.random.default_rng(24)
    ks = np.exp(rng.uniform(math.log(2.01), math.log(2e4), 400))
    nus = rng.integers(0, 21, 200)
    beta = [(nu / 2.0 + 1.0, k / 2.0 - 1.0) for nu, k in zip(nus, ks[:200])]
    return beta, [k / 2.0 - 1.0 for k in ks[200:]]


class TestMedianFinder:
    """The finder skips bisection steps whose side of 1/2 an earlier
    evaluation certifies; every median must keep the plain finder's bits."""

    def test_bitwise_equal_to_plain_bisection(self):
        random_beta, random_gamma = _random_shapes()
        edge = np.geomspace(0.005, 1.0, 15)
        betas = (CRITERIA_BETA + [(a, b) for a in ACC_BETA_A for b in ACC_BETA_B]
                 + [(a, b) for a in np.geomspace(0.5, 50.0, 15) for b in edge]  # b < 1
                 + random_beta)
        gammas = CRITERIA_GAMMA + list(ACC_GAMMA_A) + list(edge) + random_gamma
        assert len(betas) == 369 + 96 + 225 + 200 and len(gammas) == 41 + 24 + 15 + 200
        for a, b in betas:
            a, b = float(a), float(b)
            assert beta_median.__wrapped__(a, b) == plain_beta_median(a, b), (a, b)
        for a in map(float, gammas):
            assert gamma_median.__wrapped__(a) == plain_gamma_median(a), a

    def test_cdf_calls_per_median(self, monkeypatch):
        # over this domain the plain finder made 47.7 incomplete-beta and 44.2
        # incomplete-gamma calls per median, this one 20.2 and 21.6
        calls = []

        def counted(f):
            return lambda *args: calls.append(None) or f(*args)

        monkeypatch.setattr(nonvanish, "regularized_incomplete_beta",
                            counted(regularized_incomplete_beta))
        monkeypatch.setattr(nonvanish, "regularized_incomplete_gamma",
                            counted(regularized_incomplete_gamma))
        for a, b in CRITERIA_BETA:
            beta_median.__wrapped__(a, b)
        assert len(calls) <= 28 * len(CRITERIA_BETA)
        calls.clear()
        for a in CRITERIA_GAMMA:
            gamma_median.__wrapped__(a)
        assert len(calls) <= 26 * len(CRITERIA_GAMMA)

    @pytest.mark.parametrize("density", [1.0, 0.0])
    def test_cdf_flat_at_one_half(self, density):
        # cdf = 1/2 on [0.02, 0.98]: no window about the start certifies
        # before it reaches the ends of [0, 1]
        def cdf(x):
            return min(25.0 * x, 0.5) + max(25.0 * (x - 0.98), 0.0)

        def pdf(x):
            return density

        plain = plain_median(cdf, pdf, 0.0, 1.0)
        assert plain > 0.979
        assert _bisect_then_newton(cdf, pdf, 0.0, 1.0, 0.5) == plain


class TestClassicalCriterion:
    def test_satisfied_example(self):
        rep = classical_criterion(12.0, 1, 5, 2, 1.0)
        assert rep.satisfied and rep.margin == pytest.approx(35.0 / (3.0 * math.pi) - 3.0)

    def test_unsatisfied_example(self):
        rep = classical_criterion(12.0, 1, 5, 3, 1.0)
        assert not rep.satisfied and rep.margin < 0

    def test_vacuous_at_threshold_weight(self):
        rep = classical_criterion(8.0 / 3.0 + 1e-9, 1, 5, 0, 1.0)
        assert not rep.satisfied
        assert rep.margin < 0

    def test_margin_monotonicity(self):
        base = classical_criterion(12.0, 1, 5, 2, 1.0).margin
        assert classical_criterion(13.0, 1, 5, 2, 1.0).margin > base
        assert classical_criterion(12.0, 1, 7, 2, 1.0).margin > base
        assert classical_criterion(12.0, 1, 5, 3, 1.0).margin < base

    def test_report_shape(self):
        rep = classical_criterion(12.0, 1, 5, 2, 1.0)
        data = rep.to_json()
        assert data["satisfied"] == (data["margin"] > 0)
        assert "sharp_satisfied" in data["details"]


class TestEllipticCriterion:
    def test_k12_nu0(self):
        rep = elliptic_criterion(12.0, 2, 0)
        assert rep.satisfied
        assert rep.details["beta_median"] == pytest.approx(1 - 2 ** (-0.2), abs=1e-12)
        assert rep.details["rhs"] == pytest.approx(1.6532, abs=1e-4)

    def test_large_nu_fails(self):
        rep = elliptic_criterion(12.0, 2, 20)
        assert not rep.satisfied and rep.margin < 0

    def test_large_weight_always_passes(self):
        rep = elliptic_criterion(100.0, 2, 0)
        assert rep.satisfied and rep.details["rhs"] < 1.0

    def test_level_one_rejected(self):
        with pytest.raises(ValueError):
            elliptic_criterion(12.0, 1, 0)


class TestRegionA:
    def test_matches_sharp_inequality_on_grid(self):
        for k in GRID_K:
            for n in GRID_N:
                for nu in GRID_NU:
                    rep = region_test_a(k, 1, n, nu, 1.0)
                    sharp = classical_criterion(k, 1, n, nu, 1.0).details["sharp_satisfied"]
                    assert rep.satisfied == sharp
                    # margin is 1 - 2 P(k/2-1, x0)
                    p = regularized_incomplete_gamma(k / 2 - 1, rep.details["x0"])
                    assert rep.margin == pytest.approx(1.0 - 2.0 * p, abs=1e-12)

    def test_sides_are_actual_integrals(self):
        rep = region_test_a(6.0, 1, 3, 1, 1.0)
        alpha = 2 * math.pi * 2.0  # (nu + m_j)/M = 2
        above, _ = integrate.quad(lambda y: math.exp(-alpha * y) * y ** 1.0, 1.0 / 3.0, np.inf)
        below, _ = integrate.quad(lambda y: math.exp(-alpha * y) * y ** 1.0, 0.0, 1.0 / 3.0)
        assert rep.details["above_cut"] == pytest.approx(above, rel=1e-9)
        assert rep.details["below_cut"] == pytest.approx(below, rel=1e-9)


    def test_large_weight_margin_is_not_refused(self):
        # the display scale M Gamma(s) / alpha^s overflowed math.gamma for
        # k >= ~345 and refused a finite margin
        rep = region_test_a(400.0, 1, 5, 0, 1.0)
        s, alpha = 199.0, 2.0 * math.pi
        p = regularized_incomplete_gamma(s, alpha / 5.0)
        assert rep.margin == 1.0 - 2.0 * p
        log_scale = math.lgamma(s) - s * math.log(alpha)
        assert math.log(rep.details["above_cut"]) == pytest.approx(
            log_scale + math.log1p(-p), rel=1e-14)

    def test_large_weight_mass_is_the_sum_of_the_sides(self):
        # the mass M Gamma(s) / alpha^s (~1e212 here) is finite, though its
        # direct form overflows math.gamma from k = 346 on
        seed = classical_seed(GroupSpec.gamma0(5), 0)
        mass = seed_strip_integral(seed, 400.0)
        sides = region_test_a(400.0, seed.M, 5, seed.nu, seed.m_j).details
        assert math.isfinite(mass)
        assert mass == pytest.approx(sides["above_cut"] + sides["below_cut"], rel=1e-15)

    def test_scale_beyond_float_range_is_refused(self):
        with pytest.raises(RefusalError):
            region_test_a(1000.0, 1, 5, 0, 1.0)

    def test_sides_keep_the_direct_formula_values(self):
        # wherever M Gamma(s) / alpha^s was finite in direct form, the sides
        # stay within 1e-13 of it (exp of a log-space scale near 700 alone
        # would differ by up to ~3e-13)
        gamma = GroupSpec.gamma0(5)
        seeds = [classical_seed(gamma, 0)]
        for k_eta, m_width in ((7.0, 1), (3.0, 1), (5.0, 2)):
            ms = MultiplierSystem("eta_power", k_eta)
            seeds.append(ClassicalSeed(0, 1, spectral_split(trivial_rep(1, gamma), ms, m_width),
                                       m_width))
        checked = 0
        for k in (4.0, 12.5, 60.0, 171.0, 250.5, 300.0, 333.5, 340.5, 343.0, 344.5):
            s = k / 2.0 - 1.0
            for base in seeds:
                for nu in range(0, 9, 2):
                    seed = ClassicalSeed(nu, 1, base.split, base.M)
                    alpha = 2.0 * math.pi * (nu + seed.m_j) / seed.M
                    try:
                        direct = seed.M * math.gamma(s) / alpha ** s
                    except OverflowError:
                        continue
                    rep = region_test_a(k, seed.M, 5, nu, seed.m_j)
                    p = regularized_incomplete_gamma(s, rep.details["x0"])
                    assert rep.details["above_cut"] == pytest.approx(direct * (1.0 - p), rel=1e-13)
                    assert rep.details["below_cut"] == pytest.approx(direct * p, rel=1e-13)
                    checked += 1
        assert checked > 150


class TestRegionC:
    def test_boundary_radius_fails_separation(self):
        r_boundary = math.acosh((4.0 + 2.0) / 2.0) / 4.0
        rep = region_test_c(12.0, 0, 2, r_boundary)
        assert not rep.satisfied
        assert rep.details["separation_margin"] <= 1e-12

    def test_monotone_in_radius(self):
        small = region_test_c(12.0, 0, 2, 1e-3)
        assert small.details["mass_margin"] < 0
        large = region_test_c(12.0, 0, 2, 5.0)
        assert large.details["mass_margin"] > 0 and large.details["separation_margin"] < 0

    @pytest.mark.parametrize("r", [178.0, 1e300, 1e308, math.nan])
    def test_radius_without_a_finite_separation_refused(self, r):
        # cosh(4r) overflows from r = 178 on (OverflowError), and at 1e308
        # 4r is inf, where the margin was -inf
        with pytest.raises(RefusalError, match=re.escape(f"r={r}")):
            region_test_c(12.0, 0, 2, r)

    def test_quadrature_head_matches_beta(self):
        # independent check of both mass integrals against scipy quadrature;
        # measured relative errors 2.2e-16 (head) and 2.3e-15 (tail)
        k, nu, r = 12.0, 2, 0.4

        def density(t):
            # tanh^nu(t) sech^k(t) sinh(2t), finite for large t
            sech = 2.0 * math.exp(-t) / (1.0 + math.exp(-2.0 * t))
            return 2.0 * math.tanh(t) ** (nu + 1) * sech ** (k - 2)

        head, _ = integrate.quad(density, 0, r)
        tail, _ = integrate.quad(density, r, np.inf)
        rep = region_test_c(k, nu, 2, r)
        assert rep.details["mass_head"] == pytest.approx(head, rel=1e-15)
        assert rep.details["mass_tail"] == pytest.approx(tail, rel=1e-14)

    def test_mass_margin_matches_scipy(self):
        # the margin is 2 I_{tanh^2 r}(nu/2 + 1, k/2 - 1) - 1; at large k both
        # masses are tiny, which exposes any absolute error tolerance.  Worst
        # 6.3e-13 (k = 1000, nu = 8, r = 0.1), from the lgamma differences
        # in the prefactor of the incomplete beta
        for k in (12.0, 40.0, 200.0, 400.0, 1000.0):
            for nu in (0, 2, 8, 12):
                for r in (0.05, 0.1, 0.2, 0.4):
                    ref = 2.0 * special.betainc(nu / 2 + 1, k / 2 - 1, math.tanh(r) ** 2) - 1.0
                    got = region_test_c(k, nu, 2, r).details["mass_margin"]
                    assert abs(got - ref) <= 1e-12, (k, nu, r)

    def test_found_radius_satisfies(self):
        r = find_radius(12.0, 0, 2)
        assert r is not None
        assert region_test_c(12.0, 0, 2, r).satisfied
        assert r < math.acosh(3.0) / 4.0

    def test_radius_defaults_to_find_radius(self):
        for k, nu, n in ((12.0, 0, 2), (6.0, 1, 5), (20.5, 3, 11)):
            assert region_test_c(k, nu, n) == region_test_c(k, nu, n, find_radius(k, nu, n))

    def test_no_feasible_radius_is_reported(self):
        rep = region_test_c(4.0, 0, 2)
        assert find_radius(4.0, 0, 2) is None
        assert rep.margin == elliptic_criterion(4.0, 2, 0).margin and not rep.satisfied
        assert rep.inputs == {"k": 4.0, "nu": 0, "N": 2, "r": None}
        assert rep.details == {"note": "no feasible radius"}


class TestFindRadius:
    def test_feasibility_equivalence_on_grid(self):
        for k in GRID_K:
            for n in GRID_N:
                for nu in GRID_NU:
                    r = find_radius(k, nu, n)
                    assert (r is not None) == elliptic_criterion(k, n, nu).satisfied
                    # the closed-form region test must accept the radius
                    assert r is None or region_test_c(k, nu, n, r).satisfied

    def test_verdict_is_positive_margin_on_criteria_grid(self):
        # the criteria-grid space: k in {4, 4.5, ..., 24}, N in 2..13, nu in 0..8
        for k in np.arange(4.0, 24.5, 0.5).tolist():
            ms = (MultiplierSystem("trivial_even", k) if k % 2 == 0
                  else MultiplierSystem("eta_power", k))
            for n in range(2, 14):
                group = GroupSpec.gamma0(n)
                split = spectral_split(trivial_rep(1, group), ms, 1)
                for nu in range(9):
                    seed = ClassicalSeed(nu, 1, split, 1)
                    ell = elliptic_criterion(k, n, nu)
                    reports = [classical_criterion(k, 1, n, nu, m_j) for m_j in (0.25, 1.0)]
                    reports += [ell, region_test_a(k, seed.M, n, nu, seed.m_j)]
                    r = find_radius(k, nu, n)
                    if r is None:
                        # the no-radius artifact reports this margin as unsatisfied
                        assert ell.margin <= 0, (k, n, nu)
                    else:
                        reports.append(region_test_c(k, nu, n, r))
                    for rep in reports:
                        assert rep.to_json()["satisfied"] == (rep.margin > 0), (rep.criterion, k, n, nu)

    def test_infeasible_returns_none(self):
        assert find_radius(12.0, 20, 2) is None

    def test_returned_radius_in_interval(self):
        for (k, nu, n) in ((12.0, 0, 2), (6.0, 1, 5), (20.5, 3, 11)):
            r = find_radius(k, nu, n)
            assert r is not None
            assert 0 < r < math.acosh((n * n + 2.0) / 2.0) / 4.0
            assert region_test_c(k, nu, n, r).satisfied


class TestChenRubinSlack:
    def test_closed_form_implies_sharp_never_converse(self):
        # over the grid the closed-form criterion implies the median form;
        # with m_j = 1/5 there is a grid point where the converse fails
        found_gap = False
        for k in GRID_K:
            for n in GRID_N:
                for nu in GRID_NU:
                    for m_j in (0.2, 0.5, 1.0):
                        rep = classical_criterion(k, 1, n, nu, m_j)
                        if rep.satisfied:
                            assert rep.details["sharp_satisfied"]
                        elif rep.details["sharp_satisfied"]:
                            found_gap = True
        assert found_gap

    def test_documented_gap_point(self):
        rep = classical_criterion(4.0, 1, 11, 1, 0.2)
        assert not rep.satisfied          # 1.2 > 11/(3 pi)
        assert rep.details["sharp_satisfied"]  # 2 pi 1.2/11 < ln 2
