import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from conftest import elliptic_handle, plain_split
from vvps.errors import DomainError
from vvps.modgroup import GroupSpec, I2, cusp_width, enumerate_cosets, kernel_workspace
from vvps.multiplier import MultiplierSystem
from vvps.rep import SpectralSplit, spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed, seed_strip_integral
from vvps.series import check_seed_invariance

MS12 = MultiplierSystem("trivial_even", 12.0)


class TestEvaluation:
    def test_classical_at_i(self):
        seed = ClassicalSeed(0, 1, plain_split(3), 1)
        val = seed.eval_many([1j])[0]
        assert val == pytest.approx(np.array([math.exp(-2 * math.pi), 0.0, 0.0]))

    def test_elliptic_at_center_height(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        assert seed.eval_many([1j])[0, 0] == pytest.approx(2.0 ** -12)

    def test_elliptic_zero_at_xi(self):
        seed = EllipticSeed(1, 1j, np.array([1.0 + 0j]), 12.0)
        assert seed.eval_many([1j])[0, 0] == 0.0

    def test_classical_norm_identity(self, rng):
        w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        split = SpectralSplit(np.asarray(w), (0.25, 1.0))
        seed = ClassicalSeed(2, 1, split, 3)
        for _ in range(50):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            expect = math.exp(-2 * math.pi * (2 + 0.25) * tau.imag / 3)
            assert abs(np.linalg.norm(seed.eval_many([tau])[0]) - expect) <= 1e-14 * expect

    def test_elliptic_componentwise_bound(self, rng):
        seed = EllipticSeed(3, complex(0.4, 1.7), np.array([1.0, 0j]), 5.5)
        for _ in range(50):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            bound = abs(tau - seed.xi.conjugate()) ** -5.5
            assert np.all(np.abs(seed.eval_many([tau])[0]) <= bound * (1 + 1e-13))

    @pytest.mark.parametrize("nu, tau, gate", [(300, 8 + 14j, 7.5e-14), (400, 8 + 5j, 7.5e-15)])
    def test_elliptic_where_a_power_passes_the_float_range(self, nu, tau, gate):
        # |tau - xi|^nu passes the float range and the value does not:
        # against exp(nu log A - (nu + k) log B), A = tau - xi, B = tau -
        # conj(xi); measured 2.5e-14 and 2.5e-15, gated at 3x
        seed = EllipticSeed(nu, 1j, np.array([1.0 + 0j]), 12.0)
        got = complex(seed.eval_many([tau])[0, 0])
        with mpmath.workdps(40):
            a, b = mpmath.mpc(tau) - 1j, mpmath.mpc(tau) + 1j
            exact = mpmath.exp(nu * mpmath.log(a) - (nu + 12) * mpmath.log(b))
            assert abs(mpmath.mpc(got) - exact) <= gate * abs(exact)

    def test_elliptic_value_independent_of_the_other_points(self):
        # the (A/B)^nu B^-k route was chosen from max |tau| over the call, so
        # the value at 1+i moved by 3.4e-14 (relative) when 8+14i came along
        seed = EllipticSeed(300, 1j, np.array([1.0 + 0j]), 12.0)
        alone = seed.eval_many([1 + 1j])[0]
        assert seed.eval_many([1 + 1j, 8 + 14j])[0].tobytes() == alone.tobytes()
        # through a handle: 9 cosets, whose bound reaches 700 / nu between
        # the two points
        h = elliptic_handle(GroupSpec.gamma0(2), nu=300, height=3.0)
        alone = h.evaluate_many([1 + 1j])[0][0]
        assert h.evaluate_many([1 + 1j, 8 + 14j])[0][0].tobytes() == alone.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalSeed(-1, 1, plain_split(), 1)
        with pytest.raises(ValueError):
            ClassicalSeed(0, 2, plain_split(1), 1)
        with pytest.raises(DomainError):
            EllipticSeed(0, complex(0, -1), np.array([1.0 + 0j]), 12.0)
        with pytest.raises(ValueError):
            EllipticSeed(0, 1j, np.zeros(2, dtype=complex), 12.0)

    def test_classical_refuses_an_inexact_exponent(self):
        # e(alpha tau) and the kernel's phases come from the exact alpha =
        # (nu + m_j) / M, so an m_j that is not r/n with n <= 360 is refused
        # when the seed is built, not by the first series of it
        split = SpectralSplit(np.eye(1, dtype=complex), (math.sqrt(0.5),))
        with pytest.raises(ValueError, match="is not a rational r/n with n <= 360"):
            ClassicalSeed(0, 1, split, 1)


class TestInvariance:
    def test_classical_under_stabiliser(self):
        rep = trivial_rep(1, GroupSpec.gamma0(2))
        split = spectral_split(rep, MS12, 1)
        seed = ClassicalSeed(0, 1, split, 1)
        res = check_seed_invariance(seed, rep, MS12)
        assert res <= 1e-10

    def test_classical_with_eta_weight(self):
        ms = MultiplierSystem("eta_power", 2.5)
        rep = trivial_rep(1)
        split = spectral_split(rep, ms, 1)
        seed = ClassicalSeed(1, 1, split, 1)
        res = check_seed_invariance(seed, rep, ms)
        assert res <= 1e-10

    def test_elliptic_under_minus_identity(self):
        rep = trivial_rep(2)
        seed = EllipticSeed(1, 1j, np.array([1.0, 2.0j]), 12.0)
        res = check_seed_invariance(seed, rep, MS12)
        assert res <= 1e-10

    def test_wrong_exponent_breaks_invariance(self):
        rep = trivial_rep(1)
        wrong = SpectralSplit(np.eye(1, dtype=complex), (0.625,))
        seed = ClassicalSeed(0, 1, wrong, 1)
        res = check_seed_invariance(seed, rep, MS12)
        assert res > 1e-3


class TestSlashConstants:
    @pytest.mark.parametrize("gamma", [GroupSpec.sl2z(), GroupSpec.gamma0(2), GroupSpec.gamma0(11),
                                       GroupSpec.gamma1pm(5), GroupSpec.gamma_npm(3)], ids=str)
    @pytest.mark.parametrize("times", [1, 2], ids=["width", "twice-width"])
    @pytest.mark.parametrize("height", [0.0, 1.0, 10.0, 60.0])
    def test_classical_rows_in_cd_order(self, gamma, times, height):
        # The classical kernel no longer gathers bottom rows in (c, d) order:
        # it runs over the table order from c and d as floats and kappa =
        # -2 pi alpha / c, and each coset's phase e(alpha a/c), e(alpha b)
        # where c = 0, is an exact turn in (-1/2, 1/2].  At twice the cusp
        # width, a runs over [0, 2 M c) and b over [0, 2 M)
        M = times * cusp_width(gamma, I2)
        tab = enumerate_cosets(GroupSpec.gamma_infinity(M), gamma, height)
        seed = ClassicalSeed(3, 1, SpectralSplit(np.eye(1, dtype=complex), (0.25,)), M)
        alpha = Fraction(13, 4 * M)
        k, c, d, kappa, at_inf, c_low, (num, den) = seed._slash_constants(tab.ents[tab.order], 12)
        assert k == 12.0 and Fraction(num, den) == alpha
        ents = tab.ents[tab.order]
        assert c.dtype == d.dtype == kappa.dtype == np.float64
        assert np.array_equal(c, ents[:, 2]) and np.array_equal(d, ents[:, 3])
        assert np.array_equal(at_inf, np.flatnonzero(ents[:, 2] == 0))
        assert (ents[at_inf, 0] == 1).all() and (ents[at_inf, 3] == 1).all()
        top = ents[:, 2] != 0
        assert np.array_equal(kappa[top], -2.0 * math.pi * float(alpha) / c[top])
        assert not kappa[~top].any()
        assert c_low == (c[top].min() if top.any() else np.inf)
        angle = np.repeat(*seed._phase_runs(tab.ents))
        assert angle.shape == (len(tab),)
        for (a, b, cc, _), got in zip(tab.ents.tolist(), angle.tolist()):
            turn = alpha * (Fraction(a, cc) if cc else b)
            turn -= math.floor(turn)
            if turn > Fraction(1, 2):
                turn -= 1
            assert got == 2.0 * math.pi * float(turn)
        # the cosets (1 b; 0 1) get e(alpha tau), taken in long double (within
        # an ulp, where e^{2 pi i alpha tau} in floats errs by |2 pi alpha tau|
        # ulps); e(alpha b) is their phase
        taus = [complex(0.3, 1.1), complex(-0.45, 0.06)]
        terms = seed._slashed_many(np.array(taus), seed._slash_constants(tab.ents[tab.order], 12),
                                   kernel_workspace(len(taus) * len(tab)))
        for t, tau in enumerate(taus):
            with mpmath.workdps(30):
                exact = mpmath.expjpi(2 * mpmath.mpf(alpha.numerator) / alpha.denominator
                                      * mpmath.mpc(tau.real, tau.imag))
                for z in terms[t, at_inf].tolist():
                    assert abs(mpmath.mpc(z) - exact) <= 2.3e-16 * abs(exact)


class TestStripIntegral:
    def test_classical_closed_form_k12(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        got = seed_strip_integral(seed, 12.0)
        assert got == pytest.approx(24.0 / (2 * math.pi) ** 5, rel=1e-12)

    def test_classical_matches_quadrature(self):
        # independent oracle: 2-d strip integral reduced to dy quadrature
        for (k, m_width, nu, mj) in [(12.0, 1, 0, 1.0), (3.5, 2, 1, 0.5), (6.0, 3, 2, 0.25)]:
            split = SpectralSplit(np.eye(1, dtype=complex), (mj,))
            seed = ClassicalSeed(nu, 1, split, m_width)
            alpha = 2 * math.pi * (nu + mj) / m_width
            oracle, err = integrate.quad(
                lambda y: math.exp(-alpha * y) * y ** (k / 2.0 - 2.0), 0, np.inf)
            oracle *= m_width
            assert seed_strip_integral(seed, k) == pytest.approx(oracle, rel=1e-8)

    def test_classical_decreasing_in_nu(self):
        vals = [seed_strip_integral(ClassicalSeed(nu, 1, plain_split(), 1), 12.0)
                for nu in range(5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_elliptic_finite_positive(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        val = seed_strip_integral(seed, 12.0)
        assert val > 0 and math.isfinite(val)

    def test_elliptic_matches_beta_oracle(self):
        # bound = ||u||/Im(xi)^{k/2} * int cos^{k-2} * B(k/2-1, k/2)
        for k in (12.0, 5.0, 3.5):
            seed = EllipticSeed(2, complex(0.5, 2.0), np.array([0.0, 3.0 + 0j]), k)
            ix = math.sqrt(math.pi) * math.gamma((k - 1) / 2) / math.gamma(k / 2)
            iy = math.gamma(k / 2 - 1) * math.gamma(k / 2) / math.gamma(k - 1)
            oracle = 3.0 / 2.0 ** (k / 2.0) * ix * iy
            assert seed_strip_integral(seed, k) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [3.5, 12.0, 20.5, 40.0])
    def test_elliptic_matches_quad_oracle(self, k):
        seed = EllipticSeed(1, complex(-0.2, 1.5), np.array([1.0 + 0j, 2.0j]), k)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        ix, _ = integrate.quad(lambda x: (x * x + 1.0) ** (-k / 2.0), -np.inf, np.inf, **opts)
        iy, _ = integrate.quad(lambda y: y ** (k / 2.0 - 2.0) * (y + 1.0) ** (1.0 - k),
                               0.0, np.inf, **opts)
        oracle = math.sqrt(5.0) / 1.5 ** (k / 2.0) * ix * iy
        assert seed_strip_integral(seed, k) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_divergent_weight_rejected(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        with pytest.raises(DomainError):
            seed_strip_integral(seed, 2.0)
        with pytest.raises(DomainError):
            seed_strip_integral(EllipticSeed(0, 1j, np.array([1.0 + 0j]), 2.0), 2.0)
