import math

import numpy as np
import pytest
from scipy import integrate

from vvps.errors import DomainError
from vvps.modgroup import GroupSpec
from vvps.multiplier import MultiplierSystem
from vvps.rep import SpectralSplit, spectral_split, trivial_rep
from vvps.seeds import (ClassicalSeed, EllipticSeed, check_seed_invariance,
                        seed_from_json, seed_strip_integral, seed_to_json)

MS12 = MultiplierSystem("trivial_even", 12.0)


def plain_split(p=1):
    return SpectralSplit(np.eye(p, dtype=complex), tuple([1.0] * p))


class TestEvaluation:
    def test_classical_at_i(self):
        seed = ClassicalSeed(0, 1, plain_split(3), 1)
        val = seed.eval(1j)
        assert val == pytest.approx(np.array([math.exp(-2 * math.pi), 0.0, 0.0]))

    def test_elliptic_at_center_height(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        assert seed.eval(1j)[0] == pytest.approx(2.0 ** -12)

    def test_elliptic_zero_at_xi(self):
        seed = EllipticSeed(1, 1j, np.array([1.0 + 0j]), 12.0)
        assert seed.eval(1j)[0] == 0.0

    def test_classical_norm_identity(self, rng):
        w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        split = SpectralSplit(np.asarray(w), (0.25, 1.0))
        seed = ClassicalSeed(2, 1, split, 3)
        for _ in range(50):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            expect = math.exp(-2 * math.pi * (2 + 0.25) * tau.imag / 3)
            assert abs(np.linalg.norm(seed.eval(tau)) - expect) <= 1e-14 * expect

    def test_elliptic_componentwise_bound(self, rng):
        seed = EllipticSeed(3, complex(0.4, 1.7), np.array([1.0, 0j]), 5.5)
        for _ in range(50):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            bound = abs(tau - seed.xi.conjugate()) ** -5.5
            assert np.all(np.abs(seed.eval(tau)) <= bound * (1 + 1e-13))

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalSeed(-1, 1, plain_split(), 1)
        with pytest.raises(ValueError):
            ClassicalSeed(0, 2, plain_split(1), 1)
        with pytest.raises(DomainError):
            EllipticSeed(0, complex(0, -1), np.array([1.0 + 0j]), 12.0)
        with pytest.raises(ValueError):
            EllipticSeed(0, 1j, np.zeros(2, dtype=complex), 12.0)

    def test_json_round_trip(self):
        seed = ClassicalSeed(1, 1, plain_split(2), 2)
        again = seed_from_json(seed_to_json(seed))
        assert again.nu == 1 and again.M == 2 and again.split.m == seed.split.m
        ell = EllipticSeed(2, complex(0.3, 1.5), np.array([1.0, 1j]), 4.5)
        again = seed_from_json(seed_to_json(ell))
        assert again.xi == ell.xi and np.allclose(again.u, ell.u)


class TestInvariance:
    def test_classical_under_stabiliser(self):
        rep = trivial_rep(1, GroupSpec.gamma0(2))
        split = spectral_split(rep, MS12, 1)
        seed = ClassicalSeed(0, 1, split, 1)
        res = check_seed_invariance(seed, GroupSpec.gamma_infinity(1), rep, MS12)
        assert res <= 1e-10

    def test_classical_with_eta_weight(self):
        ms = MultiplierSystem("eta_power", 2.5)
        rep = trivial_rep(1)
        split = spectral_split(rep, ms, 1)
        seed = ClassicalSeed(1, 1, split, 1)
        res = check_seed_invariance(seed, GroupSpec.gamma_infinity(1), rep, ms)
        assert res <= 1e-10

    def test_elliptic_under_minus_identity(self):
        rep = trivial_rep(2)
        seed = EllipticSeed(1, 1j, np.array([1.0, 2.0j]), 12.0)
        res = check_seed_invariance(seed, GroupSpec.plus_minus_identity(), rep, MS12)
        assert res <= 1e-10

    def test_wrong_exponent_breaks_invariance(self):
        rep = trivial_rep(1)
        wrong = SpectralSplit(np.eye(1, dtype=complex), (0.625,))
        seed = ClassicalSeed(0, 1, wrong, 1)
        res = check_seed_invariance(seed, GroupSpec.gamma_infinity(1), rep, MS12)
        assert res > 1e-3


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
