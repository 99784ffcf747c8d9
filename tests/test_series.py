import math

import numpy as np
import pytest

from conftest import random_element, random_tau
from vvps.errors import DomainError, RefusalError
from vvps.modgroup import (GroupSpec, I2, IntMatrix2, S, T, cocycle_j,
                           enumerate_cosets, mobius_act, t_power)
from vvps.multiplier import MultiplierSystem
from vvps.rep import spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import (SeriesHandle, build_series, check_transformation,
                         slash_k, slash_k_rho, sup_norm_probe)

MS12 = MultiplierSystem("trivial_even", 12.0)


def classical_handle(gamma=GroupSpec.sl2z(), height=30.0, nu=0, k=12.0):
    ms = MultiplierSystem("trivial_even", k)
    rep = trivial_rep(1, gamma)
    split = spectral_split(rep, ms, 1)
    seed = ClassicalSeed(nu, 1, split, 1)
    return build_series(seed, GroupSpec.gamma_infinity(1), gamma, rep, ms, k, height)


def elliptic_handle(gamma=GroupSpec.gamma0(2), height=25.0, nu=0, k=12.0):
    ms = MultiplierSystem("trivial_even", k)
    rep = trivial_rep(1, gamma)
    seed = EllipticSeed(nu, 1j, np.array([1.0 + 0j]), k)
    return build_series(seed, GroupSpec.plus_minus_identity(), gamma, rep, ms, k, height)


class TestSlash:
    def test_identity(self):
        F = lambda tau: np.array([tau ** 2])
        tau = complex(0.3, 1.2)
        assert slash_k(F, I2, MS12, 12.0)(tau) == pytest.approx(F(tau))

    def test_minus_identity_is_identity(self, rng):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau), tau ** -3])
        for ms in (MS12, MultiplierSystem("eta_power", 3.5)):
            acted = slash_k(F, -I2, ms, ms.k)
            for _ in range(20):
                tau = random_tau(rng)
                assert np.allclose(acted(tau), F(tau), rtol=0, atol=1e-12 * 50)

    def test_constant_under_s(self):
        F = lambda tau: np.array([1.0 + 0j])
        val = slash_k(F, S, MS12, 12.0)(2j)
        assert val[0] == pytest.approx(2.0 ** -12)

    def test_right_action_property(self, rng):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        for ms in (MS12, MultiplierSystem("eta_power", 1.5)):
            for _ in range(50):
                g1, g2 = random_element(rng, 8), random_element(rng, 8)
                tau = random_tau(rng)
                one = slash_k(lambda t: slash_k(F, g1, ms, ms.k)(t), g2, ms, ms.k)(tau)
                two = slash_k(F, g1 * g2, ms, ms.k)(tau)
                assert np.linalg.norm(one - two) <= 1e-10 * (1 + np.linalg.norm(two))

    def test_rho_twisted_two_paths(self, rng):
        rep = trivial_rep(1)
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        for _ in range(50):
            g1, g2 = random_element(rng, 8), random_element(rng, 8)
            tau = random_tau(rng)
            one = slash_k_rho(lambda t: slash_k_rho(F, g1, rep, MS12, 12.0)(t),
                              g2, rep, MS12, 12.0)(tau)
            two = slash_k_rho(F, g1 * g2, rep, MS12, 12.0)(tau)
            assert np.linalg.norm(one - two) <= 1e-10 * (1 + np.linalg.norm(two))

    def test_trivial_rep_reduces_to_plain(self, rng):
        rep = trivial_rep(1)
        F = lambda tau: np.array([tau ** -4])
        g = random_element(rng)
        tau = random_tau(rng)
        assert np.allclose(slash_k_rho(F, g, rep, MS12, 12.0)(tau),
                           slash_k(F, g, MS12, 12.0)(tau))


class TestHandleValidation:
    def test_low_weight_rejected(self):
        with pytest.raises(DomainError):
            classical_handle(k=2.0)

    def test_table_mismatch_rejected(self):
        h = classical_handle(height=10.0)
        other = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.gamma0(2), 10.0)
        with pytest.raises(ValueError):
            SeriesHandle(h.seed, h.lam, GroupSpec.sl2z(), h.rep, h.ms, h.k, other)

    def test_wrong_stabiliser_rejected(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        rep = trivial_rep(1)
        with pytest.raises(ValueError):
            build_series(seed, GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                         rep, MS12, 12.0, 10.0)

    def test_multiplier_weight_mismatch_rejected(self):
        # a weight-7.3 multiplier under a weight-12 series used to build; its
        # transformation residual under (1 0; 5 1) was 0.84
        gamma = GroupSpec.gamma0(5)
        ms = MultiplierSystem("eta_power", 7.3)
        rep = trivial_rep(1, gamma)
        seed = ClassicalSeed(0, 1, spectral_split(rep, ms, 1), 1)
        with pytest.raises(ValueError, match="multiplier weight"):
            build_series(seed, GroupSpec.gamma_infinity(1), gamma, rep, ms, 12.0, 20.0)

    def test_split_mismatch_rejected(self):
        from vvps.rep import SpectralSplit
        rep = trivial_rep(1)
        bad = ClassicalSeed(0, 1, SpectralSplit(np.eye(1, dtype=complex), (0.5,)), 1)
        with pytest.raises(ValueError):
            build_series(bad, GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                         rep, MS12, 12.0, 10.0)


class TestEvaluate:
    def test_single_coset_returns_seed(self):
        pmi = GroupSpec.plus_minus_identity()
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        h = build_series(seed, pmi, pmi, trivial_rep(1), MS12, 12.0, 1.5)
        tau = complex(0.4, 1.3)
        value, tail = h.evaluate(tau)
        assert value == pytest.approx(seed.eval(tau))

    def test_refuses_near_real_line(self):
        h = classical_handle(height=10.0)
        with pytest.raises(RefusalError):
            h.evaluate(complex(0.3, 0.01))

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("bad, error", [
        (complex(0.3, 0.0), DomainError),
        (complex(0.3, -1.0), DomainError),
        (complex(0.3, math.nan), DomainError),
        (complex(math.nan, 1.0), DomainError),
        (complex(0.3, 0.01), RefusalError),
    ])
    def test_point_validation(self, bad, error, as_array):
        h = classical_handle(height=10.0)
        taus = [complex(0.1, 1.2), bad]
        with pytest.raises(error):
            h.evaluate_many(np.array(taus) if as_array else taus)

    def test_domain_error_before_refusal(self):
        h = classical_handle(height=10.0)
        with pytest.raises(DomainError):
            h.evaluate_many([complex(0.2, 0.02), complex(0.3, -1.0)])

    def test_empty_table_rejected(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        pmi = GroupSpec.plus_minus_identity()
        h = SeriesHandle(seed, pmi, GroupSpec.sl2z(), trivial_rep(1), MS12, 12.0,
                         enumerate_cosets(pmi, GroupSpec.sl2z(), 1.0))
        with pytest.raises(ValueError):
            h.evaluate(1j)

    def test_matches_brute_force_sum(self):
        """DERIVED oracle: independent brute-force sum over the same cosets."""
        h = classical_handle(height=12.0)
        tau = complex(0.3, 1.1)
        expect = np.zeros(1, dtype=complex)
        for g in h.cosets.reps:
            expect += slash_k_rho(h.seed.eval, g, h.rep, h.ms, h.k)(tau)
        value, _ = h.evaluate(tau)
        assert value == pytest.approx(expect, rel=1e-12)

    def test_high_im_value_near_single_term(self):
        # at tau = 5i the non-identity cosets contribute a bounded multiple
        # of the identity term (the 2 pi J_11(4 pi) Kloosterman mass), not a
        # 1e-8 perturbation; the brute-force oracle above is the real check
        h = classical_handle(height=60.0)
        value, _ = h.evaluate(5j)
        lead = h.seed.eval(5j)[0]
        assert abs(value[0] / lead - 1.0) < 5.0
        assert abs(value[0] / lead - 1.0) > 0.5  # documents the failure of naive dominance

    def test_doubling_height_within_tail(self):
        h1 = classical_handle(height=15.0)
        h2 = classical_handle(height=30.0)
        for tau in (complex(0.3, 1.1), complex(-0.2, 0.7), complex(0.45, 2.0)):
            v1, tail1 = h1.evaluate(tau)
            v2, _ = h2.evaluate(tau)
            assert np.linalg.norm(v1 - v2) <= tail1

    def test_batch_matches_pointwise(self):
        h = elliptic_handle(height=15.0)
        taus = [complex(0.1, 0.9), complex(-0.4, 1.7), complex(0.0, 3.0)]
        values, tails = h.evaluate_many(taus)
        for i, tau in enumerate(taus):
            v, t = h.evaluate(tau)
            assert np.array_equal(values[i], v) and tails[i] == t

    def test_unitarity_term_identity(self, rng):
        # per-term norm equals ||f(g.tau)|| |j(g,tau)|^{-k}
        h = classical_handle(height=10.0)
        tau = complex(0.17, 1.4)
        for g in h.cosets.reps[:40]:
            term = slash_k_rho(h.seed.eval, g, h.rep, h.ms, h.k)(tau)
            expect = (np.linalg.norm(h.seed.eval(complex(mobius_act(g, tau))))
                      * abs(cocycle_j(g, tau)) ** -h.k)
            assert abs(np.linalg.norm(term) - expect) <= 1e-12 * max(expect, 1e-300)


class TestTransformation:
    def test_minus_identity_exact(self):
        h = classical_handle(height=15.0)
        res = check_transformation(h, [-I2], [complex(0.3, 1.1)])
        assert res.residual <= 1e-12

    def test_outside_group_rejected(self):
        h = classical_handle(gamma=GroupSpec.gamma0(2), height=15.0)
        with pytest.raises(ValueError):
            check_transformation(h, [IntMatrix2(1, 0, 1, 1)], [complex(0.3, 1.1)])

    def test_residual_halves_with_height(self):
        taus = [complex(0.3, 1.1)]
        gammas = [T, IntMatrix2(1, 0, 2, 1)]
        r1 = check_transformation(classical_handle(GroupSpec.gamma0(2), 12.0), gammas, taus)
        r2 = check_transformation(classical_handle(GroupSpec.gamma0(2), 24.0), gammas, taus)
        assert r2.residual <= r1.residual / 2.0

    def test_elliptic_transformation(self):
        h = elliptic_handle(height=25.0)
        res = check_transformation(h, [T, IntMatrix2(1, 0, 2, 1)], [complex(0.3, 1.1)])
        assert res.residual <= 1e-6


class TestNontrivialData:
    """Series evaluation with a real multiplier twist, a character twist,
    and a cusp width above one; the acceptance suite runs trivial data only."""

    def test_eta_weight_series_transforms(self):
        ms = MultiplierSystem("eta_power", 4.5)
        rep = trivial_rep(1)
        split = spectral_split(rep, ms, 1)
        seed = ClassicalSeed(0, 1, split, 1)
        assert split.m == (pytest.approx(0.375),)  # kappa = 4.5/12
        h = build_series(seed, GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                         rep, ms, 4.5, 40.0)
        res = check_transformation(h, [T, S * t_power(2) * S.inv()],
                                   [complex(0.3, 1.4)])
        assert res.residual <= res.tail  # k = 4.5 converges slowly; tail-dominated

    def test_dirichlet_twisted_series_transforms(self):
        from vvps.rep import dirichlet_rep
        chi = dirichlet_rep(5, [0, 1, -1, -1, 1])
        split = spectral_split(chi, MS12, 1)
        seed = ClassicalSeed(0, 1, split, 1)
        h = build_series(seed, GroupSpec.gamma_infinity(1), GroupSpec.gamma0(5),
                         chi, MS12, 12.0, 50.0)
        twisted = IntMatrix2(2, 1, 5, 3)  # chi(3) = -1 exercises the twist
        res = check_transformation(h, [T, twisted], [complex(-0.6, 0.3)])
        assert res.residual <= 1e-9

    def test_width_two_series_transforms(self):
        gamma = GroupSpec.gamma_npm(2)
        rep = trivial_rep(1, gamma)
        split = spectral_split(rep, MS12, 2)
        seed = ClassicalSeed(0, 1, split, 2)
        h = build_series(seed, GroupSpec.gamma_infinity(2), gamma, rep, MS12,
                         12.0, 40.0)
        res = check_transformation(h, [t_power(2), IntMatrix2(1, 0, 2, 1)],
                                   [complex(0.3, 1.1)])
        assert res.residual <= 1e-10


class TestSupNorm:
    def test_invariance_spot_check(self):
        h = classical_handle(GroupSpec.gamma0(2), height=40.0)
        tau = complex(0.3, 1.1)
        g = IntMatrix2(1, 0, 2, 1)
        one = sup_norm_probe(h, [tau])
        two = sup_norm_probe(h, [complex(mobius_act(g, tau))])
        assert one == pytest.approx(two, rel=1e-6)

    def test_high_im_decay_profile(self):
        h = classical_handle(height=40.0)
        for y in (3.0, 4.0, 5.0):
            got = sup_norm_probe(h, [complex(0.0, y)])
            # dominated by the constant-multiple of the leading exponential
            assert got <= 5.0 * math.exp(-2 * math.pi * y) * y ** 6
            assert got >= 0.1 * math.exp(-2 * math.pi * y) * y ** 6

    def test_trivial_quotient_elliptic_value(self):
        pmi = GroupSpec.plus_minus_identity()
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        h = build_series(seed, pmi, pmi, trivial_rep(1), MS12, 12.0, 1.5)
        assert sup_norm_probe(h, [1j]) == pytest.approx(2.0 ** -12)
