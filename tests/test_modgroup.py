import itertools
import json
import math

import numpy as np
import pytest

from conftest import random_element, random_tau
from vvps.errors import DomainError
from vvps.modgroup import (CosetTable, GroupSpec, I2, IntMatrix2, S, T,
                           cartan_decompose, cocycle_j, contains, cusp_width,
                           entry_arrays, enumerate_cosets, evaluate_word,
                           iwasawa_decompose, mobius_act, real_power,
                           right_coset_reps, slash_kernel, t_power, word_in_st)


def k_theta(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def n_x(x):
    return np.array([[1.0, x], [0.0, 1.0]])


def a_y(y):
    return np.array([[math.sqrt(y), 0.0], [0.0, 1.0 / math.sqrt(y)]])


def h_t(t):
    return np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]])


class TestIntMatrix2:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            IntMatrix2(1, 0, 0, 2)

    def test_algebra(self):
        g = S * T
        assert g == IntMatrix2(0, -1, 1, 1)
        assert g * g.inv() == I2
        assert (S ** 2) == -I2
        assert t_power(7) == T ** 7
        assert I2.norm() == pytest.approx(math.sqrt(2))


class TestMobius:
    def test_identity_fixed(self):
        assert complex(mobius_act(I2, 1j)) == 1j

    def test_s_fixes_i(self):
        assert complex(mobius_act(S, 1j)) == pytest.approx(1j)

    def test_translation(self):
        assert complex(mobius_act(T, complex(0.3, 1.1))) == pytest.approx(complex(1.3, 1.1))

    def test_returns_complex(self):
        w = mobius_act(S, complex(0.3, 1.1))
        assert type(w) is complex
        assert w == pytest.approx(-1.0 / complex(0.3, 1.1))

    def test_point_validation(self):
        with pytest.raises(DomainError):
            mobius_act(S, complex(1.0, -2.0))

    def test_action_composition(self, rng):
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            tau = random_tau(rng)
            one = complex(mobius_act(g1, mobius_act(g2, tau)))
            two = complex(mobius_act(g1 * g2, tau))
            assert abs(one - two) <= 1e-12 * (1.0 + abs(two))


class TestCocycle:
    def test_simple_values(self):
        assert cocycle_j(T, complex(0.4, 2.0)) == 1.0
        assert cocycle_j(S, 1j) == 1j

    def test_cocycle_identity(self, rng):
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            tau = random_tau(rng)
            lhs = cocycle_j(g1 * g2, tau)
            rhs = cocycle_j(g1, complex(mobius_act(g2, tau))) * cocycle_j(g2, tau)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) ** 2)

    def test_imaginary_part_identity(self, rng):
        for _ in range(100):
            g = random_element(rng)
            tau = random_tau(rng)
            lhs = complex(mobius_act(g, tau)).imag
            rhs = tau.imag / abs(cocycle_j(g, tau)) ** 2
            assert abs(lhs - rhs) <= 1e-12 * rhs


class TestRealPower:
    def test_negative_real_half(self):
        assert real_power(-1.0, 0.5) == pytest.approx(1j)

    def test_integer_power(self):
        assert real_power(1j, 12) == pytest.approx(1.0)

    def test_two_i_half(self):
        expect = math.sqrt(2) * np.exp(1j * math.pi / 4)
        assert real_power(2j, 0.5) == pytest.approx(expect)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            real_power(0.0, 0.5)

    def test_matches_repeated_multiplication(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 1e-3:
                continue
            n = int(rng.integers(-6, 7))
            assert real_power(z, n) == pytest.approx(z ** n, rel=1e-12)

    def test_negative_zero_imag_uses_upper_branch(self):
        assert real_power(complex(-4.0, -0.0), 0.5) == pytest.approx(2j)


class TestSlashKernel:
    K = 7.3  # non-integer weight: the branch of j^{-k} matters

    def elements(self, rng):
        gs = [I2, -I2, S, -S]
        for n in (1, -1, 3, -5):
            gs += [t_power(n), -t_power(n)]
        while len(gs) < 24:
            g = random_element(rng)
            if g.c != 0:
                gs.append(g if g.c < 0 else -g)
        return gs

    def test_matches_scalar_path(self, rng):
        gs = self.elements(rng)
        taus = [random_tau(rng) for _ in range(16)] + [complex(0.0, 1.0), complex(-0.5, 0.2)]
        jmk, moved = slash_kernel(*entry_arrays(gs), taus, self.K)
        assert jmk.shape == moved.shape == (len(taus), len(gs))
        for t, tau in enumerate(taus):
            for i, g in enumerate(gs):
                expect_j = real_power(cocycle_j(g, tau), -self.K)
                expect_z = complex(mobius_act(g, tau))
                assert abs(jmk[t, i] - expect_j) <= 1e-14 * abs(expect_j)
                assert abs(moved[t, i] - expect_z) <= 1e-14 * abs(expect_z)

    def test_minus_identity_on_the_cut(self):
        # j(-I, tau) = -1 exactly; the principal branch puts it at arg = +pi
        jmk, moved = slash_kernel(*entry_arrays([-I2]), [complex(0.3, 1.1)], self.K)
        assert abs(jmk[0, 0] - np.exp(-1j * math.pi * self.K)) <= 1e-15
        assert moved[0, 0] == complex(0.3, 1.1)


class TestDecompositions:
    def test_iwasawa_identity(self):
        assert iwasawa_decompose(I2) == pytest.approx((0.0, 1.0, 0.0))

    def test_iwasawa_s(self):
        x, y, theta = iwasawa_decompose(S)
        assert (x, y) == pytest.approx((0.0, 1.0))
        assert theta == pytest.approx(math.pi / 2)

    def test_iwasawa_reconstruction(self, rng):
        for _ in range(100):
            g = (n_x(rng.uniform(-3, 3)) @ a_y(rng.uniform(0.2, 5.0))
                 @ k_theta(rng.uniform(0, 2 * math.pi)))
            x, y, theta = iwasawa_decompose(g)
            again = n_x(x) @ a_y(y) @ k_theta(theta)
            assert np.linalg.norm(again - g) < 1e-12
            gi = complex(mobius_act(g, 1j))
            assert gi == pytest.approx(complex(x, y))

    def test_cartan_pure_boost(self):
        theta1, t, theta2 = cartan_decompose(h_t(0.7))
        assert t == pytest.approx(0.7)
        assert (theta1 + theta2) % (2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_cartan_pure_rotation(self):
        theta1, t, theta2 = cartan_decompose(k_theta(0.3))
        assert t == 0.0
        assert (theta1 + theta2) % (2 * math.pi) == pytest.approx(0.3)

    def test_cartan_reconstruction_and_norm(self, rng):
        for _ in range(100):
            g = random_element(rng, max_len=8).as_array()
            theta1, t, theta2 = cartan_decompose(g)
            assert 0.0 <= theta1 < math.pi
            assert 0.0 <= theta2 < 2 * math.pi
            assert t >= 0.0
            again = k_theta(theta1) @ h_t(t) @ k_theta(theta2)
            assert np.linalg.norm(again - g) < 1e-12 * max(1.0, np.linalg.norm(g))
            norm2 = float(np.sum(g * g))
            assert t == pytest.approx(0.5 * math.acosh(norm2 / 2.0), abs=1e-9)


class TestContains:
    def test_examples(self):
        assert contains(GroupSpec.gamma0(2), IntMatrix2(1, 0, 2, 1))
        assert contains(GroupSpec.gamma_npm(3), -I2)
        assert not contains(GroupSpec.gamma0(5), S)

    def test_minus_identity_everywhere(self):
        for spec in (GroupSpec.sl2z(), GroupSpec.gamma0(7), GroupSpec.gamma1pm(5),
                     GroupSpec.gamma_npm(4), GroupSpec.gamma_infinity(3),
                     GroupSpec.plus_minus_identity()):
            assert contains(spec, -I2)

    def test_gamma_infinity(self):
        gi = GroupSpec.gamma_infinity(3)
        assert contains(gi, t_power(6))
        assert contains(gi, -t_power(-3))
        assert not contains(gi, t_power(2))
        assert not contains(gi, S)


class TestWordInST:
    def test_t_power(self):
        letters, sign = word_in_st(t_power(5))
        assert letters == ["T"] * 5 and sign == 1

    def test_s(self):
        assert word_in_st(S) == (["S"], 1)

    def test_minus_identity(self):
        letters, sign = word_in_st(-I2)
        assert evaluate_word(letters) == I2 and sign == -1

    def test_random_reconstruction(self, rng):
        for _ in range(100):
            g = random_element(rng, max_len=14)
            letters, sign = word_in_st(g)
            prod = evaluate_word(letters)
            expect = g if sign == 1 else -g
            assert prod == expect


# squared Frobenius norm of the ball; matrices of norm^2 exactly 66 exist
# (none has 64), so the boundary and the largest c = 8 are both exercised
BALL_NORM_SQ = 66


def _unit_ball(norm_sq: int):
    """Every determinant-one integer matrix with squared norm <= norm_sq."""
    span = range(-math.isqrt(norm_sq), math.isqrt(norm_sq) + 1)
    return [IntMatrix2(a, b, c, d) for a, b, c, d in itertools.product(span, repeat=4)
            if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= norm_sq]


_BALL = _unit_ball(BALL_NORM_SQ)


def _canonical(lam, g):
    """The canonical lam-coset representative of g, computed directly:
    sign so (c, d) is positive, then reduced by the translations in lam."""
    a, b, c, d = g.entries()
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if lam.kind == "GammaInfinity":
        if c == 0:
            b %= lam.n
        else:
            n = a // (lam.n * c)
            a, b = a - n * lam.n * c, b - n * lam.n * d
    return IntMatrix2(a, b, c, d)


class TestEnumerateCosets:
    @pytest.mark.parametrize("gamma", [GroupSpec.sl2z(), GroupSpec.gamma0(5),
                                       GroupSpec.gamma1pm(5), GroupSpec.gamma_npm(3)],
                             ids=str)
    @pytest.mark.parametrize("widths", [0, 1, 2], ids=["pmI", "width", "twice_width"])
    def test_complete_against_brute_force(self, gamma, widths):
        # every coset with a representative in the ball, kept when its
        # canonical representative is in the ball too
        lam = (GroupSpec.gamma_infinity(widths * cusp_width(gamma, I2)) if widths
               else GroupSpec.plus_minus_identity())
        canon = {_canonical(lam, g) for g in _BALL if contains(gamma, g)}
        inside = sorted((g for g in canon if g.norm_sq() <= BALL_NORM_SQ),
                        key=lambda g: (g.norm_sq(), g.c, g.d, g.a, g.b))
        assert any(g.c for g in inside)  # more than the translations
        assert enumerate_cosets(lam, gamma, math.sqrt(BALL_NORM_SQ)).reps == tuple(inside)

    def test_trivial_ball(self):
        # the only cosets with norm <= 1.5 are {+-I} and {+-S}, both at sqrt(2)
        table = enumerate_cosets(GroupSpec.plus_minus_identity(), GroupSpec.sl2z(), 1.5)
        assert set(table.reps) == {I2, S}

    def test_too_small_height(self):
        table = enumerate_cosets(GroupSpec.plus_minus_identity(), GroupSpec.sl2z(), 1.0)
        assert len(table) == 0

    def test_not_subgroup_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cosets(GroupSpec.gamma_infinity(3), GroupSpec.gamma_npm(2), 10.0)
        with pytest.raises(ValueError):
            enumerate_cosets(GroupSpec.gamma0(2), GroupSpec.sl2z(), 10.0)

    def test_gamma0_2_index_by_brute_force(self):
        # reduction mod 2 has 3 cosets for the lower-triangular subgroup
        reps = right_coset_reps(GroupSpec.gamma0(2))
        assert len(reps) == 3
        mats_mod2 = {(g.a % 2, g.b % 2, g.c % 2, g.d % 2) for g in reps}
        assert len(mats_mod2) == 3

    def test_pairwise_inequivalent_and_growth(self):
        lam = GroupSpec.gamma_infinity(1)
        small = enumerate_cosets(lam, GroupSpec.sl2z(), 8.0)
        big = enumerate_cosets(lam, GroupSpec.sl2z(), 16.0)
        assert len(big) > 2.5 * len(small)
        for i, g in enumerate(small.reps):
            for g2 in small.reps[i + 1:]:
                assert not contains(lam, g * g2.inv())

    def test_pm_identity_pairwise(self):
        lam = GroupSpec.plus_minus_identity()
        table = enumerate_cosets(lam, GroupSpec.gamma0(2), 7.0)
        for i, g in enumerate(table.reps):
            assert contains(GroupSpec.gamma0(2), g)
            for g2 in table.reps[i + 1:]:
                assert not contains(lam, g * g2.inv())

    def test_all_reps_within_height_and_in_group(self):
        table = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.gamma0(3), 12.0)
        assert len(table) > 0
        for g in table.reps:
            assert g.norm() <= 12.0 + 1e-9
            assert contains(GroupSpec.gamma0(3), g)

    def test_gamma_infinity_canonical_form(self):
        table = enumerate_cosets(GroupSpec.gamma_infinity(2), GroupSpec.gamma_npm(2), 30.0)
        for g in table.reps:
            if g.c == 0:
                assert g.a == 1 and g.d == 1 and 0 <= g.b < 2
            else:
                assert g.c > 0 and 0 <= g.a < 2 * g.c

    def test_json_round_trip(self):
        table = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 6.0)
        data = json.loads(json.dumps(table.to_json()))
        again = CosetTable.from_json(data)
        assert again.reps == table.reps
        assert again.lam == table.lam and again.gamma == table.gamma


class TestCuspWidth:
    def test_infinity_widths(self):
        assert cusp_width(GroupSpec.gamma0(5), I2) == 1
        assert cusp_width(GroupSpec.gamma1pm(7), I2) == 1
        assert cusp_width(GroupSpec.gamma_npm(4), I2) == 4

    def test_one_half_cusp_of_gamma0_4(self):
        sigma = IntMatrix2(1, 0, 2, 1)  # sigma.infinity = 1/2
        found = cusp_width(GroupSpec.gamma0(4), sigma)
        brute = next(m for m in range(1, 20)
                     if contains(GroupSpec.gamma0(4), sigma * t_power(m) * sigma.inv()))
        assert found == brute == 1

    def test_zero_cusp_of_gamma0_4(self):
        found = cusp_width(GroupSpec.gamma0(4), S)
        brute = next(m for m in range(1, 20)
                     if contains(GroupSpec.gamma0(4), S * t_power(m) * S.inv()))
        assert found == brute == 4
