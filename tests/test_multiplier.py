import cmath
import math

import numpy as np
import pytest

from conftest import random_element
from vvps.errors import RefusalError
from vvps.modgroup import I2, S, T, GroupSpec, IntMatrix2, enumerate_cosets, t_power
from vvps.multiplier import (MultiplierSystem, _dedekind12, _eta_phase, check_consistency,
                             evaluate_v)


def log_eta(tau: complex) -> complex:
    """log of the eta function through its q-product, with enough terms for
    the height of tau."""
    q = cmath.exp(2j * math.pi * tau)
    terms = min(int(60.0 / tau.imag) + 50, 250000)
    total = 1j * math.pi * tau / 12.0
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        total += cmath.log(1.0 - qn)
    return total


def v_oracle(ms: MultiplierSystem, g, tau=complex(0.37, 1.31)) -> complex:
    """v(g) from the 2k-th eta power evaluated directly, with j^-k on the
    principal branch of cmath.log (arg in ]-pi, pi])."""
    j = g.c * tau + g.d
    num = cmath.exp(2.0 * ms.k * log_eta((g.a * tau + g.b) / j))
    return num * cmath.exp(-ms.k * cmath.log(j)) / cmath.exp(2.0 * ms.k * log_eta(tau))


def dedekind12_scalar(d: int, c: int) -> int:
    """12 c s(d, c) by the reciprocity recursion on Python integers."""
    d %= c
    if d == 0:
        return 0
    return (d * d + c * c + 1 - 3 * c * d - c * dedekind12_scalar(c, d)) // d


def eta_phase_scalar(ms: MultiplierSystem, g) -> float:
    """The phase of v(g) one matrix at a time, in the operation order of
    the array formula: pi k n / 6 with the integer part of k taken mod 12."""
    a, b, c, d = g.a, g.b, g.c, g.d
    if c == 0:
        n = a * b - (6 if d < 0 else 0)
    else:
        shift = 0
        if c < 0:
            a, c, d = -a, -c, -d
            shift = 6
        n = (a + d - dedekind12_scalar(d, c)) // c - 3 + shift
    whole = math.floor(ms.k)
    exact = n * (whole % 12) % 12
    if exact > 6:
        exact -= 12
    return (exact + (ms.k - whole) * n) / 6.0 * math.pi


class TestConstruction:
    def test_trivial_requires_even_integer(self):
        MultiplierSystem("trivial_even", 12.0)
        MultiplierSystem("trivial_even", -4.0)
        with pytest.raises(ValueError):
            MultiplierSystem("trivial_even", 3.0)
        with pytest.raises(ValueError):
            MultiplierSystem("trivial_even", 0.5)

    def test_kappa(self):
        assert MultiplierSystem("trivial_even", 12.0).kappa == 0.0
        assert MultiplierSystem("eta_power", 12.0).kappa == 0.0
        assert MultiplierSystem("eta_power", 0.5).kappa == pytest.approx(1.0 / 24.0)
        assert MultiplierSystem("eta_power", 3.5).kappa == pytest.approx(3.5 / 12.0)
        # one rounding: (13/12) mod 1 would read 0.08333333333333326
        assert MultiplierSystem("eta_power", 13.0).kappa == 1.0 / 12.0
        assert MultiplierSystem("eta_power", -11.0).kappa == 1.0 / 12.0
        # k mod 12 rounds up to 12 here; 0 is the nearest point of R/Z
        assert MultiplierSystem("eta_power", -1e-20).kappa == 0.0
        assert MultiplierSystem("eta_power", -1e-17).kappa == 0.0


class TestValues:
    def test_trivial_is_one(self, rng):
        ms = MultiplierSystem("trivial_even", 12.0)
        for _ in range(20):
            assert evaluate_v(ms, random_element(rng)) == 1.0

    def test_nontriviality_value(self):
        for k in (0.5, 1.0, 12.0, 3.5):
            ms = MultiplierSystem("eta_power", k)
            # (-1)^-k on the principal branch, arg(-1) = pi
            assert evaluate_v(ms, -I2) == pytest.approx(cmath.exp(-1j * math.pi * k), abs=1e-13)

    def test_v_at_t(self):
        ms = MultiplierSystem("eta_power", 0.5)
        assert evaluate_v(ms, T) == pytest.approx(cmath.exp(2j * math.pi / 24.0))
        ms12 = MultiplierSystem("eta_power", 12.0)
        assert evaluate_v(ms12, T) == pytest.approx(1.0)

    def test_unit_modulus(self, rng):
        for k in (0.5, 1.7, 12.0):
            ms = MultiplierSystem("eta_power", k)
            for _ in range(30):
                assert abs(abs(evaluate_v(ms, random_element(rng))) - 1.0) <= 1e-14

    def test_matches_eta_product_oracle(self, rng):
        ms = MultiplierSystem("eta_power", 0.5)
        for g in (T, S, S * T, t_power(-3) * S, S * t_power(2) * S):
            assert evaluate_v(ms, g) == pytest.approx(v_oracle(ms, g), abs=1e-9)
        for _ in range(10):
            g = random_element(rng, max_len=5)
            assert evaluate_v(ms, g) == pytest.approx(v_oracle(ms, g), abs=1e-8)

    def test_closed_form_branches_match_oracle(self):
        # c = 0 with d = -1, c < 0, and a coset of Gamma_inf(1)\Gamma0(5)
        # at height 200 with c = 195 (and its negative); for large c the
        # oracle point tau = -d/c + i/c keeps both tau and g.tau at height 1/c
        ms = MultiplierSystem("eta_power", 7.3)
        assert evaluate_v(ms, -t_power(3)) == pytest.approx(
            v_oracle(ms, -t_power(3)), abs=1e-12)
        g = IntMatrix2(-3, 2, -5, 3)
        assert evaluate_v(ms, g) == pytest.approx(v_oracle(ms, g), abs=1e-12)
        g = IntMatrix2(28, 1, 195, 7)
        tau = complex(-7.0 / 195.0 + 1e-3, 1.0 / 195.0)
        for h in (g, -g):
            assert evaluate_v(ms, h) == pytest.approx(v_oracle(ms, h, tau), abs=1e-12)

    def test_oracle_base_point_independent(self):
        ms = MultiplierSystem("eta_power", 1.5)
        g = S * t_power(3)
        assert v_oracle(ms, g, complex(0.1, 0.9)) == pytest.approx(
            v_oracle(ms, g, complex(-0.8, 2.2)), abs=1e-10)

    def test_eta_k12_equals_trivial(self, rng):
        eta = MultiplierSystem("eta_power", 12.0)
        for _ in range(100):
            g = random_element(rng)
            assert evaluate_v(eta, g) == pytest.approx(1.0, abs=1e-12)


class TestConsistency:
    def test_trivial(self):
        assert check_consistency(MultiplierSystem("trivial_even", 12.0), 50) <= 1e-12

    def test_eta_half(self):
        assert check_consistency(MultiplierSystem("eta_power", 0.5), 100) <= 1e-10

    def test_eta_generic_weight(self):
        assert check_consistency(MultiplierSystem("eta_power", 3.7), 100) <= 1e-10


class TestArrayPhase:
    @pytest.mark.parametrize("level", [1, 3, 5, 7])
    def test_matches_scalar_recursion_on_every_coset(self, level):
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.gamma0(level), 200.0).reps
        mats = [h for g in reps for h in (g, -g)]
        ents = np.array([h.entries() for h in mats], dtype=np.int64)
        top = ents[:, 2] != 0
        sign = np.where(ents[:, 2] < 0, -1, 1)
        c, d = (sign * ents[:, 2])[top], (sign * ents[:, 3])[top]
        assert list(_dedekind12(d, c)) == [dedekind12_scalar(int(x), int(y))
                                           for x, y in zip(d, c)]
        for k in (0.5, 5.5, 7.3, 9.1):
            ms = MultiplierSystem("eta_power", k)
            phases = [eta_phase_scalar(ms, h) for h in mats]
            assert list(_eta_phase(ms, ents)) == phases
            expected = np.array([cmath.exp(1j * phi) for phi in phases])
            got = evaluate_v(ms, ents)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_one_matrix_is_the_array_case(self):
        # bit for bit, over a coset table and the negatives of its rows
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 30.0).reps
        mats = [h for g in reps for h in (g, -g)]
        ents = np.array([h.entries() for h in mats], dtype=np.int64)
        for ms in (MultiplierSystem("trivial_even", 12.0), MultiplierSystem("eta_power", 3.7)):
            one = [evaluate_v(ms, h) for h in mats]
            assert all(type(z) is complex for z in one)
            assert np.array_equal(evaluate_v(ms, ents).view(np.uint64),
                                  np.array(one).view(np.uint64))

    @pytest.mark.parametrize("g", [t_power(1 << 20), IntMatrix2(1, 0, 1 << 20, 1),
                                   IntMatrix2(1 - (1 << 40), 1 << 20, -(1 << 20), 1),
                                   IntMatrix2(1, 1 << 70, 0, 1)])
    def test_large_entries_are_refused(self, g):
        ms = MultiplierSystem("eta_power", 0.5)
        with pytest.raises(RefusalError):
            evaluate_v(ms, g)
        with pytest.raises(RefusalError):
            evaluate_v(ms, [I2.entries(), g.entries()])

    def test_entries_below_the_bound_are_exact(self):
        ms = MultiplierSystem("eta_power", 7.3)
        for g in (t_power((1 << 20) - 1), IntMatrix2(1, 0, (1 << 20) - 1, 1),
                  IntMatrix2((1 << 20) - 2, (1 << 20) - 3, (1 << 20) - 1, (1 << 20) - 2)):
            for h in (g, -g):
                assert evaluate_v(ms, h) == cmath.exp(1j * eta_phase_scalar(ms, h))
