import cmath
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest

from conftest import act, cocycle, random_element, random_tau, syllable_product
from vvps import modgroup
from vvps.errors import DomainError
from vvps.modgroup import (GroupSpec, I2, IntMatrix2, S, T, _coset_key, _cusp_orbits,
                           _integer_power, _power, contains, cusp_width, entry_arrays, enumerate_cosets,
                           is_subgroup, principal_power, right_coset_reps, slash_kernel,
                           st_syllables, t_power)
from vvps.multiplier import MultiplierSystem
from vvps.rep import permutation_ell
from vvps.series import slash


class TestIntMatrix2:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            IntMatrix2(1, 0, 0, 2)

    def test_algebra(self):
        g = S * T
        assert g == IntMatrix2(0, -1, 1, 1)
        assert g * g.inv() == I2
        assert S * S == -I2
        assert t_power(7) == T * T * T * T * T * T * T


class TestMobius:
    # g.tau from slash_kernel, one matrix and one point at a time
    def test_identity_fixed(self):
        assert act(I2, 1j) == 1j

    def test_s_fixes_i(self):
        assert act(S, 1j) == pytest.approx(1j)

    def test_translation(self):
        assert act(T, complex(0.3, 1.1)) == pytest.approx(complex(1.3, 1.1))

    def test_point_validation(self):
        with pytest.raises(DomainError):
            act(S, complex(1.0, -2.0))

    def test_action_composition(self, rng):
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            tau = random_tau(rng)
            one = act(g1, act(g2, tau))
            two = act(g1 * g2, tau)
            assert abs(one - two) <= 1e-12 * (1.0 + abs(two))


class TestCocycle:
    # j(g, tau) from _cocycle, g.tau from slash_kernel
    def test_simple_values(self):
        assert cocycle(T, complex(0.4, 2.0)) == 1.0
        assert cocycle(S, 1j) == 1j

    def test_cocycle_identity(self, rng):
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            tau = random_tau(rng)
            lhs = cocycle(g1 * g2, tau)
            rhs = cocycle(g1, act(g2, tau)) * cocycle(g2, tau)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) ** 2)

    def test_imaginary_part_identity(self, rng):
        for _ in range(100):
            g = random_element(rng)
            tau = random_tau(rng)
            lhs = act(g, tau).imag
            rhs = tau.imag / abs(cocycle(g, tau)) ** 2
            assert abs(lhs - rhs) <= 1e-12 * rhs


def _power_at(z: complex, k: float) -> complex:
    """z**k by principal_power at one point."""
    return complex(principal_power(np.array([z], dtype=complex), k)[0])


class TestRealPower:
    # principal_power at one point; z**k for real k
    def test_negative_real_half(self):
        assert _power_at(-1.0, 0.5) == pytest.approx(1j)

    def test_integer_power(self):
        assert _power_at(1j, 12) == pytest.approx(1.0)

    def test_two_i_half(self):
        expect = math.sqrt(2) * np.exp(1j * math.pi / 4)
        assert _power_at(2j, 0.5) == pytest.approx(expect)

    def test_matches_repeated_multiplication(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 1e-3:
                continue
            n = int(rng.integers(-6, 7))
            assert _power_at(z, n) == pytest.approx(z ** n, rel=1e-12)


def _log_route(z, k):
    """exp(k (log|z| + i arg z)), step for step as principal_power's log
    route takes it."""
    out = 1j * np.arctan2(z.imag, z.real)
    out += np.log(np.abs(z))
    out *= k
    return np.exp(out)


@lru_cache(maxsize=1)
def _fourier_line():
    """z = c tau + d for 50 bottom rows (c, d) of the cosets of
    Gamma_inf(1) in SL2(Z) up to height 300, spread over the table, and the
    64 points tau = t/64 + i/2: z = w/64 with the Gaussian integer
    w = (c t + 64 d) + 32 c i, so every z is exact in floats."""
    ents = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 300.0).ents
    rows = np.unique(ents[:, 2:], axis=0)
    rows = rows[np.linspace(0, len(rows) - 1, 50).astype(int)]
    ws = [(int(c) * t + 64 * int(d), 32 * int(c)) for c, d in rows for t in range(64)]
    return ws, np.array([complex(a / 64, b / 64) for a, b in ws])


def _exact_relative_error(got: complex, w: tuple, k: int) -> float:
    """|got - z^-k| / |z^-k| for z = w/64 and an integer k != 0, in exact
    integer arithmetic: z^-k = (p + iq)/den with W = w^|k| and p + iq =
    64^k conj(W), den = |W|^2 for k > 0, p + iq = W, den = 64^|k| for
    k < 0."""
    p, q, a, b, n = 1, 0, *w, abs(k)
    while n:  # binary powering of the Gaussian integer w
        if n & 1:
            p, q = p * a - q * b, p * b + q * a
        n >>= 1
        a, b = a * a - b * b, 2 * a * b
    if k > 0:
        p, q, den = 64 ** k * p, -64 ** k * q, p * p + q * q
    else:
        den = 64 ** -k
    (xr, xd), (yr, yd) = got.real.as_integer_ratio(), got.imag.as_integer_ratio()
    num = (xr * den - p * xd) ** 2 * yd * yd + (yr * den - q * yd) ** 2 * xd * xd
    return math.sqrt(num / ((p * p + q * q) * (xd * yd) ** 2))


class TestPrincipalPower:
    # z^-k on the Fourier line against exact rationals, over the entries
    # where |z^-k| lies in [e^-700, e^700] (all 3,200 up to |k| = 100, 3,191
    # at 120, 358 at 172, 151 at 198).  Integer k go through _integer_power,
    # binary powering in array operations, as the seed kernels take it:
    # measured worst 2.6e-16, 4.8e-16, 6.9e-16, 2.2e-15 (np.power: 2.6e-16,
    # 5.4e-16, 7.7e-16, 2.5e-15), then 3.48e-15 at k = +-100, 4.24e-15 at
    # -120, 3.58e-15 at 172, 3.65e-15 at 198 (the log route: 1.1e-13,
    # 1.2e-13, 1.3e-13, 1.1e-13), each gated at about 3x
    @pytest.mark.parametrize("k, gate", [(4, 8e-16), (12, 1.5e-15), (20, 2.1e-15),
                                         (60, 6.6e-15), (100, 1.1e-14), (-100, 1.1e-14),
                                         (-120, 1.3e-14), (172, 1.1e-14), (198, 1.1e-14)])
    def test_integer_weights_against_exact_powers(self, k, gate):
        ws, z = _fourier_line()
        got = principal_power(z, -float(k))
        inside = (np.abs(np.log(np.abs(z))) * abs(k) < 700.0).tolist()
        worst = max(_exact_relative_error(g, w, k)
                    for g, w, keep in zip(got.tolist(), ws, inside) if keep)
        assert worst <= gate

    def test_array_powers_leave_the_float_range_to_the_caller(self):
        z = np.array([complex(2000.0, 1.0), complex(0.3, 1.1), complex(-1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _integer_power(z.copy(), -99)
        assert not np.isfinite(got[0])
        assert np.isfinite(got[1]) and got[2] == -1.0

    def test_minus_one_is_exact(self):
        # j(-I, tau) = -1: an integer power of it has no rounding
        assert principal_power(np.array([complex(-1.0, 0.0)]), -12.0)[0] == 1.0
        assert principal_power(np.array([complex(-1.0, 0.0)]), -7.0)[0] == -1.0

    def test_overflow_falls_back_to_the_log_route(self):
        # 2000^99 overflows, so binary powering alone would return nan
        z = np.array([complex(2000.0, 1.0), complex(0.3, 1.1), complex(-1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = principal_power(z, -99.0)
            out = np.empty_like(z)
            same = _power(z.copy(), -99.0, lambda *at: z[at], out, (np.empty(3), np.empty(3)))
        assert np.isfinite(got).all()
        assert abs(got[0]) < 1e-307
        assert got[0] == _log_route(z[:1], -99.0)[0]
        assert got[1:].tolist() == _integer_power(z[1:].copy(), -99).tolist()
        assert same is out and same.tolist() == got.tolist()

    def test_slash_warns_nothing_where_the_power_overflows(self):
        # j = 2000 + i at tau = i; j^-98 is subnormal or 0
        g = IntMatrix2(1, 1999, 1, 2000)
        ms = MultiplierSystem("trivial_even", 98.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = slash(lambda tau: 1.0, [g], [complex(0.0, 1.0)], ms)
        assert np.isfinite(val).all() and abs(val[0, 0, 0]) < 1e-307

    @pytest.mark.parametrize("k", [7.3, -7.3, 2.05, -5.5])
    def test_other_weights_keep_the_log_route(self, k, rng):
        z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(0.05, 3, 40)
        z = np.append(z, [complex(-1.0, 0.0), complex(2.0, 0.0)])
        assert principal_power(z, k).tolist() == _log_route(z, k).tolist()

    def test_out_and_scratch_keep_the_bits(self, rng):
        z = rng.uniform(-3, 3, 30) + 1j * rng.uniform(0.05, 3, 30)
        for k in (-12.0, 7.3):
            expect = principal_power(z, k)
            out, scratch = np.empty_like(z), (np.empty(30), np.empty(30))
            got = _power(z.copy(), k, lambda *at: z[at], out, scratch)
            assert got.tolist() == expect.tolist()


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
        jmk, moved = slash_kernel(entry_arrays(gs), taus, self.K)
        assert jmk.shape == moved.shape == (len(taus), len(gs))
        for t, tau in enumerate(taus):
            for i, g in enumerate(gs):
                # the principal branch of cmath.log: arg in ]-pi, pi]
                expect_j = cmath.exp(-self.K * cmath.log(g.c * tau + g.d))
                expect_z = (g.a * tau + g.b) / (g.c * tau + g.d)
                assert abs(jmk[t, i] - expect_j) <= 1e-14 * abs(expect_j)
                assert abs(moved[t, i] - expect_z) <= 1e-14 * abs(expect_z)

    def test_minus_identity_on_the_cut(self):
        # j(-I, tau) = -1 exactly; the principal branch puts it at arg = +pi
        jmk, moved = slash_kernel(entry_arrays([-I2]), [complex(0.3, 1.1)], self.K)
        assert abs(jmk[0, 0] - np.exp(-1j * math.pi * self.K)) <= 1e-15
        assert moved[0, 0] == complex(0.3, 1.1)


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


def _member(spec, g) -> bool:
    """Membership from each group's definition, one matrix at a time."""
    n = spec.n

    def mod(*ents):
        return tuple(x % n for x in ents)

    if spec.kind == "SL2Z":
        return True
    if spec.kind == "PlusMinusIdentity":
        return g in (I2, -I2)
    if spec.kind == "GammaInfinity":  # +-T^b with n | b
        return g in (t_power(g.b), -t_power(-g.b)) and g.b % n == 0
    if spec.kind == "Gamma0":
        return g.c % n == 0
    if spec.kind == "Gamma1pm":  # +-(1 *; 0 1) mod n
        return mod(*g.entries()) in (mod(1, g.b, 0, 1), mod(-1, g.b, 0, -1))
    return mod(*g.entries()) in (mod(1, 0, 0, 1), mod(-1, 0, 0, -1))  # +-I mod n


_SPECS = [GroupSpec.sl2z(), GroupSpec.plus_minus_identity()] + [
    GroupSpec(kind, n) for kind in ("Gamma0", "Gamma1pm", "GammaNpm", "GammaInfinity")
    for n in (1, 2, 3, 4, 5, 12)]


class TestContainsOnArrays:
    @pytest.mark.parametrize("spec", _SPECS, ids=str)
    def test_mask_matches_definition(self, spec):
        # at n = 1 and 2, 1 = -1 mod n; the ball holds +-I, +-T^b and S
        expect = [_member(spec, g) for g in _BALL]
        mask = contains(spec, entry_arrays(_BALL))
        assert mask.dtype == bool and mask.shape == (len(_BALL),)
        assert mask.tolist() == expect
        assert [contains(spec, g) for g in _BALL] == expect
        assert all(expect) == (spec.finite_index and spec.level == 1)


class TestIsSubgroup:
    def test_examples(self):
        assert is_subgroup(GroupSpec.gamma0(10), GroupSpec.gamma0(5))
        assert not is_subgroup(GroupSpec.gamma0(3), GroupSpec.gamma0(5))
        assert not is_subgroup(GroupSpec.sl2z(), GroupSpec.gamma0(5))
        assert is_subgroup(GroupSpec.gamma0(12), GroupSpec.gamma1pm(4))
        assert not is_subgroup(GroupSpec.gamma0(5), GroupSpec.gamma1pm(5))
        assert not is_subgroup(GroupSpec.gamma1pm(6), GroupSpec.gamma_npm(2))

    def test_matches_membership_of_sampled_elements(self):
        # contains reads residues only, so elements of SL2(Z/120Z), random
        # S/T^j words, stand for their lifts to SL2(Z); each group gets
        # hundreds of them, and inner lies in outer when all of its do
        mod, rng = 120, np.random.default_rng(3)
        ents = np.tile(np.array([1, 0, 0, 1], dtype=np.int64), (40000, 1))
        for _ in range(30):
            j = rng.integers(0, mod, len(ents))[:, None]
            a, b, c, d = ents.T[:, :, None]
            by_s = np.hstack([b, -a, d, -c])
            by_t = np.hstack([a, a * j + b, c, c * j + d])
            ents = np.where(rng.integers(0, 2, (len(ents), 1)) == 1, by_s, by_t) % mod
        specs = [GroupSpec.sl2z()] + [GroupSpec(kind, n) for kind in
                                      ("Gamma0", "Gamma1pm", "GammaNpm")
                                      for n in (1, 2, 3, 4, 5, 6, 8)]
        for inner in specs:
            members = ents[contains(inner, ents)]
            assert len(members) >= 100, inner
            for outer in specs:
                assert is_subgroup(inner, outer) == bool(contains(outer, members).all()), \
                    (inner, outer)


class TestStSyllables:
    def test_t_power(self):
        for n in (1, 5, -3):
            assert st_syllables(t_power(n)) == ([("T", n)], 1)
            assert st_syllables(-t_power(n)) == ([("T", n)], -1)

    def test_s(self):
        assert st_syllables(S) == ([("S", 1)], 1)
        assert st_syllables(-S) == ([("S", 1)], -1)

    def test_minus_identity(self):
        assert st_syllables(I2) == ([], 1)
        assert st_syllables(-I2) == ([], -1)

    def test_random_reconstruction(self, rng):
        for _ in range(100):
            g = random_element(rng, max_len=14)
            syll, sign = st_syllables(g)
            assert sign in (1, -1)
            assert syllable_product(syll) == (g if sign == 1 else -g)


# squared Frobenius norm of the ball; matrices of norm^2 exactly 66 exist
# (none has 64), so the boundary and the largest c = 8 are both exercised
BALL_NORM_SQ = 66


def _unit_ball(norm_sq: int):
    """Every determinant-one integer matrix with squared norm <= norm_sq."""
    span = range(-math.isqrt(norm_sq), math.isqrt(norm_sq) + 1)
    return [IntMatrix2(a, b, c, d) for a, b, c, d in itertools.product(span, repeat=4)
            if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= norm_sq]


_BALL = _unit_ball(BALL_NORM_SQ)


def _norm_sq(g) -> int:
    return sum(x * x for x in g.entries())


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


def _oracle_entries(lam, gamma, height):
    """The scalar enumerator the array code replaced, as a reference: one
    loop over coprime bottom rows (c, d) and the translates t of each row,
    then membership and the table order (norm, c, d, a, b)."""
    h2 = int(math.floor(height * height + 1e-9))
    step = gamma.level if gamma.finite_index else 1
    fixed = range(lam.n) if lam.kind == "GammaInfinity" else None
    rows = []
    for c in range(0, math.isqrt(h2) + 1, step):
        dmax = math.isqrt(h2 - c * c)
        for d in range(-dmax, dmax + 1) if c else (1,):
            rem = h2 - c * c - d * d
            if rem < 1 or math.gcd(c, d) != 1:
                continue
            a0 = pow(d, -1, c) if c else 1
            b0 = (a0 * d - 1) // c if c else 0
            window = fixed
            if window is None:
                qa = c * c + d * d
                t0 = -((a0 * c + b0 * d) // qa)
                r = math.isqrt(rem // qa) + 1
                window = range(t0 - r, t0 + r + 1)
            for t in window:
                a, b = a0 + t * c, b0 + t * d
                if a * a + b * b <= rem:
                    rows.append((a, b, c, d))
    ents = np.array(rows, dtype=np.int64).reshape(-1, 4)
    ents = ents[contains(gamma, ents)]
    a, b, c, d = ents.T
    return ents[np.lexsort((b, a, d, c, np.sum(ents * ents, axis=1)))]


# the groups of test_enumeration_digest
DIGEST_GROUPS = ([GroupSpec.sl2z()] + [GroupSpec.gamma0(n) for n in (2, 3, 5, 11)]
                 + [GroupSpec.gamma1pm(n) for n in (5, 8)]
                 + [GroupSpec.gamma_npm(n) for n in (2, 3, 4)])


def _assert_matches_oracle(lam, gamma, height):
    """The table, taken through its permutation, equals the scalar
    enumerator's; it is stored in (c, a, s) order."""
    table = enumerate_cosets(lam, gamma, height)
    ents, order = table.ents, table.order
    assert ents.dtype == order.dtype == np.int64
    assert order.shape == (len(ents),)
    assert np.array_equal(np.sort(order), np.arange(len(ents)))  # one-to-one
    assert np.array_equal(ents[order], _oracle_entries(lam, gamma, height))
    # s grows with d along a column (c, a), and with b on the column (1, 0)
    a, b, c, d = ents.T
    assert np.array_equal(np.lexsort((b, d, a, c)), np.arange(len(ents)))
    return table


class TestEnumerateCosets:
    @pytest.mark.parametrize("gamma", DIGEST_GROUPS, ids=str)
    def test_array_enumerator_matches_row_loop(self, gamma):
        w = cusp_width(gamma, I2)
        for lam in (GroupSpec.plus_minus_identity(), GroupSpec.gamma_infinity(w),
                    GroupSpec.gamma_infinity(2 * w)):
            for height in (0.0, 1.0, math.sqrt(2), 1.5, math.sqrt(5), 2.5, 10.0, 40.0, 150.0):
                _assert_matches_oracle(lam, gamma, height)

    @pytest.mark.parametrize("lam, gamma, height, size", [
        (GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 300.0, 67547),
        (GroupSpec.gamma_infinity(1), GroupSpec.gamma0(5), 200.0, None),
        (GroupSpec.gamma_infinity(7), GroupSpec.gamma1pm(7), 120.0, None),
        (GroupSpec.plus_minus_identity(), GroupSpec.gamma0(2), 60.0, None),
    ], ids=["sl2z-300", "gamma0_5-200", "gamma1pm_7-120", "pmi-gamma0_2-60"])
    def test_benchmark_heights_match_row_loop(self, lam, gamma, height, size):
        # the shapes the benchmark enumerates, at its largest heights
        table = _assert_matches_oracle(lam, gamma, height)
        assert size is None or len(table) == size

    def test_enumeration_memory_per_coset(self):
        # the transient peak of the largest benchmark table: it was
        # 178 B/coset when the rows (c, d) came first, 77.3 B/coset with the
        # table sorted into a second copy, and 72.2 B/coset with the table
        # stored once in (c, a, s) order beside its permutation
        lam, gamma = GroupSpec.gamma_infinity(1), GroupSpec.sl2z()
        enumerate_cosets(lam, gamma, 300.0)
        tracemalloc.start()
        try:
            table = enumerate_cosets(lam, gamma, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(table) <= 73.0

    def test_s_window_exact_at_large_heights(self):
        # the window is taken in floats and moved by exact integer tests;
        # on columns near height 2^26, with rem set so that a right column
        # lies exactly on the sphere or one unit outside it, it must agree
        # with the window computed in Python integers
        rng = np.random.default_rng(7)
        cols, rems = [], []
        while len(cols) < 6000:
            c = int(rng.integers(1, 2 ** 25))
            a = int(rng.integers(-2 ** 25, 2 ** 25))
            if math.gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c)
            b0 = (a * d0 - 1) // c
            s = int(rng.integers(-3, 4))
            edge = (b0 + s * a) ** 2 + (d0 + s * c) ** 2
            for rem in (edge, edge - 1, edge + 1):
                if a * a + c * c + rem < 2 ** 52:
                    cols.append((a, b0, c, d0))
                    rems.append(rem)
        a, b0, c, d0 = np.array(cols, dtype=np.int64).T
        lo, hi = modgroup._s_window(a, b0, c, d0, np.array(rems, dtype=np.int64))
        for i, (col, rem) in enumerate(zip(cols, rems)):
            x, y, z, w = col
            qa, u = x * x + z * z, x * y + z * w
            root = math.isqrt(qa * rem - 1)
            assert (lo[i], hi[i]) == (-((u + root) // qa), (root - u) // qa)

    def test_table_order_beyond_int64_refused(self):
        # the table order is one int64 key of (norm, c, d, side); from
        # height 38,969 on it could overflow for SL2(Z), where
        # Gamma_inf(1) would have ~1.1e9 cosets
        lam = GroupSpec.gamma_infinity(1)
        with pytest.raises(ValueError, match="height"):
            enumerate_cosets(lam, GroupSpec.sl2z(), 38969.0)
        with pytest.raises(ValueError, match="height"):
            enumerate_cosets(GroupSpec.plus_minus_identity(), GroupSpec.gamma0(11), 70966.0)

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
        inside = sorted((g for g in canon if _norm_sq(g) <= BALL_NORM_SQ),
                        key=lambda g: (_norm_sq(g), g.c, g.d, g.a, g.b))
        assert any(g.c for g in inside)  # more than the translations
        assert enumerate_cosets(lam, gamma, math.sqrt(BALL_NORM_SQ)).reps == tuple(inside)

    def test_trivial_ball(self):
        # the only cosets with norm <= 1.5 are {+-I} and {+-S}, both at sqrt(2)
        table = enumerate_cosets(GroupSpec.plus_minus_identity(), GroupSpec.sl2z(), 1.5)
        assert set(table.reps) == {I2, S}

    def test_too_small_height(self):
        table = enumerate_cosets(GroupSpec.plus_minus_identity(), GroupSpec.sl2z(), 1.0)
        assert len(table) == 0

    def test_negative_height_rejected(self):
        # the height enters squared, so -3 used to give the table of 3
        with pytest.raises(ValueError, match="height"):
            enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), -3.0)

    def test_height_beyond_int64_arithmetic_rejected(self):
        # a level above the height leaves one coset at any height; from
        # 2^26 on, products of entries could overflow int64
        lam, gamma = GroupSpec.gamma_infinity(1), GroupSpec.gamma0(10 ** 9)
        top = 2.0 ** 26 - 1
        table = enumerate_cosets(lam, gamma, top)
        assert np.array_equal(table.ents[table.order], _oracle_entries(lam, gamma, top))
        with pytest.raises(ValueError, match="height"):
            enumerate_cosets(lam, gamma, 2.0 ** 26)

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
            assert _norm_sq(g) <= 144
            assert contains(GroupSpec.gamma0(3), g)

    def test_gamma_infinity_canonical_form(self):
        table = enumerate_cosets(GroupSpec.gamma_infinity(2), GroupSpec.gamma_npm(2), 30.0)
        for g in table.reps:
            if g.c == 0:
                assert g.a == 1 and g.d == 1 and 0 <= g.b < 2
            else:
                assert g.c > 0 and 0 <= g.a < 2 * g.c

    def test_enumeration_digest(self):
        # every table of this grid, in table order, against a digest taken
        # when the enumerator was a loop of IntMatrix2 builds; any change to
        # membership, canonical form, the ball or the order shows here
        groups = ([GroupSpec.sl2z()] + [GroupSpec.gamma0(n) for n in (2, 3, 5, 11)]
                  + [GroupSpec.gamma1pm(n) for n in (5, 8)]
                  + [GroupSpec.gamma_npm(n) for n in (2, 3, 4)])
        digest = hashlib.sha256()
        for gamma in groups:
            w = cusp_width(gamma, I2)
            for lam in (GroupSpec.plus_minus_identity(), GroupSpec.gamma_infinity(w),
                        GroupSpec.gamma_infinity(2 * w)):
                for height in (1.0, math.sqrt(2), 1.5, math.sqrt(5), 2.5, 10.0, 40.0):
                    table = enumerate_cosets(lam, gamma, height)
                    digest.update(json.dumps(table.to_json()["reps"]).encode())
        assert digest.hexdigest() == (
            "51afa90515cc385df3a7ca046f6e73956a096cd4ce5e897d6db2ccfab4bb34f2")


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


def _index(gamma) -> int:
    """[SL2(Z) : gamma] by the standard formulas: N prod_{p | N} (1 + 1/p)
    for Gamma0(N), times max(phi(N)/2, 1) for Gamma1pm(N), times N more
    for GammaNpm(N)."""
    n = gamma.level
    index = n
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            index = index // p * (p + 1)
    if gamma.kind in ("Gamma1pm", "GammaNpm"):
        index *= max(sum(math.gcd(u, n) == 1 for u in range(n)) // 2, 1)
    return index * n if gamma.kind == "GammaNpm" else index


def _mul(x, y):
    """Rowwise products of matrices given as rows (a, b, c, d) of integer
    arrays; either side may be a single row."""
    a, b, c, d = x.T
    e, f, g, h = y.T
    return np.stack((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), axis=1)


def _quadratic_reps(gamma):
    """right_coset_reps as it was before coset keys: breadth first over
    the generator graph, each candidate tested by contains against every
    representative found so far (here in contains' array form)."""
    reps, frontier = [I2], [I2]
    invs = entry_arrays([I2])
    while frontier:
        nxt = []
        for g in frontier:
            for h in (T, T.inv(), S):
                cand = g * h
                if not contains(gamma, _mul(entry_arrays([cand]), invs)).any():
                    reps.append(cand)
                    nxt.append(cand)
                    invs = np.vstack((invs, entry_arrays([cand.inv()])))
        frontier = nxt
    return reps


FAMILIES = [GroupSpec.sl2z()] + [GroupSpec(kind, n) for kind in ("Gamma0", "Gamma1pm", "GammaNpm")
                                 for n in range(1, 13)]
SMALL_INDEX = [GroupSpec.sl2z()] + [g for g in (GroupSpec(kind, n)
                                                for kind in ("Gamma0", "Gamma1pm", "GammaNpm")
                                                for n in range(1, 201))
                                    if _index(g) <= 200]


class TestRightCosets:
    @pytest.mark.parametrize("gamma", FAMILIES, ids=str)
    def test_equal_keys_exactly_on_one_coset(self, gamma, rng):
        # random matrices and, for each, the representative that contains
        # puts in its coset, so that both answers occur at every level
        reps = right_coset_reps(gamma)
        invs = entry_arrays([r.inv() for r in reps])
        pool = []
        for _ in range(30):
            g = random_element(rng)
            (hit,) = np.flatnonzero(contains(gamma, _mul(entry_arrays([g]), invs)))
            pool += [g, reps[hit]]
        keys = [_coset_key(gamma, g) for g in pool]
        for (g, kg), (h, kh) in itertools.combinations(zip(pool, keys), 2):
            assert (kg == kh) == contains(gamma, g * h.inv())

    @pytest.mark.parametrize("gamma", SMALL_INDEX, ids=str)
    def test_reps_equal_the_quadratic_search(self, gamma):
        reps = right_coset_reps(gamma)
        assert reps == _quadratic_reps(gamma)
        assert len(reps) == _index(gamma)

    @pytest.mark.parametrize("level", [199, 720])
    def test_reps_equal_those_of_the_least_unit_multiple(self, level, monkeypatch):
        # the key before the P^1(Z/NZ) symbol: the least of the phi(N) unit
        # multiples of (c, d) mod N, 1.4 s for the search at level 720
        def least_multiple(gamma, g):
            n = gamma.level
            return min((u * g.c % n, u * g.d % n) for u in range(1, n + 1)
                       if math.gcd(u, n) == 1)
        gamma = GroupSpec.gamma0(level)
        reps = right_coset_reps(gamma)
        monkeypatch.setattr(modgroup, "_coset_key", least_multiple)
        assert right_coset_reps(gamma) == reps

    @pytest.mark.parametrize("gamma", FAMILIES, ids=str)
    def test_permutations_satisfy_their_relation(self, gamma, rng):
        reps = right_coset_reps(gamma)
        ents = entry_arrays(reps)
        invs = entry_arrays([r.inv() for r in reps])
        for g in (S, T, T.inv(), random_element(rng)):
            ell = permutation_ell(g, reps, gamma)
            assert sorted(ell) == list(range(len(reps)))
            # reps[j] g^{-1} reps[l(j)]^{-1} lies in gamma for every j
            moved = _mul(_mul(ents, entry_arrays([g.inv()])), invs[list(ell)])
            assert contains(gamma, moved).all()


class TestCuspOrbits:
    @pytest.mark.parametrize("gamma", FAMILIES, ids=str)
    def test_widths_are_cusp_widths_summing_to_the_index(self, gamma):
        orbits = _cusp_orbits(gamma)
        assert orbits[0] == (I2, cusp_width(gamma, I2))
        assert all(w == cusp_width(gamma, g) for g, w in orbits)
        assert sum(w for _, w in orbits) == _index(gamma)

    @pytest.mark.parametrize("level", range(1, 13))
    def test_one_orbit_per_cusp_of_gamma0(self, level):
        # Gamma0(N) has sum over d | N of phi(gcd(d, N/d)) cusps
        phi = lambda n: sum(math.gcd(u, n) == 1 for u in range(1, n + 1))
        cusps = sum(phi(math.gcd(d, level // d)) for d in range(1, level + 1) if level % d == 0)
        assert len(_cusp_orbits(GroupSpec.gamma0(level))) == cusps
