import cmath
import gc
import math
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import classical_handle, induced_trivial, legendre_mod5, random_element
import vvps.rep
from vvps.cli import parse_args, run
from vvps.modgroup import (GroupSpec, I2, IntMatrix2, S, T, contains, cusp_width,
                           entry_arrays, enumerate_cosets, right_coset_reps, t_power)
from vvps.multiplier import MultiplierSystem, evaluate_v
from vvps.rep import (RepSpec, _analysis, _class_lookup, _level_table, _sl2_order,
                      check_normal, dirichlet_rep, evaluate_rho, fold_rho, induce,
                      permutation_ell, spectral_split, st_rep, trivial_rep)
from vvps.seeds import ClassicalSeed
from vvps.series import SeriesHandle, check_transformation, slash

TRIVIAL_MS = MultiplierSystem("trivial_even", 12.0)


def character_rep(c: int) -> RepSpec:
    """One-dimensional representation with rho(T) = zeta_12^c."""
    zeta = cmath.exp(2j * math.pi * c / 12.0)
    return st_rep([[zeta ** -3]], [[zeta]])


def random_gamma0_elt(rng, n, max_len=8):
    gens = (t_power(1), t_power(-1), IntMatrix2(1, 0, n, 1), IntMatrix2(1, 0, -n, 1), -I2)
    g = I2
    for _ in range(int(rng.integers(1, max_len + 1))):
        g = g * gens[int(rng.integers(0, len(gens)))]
    return g


class TestRecipes:
    def test_trivial(self, rng):
        rep = trivial_rep(3)
        for _ in range(5):
            assert np.array_equal(evaluate_rho(rep, random_element(rng)), np.eye(3))

    def test_unknown_recipe_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            RepSpec("bogus", 1, GroupSpec.sl2z())

    def test_dirichlet_simple(self):
        rep = legendre_mod5()
        assert evaluate_rho(rep, IntMatrix2(1, 0, 5, 1))[0, 0] == 1.0
        assert evaluate_rho(rep, IntMatrix2(3, 1, 5, 2))[0, 0] == -1.0
        with pytest.raises(ValueError):
            evaluate_rho(rep, S)  # not in Gamma0(5)

    def test_dirichlet_validation(self):
        with pytest.raises(ValueError):
            dirichlet_rep(5, [0, 1, 2, -1, 1])  # |chi(2)| != 1
        with pytest.raises(ValueError):
            dirichlet_rep(5, [0, 1, 1, -1, 1])  # not multiplicative

    def test_dirichlet_homomorphism(self, rng):
        rep = legendre_mod5()
        for _ in range(100):
            g1 = random_gamma0_elt(rng, 5)
            g2 = random_gamma0_elt(rng, 5)
            lhs = evaluate_rho(rep, g1 * g2)
            rhs = evaluate_rho(rep, g1) @ evaluate_rho(rep, g2)
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_st_relations_enforced(self):
        character_rep(1)  # valid
        with pytest.raises(ValueError):
            st_rep([[1j]], [[1.0]])  # (ST)^3 = -1j**3 != S^2
        with pytest.raises(ValueError):
            st_rep([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]])  # not unitary

    def test_st_homomorphism(self, rng):
        w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        zc = [cmath.exp(2j * math.pi * c / 12.0) for c in (1, 4)]
        rep = st_rep(w.conj().T @ np.diag([z ** -3 for z in zc]) @ w,
                     w.conj().T @ np.diag(zc) @ w)
        for _ in range(100):
            g1 = random_element(rng, max_len=15)
            g2 = random_element(rng, max_len=15)
            lhs = evaluate_rho(rep, g1 * g2)
            rhs = evaluate_rho(rep, g1) @ evaluate_rho(rep, g2)
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_unitarity(self, rng):
        rep = character_rep(5)
        for _ in range(50):
            m = evaluate_rho(rep, random_element(rng))
            assert np.linalg.norm(m @ m.conj().T - np.eye(1)) <= 1e-10

    def test_json_round_trip(self):
        rep = legendre_mod5()
        again = RepSpec.from_json(rep.to_json())
        assert again.recipe == "dirichlet" and again.chi == rep.chi
        rep2 = character_rep(3)
        again2 = RepSpec.from_json(rep2.to_json())
        g = S * t_power(2)
        assert np.allclose(evaluate_rho(again2, g), evaluate_rho(rep2, g))


class TestPermutationAndInduce:
    def setup_method(self):
        self.group = GroupSpec.gamma0(2)
        self.cosets = right_coset_reps(self.group)

    def test_identity_gives_identity_permutation(self):
        assert permutation_ell(I2, self.cosets, self.group) == (0, 1, 2)

    def test_group_element_fixes_first(self, rng):
        g = random_gamma0_elt(rng, 2)
        ell = permutation_ell(g, self.cosets, self.group)
        assert ell[0] == 0

    def test_s_permutation_brute_force(self):
        ell = permutation_ell(S, self.cosets, self.group)
        # brute force the defining relation on each index
        for j, lj in enumerate(ell):
            assert contains(self.group, self.cosets[j] * S.inv() * self.cosets[lj].inv())
        assert sorted(ell) == [0, 1, 2]

    def test_induce_dimension_one_is_same(self, rng):
        rep = trivial_rep(2)
        rho0 = induce(rep, [I2])
        g = random_element(rng)
        assert np.allclose(evaluate_rho(rho0, g), evaluate_rho(rep, g))

    def test_induced_permutation_rep(self, rng):
        rho0 = induce(trivial_rep(1, self.group), self.cosets)
        assert rho0.p == 3
        for _ in range(100):
            g1 = random_element(rng, max_len=10)
            g2 = random_element(rng, max_len=10)
            lhs = evaluate_rho(rho0, g1 * g2)
            rhs = evaluate_rho(rho0, g1) @ evaluate_rho(rho0, g2)
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_induced_unitary(self, rng):
        rho0 = induce(legendre_mod5(), right_coset_reps(GroupSpec.gamma0(5)))
        assert rho0.p == 6
        for _ in range(20):
            m = evaluate_rho(rho0, random_element(rng))
            assert np.linalg.norm(m @ m.conj().T - np.eye(6)) <= 1e-10

    def test_induced_matches_block_assembly(self, rng):
        inner = legendre_mod5()
        cosets = right_coset_reps(GroupSpec.gamma0(5))
        rho0 = induce(inner, cosets)
        g = random_element(rng, max_len=8)
        ell = permutation_ell(g, cosets, inner.group)
        d = len(cosets)
        expected = np.zeros((d, d), dtype=complex)
        for s_idx in range(d):
            l = ell[s_idx]
            expected[l, s_idx] = evaluate_rho(
                inner, cosets[l] * g * cosets[s_idx].inv())[0, 0]
        assert np.array_equal(evaluate_rho(rho0, g), expected)

    def test_bad_coset_systems_rejected(self):
        with pytest.raises(ValueError):
            induce(trivial_rep(1, self.group), [S, I2])  # identity not first
        with pytest.raises(ValueError):
            induce(trivial_rep(1, self.group), [I2, S, -S])  # duplicate coset
        with pytest.raises(ValueError):
            # incomplete system: T pushes the second coset outside the list
            permutation_ell(T, [I2, S], self.group)


def scan_exponents(lams: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """The order scan that rep._exponent once ran, over eigenvalues lam
    within 5e-7 of e^{2 pi i r/n}, r/n in lowest terms and n = dens: for
    n' = 1..360 in turn, r' = round(theta n') with theta = arg(lam) / 2 pi,
    accepted when lam is within 1e-8 of cmath.exp(2j * math.pi * r' / n').
    Two fractions of denominators <= 360 differ by at least 1/(360 * 359),
    so the root at an n' that is not a multiple of n lies 4.8e-5 or more
    from lam, and only the multiples are tested.  Rows (r', n') of the
    first accepted n', r' mapped to 1..n', and (0, 0) where none is."""
    theta = np.array([math.atan2(z.imag, z.real) / (2.0 * math.pi) for z in lams.tolist()])
    roots = np.zeros((361, 361), dtype=complex)  # roots[n, r + 180], |r| <= (n + 1) // 2
    for n in range(1, 361):
        for r in range(-((n + 1) // 2), (n + 1) // 2 + 1):
            roots[n, r + 180] = cmath.exp(2j * math.pi * r / n)
    out = np.zeros((len(lams), 2), dtype=np.int64)
    todo = np.arange(len(lams))
    for k in range(1, 361):
        todo = todo[k * dens[todo] <= 360]
        n = k * dens[todo]
        r = np.rint(theta[todo] * n).astype(np.int64)
        hit = np.abs(lams[todo] - roots[n, r + 180]) <= 1e-8
        out[todo[hit]] = np.stack([(r[hit] - 1) % n[hit] + 1, n[hit]], axis=1)
        todo = todo[~hit]
    return out


class TestExponent:
    def test_import_leaves_decimal_out(self):
        # fractions imports decimal: +0.4 MB peak RSS and +2.5 ms per process
        src = os.path.dirname(os.path.dirname(vvps.rep.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, vvps; print(sorted({'decimal', 'fractions'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_lowest_terms_and_the_scan(self):
        # lam = e^{2 pi i r/n + i eps} for n <= 360 and r in [-n, n]; the
        # angle takes the float r/n, so equivalent pairs give one lam and the
        # grid runs over pairs in lowest terms.  At |eps| = 1e-8 the 1e-8 test
        # is decided by rounding, and the scan could pass a multiple (kr, kn)
        # where (r, n) itself fails: e.g. (13, 52) for e^{i(pi/2 + 1e-8)}
        pairs = [(r, n) for n in range(1, 361) for r in range(-n, n + 1) if math.gcd(r, n) == 1]
        frac = np.array([r / n for r, n in pairs])
        eps = np.array([0.0, 1e-12, -1e-12, 3e-10, -3e-10, 5e-9, -5e-9,
                        1e-8, -1e-8, 1.01e-8, -1.01e-8, 5e-7])
        lams = np.exp(1j * (2 * math.pi * frac[None, :] + eps[:, None])).ravel()
        scanned = scan_exponents(lams, np.tile([n for _, n in pairs], len(eps)))
        bad = []
        for lam, got, (r, n) in zip(lams.tolist(), map(vvps.rep._exponent, lams.tolist()),
                                    scanned.tolist()):
            # the scan's pair where it is in lowest terms, else None: a pair
            # (kr, kn) passed only where (r, n) failed the same test
            if got != ((r, n) if n and math.gcd(r, n) == 1 else None):
                bad.append((lam, got, (r, n)))
        assert not bad, f"{len(bad)} of {len(lams)} differ, e.g. {bad[:3]}"
        assert np.count_nonzero(scanned[:, 1]) > 0.5 * len(lams)


class TestNormality:
    def test_trivial_is_normal(self):
        assert check_normal(trivial_rep(2), TRIVIAL_MS, GroupSpec.sl2z()) == 1

    def test_monodromy_i_has_order_four(self):
        # trivial rho with the weight-3 eta multiplier: monodromy e^{2 pi i/4} = i
        ms = MultiplierSystem("eta_power", 3.0)
        assert check_normal(trivial_rep(1), ms, GroupSpec.sl2z()) == 4

    def test_irrational_monodromy_fails(self):
        # kappa = 0.123456 = 1929/15625 is at least 1/(15625 * 360) from
        # every m/n with n <= 360, the largest order check_normal accepts
        ms = MultiplierSystem("eta_power", 12.0 * 0.123456)
        theta = ms.kappa
        best = min(abs(theta - round(theta * n) / n) for n in range(1, 361))
        assert best > 1.7e-7  # oracle: distance to nearest low-order rational
        assert check_normal(trivial_rep(2), ms, GroupSpec.sl2z()) is None

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_group_without_finite_index_is_checked_on_sl2z(self, width):
        for rep, ms in ((trivial_rep(2), TRIVIAL_MS),
                        (trivial_rep(1), MultiplierSystem("eta_power", 3.0)),
                        (character_rep(2), TRIVIAL_MS), (character_rep(3), TRIVIAL_MS)):
            assert (check_normal(rep, ms, GroupSpec.gamma_infinity(width))
                    == check_normal(rep, ms, GroupSpec.sl2z()))

    def test_minus_identity_condition(self):
        rep = character_rep(3)  # rho(-I) = rho(S)^2 = -1
        assert np.allclose(evaluate_rho(rep, -I2), [[-1.0]])
        assert check_normal(rep, TRIVIAL_MS, GroupSpec.sl2z()) is None


class TestSpectralSplit:
    def test_trivial(self):
        split = spectral_split(trivial_rep(1), TRIVIAL_MS, 1)
        assert split.m == (1.0,)
        assert np.allclose(split.U, np.eye(1))

    def test_monodromy_i_gives_quarter(self):
        ms = MultiplierSystem("eta_power", 3.0)  # kappa = 1/4
        split = spectral_split(trivial_rep(1), ms, 1)
        assert split.m == (0.25,)

    def test_conjugated_pair_recovers_exponents(self, rng):
        w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        zc = [cmath.exp(2j * math.pi * 4 / 12.0), 1.0]  # exponents 1/3 and 1
        rep = st_rep(w.conj().T @ np.diag([z ** -3 for z in zc]) @ w,
                     w.conj().T @ np.diag(zc) @ w)
        split = spectral_split(rep, TRIVIAL_MS, 1)
        assert split.m == (1 / 3, 1.0)
        mono = evaluate_rho(rep, T)
        diag = np.diag([cmath.exp(2j * math.pi * m) for m in split.m])
        resid = np.linalg.norm(mono - split.U.conj().T @ diag @ split.U)
        assert resid <= 1e-10

    def test_multiset_invariant_under_conjugation(self, rng):
        zc = [cmath.exp(2j * math.pi * 4 / 12.0), 1.0]
        ms_sets = []
        for _ in range(2):
            w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            rep = st_rep(w.conj().T @ np.diag([z ** -3 for z in zc]) @ w,
                         w.conj().T @ np.diag(zc) @ w)
            ms_sets.append(spectral_split(rep, TRIVIAL_MS, 1).m)
        assert ms_sets[0] == ms_sets[1] == (1 / 3, 1.0)

    def test_exponents_in_half_open_interval(self):
        # only even characters satisfy rho(-I) = I
        for c in range(0, 12, 2):
            split = spectral_split(character_rep(c), TRIVIAL_MS, 1)
            assert 0.0 < split.m[0] <= 1.0
        assert spectral_split(character_rep(0), TRIVIAL_MS, 1).m[0] == 1.0

    def test_eta_kappa_contribution(self):
        # trivial rho with the eta multiplier of weight 1/2: monodromy e^{2 pi i/24}
        ms = MultiplierSystem("eta_power", 0.5)
        split = spectral_split(trivial_rep(1), ms, 1)
        assert split.m == (1 / 24,)

    def test_non_normal_rejected(self):
        with pytest.raises(ValueError):
            spectral_split(character_rep(3), TRIVIAL_MS, 1)

    @pytest.mark.parametrize("rep, ms, expected", [
        (induced_trivial(5), TRIVIAL_MS, (0.2, 0.4, 0.6, 0.8, 1.0, 1.0)),
        (induced_trivial(11), TRIVIAL_MS, (*(r / 11 for r in range(1, 11)), 1.0, 1.0)),
        (trivial_rep(1), MultiplierSystem("eta_power", 7.0), (7 / 12,)),
        (trivial_rep(1), MultiplierSystem("eta_power", 7.3), (73 / 120,)),
        (trivial_rep(1), MultiplierSystem("eta_power", 13.0), (1 / 12,)),
    ], ids=["induced-gamma0-5", "induced-gamma0-11", "eta-7", "eta-7.3", "eta-13"])
    def test_exponents_are_exact_fractions(self, rep, ms, expected):
        split = spectral_split(rep, ms, 1)
        assert split.m == expected
        # the order of the monodromy is the lcm of the denominators of m_j
        fracs = [Fraction(mj).limit_denominator(360) for mj in split.m]
        assert split.m == tuple(f.numerator / f.denominator for f in fracs)
        order = math.lcm(*(f.denominator for f in fracs))
        assert check_normal(rep, ms, rep.group) == order

    def test_ties_keep_eigenvector_order(self):
        # the trivial monodromy is the identity: every m_j ties at 1
        split = spectral_split(trivial_rep(3), TRIVIAL_MS, 1)
        assert split.m == (1.0, 1.0, 1.0)
        assert np.array_equal(split.U, np.eye(3))

    @pytest.mark.parametrize("m_width, message", [(1, "residual"), (2, "not normal")])
    def test_monodromy_off_its_root_is_refused(self, m_width, message):
        # rho(S) = diag(1, -1) and rho(ST) of order 3 rotated by 4e-5: the
        # eigenvalues of rho(T) lie ~5e-9 off sixth roots of unity, inside
        # _exponent's 1e-8 at width 1 but not at width 2, and an exact
        # m_j = r/n leaves a split residual above 1e-10 at either width,
        # which check_normal refuses as well
        c, s = math.cos(4e-5), math.sin(4e-5)
        q = np.array([[c, -s], [s, c]])
        w = cmath.exp(2j * math.pi / 3)
        s_img = np.diag([1.0, -1.0])
        rep = st_rep(s_img, s_img @ q @ np.diag([w, w.conjugate()]) @ q.T)
        assert check_normal(rep, TRIVIAL_MS, rep.group) is None
        with pytest.raises(ValueError, match=message):
            spectral_split(rep, TRIVIAL_MS, m_width)

    @pytest.mark.parametrize("gamma", [GroupSpec.sl2z(), GroupSpec.gamma_npm(2)],
                             ids=["width-1", "width-2"])
    @pytest.mark.parametrize("angle, normal", [
        (0.0, True), (1e-12, True), (1e-10, True), (1e-7, True), (4e-5, False), (1e-3, False),
    ])
    def test_normality_agrees_with_the_split(self, angle, normal, gamma):
        # rho(S) = diag(1, -1) and rho(ST) of order 3 rotated by angle:
        # check_normal on gamma passes exactly when spectral_split succeeds
        # at the cusp width of gamma
        c, s = math.cos(angle), math.sin(angle)
        q = np.array([[c, -s], [s, c]])
        w = cmath.exp(2j * math.pi / 3)
        s_img = np.diag([1.0, -1.0])
        rep = st_rep(s_img, s_img @ q @ np.diag([w, w.conjugate()]) @ q.T)
        assert (check_normal(rep, TRIVIAL_MS, gamma) is not None) is normal
        if normal:
            spectral_split(rep, TRIVIAL_MS, cusp_width(gamma, I2))
        else:
            with pytest.raises(ValueError, match="not normal"):
                spectral_split(rep, TRIVIAL_MS, cusp_width(gamma, I2))

    def test_order_beyond_the_largest_at_the_group_width_is_refused(self):
        # kappa = 1/720: the monodromy has order 720 at width 1, beyond the
        # largest order 360 named, and order 360 at width 2
        ms = MultiplierSystem("eta_power", 1 / 60)
        assert check_normal(trivial_rep(1), ms, GroupSpec.sl2z()) is None
        with pytest.raises(ValueError, match="not normal at width 1"):
            spectral_split(trivial_rep(1), ms, 2)

    def test_one_analysis_per_job(self, monkeypatch, tmp_path):
        # the CLI eta job builds its seed's split, then checks the series
        # data before and after enumerating; one analysis serves all, and
        # at p = 1 it reads the eigenvalue off the monodromy with no
        # decomposition.  An induced rep file also takes its level table's
        # modulus, the order of rho(T), from its one decomposition
        calls = {"eig": 0, "eigvals": 0, "_exponent": 0, "_monodromy": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(owner, name, wrapper)
        for owner, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                            (vvps.rep, "_exponent"), (vvps.rep, "_monodromy")):
            counted(owner, name)
        argv = ["eval", "--group", "gamma0", "--level", "5", "--family", "eta", "--k", "7.3",
                "--tau", "0.1,1", "--height", "20", "--out", os.devnull]
        assert run(parse_args(argv)) == 0
        assert calls["eig"] + calls["eigvals"] == 0
        assert calls["_exponent"] == 1  # one per eigenvalue, p = 1
        assert calls["_monodromy"] <= 3
        rho_file = str(tmp_path / "rho.json")
        argv = ["induce", "--group", "gamma0", "--level", "5", "--out", rho_file]
        assert run(parse_args(argv)) == 0
        calls.update(dict.fromkeys(calls, 0))
        argv = ["eval", "--rep", rho_file, "--j", "2", "--tau", "0.3,1.1", "--height", "40",
                "--out", os.devnull]
        assert run(parse_args(argv)) == 0
        assert calls["eig"] + calls["eigvals"] == 1

    def test_analyses_do_not_keep_a_rep_alive(self):
        # a rep holds its own analyses: a memo keyed by the rep kept up to
        # 64 reps alive, each with its images and its split (~21 MB for
        # one induced from GammaNpm(11))
        group = GroupSpec.gamma_npm(5)
        rep = induce(trivial_rep(1, group), right_coset_reps(group))
        assert check_normal(rep, TRIVIAL_MS, GroupSpec.sl2z()) is not None
        assert spectral_split(rep, TRIVIAL_MS, 1).U.shape == (60, 60)
        alive = weakref.ref(rep)
        del rep
        gc.collect()
        assert alive() is None

    def test_repeated_minus_one_eigenvalue(self, rng):
        # rho = Ind(trivial, Gamma0(2)) has rho(T) eigenvalues 1, 1, -1; a
        # random unitary conjugate of rho + rho repeats -1, whose computed
        # angles may land at both +pi and -pi
        group = GroupSpec.gamma0(2)
        rho = induce(trivial_rep(1, group), right_coset_reps(group))
        zero = np.zeros((3, 3))
        s6, t6 = (np.block([[m, zero], [zero, m]])
                  for m in (evaluate_rho(rho, S), evaluate_rho(rho, T)))
        for _ in range(200):
            q, r = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            w = q * (np.diag(r) / abs(np.diag(r)))
            rep = st_rep(w.conj().T @ s6 @ w, w.conj().T @ t6 @ w)
            split = spectral_split(rep, TRIVIAL_MS, 1)
            assert split.m == (0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
            diag = np.diag([cmath.exp(2j * math.pi * m) for m in split.m])
            resid = np.linalg.norm(evaluate_rho(rep, T) - split.U.conj().T @ diag @ split.U)
            assert resid <= 1e-10
            assert np.linalg.norm(split.U @ split.U.conj().T - np.eye(6)) <= 1e-10


def walk_fold(rep, w, mats) -> np.ndarray:
    """rho(g)^* w along the S/T word of each g: the reference for fold_rho."""
    return np.array([evaluate_rho(rep, g).conj().T @ w for g in mats])


def permutation_pair_index7():
    """rho(S), rho(T) of SL2(Z) acting on the 7 cosets of a non-congruence
    subgroup: S by (0 1)(2 3)(4 5), ST by (1 2 4)(3 5 6), so T has cycle
    type 3 + 4 and order 12."""
    def matrix(cycles):
        m = np.eye(7, dtype=complex)
        for cyc in cycles:
            m[:, list(cyc)] = np.eye(7)[:, list(cyc[1:] + cyc[:1])]
        return m
    s = matrix([(0, 1), (2, 3), (4, 5)])
    return st_rep(s, s.T @ matrix([(1, 2, 4), (3, 5, 6)]))


def infinite_order_pair():
    """rho(S) = diag(i, -i) and rho(ST) of order 6 in a generic eigenbasis;
    rho(T) = rho(S)^{-1} rho(ST) then has eigenvalues of no finite order."""
    q, _ = np.linalg.qr(np.array([[1.0 + 0.3j, 0.2], [0.7j, 1.1 - 0.4j]]))
    st = q @ np.diag([cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)]) @ q.conj().T
    s = np.diag([1j, -1j])
    return st_rep(s, s.conj().T @ st)


def order6_noncongruence():
    """The non-congruence rep file of tools/artifact_digests.py: rho(T) of
    order 6, and rho does not factor through SL2(Z/6Z)."""
    x, y = np.eye(7)[:, [3, 1, 5, 0, 6, 2, 4]], np.eye(7)[:, [1, 4, 5, 2, 0, 3, 6]]
    return st_rep(x, x @ y)


def counted_builds(monkeypatch) -> list:
    """The reps that vvps.rep._level_table is called on, one entry per call."""
    calls, build = [], vvps.rep._level_table
    monkeypatch.setattr(vvps.rep, "_level_table", lambda rep: calls.append(rep) or build(rep))
    return calls


CHI5 = [0, 1, 1j, -1j, -1]  # the Dirichlet character mod 5 with chi(2) = i


def power_character(n: int, root: int, order: int) -> RepSpec:
    """rho induced from the Dirichlet character mod the prime n with
    chi(root^k) = e^{2 pi i k / order}, root a primitive root mod n."""
    chi = [0j] * n
    for k in range(n - 1):
        chi[pow(root, k, n)] = cmath.exp(2j * math.pi * k / order)
    return induce(dirichlet_rep(n, chi), right_coset_reps(GroupSpec.gamma0(n)))


class TestLevelTable:
    def test_sl2_order_by_counting(self):
        for n in range(1, 13):
            r = np.arange(n)
            a, b, c, d = np.meshgrid(r, r, r, r, indexing="ij")
            assert _sl2_order(n) == int(np.sum((a * d - b * c) % n == 1 % n))

    @pytest.mark.parametrize("inner", [
        *(trivial_rep(1, GroupSpec.gamma0(n)) for n in (2, 3, 4, 5, 7, 11)),
        trivial_rep(1, GroupSpec.gamma1pm(5)),
        trivial_rep(1, GroupSpec.gamma_npm(3)),
        dirichlet_rep(5, CHI5),
    ], ids=lambda r: f"{r.recipe}-{r.group}")
    def test_matches_word_walk_on_every_coset(self, inner):
        rho = induce(inner, right_coset_reps(inner.group))
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 80.0).reps
        ents = entry_arrays(reps)
        table = _level_table(rho)
        assert table is not None
        n, _, _, rows = table
        assert n == inner.group.level and len(rows) == _sl2_order(n)
        # induced from a trivial rep, rho stores the permutation pi_g with
        # rho(g) e_j = e_{pi_g(j)}; from CHI5, the matrix conj(rho(g))
        dense = inner.recipe == "dirichlet"
        assert rows.shape[1:] == ((rho.p, rho.p) if dense else (rho.p,))
        w = np.random.default_rng(5).normal(size=(rho.p, 2)) @ [1.0, 1j]
        walked = np.empty((len(reps), rho.p), dtype=complex)
        for i, (g, y) in enumerate(zip(reps, _class_lookup(rho, ents)[1])):
            m = evaluate_rho(rho, g)
            row = rows[y]
            # permutation and character entries multiply exactly
            assert np.array_equal(row.conj() if dense else np.eye(rho.p)[:, row], m)
            walked[i] = m.conj().T @ w
        assert np.array_equal(fold_rho(rho, w, ents), walked)

    def test_one_order_per_rep(self, monkeypatch):
        # the order of rho(T) is one eig per rep, not one per fold
        group = GroupSpec.gamma0(5)
        rho = induce(trivial_rep(1, group), right_coset_reps(group))
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m) or eig(m))
        ents = entry_arrays(enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                                             10.0).reps)
        first = fold_rho(rho, np.ones(rho.p), ents)
        assert np.array_equal(fold_rho(rho, np.ones(rho.p), ents), first)
        assert len(calls) == 1

    def test_generic_unitary_within_tolerance(self, rng):
        # a unitary conjugate of an induced rho: rounding differs from the walk
        group = GroupSpec.gamma0(3)
        rho = induce(trivial_rep(1, group), right_coset_reps(group))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rep = st_rep(q.conj().T @ rho.s_img @ q, q.conj().T @ rho.t_img @ q)
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 40.0).reps
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        expected = walk_fold(rep, w, reps)
        got = fold_rho(rep, w, entry_arrays(reps))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_non_congruence_permutations_fall_back(self):
        rep = permutation_pair_index7()
        assert _analysis(rep, 0.0, 1)[1] == 12
        assert _level_table(rep) is None
        other = order6_noncongruence()
        assert _analysis(other, 0.0, 1)[1] == 6
        assert _level_table(other) is None
        # a witness in Gamma(12) that acts nontrivially, so no table mod 12 exists
        g = IntMatrix2(61, -72, -72, 85)
        assert np.linalg.norm(evaluate_rho(rep, g) - np.eye(7)) > 1.0
        h = classical_handle(GroupSpec.sl2z(), rep=rep, j=2, height=25.0)
        # rho(g)^* w conj(v(g)) e(alpha a/c), multiplied in the order
        # preparation multiplies
        expected = np.array([(evaluate_rho(rep, g).conj().T @ h.seed.vector)
                             * evaluate_v(h.ms, g).conjugate()
                             * np.exp(1j * h.seed._phase_runs(entry_arrays([g]))[0])
                             for g in h.cosets.reps])
        assert np.array_equal(h._prepared()["w"], expected)

    def test_infinite_order_t_falls_back(self):
        rep = infinite_order_pair()
        assert _analysis(rep, 0.0, 1) is None
        assert _level_table(rep) is None
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 25.0).reps
        w = np.array([0.6, 0.8j])
        assert np.array_equal(fold_rho(rep, w, entry_arrays(reps)), walk_fold(rep, w, reps))

    def test_table_beyond_size_limit_falls_back(self, monkeypatch):
        group = GroupSpec.gamma0(5)
        rho = induce(trivial_rep(1, group), right_coset_reps(group))
        # the table stores 120 permutations of 6 int32 entries
        monkeypatch.setattr(vvps.rep, "_TABLE_BYTES", 120 * 6 * 4)
        assert _level_table(rho) is not None
        monkeypatch.setattr(vvps.rep, "_TABLE_BYTES", 120 * 6 * 4 - 1)
        assert _level_table(rho) is None
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 15.0).reps
        w = np.arange(6) + 1j
        assert np.array_equal(fold_rho(rho, w, entry_arrays(reps)), walk_fold(rho, w, reps))

    @pytest.mark.parametrize("rep, ms", [
        (induced_trivial(5), TRIVIAL_MS),
        # 2,184 classes of 14 x 14 matrices would pass the table's 4 MB
        (induced_trivial(13), TRIVIAL_MS),
        (legendre_mod5(), MultiplierSystem("eta_power", 12.0)),
        (trivial_rep(1, GroupSpec.gamma0(3)), MultiplierSystem("eta_power", 7.3)),
    ], ids=["induced", "induced-13", "dirichlet", "trivial-eta"])
    def test_preparation_never_walks(self, rep, ms, monkeypatch):
        gamma = rep.group if rep.group.finite_index and rep.group.kind != "SL2Z" \
            else GroupSpec.sl2z()
        h = classical_handle(gamma, k=ms.k, family=ms.family, rep=rep)
        expected = np.array([(evaluate_rho(rep, g).conj().T @ h.seed.vector)
                             * evaluate_v(ms, g).conjugate()
                             * np.exp(1j * h.seed._phase_runs(entry_arrays([g]))[0])
                             for g in h.cosets.reps])

        def walk(*args):
            raise AssertionError("per-coset preparation walked an S/T word")
        monkeypatch.setattr(vvps.rep, "evaluate_rho", walk)
        assert np.array_equal(h._prepared()["w"], expected)

    def test_slash_never_walks(self, monkeypatch):
        # slash and check_transformation read rho(g)^* from the level table,
        # as preparation does
        rep = induced_trivial(5)
        seed = ClassicalSeed(0, 1, spectral_split(rep, TRIVIAL_MS, 1), 1)
        h = SeriesHandle(seed, rep, TRIVIAL_MS, GroupSpec.sl2z(), 30.0)
        gs = [S, T, IntMatrix2(2, 1, 1, 1), -I2]
        taus = [complex(0.3, 1.1), complex(-0.2, 0.9)]
        # rho(g)^* along the S/T word, applied to the untwisted slash
        untwisted = slash(seed, gs, taus, TRIVIAL_MS)
        expected = np.einsum("iqp,tip->tiq",
                             np.array([evaluate_rho(rep, g).conj().T for g in gs]), untwisted)

        def walk(*args):
            raise AssertionError("the slash action walked an S/T word")
        monkeypatch.setattr(vvps.rep, "evaluate_rho", walk)
        # st_syllables is looked up at each walk, so this also catches a caller
        # that holds its own binding of evaluate_rho
        monkeypatch.setattr(vvps.rep, "st_syllables", walk)
        assert np.array_equal(slash(seed, gs, taus, TRIVIAL_MS, rep), expected)
        check = check_transformation(h, gs, taus)
        assert check.residual <= check.tail

    @pytest.mark.parametrize("group", [GroupSpec.gamma0(13), GroupSpec.gamma0(23),
                                       GroupSpec.gamma_npm(5)], ids=str)
    def test_permutation_tables_past_the_dense_cap(self, group):
        # |SL2(Z/NZ)| p^2 complex entries would take 6.8, 112 and 6.9 MB;
        # the permutations take 0.1, 1.2 and 0.03 MB
        rho = induce(trivial_rep(1, group), right_coset_reps(group))
        n, _, _, rows = _level_table(rho)
        assert rows.shape == (_sl2_order(n), rho.p) and _sl2_order(n) * rho.p ** 2 * 16 > 1 << 22
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 40.0).reps
        w = np.random.default_rng(13).normal(size=(rho.p, 2)) @ [1.0, 1j]
        assert np.array_equal(fold_rho(rho, w, entry_arrays(reps)), walk_fold(rho, w, reps))

    def test_eval_past_the_dense_cap_never_walks(self, monkeypatch, tmp_path):
        rho_file = str(tmp_path / "rho.json")
        assert run(parse_args(["induce", "--group", "gamma0", "--level", "13",
                               "--out", rho_file])) == 0
        walk = vvps.rep.evaluate_rho

        def guarded(*args):
            if sys._getframe(1).f_code.co_name == "fold_rho":
                raise AssertionError("fold_rho walked an S/T word")
            return walk(*args)
        monkeypatch.setattr(vvps.rep, "evaluate_rho", guarded)
        assert run(parse_args(["eval", "--rep", rho_file, "--j", "1", "--tau", "0.3,1.1",
                               "--height", "60", "--out", os.devnull])) == 0

    def test_few_rows_fold_as_the_full_table(self):
        # rho induced from a Dirichlet character mod 7 keeps the dense table
        # (its images are not permutations); a call with fewer rows than the
        # 336 classes of SL2(Z/7Z) gives the bits of a call with more
        chi = [0] + [cmath.exp(1j * math.pi * [0, 2, 1, 4, 5, 3][r - 1] / 3) for r in range(1, 7)]
        rho = induce(dirichlet_rep(7, chi), right_coset_reps(GroupSpec.gamma0(7)))
        assert not np.isin(rho.s_img, (0, 1)).all()
        ents = entry_arrays(enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                                             40.0).reps)
        assert len(ents) > _sl2_order(7)
        rng = np.random.default_rng(7)
        picks = [np.array([0]), rng.choice(len(ents), 5), rng.choice(len(ents), 300)]
        for w in (rng.normal(size=(rho.p, 2)) @ [1.0, 1j], np.eye(rho.p)):
            full = fold_rho(rho, w, ents)
            for rows in picks:
                assert np.array_equal(fold_rho(rho, w, ents[rows]), full[rows])

    # each height is the least multiple of 5 at which the Gamma_inf(1)\SL2(Z)
    # table reaches every class of SL2(Z/NZ)
    @pytest.mark.parametrize("rho, height, exact", [
        *((induced_trivial(n), h, True) for n, h in ((2, 10), (3, 10), (5, 30), (7, 45),
                                                     (11, 135), (13, 135))),
        (induce(dirichlet_rep(5, CHI5), right_coset_reps(GroupSpec.gamma0(5))), 30, True),
        (st_rep(np.eye(2), np.eye(2)), 10, True),
        (power_character(7, 3, 6), 45, False),
        (power_character(11, 2, 5), 135, False),
    ], ids=[*(f"gamma0-{n}" for n in (2, 3, 5, 7, 11, 13)), "chi5", "identity",
            "order6-mod7", "order5-mod11"])
    def test_lookup_on_every_class(self, rho, height, exact):
        n = _analysis(rho, 0.0, 1)[1]
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), float(height)).reps
        rows, idx = _class_lookup(rho, entry_arrays(reps))
        assert np.array_equal(np.unique(idx), np.arange(_sl2_order(n)))
        # a permutation class stores pi_g with rho(g) e_j = e_{pi_g(j)}, a
        # dense class conj(rho(g)); permutation and CHI5 entries multiply exactly
        images = np.eye(rho.p)[:, rows].swapaxes(0, 1) if rows.ndim == 2 else rows.conj()
        for g, image in zip(reps, images[idx]):
            m = evaluate_rho(rho, g)
            if exact:
                assert np.array_equal(image, m)
            else:
                assert np.max(np.abs(image - m)) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("inner", [trivial_rep(1, GroupSpec.gamma0(11)), legendre_mod5()],
                             ids=["gamma0-11", "legendre-mod5"])
    def test_one_table_per_rep(self, inner, monkeypatch):
        # fold_rho, slash and check_transformation share the one level table
        # of rho, a permutation table (induced from Gamma0(11)) or a dense one
        # (induced from the Legendre character mod 5), however often they run
        rho = induce(inner, right_coset_reps(inner.group))
        calls = counted_builds(monkeypatch)
        ents = entry_arrays(enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                                             20.0).reps)
        first = fold_rho(rho, np.eye(rho.p), ents)
        assert np.array_equal(fold_rho(rho, np.eye(rho.p), ents), first)
        seed = ClassicalSeed(0, 1, spectral_split(rho, TRIVIAL_MS, 1), 1)
        gs, taus = [IntMatrix2(3, 1, 11, 4), S], [complex(0.3, 1.1)]
        once = slash(seed, gs, taus, TRIVIAL_MS, rho)
        assert np.array_equal(slash(seed, gs, taus, TRIVIAL_MS, rho), once)
        h = SeriesHandle(seed, rho, TRIVIAL_MS, GroupSpec.sl2z(), 20.0)
        for _ in range(2):
            check = check_transformation(h, [S, IntMatrix2(2, 1, 1, 1)], taus)
            assert check.residual <= check.tail
        assert calls == [rho]

    def test_one_failing_search_per_rep(self, monkeypatch):
        # a rho without a table keeps that finding: the search runs once
        rep = order6_noncongruence()
        calls = counted_builds(monkeypatch)
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 10.0).reps
        w = np.arange(7) + 1j
        for _ in range(3):
            assert np.array_equal(fold_rho(rep, w, entry_arrays(reps)), walk_fold(rep, w, reps))
        assert calls == [rep]

    def test_table_is_freed_with_its_rep(self, monkeypatch):
        # rho holds its read-only table as long as it lives, and no longer
        rho = induced_trivial(11)
        tables, build = [], vvps.rep._level_table

        def kept(rep):
            table = build(rep)
            tables.append(weakref.ref(table[3]))
            return table
        monkeypatch.setattr(vvps.rep, "_level_table", kept)
        ents = entry_arrays(enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                                             10.0).reps)
        rows = _class_lookup(rho, ents)[0]
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[1]
        del rows
        fold_rho(rho, np.ones(rho.p), ents)
        assert len(tables) == 1 and tables[0]() is not None
        alive = weakref.ref(rho)
        del rho
        gc.collect()
        assert alive() is None and tables[0]() is None

    @pytest.mark.parametrize("rep", [
        induced_trivial(5),
        induce(legendre_mod5(), right_coset_reps(GroupSpec.gamma0(5))),
        trivial_rep(1, GroupSpec.gamma0(5)),
        trivial_rep(3),
        legendre_mod5(),
        order6_noncongruence(),
    ], ids=["permutation", "dense", "trivial", "trivial-p3", "dirichlet", "walk"])
    def test_w_of_another_dimension_is_refused(self, rep):
        # every recipe, table form and the word walk refuse w whose leading
        # dimension is not p (was: a permutation table dropped or missed entries)
        ents = entry_arrays([I2, T, IntMatrix2(1, 0, 5, 1)])
        for shape in ((rep.p + 1,), (rep.p - 1,), (rep.p + 1, rep.p), ()):
            with pytest.raises(ValueError, match=rf"w has shape {re.escape(str(shape))}.*"
                                                 rf"p = {rep.p}"):
                fold_rho(rep, np.ones(shape), ents)
        assert fold_rho(rep, np.ones(rep.p), ents).shape == (3, rep.p)

    @pytest.mark.parametrize("rep", [induced_trivial(5), trivial_rep(1, GroupSpec.gamma0(5))],
                             ids=["induced", "trivial"])
    def test_rows_outside_sl2z_are_refused(self, rep):
        w = np.ones(rep.p)
        with pytest.raises(ValueError, match=r"\[1, 0, 0, 2\] is not in SL2\(Z\)"):
            fold_rho(rep, w, [[1, 0, 0, 2]])
        # the first such row is named, before any group membership is asked
        with pytest.raises(ValueError, match=r"\[0, 1, 1, 0\] is not in SL2\(Z\)"):
            fold_rho(rep, w, [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 2]])

    def test_members_outside_the_group_are_refused(self):
        reps = enumerate_cosets(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 5.0).reps
        with pytest.raises(ValueError, match="is not in Gamma0"):
            fold_rho(legendre_mod5(), [1.0], entry_arrays(reps))
        with pytest.raises(ValueError, match="is not in Gamma0"):
            fold_rho(trivial_rep(1, GroupSpec.gamma0(2)), [1.0], entry_arrays(reps))
