import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import (act, classical_handle, cocycle, elliptic_handle, induced_trivial,
                      random_element, random_tau)
from vvps import series
from vvps.errors import DomainError, RefusalError
from vvps.modgroup import (GroupSpec, I2, IntMatrix2, S, T, enumerate_cosets,
                           kernel_workspace, right_coset_reps, t_power)
from vvps.multiplier import MultiplierSystem
from vvps.rep import dirichlet_rep, induce, spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import SeriesHandle, build_series, check_transformation, slash

MS12 = MultiplierSystem("trivial_even", 12.0)
SL2Z = GroupSpec.sl2z()
G02 = GroupSpec.gamma0(2)


class TestSlash:
    # slash at one matrix and one point: slash(F, [g], [tau], ms, rep)[0, 0]
    def test_identity(self):
        F = lambda tau: np.array([tau ** 2])
        tau = complex(0.3, 1.2)
        assert slash(F, [I2], [tau], MS12)[0, 0] == pytest.approx(F(tau))

    def test_minus_identity_is_identity(self, rng):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau), tau ** -3])
        for ms in (MS12, MultiplierSystem("eta_power", 3.5)):
            for _ in range(20):
                tau = random_tau(rng)
                acted = slash(F, [-I2], [tau], ms)[0, 0]
                assert np.allclose(acted, F(tau), rtol=0, atol=1e-12 * 50)

    def test_constant_under_s(self):
        F = lambda tau: np.array([1.0 + 0j])
        val = slash(F, [S], [2j], MS12)[0, 0]
        assert val[0] == pytest.approx(2.0 ** -12)

    def test_right_action_property(self, rng):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        for ms in (MS12, MultiplierSystem("eta_power", 1.5)):
            for _ in range(50):
                g1, g2 = random_element(rng, 8), random_element(rng, 8)
                tau = random_tau(rng)
                one = slash(lambda t: slash(F, [g1], [t], ms)[0, 0], [g2], [tau], ms)[0, 0]
                two = slash(F, [g1 * g2], [tau], ms)[0, 0]
                assert np.linalg.norm(one - two) <= 1e-10 * (1 + np.linalg.norm(two))

    def test_rho_twisted_two_paths(self, rng):
        rep = trivial_rep(1)
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        for _ in range(50):
            g1, g2 = random_element(rng, 8), random_element(rng, 8)
            tau = random_tau(rng)
            one = slash(lambda t: slash(F, [g1], [t], MS12, rep)[0, 0], [g2], [tau],
                        MS12, rep)[0, 0]
            two = slash(F, [g1 * g2], [tau], MS12, rep)[0, 0]
            assert np.linalg.norm(one - two) <= 1e-10 * (1 + np.linalg.norm(two))

    def test_trivial_rep_reduces_to_plain(self, rng):
        rep = trivial_rep(1)
        F = lambda tau: np.array([tau ** -4])
        g = random_element(rng)
        tau = random_tau(rng)
        assert np.allclose(slash(F, [g], [tau], MS12, rep)[0, 0],
                           slash(F, [g], [tau], MS12)[0, 0])


@pytest.fixture
def calls(monkeypatch):
    """The argument tuples of every enumerate_cosets call of the series."""
    made = []

    def counted(*args):
        made.append(args)
        return enumerate_cosets(*args)
    monkeypatch.setattr(series, "enumerate_cosets", counted)
    return made


class TestHandleValidation:
    def test_low_weight_rejected(self):
        with pytest.raises(DomainError):
            classical_handle(SL2Z, k=2.0, height=30.0)

    def test_wrong_stabiliser_rejected(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        rep = trivial_rep(1)
        with pytest.raises(ValueError):
            build_series(seed, GroupSpec.gamma_infinity(1), GroupSpec.sl2z(),
                         rep, MS12, 12.0, 10.0)

    def test_stabiliser_of_another_width_rejected(self):
        # a width-1 classical seed summed over GammaInfinity(2)\Gamma0(2)
        gamma = GroupSpec.gamma0(2)
        rep = trivial_rep(1, gamma)
        seed = ClassicalSeed(0, 1, spectral_split(rep, MS12, 1), 1)
        with pytest.raises(ValueError, match="stabiliser"):
            build_series(seed, GroupSpec.gamma_infinity(2), gamma, rep, MS12, 12.0, 10.0)

    def test_multiplier_weight_mismatch_rejected(self):
        # a weight-7.3 multiplier under a weight-12 series used to build; its
        # transformation residual under (1 0; 5 1) was 0.84
        gamma = GroupSpec.gamma0(5)
        ms = MultiplierSystem("eta_power", 7.3)
        rep = trivial_rep(1, gamma)
        seed = ClassicalSeed(0, 1, spectral_split(rep, ms, 1), 1)
        with pytest.raises(ValueError, match="multiplier weight"):
            build_series(seed, GroupSpec.gamma_infinity(1), gamma, rep, ms, 12.0, 20.0)

    def test_rep_of_a_group_missing_gamma_rejected(self):
        # the trivial rho of Gamma0(5) summed over SL2(Z) used to build, then
        # failed at its first evaluation inside fold_rho
        rep = trivial_rep(1, GroupSpec.gamma0(5))
        seed = ClassicalSeed(0, 1, spectral_split(rep, MS12, 1), 1)
        with pytest.raises(ValueError, match=r"Gamma0\(5\).*SL2\(Z\)"):
            SeriesHandle(seed, rep, MS12, SL2Z, 20.0)

    @pytest.mark.parametrize("gamma, height", [(GroupSpec.plus_minus_identity(), 1.5),
                                               (GroupSpec.gamma0(5), 20.0)],
                             ids=["minus-identity", "gamma0-5"])
    def test_rep_of_a_group_without_finite_index_rejected(self, calls, gamma, height):
        # a rho of <-I> was refused from rep._class_lookup ("[1 1; 0 1] is not
        # in <-I>") over <-I>, and from GroupSpec.level ("PlusMinusIdentity has
        # no congruence level") over Gamma0(5)
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        rep = trivial_rep(1, GroupSpec.plus_minus_identity())
        with pytest.raises(ValueError, match="rho is a representation of <-I>, "
                                             "a group without finite index"):
            SeriesHandle(seed, rep, MS12, gamma, height)
        assert calls == []

    @pytest.mark.parametrize("gamma", [GroupSpec.gamma_npm(5), GroupSpec.gamma_infinity(2)],
                             ids=["gammanpm-5", "gamma-inf-2"])
    def test_stabiliser_outside_gamma_rejected(self, calls, gamma):
        # a gamma that misses T used to build and fail at its first
        # evaluation, inside enumerate_cosets
        seed = ClassicalSeed(0, 1, spectral_split(trivial_rep(1), MS12, 1), 1)
        with pytest.raises(ValueError, match=re.escape(
                f"GammaInfinity(1) is not a subgroup of {gamma}")):
            SeriesHandle(seed, trivial_rep(1), MS12, gamma, 20.0)
        assert calls == []

    def test_split_mismatch_rejected(self):
        from vvps.rep import SpectralSplit
        rep = trivial_rep(1)
        bad = ClassicalSeed(0, 1, SpectralSplit(np.eye(1, dtype=complex), (0.5,)), 1)
        with pytest.raises(ValueError):
            SeriesHandle(bad, rep, MS12, GroupSpec.sl2z(), 10.0)


class TestTableOnFirstEvaluation:
    """A handle enumerates its coset table on first use, once."""

    def test_construction_enumerates_nothing(self, calls):
        classical_handle(SL2Z, height=20.0)
        elliptic_handle(G02, height=20.0)
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        SeriesHandle(seed, trivial_rep(1), MS12, GroupSpec.sl2z(), 20.0)
        assert calls == []

    def test_the_constructor_takes_five_values(self):
        # the memo dict is the handle's own, not a sixth argument
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        with pytest.raises(TypeError):
            SeriesHandle(seed, trivial_rep(1), MS12, GroupSpec.sl2z(), 20.0, {})

    def test_first_evaluation_enumerates_once(self, calls):
        h = classical_handle(SL2Z, height=20.0)
        first = h.evaluate_many([0.1 + 1.2j, 0.3 + 0.9j])
        assert calls == [(GroupSpec.gamma_infinity(1), GroupSpec.sl2z(), 20.0)]
        table = h.cosets
        again = h.evaluate_many([0.1 + 1.2j, 0.3 + 0.9j])
        assert len(calls) == 1 and h.cosets is table
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]

    def test_reading_the_table_first(self, calls):
        h = elliptic_handle(G02, height=20.0)
        table = h.cosets
        h.evaluate(0.2 + 1.1j)
        check_transformation(h, [T], [0.2 + 1.1j])
        assert len(calls) == 1 and h.cosets is table

    def test_refusals_enumerate_nothing(self, calls):
        h = classical_handle(G02, height=20.0)
        with pytest.raises(RefusalError):
            h.evaluate(0.1 + 0.01j)
        with pytest.raises(DomainError):
            h.evaluate(0.1 - 1j)
        with pytest.raises(ValueError, match="is not in"):
            check_transformation(h, [S], [0.2 + 1.1j])
        assert calls == []


def point_checks(h):
    """The calls that take points of a handle h: its evaluation, the slash
    action on it and its invariance check."""
    return (h.evaluate_many,
            lambda taus: slash(h, [I2, S], taus, h.ms, h.rep),
            lambda taus: check_transformation(h, [S], taus))


class TestEvaluate:
    def test_single_coset_returns_seed(self):
        pmi = GroupSpec.plus_minus_identity()
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        h = SeriesHandle(seed, trivial_rep(1), MS12, pmi, 1.5)
        tau = complex(0.4, 1.3)
        value, tail = h.evaluate(tau)
        assert value == pytest.approx(seed.eval_many([tau])[0])

    def test_refuses_near_real_line(self):
        h = classical_handle(SL2Z, height=10.0)
        with pytest.raises(RefusalError):
            h.evaluate(complex(0.3, 0.01))

    @pytest.mark.parametrize("ndarray", [False, True])
    @pytest.mark.parametrize("bad, error", [
        (complex(0.3, 0.0), DomainError),
        (complex(0.3, -1.0), DomainError),
        (complex(0.3, math.nan), DomainError),
        (complex(math.nan, 1.0), DomainError),
        (complex(0.3, 0.01), RefusalError),
    ])
    def test_point_validation(self, bad, error, ndarray):
        # the handle, the slash action on it and the invariance check refuse
        # alike; the slash action on a seed and the seed itself check the
        # half-plane alone
        h = classical_handle(SL2Z, height=10.0)
        taus = [complex(0.1, 1.2), bad]
        taus = np.array(taus) if ndarray else taus
        for check in point_checks(h):
            with pytest.raises(error):
                check(taus)
        if error is DomainError:
            with pytest.raises(DomainError):
                slash(h.seed, [S], taus, h.ms, h.rep)
            with pytest.raises(DomainError):
                h.seed.eval_many(taus)

    def test_domain_error_before_refusal(self):
        h = classical_handle(SL2Z, height=10.0)
        for check in point_checks(h):
            with pytest.raises(DomainError):
                check([complex(0.2, 0.02), complex(0.3, -1.0)])

    @pytest.mark.parametrize("handle", [
        lambda: classical_handle(SL2Z, height=30.0),
        lambda: classical_handle(SL2Z, rep=induced_trivial(3), j=2, height=30.0),
        lambda: elliptic_handle(G02, height=25.0),
    ], ids=["classical", "induced-p4", "elliptic"])
    def test_zero_points(self, handle):
        # no points, no blocks: empty results of the right shapes, not a
        # thread pool of zero workers
        h = handle()
        values, tails = h.evaluate_many([])
        assert values.shape == (0, h.p) and values.dtype == complex
        assert tails.shape == (0,) and tails.dtype == float
        acted = slash(h, [I2, T], [], h.ms, h.rep)
        assert acted.shape == (0, 2, h.p)

    def test_slash_of_no_matrices(self):
        h = classical_handle(SL2Z, rep=induced_trivial(3), j=2, height=30.0)
        acted = slash(h, [], [complex(0.1, 1.2), 2j], h.ms, h.rep)
        assert acted.shape == (2, 0, h.p)

    def test_empty_table_rejected(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        # the <-I>-cosets in SL2(Z) of norm at most 1: none, since |I| = sqrt(2)
        h = SeriesHandle(seed, trivial_rep(1), MS12, GroupSpec.sl2z(), 1.0)
        with pytest.raises(ValueError, match="empty coset table"):
            h.evaluate(1j)

    def test_matches_brute_force_sum(self):
        """DERIVED oracle: independent brute-force sum over the same cosets."""
        h = classical_handle(SL2Z, height=12.0)
        tau = complex(0.3, 1.1)
        expect = np.zeros(1, dtype=complex)
        for g in h.cosets.reps:
            expect += slash(h.seed, [g], [tau], h.ms, h.rep)[0, 0]
        value, _ = h.evaluate(tau)
        assert value == pytest.approx(expect, rel=1e-12)

    def test_high_im_value_near_single_term(self):
        # at tau = 5i the non-identity cosets contribute a bounded multiple
        # of the identity term (the 2 pi J_11(4 pi) Kloosterman mass), not a
        # 1e-8 perturbation; the brute-force oracle above is the real check
        h = classical_handle(SL2Z, height=60.0)
        value, _ = h.evaluate(5j)
        lead = h.seed.eval_many([5j])[0, 0]
        assert abs(value[0] / lead - 1.0) < 5.0
        assert abs(value[0] / lead - 1.0) > 0.5  # documents the failure of naive dominance

    def test_doubling_height_within_tail(self):
        h1 = classical_handle(SL2Z, height=15.0)
        h2 = classical_handle(SL2Z, height=30.0)
        for tau in (complex(0.3, 1.1), complex(-0.2, 0.7), complex(0.45, 2.0)):
            v1, tail1 = h1.evaluate(tau)
            v2, _ = h2.evaluate(tau)
            assert np.linalg.norm(v1 - v2) <= tail1

    @pytest.mark.parametrize("handle", [
        lambda: classical_handle(SL2Z, height=30.0),
        lambda: classical_handle(G02, height=40.0, M=2),
        lambda: classical_handle(GroupSpec.gamma1pm(5), height=60.0, M=5),
        lambda: elliptic_handle(G02, nu=1, height=40.0),
        lambda: elliptic_handle(SL2Z, nu=2, height=30.0),
        lambda: elliptic_handle(G02, nu=0, height=40.0),
        lambda: elliptic_handle(G02, nu=2, height=40.0),
        lambda: elliptic_handle(GroupSpec.gamma0(3), nu=3, height=30.0),
        lambda: classical_handle(SL2Z, rep=induced_trivial(3), j=2, height=30.0),
        lambda: classical_handle(SL2Z, k=7.3, family="eta_power", height=30.0),
        lambda: classical_handle(SL2Z, height=150.0),
    ], ids=["inf1-sl2z", "inf2-gamma0(2)", "inf5-gamma1pm(5)", "pmi-gamma0(2)", "pmi-sl2z",
            "pmi-gamma0(2)-nu0", "pmi-gamma0(2)-nu2", "pmi-gamma0(3)-nu3", "inf1-induced-p4",
            "inf1-eta-7.3", "inf1-sl2z-16883"])
    @pytest.mark.parametrize("points", [1, 7, 64, "below-elision", "above-elision"])
    def test_kernel_per_row_is_bitwise_per_coset(self, handle, points, rng):
        # Both seeds compute each coset's term from its own constants in
        # table order, with no row shared between cosets and no gather.
        # Bitwise: in a workspace larger than the block (as for a short last
        # block), over blocks of terms just below and just above 16,384
        # (where numpy starts to elide temporaries), and one point at a time
        # against many (the classical seed picks its steep terms per block)
        h = handle()
        n = len(h.cosets)
        if points == "below-elision":
            points = 16_383 // n
        elif points == "above-elision":
            points = 16_384 // n + 1
        taus = np.array([random_tau(rng) for _ in range(points)], dtype=complex)
        if points > 1:  # a point near the real line, with steep terms
            taus[0] = complex(0.45, 0.06)
        consts = h._prepared()["consts"]
        expect = h.seed._slashed_many(taus, consts, kernel_workspace(points * n)).copy()
        got = h.seed._slashed_many(taus, consts, kernel_workspace((points + 1) * n))
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        ws = kernel_workspace(n)
        for t in range(points):
            one = h.seed._slashed_many(taus[t:t + 1], consts, ws)
            assert np.array_equal(one.view(np.uint64), expect[t:t + 1].view(np.uint64))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs Linux CPU affinity and two usable CPUs")
    def test_warm_call_faults_in_no_temporaries(self):
        # the elliptic kernel shape on two workers, as tools/kernel_faults.py
        # builds it: Gamma0(2), H = 40, the 456 points of petersson_pair_full.
        # Freed block temporaries went back to the OS and were faulted in
        # again on the next block, ~1.5e5 minor faults per call on the
        # earlier disk grid; a workspace per worker faults in only its own
        # pages.  A fresh process, so that no earlier test shapes the
        # allocator's state
        tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "kernel_faults.py")
        proc = subprocess.run([sys.executable, tool, "elliptic", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        faults, n = result["minflt"], result["cosets"]
        # two workers, each with three complex and two float buffers of one block
        pages = 2 * (65_536 // n) * n * (3 * 16 + 2 * 8) // 4096
        assert faults < 2 * pages

    def test_batch_matches_pointwise(self):
        h = elliptic_handle(G02, height=15.0)
        taus = [complex(0.1, 0.9), complex(-0.4, 1.7), complex(0.0, 3.0)]
        values, tails = h.evaluate_many(taus)
        for i, tau in enumerate(taus):
            v, t = h.evaluate(tau)
            assert np.array_equal(values[i], v) and tails[i] == t

    def test_unitarity_term_identity(self, rng):
        # per-term norm equals ||f(g.tau)|| |j(g,tau)|^{-k}
        h = classical_handle(SL2Z, height=10.0)
        tau = complex(0.17, 1.4)
        for g in h.cosets.reps[:40]:
            term = slash(h.seed, [g], [tau], h.ms, h.rep)[0, 0]
            expect = (np.linalg.norm(h.seed.eval_many([act(g, tau)])[0])
                      * abs(cocycle(g, tau)) ** -h.k)
            assert abs(np.linalg.norm(term) - expect) <= 1e-12 * max(expect, 1e-300)


class TestTransformation:
    def test_minus_identity_exact(self):
        h = classical_handle(SL2Z, height=15.0)
        res = check_transformation(h, [-I2], [complex(0.3, 1.1)])
        assert res.residual <= 1e-12

    def test_outside_group_rejected(self):
        h = classical_handle(G02, height=15.0)
        with pytest.raises(ValueError):
            check_transformation(h, [IntMatrix2(1, 0, 1, 1)], [complex(0.3, 1.1)])

    def test_residual_halves_with_height(self):
        taus = [complex(0.3, 1.1)]
        gammas = [T, IntMatrix2(1, 0, 2, 1)]
        r1 = check_transformation(classical_handle(G02, height=12.0), gammas, taus)
        r2 = check_transformation(classical_handle(G02, height=24.0), gammas, taus)
        assert r2.residual <= r1.residual / 2.0

    def test_elliptic_transformation(self):
        h = elliptic_handle(G02, height=25.0)
        res = check_transformation(h, [T, IntMatrix2(1, 0, 2, 1)], [complex(0.3, 1.1)])
        assert res.residual <= 1e-6


class TestNontrivialData:
    """Series evaluation with a real multiplier twist, a character twist,
    and a cusp width above one; the acceptance suite runs trivial data only."""

    def test_eta_weight_series_transforms(self):
        h = classical_handle(SL2Z, k=4.5, family="eta_power")
        assert h.seed.split.m == (0.375,)  # kappa = 4.5/12
        res = check_transformation(h, [T, S * t_power(2) * S.inv()],
                                   [complex(0.3, 1.4)])
        assert res.residual <= res.tail  # k = 4.5 converges slowly; tail-dominated

    def test_dirichlet_twisted_series_transforms(self):
        chi = dirichlet_rep(5, [0, 1, -1, -1, 1])
        h = classical_handle(GroupSpec.gamma0(5), height=50.0, rep=chi)
        twisted = IntMatrix2(2, 1, 5, 3)  # chi(3) = -1 exercises the twist
        res = check_transformation(h, [T, twisted], [complex(-0.6, 0.3)])
        assert res.residual <= 1e-9

    @pytest.mark.parametrize("ms", [MS12, MultiplierSystem("eta_power", 5.5)],
                             ids=["trivial-12", "eta-5.5"])
    def test_complex_non_permutation_rho_transforms(self, ms):
        # rho induced from the even cubic character mod 7, chi(3) = e^{2 pi i/3}:
        # complex and not a permutation, so rho(g)^T in place of rho(g)^*
        # leaves a residual of 0.60
        w = complex(-0.5, math.sqrt(3.0) / 2.0)
        chi = dirichlet_rep(7, [0, 1, w * w, w, w, w * w, 1])
        rep = induce(chi, right_coset_reps(GroupSpec.gamma0(7)))
        assert rep.p == 8
        h = classical_handle(SL2Z, k=ms.k, family=ms.family, rep=rep, j=2)
        res = check_transformation(h, [S, T, IntMatrix2(1, 0, 1, 1)],
                                   [complex(0.2, 0.9), complex(-0.3, 1.3)])
        if ms.k == 12.0:
            assert res.residual <= 1e-12
        else:
            assert res.residual <= res.tail  # k = 5.5 is tail-dominated

    def test_width_two_series_transforms(self):
        h = classical_handle(GroupSpec.gamma_npm(2), M=2)
        res = check_transformation(h, [t_power(2), IntMatrix2(1, 0, 2, 1)],
                                   [complex(0.3, 1.1)])
        assert res.residual <= 1e-10


def weighted_norm(h, tau):
    """||P(tau)|| Im(tau)^{k/2}, a group-invariant bounded quantity for
    cuspidal data."""
    values, _ = h.evaluate_many([tau])
    return float(np.linalg.norm(values[0])) * tau.imag ** (h.k / 2.0)


class TestSupNorm:
    def test_invariance_spot_check(self):
        h = classical_handle(G02, height=40.0)
        tau = complex(0.3, 1.1)
        g = IntMatrix2(1, 0, 2, 1)
        one = weighted_norm(h, tau)
        two = weighted_norm(h, act(g, tau))
        assert one == pytest.approx(two, rel=1e-6)

    def test_high_im_decay_profile(self):
        h = classical_handle(SL2Z, height=40.0)
        for y in (3.0, 4.0, 5.0):
            got = weighted_norm(h, complex(0.0, y))
            # dominated by the constant-multiple of the leading exponential
            assert got <= 5.0 * math.exp(-2 * math.pi * y) * y ** 6
            assert got >= 0.1 * math.exp(-2 * math.pi * y) * y ** 6

    def test_trivial_quotient_elliptic_value(self):
        pmi = GroupSpec.plus_minus_identity()
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        h = SeriesHandle(seed, trivial_rep(1), MS12, pmi, 1.5)
        assert weighted_norm(h, 1j) == pytest.approx(2.0 ** -12)
