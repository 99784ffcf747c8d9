import math

import numpy as np
import pytest
from scipy import integrate, special

from vvps.analysis import (QuadratureSpec,
                           classical_pairing_closed_form,
                           elliptic_expansion_coeffs,
                           elliptic_pairing_closed_form, fourier_coefficients,
                           petersson_pair_full, petersson_strip)
from vvps.errors import DomainError, RefusalError
from vvps.modgroup import GroupSpec, S, right_coset_reps
from vvps.multiplier import MultiplierSystem
from vvps.rep import SpectralSplit, spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import build_series, slash_k

MS12 = MultiplierSystem("trivial_even", 12.0)


def plain_split(p=1):
    return SpectralSplit(np.eye(p, dtype=complex), tuple([1.0] * p))


def classical_handle(gamma, height, nu=0):
    rep = trivial_rep(1, gamma)
    split = spectral_split(rep, MS12, 1)
    seed = ClassicalSeed(nu, 1, split, 1)
    return build_series(seed, GroupSpec.gamma_infinity(1), gamma, rep, MS12, 12.0, height), seed


def elliptic_handle(gamma, height, nu=0):
    rep = trivial_rep(1, gamma)
    seed = EllipticSeed(nu, 1j, np.array([1.0 + 0j]), 12.0)
    return build_series(seed, GroupSpec.plus_minus_identity(), gamma, rep, MS12,
                        12.0, height), seed


class TestFourier:
    def test_pure_exponential(self):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        tab = fourier_coefficients(F, plain_split(), 1, range(0, 4), 0.5, 64)
        assert tab.coeff(1, 0) == pytest.approx(1.0, abs=1e-10)
        for n in (1, 2, 3):
            assert abs(tab.coeff(1, n)) <= 1e-10

    def test_low_height_refused(self):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        with pytest.raises(RefusalError):
            fourier_coefficients(F, plain_split(), 1, [0], 0.01, 64)

    @pytest.mark.parametrize("nx", [0, -4])
    def test_too_few_nodes_rejected(self, nx):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        with pytest.raises(ValueError, match="nx"):
            fourier_coefficients(F, plain_split(), 1, [0], 0.5, nx)

    def test_two_heights_agree(self):
        h, _ = classical_handle(GroupSpec.gamma0(2), 40.0)
        t1 = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.5, 64)
        t2 = fourier_coefficients(h, h.seed.split, 1, [0, 1], 1.0, 64)
        for n in (0, 1):
            a, b = t1.coeff(1, n), t2.coeff(1, n)
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_sigma_slash_consistency(self):
        # expanding F|_k S of a level-one series equals expanding F itself
        h, _ = classical_handle(GroupSpec.sl2z(), 40.0)
        plain = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.9, 64)
        slashed = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.9, 64,
                                       sigma=S, ms=MS12, k=12.0)
        for n in (0, 1):
            assert slashed.coeff(1, n) == pytest.approx(plain.coeff(1, n), rel=2e-4)

    def test_sigma_slash_weight_mismatch_refused(self):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        with pytest.raises(ValueError, match="multiplier weight"):
            fourier_coefficients(F, plain_split(), 1, [0], 0.5, 64,
                                 sigma=S, ms=MS12, k=24.0)

    def test_scalar_ramanujan_ratios_smoke(self):
        h, _ = classical_handle(GroupSpec.sl2z(), 80.0)
        tab = fourier_coefficients(h, h.seed.split, 1, [0, 1, 2], 0.5, 64)
        b0 = tab.coeff(1, 0)
        assert tab.coeff(1, 1) / b0 == pytest.approx(-24.0, rel=1e-6)
        assert tab.coeff(1, 2) / b0 == pytest.approx(252.0, rel=1e-5)

    def test_table_serialisation(self):
        h, _ = classical_handle(GroupSpec.gamma0(2), 20.0)
        tab = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.5, 32)
        data = tab.to_json()
        assert data["M"] == 1 and len(data["b"]) == 2
        csv = tab.to_csv()
        assert csv.splitlines()[0] == "j,n,re,im"
        assert len(csv.splitlines()) == 3


class TestEllipticExpansion:
    def test_reproducing_monomials(self):
        xi = 1j
        F0 = lambda tau: np.array([complex(tau - xi.conjugate()) ** -12.0])
        c0 = elliptic_expansion_coeffs(F0, xi, 12.0, [0, 1, 2], 0.4)
        assert c0[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(c0[1]) < 1e-12 and abs(c0[2]) < 1e-12
        F1 = lambda tau: np.array([(tau - xi) * (tau - xi.conjugate()) ** -13.0])
        c1 = elliptic_expansion_coeffs(F1, xi, 12.0, [0, 1, 2], 0.4)
        assert c1[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(c1[0]) < 1e-12 and abs(c1[2]) < 1e-12

    def test_two_radii_agree(self):
        h, _ = elliptic_handle(GroupSpec.gamma0(2), 25.0)
        a = elliptic_expansion_coeffs(h, 1j, 12.0, [0, 1], 0.3, nt=128)
        b = elliptic_expansion_coeffs(h, 1j, 12.0, [0, 1], 0.5, nt=128)
        for n in (0, 1):
            assert a[n] == pytest.approx(b[n], rel=1e-8)

    def test_bad_radius_refused(self):
        F = lambda tau: np.array([1.0 + 0j])
        with pytest.raises(RefusalError):
            elliptic_expansion_coeffs(F, 1j, 12.0, [0], 1.0)


class TestClosedForms:
    def test_classical_zero(self):
        assert classical_pairing_closed_form(0.0, 1, 12.0, 0, 1.0) == 0.0

    def test_classical_k12(self):
        expect = 3628800.0 / (4.0 * math.pi) ** 11
        assert classical_pairing_closed_form(1.0, 1, 12.0, 0, 1.0) == \
            pytest.approx(expect, rel=1e-12)

    def test_classical_vs_quadrature(self):
        # identity: M^k Gamma(k-1) / (4 pi (nu+m))^{k-1} = M * dy-integral
        b = 2.0 + 1.0j
        k, m_width, nu, mj = 3.5, 2, 1, 0.5
        integral, _ = integrate.quad(
            lambda y: math.exp(-4 * math.pi * (nu + mj) * y / m_width) * y ** (k - 2.0),
            0.0, np.inf)
        got = classical_pairing_closed_form(b, m_width, k, nu, mj)
        assert got == pytest.approx(b * m_width * integral, rel=1e-8)

    def test_elliptic_nu0_factor(self):
        got = elliptic_pairing_closed_form(1.0, 12.0, 0, 1j)
        assert got == pytest.approx(4 * math.pi / 4.0 ** 12 / 11.0, rel=1e-12)

    def test_elliptic_zero(self):
        assert elliptic_pairing_closed_form(0.0, 12.0, 3, 1j) == 0.0

    def test_elliptic_nu2_vs_disk_integral(self):
        oracle, _ = integrate.quad(lambda r: r ** 5 * (1 - r * r) ** 10, 0.0, 1.0)
        oracle *= 8 * math.pi / 4.0 ** 12
        got = elliptic_pairing_closed_form(1.0, 12.0, 2, 1j)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(4 * math.pi / 4.0 ** 12 * 2.0 / (11 * 12 * 13), rel=1e-12)


class TestPeterssonStrip:
    def test_seed_against_itself_closed_form(self):
        split = plain_split()
        seed = ClassicalSeed(0, 1, split, 1)
        q = QuadratureSpec(1e-4, 8.0, nx=16, ny=48)
        got = petersson_strip(seed, seed, GroupSpec.gamma_infinity(1), 12.0, q)
        expect = math.gamma(11.0) / (4.0 * math.pi) ** 11
        assert got.real == pytest.approx(expect, rel=1e-8)
        assert abs(got.imag) <= 1e-18

    def test_zero_function(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        zero = lambda tau: np.array([0.0 + 0j])
        q = QuadratureSpec(0.05, 5.0, nx=16, ny=16)
        assert petersson_strip(zero, seed, GroupSpec.gamma_infinity(1), 12.0, q) == 0.0

    def test_low_weight_rejected(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        q = QuadratureSpec(0.05, 5.0, nx=16, ny=16)
        with pytest.raises(DomainError):
            petersson_strip(seed, seed, GroupSpec.gamma_infinity(1), 2.0, q)

    def test_classical_two_pipelines(self):
        h, seed = classical_handle(GroupSpec.gamma0(2), 60.0)
        q = QuadratureSpec(0.05, 8.0, nx=32, ny=28)
        strip, err = petersson_strip(h, seed, GroupSpec.gamma_infinity(1), 12.0, q,
                                     return_error=True)
        tab = fourier_coefficients(h, seed.split, 1, [0], 0.5, 64)
        closed = classical_pairing_closed_form(tab.coeff(1, 0), 1, 12.0, 0, 1.0)
        assert abs(strip - closed) <= 1e-3 * abs(closed)
        assert err <= 1e-2 * abs(closed)

    @pytest.mark.parametrize("k, tol", [(4.0, 2e-8), (7.3, 2e-8), (12.0, 2e-8), (40.0, 2e-6)])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    @pytest.mark.parametrize("xi", [1j, 0.3 + 0.5j, 2j, -6 + 1j])
    def test_elliptic_seed_disk_closed_form(self, k, tol, nu, xi):
        # |f|^2 y^k dv = (4 eta)^-k rho^(2 nu) (1 - rho^2)^(k-2) 4 rho drho dtheta
        # in w, so the pairing over the disk rho <= rho_max is
        # 4 pi (4 eta)^-k B(nu+1, k-1) I_{rho_max^2}(nu+1, k-1); rho_max is
        # tanh(d/2) for the largest hyperbolic radius d inside the box.  The
        # disk touches y_max for i and 2i, y_min for 0.3+0.5i, x = -x_max for
        # -6+i.  Worst errors seen: 9.9e-9 for k <= 12, 1.1e-6 at k = 40.
        q = QuadratureSpec(0.05, 14.0, nx=160, ny=28, x_max=8.0)
        seed = EllipticSeed(nu, xi, np.array([1.0 + 0j]), k)
        got = petersson_strip(seed, seed, GroupSpec.plus_minus_identity(), k, q)
        eta = xi.imag
        d = min(math.log(eta / 0.05), math.log(14.0 / eta), math.asinh((8.0 - abs(xi.real)) / eta))
        r2 = math.tanh(d / 2.0) ** 2
        expect = (4.0 * math.pi * (4.0 * eta) ** -k * special.beta(nu + 1, k - 1)
                  * special.betainc(nu + 1, k - 1, r2))
        assert abs(got - expect) <= tol * expect


class TestDiskRefusal:
    @pytest.mark.parametrize("xi, q", [
        (20j, QuadratureSpec(0.05, 14.0, nx=32, ny=16, x_max=8.0)),    # eta >= y_max
        (14j, QuadratureSpec(0.05, 14.0, nx=32, ny=16, x_max=8.0)),
        (0.05j, QuadratureSpec(0.05, 14.0, nx=32, ny=16, x_max=8.0)),  # eta <= y_min
        (0.01j, QuadratureSpec(0.05, 14.0, nx=32, ny=16, x_max=8.0)),
        (8.0 + 1j, QuadratureSpec(0.05, 14.0, nx=32, ny=16, x_max=8.0)),  # |Re xi| >= x_max
        (-9.0 + 1j, QuadratureSpec(0.05, 14.0, nx=32, ny=16)),  # default x_max 8
    ])
    def test_box_without_disk_refused(self, xi, q):
        seed = EllipticSeed(0, xi, np.array([1.0 + 0j]), 12.0)
        with pytest.raises(ValueError, match="no disk about xi"):
            petersson_strip(seed, seed, GroupSpec.plus_minus_identity(), 12.0, q)

    def test_second_argument_without_xi_refused(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        plain = lambda tau: np.array([1.0 + 0j])
        q = QuadratureSpec(0.05, 14.0, nx=32, ny=16)
        with pytest.raises(ValueError, match="xi"):
            petersson_strip(seed, plain, GroupSpec.plus_minus_identity(), 12.0, q)


class TestThreadCap:
    def test_results_independent_of_worker_count(self, monkeypatch):
        h, seed = classical_handle(GroupSpec.gamma0(2), 30.0)
        q = QuadratureSpec(0.05, 6.0, nx=32, ny=16)
        monkeypatch.setenv("VVPS_THREADS", "1")
        serial = petersson_strip(h, seed, GroupSpec.gamma_infinity(1), 12.0, q)
        monkeypatch.setenv("VVPS_THREADS", "4")
        threaded = petersson_strip(h, seed, GroupSpec.gamma_infinity(1), 12.0, q)
        assert serial == threaded  # bitwise: chunking is fixed, workers only map


class TestPairFull:
    def test_zero_second_argument(self):
        h, _ = classical_handle(GroupSpec.sl2z(), 15.0)
        zero = lambda tau: np.array([0.0 + 0j])
        got = petersson_pair_full(h, zero, GroupSpec.sl2z(), 12.0)
        assert got == 0.0

    def test_self_pairing_real_nonnegative(self):
        h, _ = classical_handle(GroupSpec.sl2z(), 25.0)
        got = petersson_pair_full(h, h, GroupSpec.sl2z(), 12.0)
        assert got.real > 0
        assert abs(got.imag) <= 1e-10 * got.real

    def test_same_handle_twice_matches_separate_handles(self):
        # pairing a handle with itself evaluates it once; a second handle
        # of the same configuration gives the same value bit for bit
        h, _ = elliptic_handle(GroupSpec.gamma0(3), 20.0)
        h2, _ = elliptic_handle(GroupSpec.gamma0(3), 20.0)
        same = petersson_pair_full(h, h, GroupSpec.gamma0(3), 12.0)
        assert same == petersson_pair_full(h, h2, GroupSpec.gamma0(3), 12.0)

    def test_hermitian_symmetry(self):
        h, seed = classical_handle(GroupSpec.sl2z(), 25.0)
        one = petersson_pair_full(h, seed, GroupSpec.sl2z(), 12.0)
        two = petersson_pair_full(seed, h, GroupSpec.sl2z(), 12.0)
        assert one == pytest.approx(two.conjugate(), rel=1e-10)

    def test_unfolding_against_strip(self):
        # <Psi, Psi> over the quotient equals the unfolded strip pairing
        h, seed = classical_handle(GroupSpec.sl2z(), 60.0)
        q = QuadratureSpec(0.05, 10.0, nx=48, ny=40)
        strip = petersson_strip(h, seed, GroupSpec.gamma_infinity(1), 12.0, q)
        full = petersson_pair_full(h, h, GroupSpec.sl2z(), 12.0,
                                   q=QuadratureSpec(0.05, 8.0, nx=48, ny=32))
        assert abs(full - strip) <= 1e-2 * abs(strip)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_elliptic_against_closed_form(self, nu):
        # Cartesian witness for the disk route: the pairing over the quotient
        # runs on the translated standard domain, not on circles about xi
        gamma = GroupSpec.gamma0(2)
        h, _ = elliptic_handle(gamma, 20.0, nu)
        full = petersson_pair_full(h, h, gamma, 12.0)
        b = elliptic_expansion_coeffs(h, 1j, 12.0, [nu], 0.4, nt=128)[nu]
        closed = elliptic_pairing_closed_form(b, 12.0, nu, 1j)
        assert abs(full - closed) <= 3e-7 * abs(closed)  # 9.6e-8 and 1.6e-7

    def test_isometry_of_induction(self):
        # pairing on the subgroup equals the pairing of the induced tuple
        gamma = GroupSpec.gamma0(2)
        h, _ = classical_handle(gamma, 40.0)
        cosets = right_coset_reps(gamma)
        q = QuadratureSpec(0.05, 6.0, nx=32, ny=24)
        direct = petersson_pair_full(h, h, gamma, 12.0, cosets=cosets, q=q)

        slashed = [slash_k(lambda t: h.evaluate(t)[0], g, MS12, 12.0) for g in cosets]
        tuple_fn = lambda tau: np.concatenate([f(tau) for f in slashed])
        induced = petersson_pair_full(tuple_fn, tuple_fn, GroupSpec.sl2z(), 12.0,
                                      cosets=[right_coset_reps(GroupSpec.sl2z())[0]], q=q)
        assert abs(direct - induced) <= 1e-2 * abs(direct)
