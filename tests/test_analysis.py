import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from conftest import classical_handle, elliptic_handle, induced_trivial, plain_split
from vvps.analysis import (QuadratureSpec,
                           classical_pairing_closed_form,
                           elliptic_expansion_coeffs,
                           elliptic_pairing_closed_form, fourier_coefficients,
                           petersson_pair_full, petersson_strip)
from vvps._quad import gauss_jacobi_truncated
from vvps.errors import DomainError, RefusalError
from vvps.modgroup import GroupSpec, S, right_coset_reps
from vvps.multiplier import MultiplierSystem
from vvps.rep import SpectralSplit
from vvps import series
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import slash

MS12 = MultiplierSystem("trivial_even", 12.0)


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

    def test_growth_overflow_refused_before_evaluation(self):
        # e^{2 pi (n + 1) 3} overflows from n = 37 on
        def F(tau):
            raise AssertionError("F evaluated before the refusal")
        with pytest.raises(RefusalError, match="growth factor at n=37, y0=3"):
            fourier_coefficients(F, plain_split(), 1, range(401), 3.0, 64)

    @pytest.mark.parametrize("nx", [0, -4])
    def test_too_few_nodes_rejected(self, nx):
        F = lambda tau: np.array([np.exp(2j * math.pi * tau)])
        with pytest.raises(ValueError, match="nx"):
            fourier_coefficients(F, plain_split(), 1, [0], 0.5, nx)

    def test_two_heights_agree(self):
        h = classical_handle(GroupSpec.gamma0(2), height=40.0)
        t1 = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.5, 64)
        t2 = fourier_coefficients(h, h.seed.split, 1, [0, 1], 1.0, 64)
        for n in (0, 1):
            a, b = t1.coeff(1, n), t2.coeff(1, n)
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_sigma_slash_consistency(self):
        # expanding F|_k S of a level-one series equals expanding F itself
        h = classical_handle(GroupSpec.sl2z(), height=40.0)
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
        h = classical_handle(GroupSpec.sl2z(), height=80.0)
        tab = fourier_coefficients(h, h.seed.split, 1, [0, 1, 2], 0.5, 64)
        b0 = tab.coeff(1, 0)
        assert tab.coeff(1, 1) / b0 == pytest.approx(-24.0, rel=1e-6)
        assert tab.coeff(1, 2) / b0 == pytest.approx(252.0, rel=1e-5)

    def test_table_serialisation(self):
        h = classical_handle(GroupSpec.gamma0(2), height=20.0)
        tab = fourier_coefficients(h, h.seed.split, 1, [0, 1], 0.5, 32)
        data = tab.to_json()
        assert data["M"] == 1 and len(data["b"]) == 2
        csv = tab.to_csv()
        assert csv.splitlines()[0] == "j,n,re,im"
        assert len(csv.splitlines()) == 3
        # every field is a plain float literal, bitwise equal to the JSON value
        # (numpy >= 2 once wrote np.float64(...) here)
        for line, entry in zip(csv.splitlines()[1:], data["b"]):
            j, n, re_, im_ = line.split(",")
            assert (int(j), int(n)) == (entry["j"], entry["n"])
            assert [float(re_).hex(), float(im_).hex()] == [v.hex() for v in entry["value"]]

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_component_out_of_range_refused(self, j):
        # j = 0 used to index -1 and return the last component, b_n(2)
        F = lambda tau: np.array([1.0, 2.0]) * np.exp(2j * math.pi * tau)
        tab = fourier_coefficients(F, plain_split(2), 1, [0], 0.5, 16)
        assert tab.coeff(2, 0) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError, match="out of range 1..2"):
            tab.coeff(j, 0)


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
        h = elliptic_handle(GroupSpec.gamma0(2), height=25.0)
        a = elliptic_expansion_coeffs(h, 1j, 12.0, [0, 1], 0.3, nt=128)
        b = elliptic_expansion_coeffs(h, 1j, 12.0, [0, 1], 0.5, nt=128)
        for n in (0, 1):
            assert a[n] == pytest.approx(b[n], rel=1e-8)

    @pytest.mark.parametrize("nt", [0, -4])
    def test_too_few_nodes_rejected(self, nt):
        # nt = -4 returned {0: -0j, 1: -0j}, nt = 0 raised ZeroDivisionError
        seed = EllipticSeed(1, 1j, np.array([1.0 + 0j]), 12.0)
        with pytest.raises(ValueError, match="nt"):
            elliptic_expansion_coeffs(seed, 1j, 12.0, [0, 1], 0.4, nt=nt)

    def test_bad_radius_refused(self):
        F = lambda tau: np.array([1.0 + 0j])
        with pytest.raises(RefusalError):
            elliptic_expansion_coeffs(F, 1j, 12.0, [0], 1.0)

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_component_out_of_range_refused(self, j):
        # j = 0 used to index -1 and expand the last component, F_2
        xi = 1j
        F = lambda tau: np.array([1.0, 2.0]) * complex(tau - xi.conjugate()) ** -12.0
        assert elliptic_expansion_coeffs(F, xi, 12.0, [0], 0.4, j=2)[0] == \
            pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError, match="out of range 1..2"):
            elliptic_expansion_coeffs(F, xi, 12.0, [0], 0.4, j=j)


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

    @pytest.mark.parametrize("nu", [163, 164, 166, 170, 171, 300])
    def test_elliptic_past_the_float_range_of_nu_factorial(self, nu):
        # at k = 12 the product 11 * 12 * ... * (11 + nu) passes the float
        # range from nu = 163 (the value read 0.0) and nu! from 171 (an
        # OverflowError); measured worst 2.2e-13 at nu = 300, gated at 3x
        with mpmath.workdps(40):
            exact = 4 * mpmath.pi / mpmath.mpf(4) ** 12 * mpmath.beta(nu + 1, 11)
            got = elliptic_pairing_closed_form(1.0, 12.0, nu, 1j)
            assert abs(got - exact) <= 6.7e-13 * exact

    @pytest.mark.parametrize("k, xi", [(600.0, 1j), (500.0, 0.06j)])
    def test_elliptic_past_the_float_range_refused(self, k, xi):
        # (4 Im xi)^k overflowed (a bare OverflowError), and at Im xi = 0.06
        # the value read inf
        with pytest.raises(RefusalError, match=r"elliptic pairing 4 pi / \(4 Im xi\)\^k"):
            elliptic_pairing_closed_form(1.0, k, 0, xi)

    @pytest.mark.parametrize("k, nu, eta", [(500.0, 200, 0.06), (300.0, 100, 0.05),
                                            (500.0, 0, 0.0602), (300.0, 100, 0.02)])
    def test_elliptic_where_a_factor_passes_the_float_range(self, k, nu, eta):
        # (4 eta)^-k, or its product with nu!, passes the float range where
        # the value (1.1e128, 1.2e112, 3.7e307, 3.0e231) does not: each was
        # refused as past the range.  Measured worst 2.1e-13, gated at 5x
        with mpmath.workdps(40):
            exact = (4 * mpmath.pi / (4 * mpmath.mpf(eta)) ** k
                     * mpmath.beta(nu + 1, k - 1))
            got = elliptic_pairing_closed_form(1.0, k, nu, complex(0.0, eta))
            assert abs(got - exact) <= 1e-12 * exact

    def test_elliptic_nu2_vs_disk_integral(self):
        oracle, _ = integrate.quad(lambda r: r ** 5 * (1 - r * r) ** 10, 0.0, 1.0)
        oracle *= 8 * math.pi / 4.0 ** 12
        got = elliptic_pairing_closed_form(1.0, 12.0, 2, 1j)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(4 * math.pi / 4.0 ** 12 * 2.0 / (11 * 12 * 13), rel=1e-12)


class TestPeterssonStrip:
    def test_seed_against_itself_closed_form(self):
        # the strip reads nx alone; its rule takes e^(-4 pi y) y^10 exactly.
        # Measured 2.9e-16 against math.gamma's value, gated at 5x
        split = plain_split()
        seed = ClassicalSeed(0, 1, split, 1)
        got = petersson_strip(seed, seed, 12.0, QuadratureSpec(nx=16))
        expect = math.gamma(11.0) / (4.0 * math.pi) ** 11
        assert got.real == pytest.approx(expect, rel=1.5e-15)
        assert abs(got.imag) <= 1e-18

    def test_zero_function(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        zero = lambda tau: np.array([0.0 + 0j])
        q = QuadratureSpec(0.05, 5.0, nx=16)
        assert petersson_strip(zero, seed, 12.0, q) == 0.0

    def test_low_weight_rejected(self):
        seed = ClassicalSeed(0, 1, plain_split(), 1)
        q = QuadratureSpec(0.05, 5.0, nx=16)
        with pytest.raises(DomainError):
            petersson_strip(seed, seed, 2.0, q)

    def test_classical_two_pipelines(self):
        # the strip's rule against the closed form of b on y0 = 0.5: measured
        # 1.8e-14 (the box grid read about 1e-9), gated at 5x
        h = classical_handle(GroupSpec.gamma0(2), height=60.0)
        strip = petersson_strip(h, h.seed, 12.0, QuadratureSpec(nx=32))
        tab = fourier_coefficients(h, h.seed.split, 1, [0], 0.5, 64)
        closed = classical_pairing_closed_form(tab.coeff(1, 0), 1, 12.0, 0, 1.0)
        assert abs(strip - closed) <= 1e-13 * abs(closed)

    def test_elliptic_seed_past_the_float_range_of_a_power(self):
        # |tau - xi|^300 passes the float range at nodes of this disk, where
        # the seed itself is small: the pairing is finite, not refused
        h = elliptic_handle(GroupSpec.gamma0(2), nu=300, height=10.0)
        q = QuadratureSpec(0.05, 14.0, 160, x_max=8.0)
        assert np.isfinite(petersson_strip(h, h.seed, 12.0, q))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(math.inf, 0.0)],
                             ids=["inf", "nan", "complex-inf"])
    @pytest.mark.parametrize("domain", ["strip", "disk"])
    def test_non_finite_values_refused(self, bad, domain):
        # F is finite at the nodes with Im(tau) < 1 and not above: the sum of
        # the pairing is refused, and no RuntimeWarning is raised on the way
        if domain == "strip":
            seed = ClassicalSeed(0, 1, plain_split(), 1)
            q = QuadratureSpec(0.05, 5.0, nx=16)
        else:
            seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
            q = QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)
        F = lambda tau: np.array([bad if tau.imag >= 1.0 else 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RefusalError, match="a sum has non-finite terms"):
                petersson_strip(F, seed, 12.0, q)

    # the ids keep the gates of the earlier 28-node radial grid, so that the
    # test names stay stable
    @pytest.mark.parametrize("k, tol", [
        pytest.param(4.0, 1e-14, id="4.0-2e-08"), pytest.param(7.3, 1e-14, id="7.3-2e-08"),
        pytest.param(12.0, 1e-14, id="12.0-2e-08"), pytest.param(40.0, 2e-14, id="40.0-2e-06")])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    @pytest.mark.parametrize("xi", [1j, 0.3 + 0.5j, 2j, -6 + 1j])
    def test_elliptic_seed_disk_closed_form(self, k, tol, nu, xi):
        # |f|^2 y^k dv = (4 eta)^-k rho^(2 nu) (1 - rho^2)^(k-2) 4 rho drho dtheta
        # in w, so the pairing over the disk rho <= rho_max is
        # 4 pi (4 eta)^-k B(nu+1, k-1) I_{rho_max^2}(nu+1, k-1); rho_max is
        # tanh(d/2) for the largest hyperbolic radius d inside the box.  The
        # disk touches y_max for i and 2i, y_min for 0.3+0.5i, x = -x_max for
        # -6+i.  Gates: about 5x the worst errors seen, 1.9e-15 for k <= 12
        # and 3.4e-15 at k = 40.
        q = QuadratureSpec(0.05, 14.0, nx=160, x_max=8.0)
        seed = EllipticSeed(nu, xi, np.array([1.0 + 0j]), k)
        got = petersson_strip(seed, seed, k, q)
        eta = xi.imag
        d = min(math.log(eta / 0.05), math.log(14.0 / eta), math.asinh((8.0 - abs(xi.real)) / eta))
        r2 = math.tanh(d / 2.0) ** 2
        expect = (4.0 * math.pi * (4.0 * eta) ** -k * special.beta(nu + 1, k - 1)
                  * special.betainc(nu + 1, k - 1, r2))
        assert abs(got - expect) <= tol * expect


@pytest.mark.parametrize("k", [2.5, 4.0, 7.3, 12.0, 40.0, 172.0])
@pytest.mark.parametrize("s_max", [0.05, 0.75, 0.99])
@pytest.mark.parametrize("n, tol", [(1, 1e-14), (2, 1e-13), (3, 1e-13), (11, 1e-13),
                                    (151, 5e-12)])
def test_disk_rule_moments_against_mpmath(n, tol, s_max, k):
    # the disk's radial rule: n nodes in s for the weight (1 - s)^(k-2) on
    # [0, s_max] take s^j, j <= 2n - 1.  Moments of (s / s_max)^j, which
    # stay in the float range.  Worst seen: 3.8e-16 at n = 1, 1.1e-14 for
    # n <= 11, 4.6e-13 at n = 151
    nodes, weights = gauss_jacobi_truncated(n, k - 2.0, s_max)
    assert len(nodes) == n and (nodes > 0).all() and (nodes < s_max).all()
    with mpmath.workdps(40):
        for j in range(2 * n):
            exact = mpmath.betainc(j + 1, k - 1, 0, s_max) / mpmath.mpf(s_max) ** j
            got = math.fsum(weights * (nodes / s_max) ** j)
            assert abs(got - exact) <= tol * exact


@pytest.mark.parametrize("k, tol", [(2.5, 2e-14), (4.0, 2e-14), (7.3, 2e-14), (12.0, 2e-14),
                                    (40.0, 2e-14), (172.0, 1.5e-13)])
@pytest.mark.parametrize("M, m, nu", [(1, 1.0, 0), (3, 0.25, 1)])
def test_strip_rule_moments_against_mpmath(M, m, nu, k, tol):
    # the strip's two-point Gauss-Laguerre rule: with F = f t^j, t = 4 pi
    # alpha y, the pairing is M Gamma(k-1) / (4 pi alpha)^(k-1) times the
    # rule's sum of w_i t_i^j, which is Gamma(k-1+j) / Gamma(k-1) for
    # j <= 3.  Worst seen: 4.1e-15 for k <= 40, and 2.9e-14 at k = 172,
    # where e^t e^-t at t ~ 185 costs about t ulps
    seed = ClassicalSeed(nu, 1, SpectralSplit(np.eye(1, dtype=complex), (m,)), M)
    beta = 4.0 * math.pi * seed.alpha
    for j in range(4):
        F = lambda tau: seed.eval_many([tau])[0] * (beta * tau.imag) ** j
        got = petersson_strip(F, seed, k, QuadratureSpec(nx=16))
        with mpmath.workdps(40):
            exact = M * mpmath.gamma(k - 1 + j) / mpmath.mpf(beta) ** (k - 1)
            assert abs(mpmath.mpc(got) - exact) <= tol * exact


class TestDiskRefusal:
    @pytest.mark.parametrize("xi, q", [
        (20j, QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)),    # eta >= y_max
        (14j, QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)),
        (0.05j, QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)),  # eta <= y_min
        (0.01j, QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)),
        (8.0 + 1j, QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)),  # |Re xi| >= x_max
        (-9.0 + 1j, QuadratureSpec(0.05, 14.0, nx=32)),  # default x_max 8
    ])
    def test_box_without_disk_refused(self, xi, q):
        seed = EllipticSeed(0, xi, np.array([1.0 + 0j]), 12.0)
        with pytest.raises(ValueError, match="no disk about xi"):
            petersson_strip(seed, seed, 12.0, q)

    def test_box_overflowing_the_float_range_refused(self):
        # the strip has no box now: on the disk, 1e308^12 passes the float
        # range, refused before any node is made
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        with pytest.raises(RefusalError, match=r"weight y\^12 on \[0.05, 1e\+308\]"):
            petersson_strip(seed, seed, 12.0, QuadratureSpec(0.05, 1e308))

    def test_weight_overflowing_the_float_range_refused(self):
        # y_max^k = 1e300^4 overflows, though the disk's nodes need not
        # come near y_max
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 4.0)
        with pytest.raises(RefusalError, match=r"weight y\^4 on \[0.05, 1e\+300\]"):
            petersson_strip(seed, seed, 4.0, QuadratureSpec(0.05, 1e300))

    def test_second_argument_without_xi_refused(self):
        seed = EllipticSeed(0, 1j, np.array([1.0 + 0j]), 12.0)
        plain = lambda tau: np.array([1.0 + 0j])
        q = QuadratureSpec(0.05, 14.0, nx=32)
        with pytest.raises(ValueError, match="xi"):
            petersson_strip(seed, plain, 12.0, q)


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(series, "thread_cap", lambda: workers)


def _bits(*results):
    return [np.asarray(r).tobytes() for r in results]


class TestWorkerCount:
    # evaluate_many splits its points into near-equal blocks, a multiple of
    # thread_cap() of them, and maps them over that many workers: the
    # blocks depend on the worker count, but each point's row is summed
    # whole, so the results do not

    @pytest.fixture(scope="class")
    def induced(self):
        # p = 4, 654 cosets: at most 100 points in a block
        h = classical_handle(GroupSpec.sl2z(), rep=induced_trivial(3), j=2, height=30.0)
        taus = np.linspace(-0.6, 0.6, 320) + 1j * np.linspace(0.3, 1.5, 320)
        assert 65_536 // len(h.cosets.ents) == 100
        one_worker = {}
        with pytest.MonkeyPatch.context() as mp:
            _set_workers(mp, 1)
            for points in (101, 250, 320):
                one_worker[points] = h.evaluate_many(taus[:points])
        return h, taus, one_worker

    @pytest.fixture(scope="class")
    def consumers(self):
        """Each consumer of evaluate_many, on grids of several blocks."""
        cl = classical_handle(GroupSpec.gamma0(2), height=30.0)
        el = elliptic_handle(GroupSpec.gamma0(2), height=20.0)
        deep = classical_handle(GroupSpec.sl2z(), height=100.0)
        small = classical_handle(GroupSpec.sl2z(), height=15.0)
        q = QuadratureSpec(0.05, 6.0, nx=32)
        q_disk = QuadratureSpec(0.05, 14.0, nx=32, x_max=8.0)
        return {
            "fourier": lambda: fourier_coefficients(deep, deep.seed.split, 1, range(3),
                                                    0.5, 64).b,
            "strip_gamma_inf": lambda: petersson_strip(
                cl, cl.seed, 12.0, q),
            "strip_pm_identity": lambda: petersson_strip(
                el, el.seed, 12.0, q_disk),
            "pair_full": lambda: petersson_pair_full(small, small, GroupSpec.sl2z(), 12.0),
        }

    @pytest.fixture(scope="class")
    def one_worker(self, consumers):
        with pytest.MonkeyPatch.context() as mp:
            _set_workers(mp, 1)
            return {name: job() for name, job in consumers.items()}

    @staticmethod
    def _often_switched(h, taus):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' row writes often
        try:
            return h.evaluate_many(taus)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_evaluate_many_bitwise_for_any_worker_count(self, monkeypatch, induced,
                                                         workers):
        # on 3 workers 320 points go 53 or 54 to each of 6 blocks
        h, taus, one_worker = induced
        _set_workers(monkeypatch, workers)
        assert _bits(*self._often_switched(h, taus)) == _bits(*one_worker[320])

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("points", [101, 250])
    def test_uneven_point_counts_bitwise_for_any_worker_count(self, monkeypatch, induced,
                                                              points, workers):
        # blocks of at most 100 points taken in turn would split these
        # 100/1 and 100/100/50
        h, taus, one_worker = induced
        _set_workers(monkeypatch, workers)
        assert _bits(*self._often_switched(h, taus[:points])) == _bits(*one_worker[points])

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["fourier", "strip_gamma_inf", "strip_pm_identity",
                                      "pair_full"])
    def test_consumers_bitwise_for_any_worker_count(self, monkeypatch, consumers,
                                                    one_worker, name, workers):
        _set_workers(monkeypatch, workers)
        assert _bits(consumers[name]()) == _bits(one_worker[name])


class TestPairFull:
    def test_zero_second_argument(self):
        h = classical_handle(GroupSpec.sl2z(), height=15.0)
        zero = lambda tau: np.array([0.0 + 0j])
        got = petersson_pair_full(h, zero, GroupSpec.sl2z(), 12.0)
        assert got == 0.0

    def test_self_pairing_real_nonnegative(self):
        h = classical_handle(GroupSpec.sl2z(), height=25.0)
        got = petersson_pair_full(h, h, GroupSpec.sl2z(), 12.0)
        assert got.real > 0
        assert abs(got.imag) <= 1e-10 * got.real

    def test_same_handle_twice_matches_separate_handles(self):
        # pairing a handle with itself evaluates it once; a second handle
        # of the same configuration gives the same value bit for bit
        h = elliptic_handle(GroupSpec.gamma0(3), height=20.0)
        h2 = elliptic_handle(GroupSpec.gamma0(3), height=20.0)
        same = petersson_pair_full(h, h, GroupSpec.gamma0(3), 12.0)
        assert same == petersson_pair_full(h, h2, GroupSpec.gamma0(3), 12.0)

    def test_hermitian_symmetry(self):
        h = classical_handle(GroupSpec.sl2z(), height=25.0)
        one = petersson_pair_full(h, h.seed, GroupSpec.sl2z(), 12.0)
        two = petersson_pair_full(h.seed, h, GroupSpec.sl2z(), 12.0)
        assert one == pytest.approx(two.conjugate(), rel=1e-10)

    def test_unfolding_against_strip(self):
        # <Psi, Psi> over the quotient equals the unfolded strip pairing:
        # measured 5.6e-9, gated at 5x
        h = classical_handle(GroupSpec.sl2z(), height=60.0)
        strip = petersson_strip(h, h.seed, 12.0, QuadratureSpec(nx=48))
        full = petersson_pair_full(h, h, GroupSpec.sl2z(), 12.0)
        assert abs(full - strip) <= 3e-8 * abs(strip)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_elliptic_against_closed_form(self, nu):
        # Cartesian witness for the disk route: the pairing over the quotient
        # runs on the strips of the cusps, not on circles about xi
        gamma = GroupSpec.gamma0(2)
        h = elliptic_handle(gamma, nu=nu, height=20.0)
        full = petersson_pair_full(h, h, gamma, 12.0)
        b = elliptic_expansion_coeffs(h, 1j, 12.0, [nu], 0.4, nt=128)[nu]
        closed = elliptic_pairing_closed_form(b, 12.0, nu, 1j)
        assert abs(full - closed) <= 1.5e-7 * abs(closed)  # 8.7e-9 and 2.9e-8

    def test_node_below_the_evaluation_floor_refused(self):
        # Gamma0(6)'s cusp 1/3 (c = 3) maps its strip below series.MIN_IM
        gamma = GroupSpec.gamma0(6)
        h = classical_handle(gamma, height=10.0)
        with pytest.raises(RefusalError, match="Im\\(tau\\) < 0.05"):
            petersson_pair_full(h, h, gamma, 12.0)

    # <P, P> over the quotient against its closed form, from the nu-th
    # coefficient of the same truncated series: (seed family, level, nu,
    # height, xi, gate).  The gates are about 5x the errors measured on the
    # strips of the cusps; the 32 x 24 grid on the standard domain under
    # every coset, capped at y = 6, read in order 1.5e-4, 1.6e-4, 8.5e-8,
    # 8.5e-8, 1.6e-7, 9.4e-8, 2.7e-4, 1.5e-4, refused on Gamma0(4) (a node
    # below series.MIN_IM), 5.4e-4, 1.0e-5, 4.4e-3 and 1.5e-4.  The first
    # two are Gamma0(3)'s width-3 cusp, which held about 1% of the integrand
    # above that cap
    @pytest.mark.parametrize("family, level, nu, height, xi, tol", [
        pytest.param("elliptic", 3, 1, 30.0, 0.05 + 1j, 1.5e-7, id="elliptic-3-nu1-H30"),
        pytest.param("classical", 3, 1, 40.0, None, 1.7e-7, id="classical-3-nu1-H40"),
        pytest.param("classical", 1, 0, 30.0, None, 3e-8, id="classical-1-nu0"),
        pytest.param("elliptic", 1, 2, 30.0, 1j, 3e-8, id="elliptic-1-nu2"),
        pytest.param("classical", 2, 1, 30.0, None, 1.4e-7, id="classical-2-nu1"),
        pytest.param("elliptic", 2, 0, 30.0, 1.05j, 4e-8, id="elliptic-2-nu0"),
        pytest.param("classical", 3, 2, 30.0, None, 5e-7, id="classical-3-nu2"),
        pytest.param("elliptic", 3, 1, 30.0, 1j, 1.5e-7, id="elliptic-3-nu1"),
        pytest.param("classical", 4, 0, 30.0, None, 2e-8, id="classical-4-nu0"),
        pytest.param("elliptic", 4, 2, 30.0, 0.05 + 1j, 5e-8, id="elliptic-4-nu2"),
        pytest.param("classical", 5, 1, 30.0, None, 7e-8, id="classical-5-nu1"),
        pytest.param("elliptic", 5, 0, 30.0, 1j, 4e-9, id="elliptic-5-nu0"),
        pytest.param("classical", 7, 2, 30.0, None, 2.8e-6, id="classical-7-nu2"),
        pytest.param("elliptic", 7, 1, 30.0, 1.05j, 3.3e-7, id="elliptic-7-nu1"),
    ])
    def test_against_closed_form(self, family, level, nu, height, xi, tol):
        # measured 2.9e-8, 3.3e-8, 5.6e-9, 5.6e-9, 2.7e-8, 8.0e-9, 9.2e-8,
        # 3.0e-8, 3.9e-9, 9.2e-9, 1.3e-8, 7.1e-10, 5.5e-7 and 6.6e-8
        gamma = GroupSpec.sl2z() if level == 1 else GroupSpec.gamma0(level)
        if family == "classical":
            h = classical_handle(gamma, nu=nu, height=height)
            b = fourier_coefficients(h, h.seed.split, 1, [nu], 0.5, 64).coeff(1, nu)
            closed = classical_pairing_closed_form(b, 1, 12.0, nu, h.seed.m_j)
        else:
            h = elliptic_handle(gamma, xi=xi, nu=nu, height=height)
            b = elliptic_expansion_coeffs(h, xi, 12.0, [nu], 0.4, nt=128)[nu]
            closed = elliptic_pairing_closed_form(b, 12.0, nu, xi)
        full = petersson_pair_full(h, h, gamma, 12.0)
        assert abs(full - closed) <= tol * abs(closed)

    def test_isometry_of_induction(self):
        # pairing on the subgroup equals the pairing of the induced tuple
        gamma = GroupSpec.gamma0(2)
        h = classical_handle(gamma, height=40.0)
        cosets = right_coset_reps(gamma)
        direct = petersson_pair_full(h, h, gamma, 12.0)

        # the tuple (F|g_1, ..., F|g_n) at one point.  On SL2(Z) its
        # components F|S and F|ST decay as e^(-2 pi y), half the rate the
        # rule takes, and lose the mass above its top node: measured 1.6e-4,
        # gated at 5x
        tuple_fn = lambda tau: slash(h, cosets, [tau], MS12)[0].ravel()
        induced = petersson_pair_full(tuple_fn, tuple_fn, GroupSpec.sl2z(), 12.0)
        assert abs(direct - induced) <= 8e-4 * abs(direct)
