"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with -s to see them)."""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from conftest import (act, classical_handle, cocycle, elliptic_handle, eta_product,
                      random_element, random_tau, syllable_product)
from vvps.analysis import (QuadratureSpec, classical_pairing_closed_form, domain_share,
                           elliptic_expansion_coeffs,
                           elliptic_pairing_closed_form, fourier_coefficients,
                           petersson_pair_full, petersson_strip)
from vvps.modgroup import (GroupSpec, I2, IntMatrix2, S, T, right_coset_reps,
                           st_syllables, t_power)
from vvps.multiplier import MultiplierSystem
from vvps.nonvanish import (beta_median, classical_criterion,
                            elliptic_criterion, find_radius, gamma_median,
                            region_test_a, region_test_c)
from vvps.rep import (evaluate_rho, induce, spectral_split, st_rep,
                      trivial_rep)
from vvps.seeds import ClassicalSeed, EllipticSeed, seed_strip_integral
from vvps.series import check_seed_invariance, check_transformation, slash

MS12 = MultiplierSystem("trivial_even", 12.0)

_handles = {}


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def classical_series(gamma, height, nu=0):
    key = ("classical", gamma, height, nu)
    if key not in _handles:
        _handles[key] = classical_handle(gamma, nu=nu, height=height)
    return _handles[key]


def elliptic_series(gamma, height, nu):
    key = ("elliptic", gamma, height, nu)
    if key not in _handles:
        _handles[key] = elliptic_handle(gamma, nu=nu, height=height)
    return _handles[key]


def test_criterion_1_structural_suite(rng):
    t0 = time.time()
    worst = {}

    r = 0.0
    for _ in range(120):
        g1, g2 = random_element(rng), random_element(rng)
        tau = random_tau(rng)
        lhs = cocycle(g1 * g2, tau)
        rhs = cocycle(g1, act(g2, tau)) * cocycle(g2, tau)
        r = max(r, abs(lhs - rhs) / (1.0 + abs(lhs) ** 2))
    worst["cocycle"] = r

    r = 0.0
    for _ in range(120):
        g = random_element(rng)
        tau = random_tau(rng)
        lhs = act(g, tau).imag
        rhs = tau.imag / abs(cocycle(g, tau)) ** 2
        r = max(r, abs(lhs - rhs) / rhs)
    worst["im_identity"] = r

    F = lambda tau: np.array([np.exp(2j * math.pi * tau), (tau + 2j) ** -4])
    ms = MultiplierSystem("eta_power", 2.5)
    r = 0.0
    for _ in range(110):
        g1, g2 = random_element(rng, 8), random_element(rng, 8)
        tau = random_tau(rng)
        one = slash(lambda t: slash(F, [g1], [t], ms)[0, 0], [g2], [tau], ms)[0, 0]
        two = slash(F, [g1 * g2], [tau], ms)[0, 0]
        r = max(r, float(np.linalg.norm(one - two) / (1 + np.linalg.norm(two))))
    worst["right_action"] = r

    r = 0.0
    for _ in range(110):
        tau = random_tau(rng)
        for fam in (MS12, ms):
            diff = slash(F, [-I2], [tau], fam)[0, 0] - F(tau)
            r = max(r, float(np.linalg.norm(diff) / (1 + np.linalg.norm(F(tau)))))
    worst["minus_identity"] = r

    ok = True
    for _ in range(120):
        g = random_element(rng, 14)
        syll, sign = st_syllables(g)
        ok = ok and syllable_product(syll) == (g if sign == 1 else -g)
    worst["word_exact"] = 0.0 if ok else 1.0

    rho0 = induce(trivial_rep(1, GroupSpec.gamma0(2)),
                  right_coset_reps(GroupSpec.gamma0(2)))
    r = ru = 0.0
    for _ in range(110):
        g1, g2 = random_element(rng, 10), random_element(rng, 10)
        m1, m2, m12 = (evaluate_rho(rho0, g) for g in (g1, g2, g1 * g2))
        r = max(r, float(np.linalg.norm(m12 - m1 @ m2)))
        ru = max(ru, float(np.linalg.norm(m1 @ m1.conj().T - np.eye(rho0.p))))
    worst["induced_hom"] = r
    worst["induced_unitary"] = ru

    bad = max(worst.values())
    report(1, bad <= 1e-10,
           f"max residual {bad:.2e} <= 1e-10 over {len(worst)} structural checks; "
           f"{time.time() - t0:.1f}s")


def test_criterion_2_spectral_split(rng):
    t0 = time.time()
    figures = []

    split = spectral_split(trivial_rep(1), MS12, 1)
    figures.append(("trivial", split.m == (1.0,)))

    ms3 = MultiplierSystem("eta_power", 3.0)  # monodromy e^{2 pi i/4} = i
    split_i = spectral_split(trivial_rep(1), ms3, 1)
    figures.append(("eigenvalue_i", split_i.m == (0.25,)))

    w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    zc = [np.exp(2j * math.pi / 3.0), 1.0]
    rep = st_rep(w.conj().T @ np.diag([z ** -3 for z in zc]) @ w,
                 w.conj().T @ np.diag(zc) @ w)
    split2 = spectral_split(rep, MS12, 1)
    mono = evaluate_rho(rep, T)
    diag = np.diag([np.exp(2j * math.pi * m) for m in split2.m])
    resid = float(np.linalg.norm(mono - split2.U.conj().T @ diag @ split2.U))
    figures.append(("reconstruction", resid <= 1e-10))
    figures.append(("exponents", split2.m == (1 / 3, 1.0)))

    ok = all(flag for _, flag in figures)
    report(2, ok, f"reconstruction residual {resid:.2e} <= 1e-10; "
                  f"eigenvalue-1 -> m=1 and i -> 1/4 verified; {time.time() - t0:.1f}s")


def test_criterion_3_scalar_specialisation():
    t0 = time.time()
    h = classical_series(GroupSpec.sl2z(), 200.0)
    tab = fourier_coefficients(h, h.seed.split, 1, [0, 1, 2], 0.5, 64)
    b0, b1, b2 = (tab.coeff(1, n) for n in (0, 1, 2))
    poly = eta_product({1: 24}, 2)
    tau2, tau3 = poly[1], poly[2]  # -24 and 252
    r1 = abs(b1 / b0 - tau2) / abs(tau2)
    r2 = abs(b2 / b0 - tau3) / abs(tau3)
    # gates: 10x the measured 4.0e-16 and 6.8e-16 (H = 200, y0 = 0.5, nx = 64)
    report(3, r1 <= 4e-15 and r2 <= 7e-15 and (tau2, tau3) == (-24, 252),
           f"b1/b0 = {b1.real / b0.real:+.6f} vs {tau2} (rel {r1:.1e} <= 4e-15), "
           f"b2/b0 = {b2.real / b0.real:+.4f} vs {tau3} (rel {r2:.1e} <= 7e-15); "
           f"H=200, {len(h.cosets)} cosets, {time.time() - t0:.1f}s")


def test_criterion_4_classical_pairing():
    t0 = time.time()
    h = classical_series(GroupSpec.gamma0(2), 80.0)
    seed = h.seed
    probe, tail = h.evaluate(complex(0.5, 0.8))
    quality = tail / float(np.linalg.norm(probe))
    strip = petersson_strip(h, seed, 12.0, QuadratureSpec(nx=32))
    tab = fourier_coefficients(h, seed.split, 1, [0], 0.5, 64)
    closed = classical_pairing_closed_form(tab.coeff(1, 0), 1, 12.0, 0, 1.0)
    rel = abs(strip - closed) / abs(closed)
    # gates: 5x the measured 1.4e-15 of the strip's Gauss-Laguerre rule
    # (the box grid read 2.0e-6), and 10x the measured tail/value 8.4e-17,
    # a rounding-level figure
    report(4, rel <= 7e-15 and quality <= 8.4e-16,
           f"strip {strip.real:.6e} vs closed {closed.real:.6e}, rel {rel:.1e} <= 7e-15; "
           f"tail/value {quality:.1e} <= 8.4e-16; {time.time() - t0:.1f}s")


def test_criterion_5_elliptic_pairing():
    t0 = time.time()
    rels, boxed = [], []
    for nu in (0, 1):
        h = elliptic_series(GroupSpec.gamma0(2), 40.0, nu)
        seed = h.seed
        q = QuadratureSpec(0.05, 14.0, nx=160, x_max=8.0)
        strip = petersson_strip(h, seed, 12.0, q)
        coeffs = elliptic_expansion_coeffs(h, 1j, 12.0, [nu], 0.4, nt=128)
        closed = elliptic_pairing_closed_form(coeffs[nu], 12.0, nu, 1j)
        rels.append(abs(strip - closed) / abs(closed))
        kept = closed * domain_share(seed, 12.0, q)
        boxed.append(abs(strip - kept) / abs(kept))
    # rel is the box's loss 1 - share (2.3e-7 and 2.1e-6); against the part
    # of the closed form that the box keeps, the gate is about 10x the
    # measured 5.9e-16 and 5.6e-16
    report(5, all(r <= 1e-5 for r in rels) and all(r <= 6e-15 for r in boxed),
           f"rel errors nu=0: {rels[0]:.1e}, nu=1: {rels[1]:.1e}, both <= 1e-5; "
           f"against closed x share {boxed[0]:.1e}, {boxed[1]:.1e}, both <= 6e-15; "
           f"{time.time() - t0:.1f}s")


def test_criterion_6_isometry():
    t0 = time.time()
    gamma = GroupSpec.gamma0(2)
    h = classical_series(gamma, 60.0)
    cosets = right_coset_reps(gamma)
    direct = petersson_pair_full(h, h, gamma, 12.0)

    rho0 = induce(trivial_rep(1, gamma), cosets)
    # the tuple (F|g_1, ..., F|g_n) at one point
    tuple_fn = lambda tau: slash(h, cosets, [tau], MS12)[0].ravel()
    induced_norm = petersson_pair_full(tuple_fn, tuple_fn, GroupSpec.sl2z(), 12.0)
    rel = abs(direct - induced_norm) / abs(direct)

    # the induced tuple transforms under rho0 (spot check at one element)
    tau = complex(0.3, 1.4)
    lhs = slash(tuple_fn, [S], [tau], MS12)[0, 0]
    rhs = evaluate_rho(rho0, S) @ tuple_fn(tau)
    transf = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    # gate: 5x the measured 1.6e-4, the tail of the tuple's components F|S
    # and F|ST above the top node of the SL2(Z) strip, where they decay at
    # half the rate its Gauss-Laguerre rule takes
    report(6, rel <= 8e-4 and transf <= 1e-6,
           f"<F,F> direct {direct.real:.6e} vs induced {induced_norm.real:.6e}, "
           f"rel {rel:.1e} <= 8e-4; tuple transformation residual {transf:.1e}; "
           f"{time.time() - t0:.1f}s")


def test_criterion_7_median_suite():
    t0 = time.time()
    checks = [
        abs(gamma_median(1.0) - math.log(2.0)) <= 1e-12,
        all(abs(beta_median(a, a) - 0.5) <= 1e-12 for a in (0.5, 1.0, 2.0, 7.5)),
        abs(beta_median(1.0, 5.0) - (1.0 - 2.0 ** -0.2)) <= 1e-12,
        all(a - 1.0 / 3.0 < gamma_median(a) < a for a in (0.5, 1, 2, 5, 10, 50)),
    ]
    report(7, all(checks),
           f"gamma_median(1)-ln2 = {abs(gamma_median(1.0) - math.log(2)):.1e}; "
           f"beta medians exact to 1e-12; Chen-Rubin sandwich on 6 shapes; "
           f"{time.time() - t0:.2f}s")


def test_criterion_8_criterion_equivalences():
    t0 = time.time()
    grid_k = (4.0, 6.0, 12.0, 20.5)
    grid_n = (2, 3, 5, 11)
    ok_region = ok_radius = ok_imply = True
    converse_gap = 0
    for k in grid_k:
        for n in grid_n:
            gamma = GroupSpec.gamma0(n)
            rep = trivial_rep(1, gamma)
            split = spectral_split(rep, MS12, 1)
            for nu in range(0, 7):
                seed = ClassicalSeed(nu, 1, split, 1)
                ra = region_test_a(k, seed.M, n, nu, seed.m_j)
                sharp = classical_criterion(k, 1, n, nu, 1.0).details["sharp_satisfied"]
                ok_region &= (ra.satisfied == sharp)
                r = find_radius(k, nu, n)
                ok_radius &= ((r is not None) == elliptic_criterion(k, n, nu).satisfied)
                ok_radius &= r is None or region_test_c(k, nu, n, r).satisfied
                for m_j in (0.2, 0.5, 1.0):
                    rep_c = classical_criterion(k, 1, n, nu, m_j)
                    if rep_c.satisfied and not rep_c.details["sharp_satisfied"]:
                        ok_imply = False
                    if rep_c.details["sharp_satisfied"] and not rep_c.satisfied:
                        converse_gap += 1
    report(8, ok_region and ok_radius and ok_imply and converse_gap >= 1,
           f"regionA <=> sharp and radius <=> beta criterion (every radius passes "
           f"regionC) on 112 grid points; "
           f"closed form => sharp with {converse_gap} converse failure(s) "
           f"(Chen-Rubin slack); {time.time() - t0:.1f}s")


def test_criterion_9_transformation_convergence():
    t0 = time.time()
    gamma = GroupSpec.gamma0(2)
    taus = [complex(0.3, 1.1)]
    gammas = [T, IntMatrix2(1, 0, 2, 1), IntMatrix2(1, 0, -2, 1)]
    for g in gammas[1:]:
        # the non-translation elements come from conjugating T-powers by S
        assert S * t_power(-g.c) * S.inv() == g

    r_small = check_transformation(classical_series(gamma, 12.0), gammas, taus)
    r_double = check_transformation(classical_series(gamma, 24.0), gammas, taus)
    factor = r_small.residual / max(r_double.residual, 1e-300)
    r_big = check_transformation(classical_series(gamma, 200.0), gammas, taus)
    report(9, factor >= 2.0 and r_big.residual <= 1e-4,
           f"residual(H=12)/residual(H=24) = {factor:.1f} >= 2; "
           f"residual(H=200) = {r_big.residual:.1e} <= 1e-4 at tau=0.3+1.1i; "
           f"{time.time() - t0:.1f}s")


def test_criterion_10_seed_hypotheses():
    t0 = time.time()
    rep2 = trivial_rep(1, GroupSpec.gamma0(2))
    split = spectral_split(rep2, MS12, 1)
    classical = ClassicalSeed(0, 1, split, 1)
    f1_classical = check_seed_invariance(classical, rep2, MS12)
    elliptic = EllipticSeed(1, 1j, np.array([1.0 + 0j]), 12.0)
    f1_elliptic = check_seed_invariance(elliptic, trivial_rep(1), MS12)

    ms_eta = MultiplierSystem("eta_power", 7.3)
    split_eta = spectral_split(trivial_rep(1), ms_eta, 1)
    seed_eta = ClassicalSeed(2, 1, split_eta, 1)
    f1_eta = check_seed_invariance(seed_eta, trivial_rep(1), ms_eta)

    worst_f2 = 0.0
    for (k, m_width, nu, mj) in [(12.0, 1, 0, 1.0), (3.5, 2, 1, 0.5), (7.3, 1, 2, split_eta.m[0])]:
        from vvps.rep import SpectralSplit
        seed = ClassicalSeed(nu, 1, SpectralSplit(np.eye(1, dtype=complex), (mj,)), m_width)
        alpha = 2 * math.pi * (nu + mj) / m_width
        oracle, _ = integrate.quad(
            lambda y: math.exp(-alpha * y) * y ** (k / 2.0 - 2.0), 0, np.inf)
        oracle *= m_width
        worst_f2 = max(worst_f2, abs(seed_strip_integral(seed, k) - oracle) / oracle)

    ok = max(f1_classical, f1_elliptic, f1_eta) <= 1e-10 and worst_f2 <= 1e-8
    report(10, ok,
           f"(f1) residuals {f1_classical:.1e}/{f1_elliptic:.1e}/{f1_eta:.1e} <= 1e-10; "
           f"(f2) closed form vs quadrature rel {worst_f2:.1e} <= 1e-8; "
           f"{time.time() - t0:.1f}s")
