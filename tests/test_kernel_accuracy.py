"""The series kernel's terms and sums against two independent references.

- An independent sum: evaluate_many against math.fsum of the terms that
  the series sums, the kernel's own scalars times the prepared vectors, so
  the test pins the summation.  test_classical_terms_match_slash and
  test_elliptic_terms_match_slash compare those terms one by one with the
  terms of `slash`, which forms g.tau and evaluates the seed there: beside
  the seeds' closed forms a second pipeline on the same primitives.
  Errors are relative to the sum of |terms|, the scale of the rounding of
  any sum of them.
- Exact terms: j(g, tau)^-k f(g.tau) for every coset, in mpmath at 35
  digits from the coset's integers, against the kernel's scalar (times
  the classical seed's phase e(alpha a/c), which the series folds into
  each coset's vector), and the exact sum, with the data of each coset
  (the multiplier exactly, rho(g)^* w as the float vector it is), against
  evaluate_many.
- The eta multiplier: evaluate_v over a coset table against v exactly
  from Dedekind's law, the multiplier the exact sums take.

Each gate stands beside the figure it was set from.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import classical_handle, elliptic_handle, induced_trivial
from vvps._quad import block_sum
from vvps.errors import RefusalError
from vvps.modgroup import GroupSpec, enumerate_cosets, kernel_workspace
from vvps.multiplier import MultiplierSystem, evaluate_v
from vvps.rep import fold_rho
from vvps.series import slash

try:
    import mpmath
except ImportError:  # test_terms_and_sums_against_mpmath skips
    mpmath = None

SUM_POINTS = [complex(0.3, 1.1), complex(-0.45, 0.06), complex(0.1, 0.4), complex(1.7, 2.5)]

# the handles of the sum test and of the per-term tests against slash
HANDLES = {
    "classical-sl2z-12": lambda: classical_handle(GroupSpec.sl2z(), nu=1),
    "classical-gamma0(5)-16": lambda: classical_handle(GroupSpec.gamma0(5), k=16.0, height=60.0),
    "classical-induced-p4": lambda: classical_handle(GroupSpec.sl2z(), rep=induced_trivial(3),
                                                     j=2),
    "classical-eta-7.3": lambda: classical_handle(GroupSpec.sl2z(), k=7.3, family="eta_power"),
    "classical-inf2-gamma0(2)": lambda: classical_handle(GroupSpec.gamma0(2), nu=1, M=2),
    "elliptic-gamma0(2)-12": lambda: elliptic_handle(GroupSpec.gamma0(2), 1j, 1),
    "elliptic-gamma0(3)-16": lambda: elliptic_handle(GroupSpec.gamma0(3), complex(0.2, 0.9), 4,
                                                     k=16.0),
    "elliptic-eta-7.3-nu1": lambda: elliptic_handle(GroupSpec.sl2z(), complex(0.1, 1.0), 1,
                                                    k=7.3, family="eta_power", height=40.0),
    "elliptic-eta-7.3-nu0": lambda: elliptic_handle(GroupSpec.sl2z(), complex(-0.3, 0.7), 0,
                                                    k=7.3, family="eta_power", height=40.0),
}


def _kernel_terms(h, taus):
    """The terms the series sums, the kernel's scalars times the prepared
    vectors: shape (points, cosets, p), in table order."""
    return _scalars(h, taus)[:, :, None] * h._prepared()["w"][None]


# worst |evaluate_many - fsum(terms)| / sum |terms| over the four points and
# every component, gated at about 1.5x what a pairwise sum gave (7.1e-17,
# 1.4e-16, 2.2e-16, 1.5e-16 classical; 2.7e-16, 1.6e-15, 5.8e-16, 1.3e-15
# elliptic, against slash's terms).  All read 0 with block_sum's correctly
# rounded sum.  The elliptic cases summed slash's terms until slash took
# j^-k by binary powering and c tau + d split, as the kernel does: then
# 3.2e-16, 1.6e-15, 6.2e-16, 1.3e-15, after 5.2e-16, 6.2e-16, 6.2e-16,
# 1.3e-15, the first above its gate with the kernel's sums unchanged; the
# two pipelines' terms are compared one by one below instead
SUM_GATES = {
    "classical-sl2z-12": 1.1e-16,
    "classical-gamma0(5)-16": 2.2e-16,
    "classical-induced-p4": 3.3e-16,
    "classical-eta-7.3": 2.3e-16,
    "elliptic-gamma0(2)-12": 4.0e-16,
    "elliptic-gamma0(3)-16": 2.5e-15,
    "elliptic-eta-7.3-nu1": 9.0e-16,
    "elliptic-eta-7.3-nu0": 1.9e-15,
}


@pytest.mark.parametrize("case", SUM_GATES)
def test_sum_matches_an_fsum_of_slashed_terms(case):
    h = HANDLES[case]()
    taus = np.array(SUM_POINTS)
    values, _ = h.evaluate_many(taus)
    terms = _kernel_terms(h, taus)
    worst = 0.0
    for t in range(len(taus)):
        for l in range(h.p):
            col = terms[t, :, l]
            exact = complex(math.fsum(col.real), math.fsum(col.imag))
            scale = math.fsum(np.abs(col))
            worst = max(worst, abs(values[t, l] - exact) / scale)
    assert worst <= SUM_GATES[case]


@pytest.mark.parametrize("n", [1, 2, 98, 1195, 67547])
def test_block_sum_is_the_correctly_rounded_sum(n):
    # rows of terms over 30 orders of magnitude, as a series' are, and a row
    # of zeros: each sum is math.fsum's, whatever the order of the terms or
    # the rows beside them
    rng = np.random.default_rng(n)
    mag = 10.0 ** rng.uniform(-30.0, 0.0, (2, 3, n))
    x = rng.standard_normal((3, n)) * mag[0] + 1j * rng.standard_normal((3, n)) * mag[1]
    x[1] = 0.0
    expect = [complex(math.fsum(row.real), math.fsum(row.imag)) for row in x]
    assert block_sum(x.copy(), np.empty_like(x)).tolist() == expect
    shuffled = x[::-1, rng.permutation(n)]
    assert block_sum(shuffled.copy(), np.empty_like(x)).tolist() == expect[::-1]
    assert block_sum(x[2:].copy(), np.empty_like(x[2:])).tolist() == expect[2:]


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_block_sum_refuses_terms_at_the_float_range(bad):
    x = np.ones((2, 5), dtype=complex)
    x[1, 3] = complex(0.0, bad)
    with pytest.raises(RefusalError, match="overflow the float range"):
        block_sum(x, np.empty_like(x))


def _worst_against_slash(h) -> float:
    """The worst |kernel term - slash term| / |slash term| of a handle over
    SUM_POINTS, every coset and every component.  The kernel forms its
    term from each coset's integers, slash forms g.tau and evaluates the
    seed there: two pipelines for one term, which must agree term by term
    and vanish together."""
    taus = np.array(SUM_POINTS)
    got = _kernel_terms(h, taus)
    expect = slash(h.seed, h.cosets.reps, taus, h.ms, h.rep)
    nonzero = expect != 0
    assert np.array_equal(got != 0, nonzero)
    return float((np.abs(got[nonzero] - expect[nonzero]) / np.abs(expect[nonzero])).max())


# measured 6.61e-15, 2.74e-15, 2.37e-15, 2.38e-15 and 4.71e-15 (1.30e-14,
# 3.68e-15, 9.35e-15, 6.89e-15 and 5.80e-15 while slash took j^-k by
# np.power and e(alpha tau) in floats), each gated at about 1.5x.  These
# are mostly slash's errors: its exponential of 2 pi i alpha g.tau costs
# |2 pi alpha g.tau| ulps, which the kernel's steep terms avoid (see the
# mpmath grid below)
CLASSICAL_SLASH_GATES = {
    "sl2z-12": 1.0e-14,
    "gamma0(5)-16": 4.1e-15,
    "induced-p4": 3.6e-15,
    "eta-7.3": 3.6e-15,
    "inf2-gamma0(2)": 7.1e-15,
}


@pytest.mark.parametrize("case", CLASSICAL_SLASH_GATES)
def test_classical_terms_match_slash(case):
    assert _worst_against_slash(HANDLES["classical-" + case]()) <= CLASSICAL_SLASH_GATES[case]


# measured 7.89e-15, 8.82e-15, 1.79e-14 and 1.17e-14, each gated at about
# 1.5x; g.tau costs slash a few ulps of |g.tau - conj(xi)| / |g.tau - xi|
ELLIPTIC_SLASH_GATES = {
    "gamma0(2)-12": 1.2e-14,
    "gamma0(3)-16": 1.3e-14,
    "eta-7.3-nu1": 2.7e-14,
    "eta-7.3-nu0": 1.8e-14,
}


@pytest.mark.parametrize("case", ELLIPTIC_SLASH_GATES)
def test_elliptic_terms_match_slash(case):
    assert _worst_against_slash(HANDLES["elliptic-" + case]()) <= ELLIPTIC_SLASH_GATES[case]


ACC_POINTS = [complex(0.3, 1.1), complex(0.45, 0.06), complex(-0.2, 0.5)]


def _mpc(z: complex):
    return mpmath.mpc(z.real, z.imag)


def _scalars(h, taus):
    """The kernel's per-(point, coset) scalars of a handle, in table order."""
    ws = kernel_workspace(len(taus) * len(h.cosets))
    return h.seed._slashed_many(taus, h._prepared()["consts"], ws)


def _dedekind(d: int, c: int) -> Fraction:
    """s(d, c) = sum over i in 1..c-1 of ((i/c)) ((d i/c)), exactly."""
    total = Fraction(0)
    for i in range(1, c):
        x = Fraction(d * i, c) - (d * i) // c
        if x:
            total += (Fraction(i, c) - Fraction(1, 2)) * (x - Fraction(1, 2))
    return total


def _v_conj(ms, g):
    """conj v(g) of the eta family, exactly from Dedekind's law, for the
    (a, b, c, d) of a table of Gamma_inf(M), where c >= 0 (1 for the
    trivial family)."""
    if ms.family == "trivial_even":
        return 1
    a, b, c, d = g
    pk = mpmath.pi * mpmath.mpf(ms.k)
    if c == 0:  # (1 b; 0 1) = T^b
        return mpmath.expj(-pk * b / 6)
    s = _dedekind(d, c)
    return mpmath.expj(-pk * (a + d - 12 * c * mpmath.mpf(s.numerator) / s.denominator)
                       / (6 * c) + pk / 2)


# v(g) of the eta family against _v_conj over the Gamma_inf(1) tables of
# Gamma0(3) at H = 90 (1,502 cosets, the twisted-eval shape) and SL2(Z) at
# H = 25 (470): worst and median |v - exact|, measured 2.05e-15, 6.89e-17 at
# k = 7.3, 1.22e-16, 1.22e-16 at k = 6, 2.45e-15, 8.24e-17 at k = 12.5, and
# at most 1.07e-15 worst and 9.5e-17 median on SL2(Z), each gated at
# about 3x.  With phi rounded at its full size, pi k |n| / 6, the Gamma0(3)
# cases read 4.37e-14, 3.43e-14 and 7.35e-14 worst
ETA_GATES = [
    (GroupSpec.gamma0(3), 90.0, 7.3, (6.2e-15, 2.1e-16)),
    (GroupSpec.gamma0(3), 90.0, 6.0, (3.7e-16, 3.7e-16)),
    (GroupSpec.gamma0(3), 90.0, 12.5, (7.4e-15, 2.5e-16)),
    *((GroupSpec.sl2z(), 25.0, k, (3.2e-15, 2.9e-16)) for k in (0.5, 2.05, 6.0, 7.3, 12.5)),
]


@pytest.mark.parametrize("group, height, k, gates", ETA_GATES,
                         ids=[f"{g}-H{h:g}-k{k:g}" for g, h, k, _ in ETA_GATES])
def test_eta_multiplier_against_exact(group, height, k, gates):
    pytest.importorskip("mpmath")
    ms = MultiplierSystem("eta_power", k)
    ents = enumerate_cosets(GroupSpec.gamma_infinity(1), group, height).ents
    got = evaluate_v(ms, ents).conj()
    with mpmath.workdps(35):
        err = [float(abs(_mpc(z) - _v_conj(ms, g))) for z, g in zip(got.tolist(), ents.tolist())]
    measured = (max(err), float(np.median(err)))
    assert all(m <= g for m, g in zip(measured, gates)), measured


def _errors(h, exact_of, points):
    """Per-term relative errors over every point and coset of the scalars
    j(g, tau)^-k f(g.tau) (the classical seed's times its phase e(alpha
    a/c)), exact_of(tau, (a, b, c, d)) the exact one, and each point's and
    component's sum error relative to the sum of |terms|, the exact terms
    taking the multiplier exactly and rho(g)^* w as the float vector it is."""
    tab = h.cosets
    ents = tab.ents[tab.order]
    taus = np.array(points)
    got = _scalars(h, taus).copy()
    runs = h.seed._phase_runs(ents)
    if runs is not None:
        got *= np.exp(1j * np.repeat(*runs))
    data = fold_rho(h.rep, h.seed.vector, ents)
    values, _ = h.evaluate_many(taus)
    per_term, per_sum = [], []
    with mpmath.workdps(35):
        v_conj = [_v_conj(h.ms, g) for g in ents.tolist()]
        for t, tau in enumerate(points):
            exact = [exact_of(_mpc(tau), g) for g in ents.tolist()]
            for z, x in zip(got[t].tolist(), exact):
                per_term.append(float(abs(_mpc(z) - x) / abs(x)))
            for l in range(h.p):
                terms = [x * v * _mpc(complex(w)) for x, v, w in zip(exact, v_conj, data[:, l])]
                per_sum.append(float(abs(_mpc(complex(values[t, l])) - mpmath.fsum(terms))
                                     / mpmath.fsum(abs(x) for x in terms)))
    return per_term, per_sum


def _classical_exact(h):
    """The exact term j^-k e(alpha g.tau) of a classical handle, with alpha
    = (nu + m_j) / M as a fraction."""
    seed = h.seed
    alpha = (seed.nu + Fraction(seed.m_j).limit_denominator(360)) / seed.M
    alpha = mpmath.mpf(alpha.numerator) / alpha.denominator
    k = mpmath.mpf(h.k)

    def exact_of(tau, g):
        a, b, c, d = g
        j = c * tau + d
        return j ** -k * mpmath.expjpi(2 * alpha * (a * tau + b) / j)
    return exact_of


@lru_cache(maxsize=1)
def classical_grid():
    """Gamma_inf(1) tables at H = 25 on SL2(Z), Gamma0(2) and Gamma0(5),
    alpha = nu + 1 in {1, 2, 5}, k = 12; the eta family at k = 7.3 on
    SL2(Z) and Gamma0(3) (nu = 1), rho induced from the trivial rho of
    Gamma0(3) (p = 4) and a Gamma_inf(2) table on Gamma0(2), all at H = 25;
    at ACC_POINTS and -0.3 + 0.06i: 52 scalar sums and 12 more of the
    induced rho's components."""
    points = ACC_POINTS + [complex(-0.3, 0.06)]
    handles = [classical_handle(gamma, nu=nu, height=25.0)
               for gamma in (GroupSpec.sl2z(), GroupSpec.gamma0(2), GroupSpec.gamma0(5))
               for nu in (0, 1, 4)]
    handles += [classical_handle(GroupSpec.sl2z(), k=7.3, family="eta_power", height=25.0),
                classical_handle(GroupSpec.gamma0(3), k=7.3, nu=1, family="eta_power",
                                 height=25.0),
                classical_handle(GroupSpec.sl2z(), rep=induced_trivial(3), j=2, height=25.0),
                classical_handle(GroupSpec.gamma0(2), nu=1, height=25.0, M=2)]
    per_term, per_sum = [], []
    for h in handles:
        terms, sums = _errors(h, _classical_exact(h), points)
        per_term += terms
        per_sum += sums
    return per_term, per_sum


@lru_cache(maxsize=1)
def elliptic_grid():
    """<-I> tables at H = 15 on Gamma0(2) and Gamma0(3), four xi, nu in
    {0, 1, 2, 4}, k = 12: 96 sums.  The exact term is A^nu B^-(nu + k) with
    A = (a - xi c) tau + (b - xi d) and B likewise with conj(xi)."""
    per_term, per_sum = [], []
    for gamma in (GroupSpec.gamma0(2), GroupSpec.gamma0(3)):
        for xi in (1j, 1.05j, complex(0.05, 1.0), complex(0.2, 0.9)):
            for nu in (0, 1, 2, 4):
                h = elliptic_handle(gamma, xi, nu, height=15.0)

                def exact_of(tau, g, x=_mpc(xi), nu=nu):
                    a, b, c, d = g
                    big_a = (a - x * c) * tau + (b - x * d)
                    x = mpmath.conj(x)
                    return big_a ** nu * ((a - x * c) * tau + (b - x * d)) ** -(nu + 12)

                terms, sums = _errors(h, exact_of, ACC_POINTS)
                per_term += terms
                per_sum += sums
    return per_term, per_sum


def classical_high_weight(k):
    """The shape of the digest jobs `pair classical closed form at
    Gamma(171)` and `past Gamma(171)`: Gamma0(2), H = 20, at 0.3 + 1.1i
    and -0.2 + 0.5i, 196 terms and 2 sums."""
    h = classical_handle(GroupSpec.gamma0(2), k=k, height=20.0)
    return _errors(h, _classical_exact(h), [complex(0.3, 1.1), complex(-0.2, 0.5)])


# worst and median per-term error, median sum error, measured (rounded up):
# classical 5.09e-15, 5.87e-16, 1.94e-16 (1.785e-14, 8.29e-16, 7.59e-16 on
# the parent grid when the kernel formed g.tau; 1.93e-15 worst without the
# eta family, whose log route for j^-7.3 holds the worst term); elliptic
# 4.40e-15, 8.97e-16, 3.21e-16 (6.22e-15, 1.04e-15, 3.42e-16 when the
# kernel formed g.tau).  At k = 172 and 180, 2.19e-14, 7.00e-15, 4.07e-17
# and 2.29e-14, 7.25e-15, 2.01e-17, gated at about 1.5x: z = c tau + d
# carries one rounding, which z^k multiplies by k, so about 1e-14 is the
# floor (9.22e-14, 2.88e-14 and 1.05e-13, 2.98e-14 for the terms when j^-k
# took the log route, whose error grows like |k log j| ulps)
@pytest.mark.parametrize("grid, gates", [
    (classical_grid, (5.1e-15, 5.9e-16, 2.0e-16)),
    (elliptic_grid, (4.4e-15, 9.0e-16, 3.3e-16)),
    (lambda: classical_high_weight(172.0), (3.3e-14, 1.1e-14, 6.1e-17)),
    (lambda: classical_high_weight(180.0), (3.4e-14, 1.1e-14, 3.0e-17)),
], ids=["classical", "elliptic", "classical-k172", "classical-k180"])
def test_terms_and_sums_against_mpmath(grid, gates):
    pytest.importorskip("mpmath")
    per_term, per_sum = grid()
    measured = (max(per_term), float(np.median(per_term)), float(np.median(per_sum)))
    assert all(m <= g for m, g in zip(measured, gates)), measured


def test_large_nu_keeps_the_far_terms():
    # nu = 140 at H = 150: |A|^nu passes the float range, so the kernel takes
    # (A/B)^nu B^-k there.  The outermost tenth of the cosets (the tail proxy's)
    # against mpmath: worst 8.6e-14; terms that g.tau formed flushed one of
    # them to 0 and the tail proxy read 0.6% low
    pytest.importorskip("mpmath")
    h = elliptic_handle(GroupSpec.gamma0(2), 1j, 140, height=150.0)
    tau = complex(0.3, 1.1)
    got = _scalars(h, np.array([tau]))[0]
    n_tail = h._prepared()["n_tail"]
    worst = 0.0
    with mpmath.workdps(30):
        t, xi = _mpc(tau), mpmath.mpc(0, 1)
        for z, (a, b, c, d) in zip(got[-n_tail:].tolist(),
                                   h.cosets.ents[h.cosets.order][-n_tail:].tolist()):
            big_a, big_b = ((a - x * c) * t + (b - x * d) for x in (xi, mpmath.conj(xi)))
            exact = big_a ** 140 * big_b ** -152
            worst = max(worst, float(abs(_mpc(z) - exact) / abs(exact)))
    assert worst <= 1e-13


def test_powers_past_the_float_range_are_recomputed():
    # k = 98 at tau = 30 + i, where the 98th power leaves the float range
    # and those entries are taken again by the log route.  Elliptic: |B|
    # passes 1.4e3 on 429 of the 3,549 cosets.  Classical: j^98 is not
    # finite on 48 of the 883 cosets.  Against an fsum of slash's terms:
    # measured 2.2e-16 and 0.0
    taus = np.array([complex(30.0, 1.0)])
    for h in (elliptic_handle(GroupSpec.gamma0(2), 1j, 0, k=98.0, height=60.0),
              classical_handle(GroupSpec.gamma0(2), k=98.0, height=60.0)):
        values, _ = h.evaluate_many(taus)
        terms = slash(h.seed, h.cosets.reps, taus, h.ms, h.rep)[0, :, 0]
        exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(values[0, 0] - exact) <= 4e-16 * math.fsum(np.abs(terms)), type(h.seed)
