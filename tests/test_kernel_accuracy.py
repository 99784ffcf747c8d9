"""The series kernel's terms and sums against two independent references.

- An independent sum: evaluate_many against math.fsum of the terms that
  `slash` gives over every coset of the table.  `slash` forms g.tau and
  evaluates the seed there: beside the elliptic seed's closed form a
  second pipeline; the classical seed's terms are bitwise those of `slash`,
  so there the test pins the sum.  Errors are relative to the sum of
  |terms|, the scale of the rounding of any sum of them.
- Exact terms: j(g, tau)^-k f(g.tau) for every coset, in mpmath at 35
  digits from the coset's integers, against the kernel's terms (the
  per-coset scalar times the prepared vector, which is 1 for trivial
  data), and the exact sum against evaluate_many.

Each gate stands beside the figure it was set from.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from vvps.modgroup import GroupSpec, kernel_workspace, right_coset_reps
from vvps.multiplier import MultiplierSystem
from vvps.rep import induce, spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import SeriesHandle, slash

try:
    import mpmath
except ImportError:  # test_terms_and_sums_against_mpmath skips
    mpmath = None

def classical(gamma, k=12.0, nu=0, family="trivial_even", height=40.0, rep=None, j=1):
    ms = MultiplierSystem(family, k)
    rep = trivial_rep(1, gamma) if rep is None else rep
    seed = ClassicalSeed(nu, j, spectral_split(rep, ms, 1), 1)
    return SeriesHandle(seed, rep, ms, gamma, height)


def elliptic(gamma, xi, nu, k=12.0, family="trivial_even", height=30.0):
    ms = MultiplierSystem(family, k)
    seed = EllipticSeed(nu, xi, np.array([1.0 + 0j]), k)
    return SeriesHandle(seed, trivial_rep(1, gamma), ms, gamma, height)


def induced_gamma0_3():
    """The p = 4 rho induced from the trivial rho of Gamma0(3), component 2."""
    group = GroupSpec.gamma0(3)
    rep = induce(trivial_rep(1, group), right_coset_reps(group))
    return classical(GroupSpec.sl2z(), rep=rep, j=2)


SUM_POINTS = [complex(0.3, 1.1), complex(-0.45, 0.06), complex(0.1, 0.4), complex(1.7, 2.5)]


# worst |evaluate_many - fsum(slash terms)| / sum |slash terms| over the four
# points and every component, measured 7.1e-17, 1.4e-16, 2.2e-16, 1.5e-16 for
# the classical cases, where kernel and slash share their terms bit for bit,
# and 2.7e-16, 1.6e-15, 5.8e-16, 1.3e-15 for the elliptic ones, each gated
# at about 1.5x
@pytest.mark.parametrize("make, gate", [
    (lambda: classical(GroupSpec.sl2z(), nu=1), 1.1e-16),
    (lambda: classical(GroupSpec.gamma0(5), k=16.0, height=60.0), 2.2e-16),
    (induced_gamma0_3, 3.3e-16),
    (lambda: classical(GroupSpec.sl2z(), k=7.3, family="eta_power"), 2.3e-16),
    (lambda: elliptic(GroupSpec.gamma0(2), 1j, 1), 4.0e-16),
    (lambda: elliptic(GroupSpec.gamma0(3), complex(0.2, 0.9), 4, k=16.0), 2.5e-15),
    (lambda: elliptic(GroupSpec.sl2z(), complex(0.1, 1.0), 1, k=7.3, family="eta_power",
                      height=40.0), 9.0e-16),
    (lambda: elliptic(GroupSpec.sl2z(), complex(-0.3, 0.7), 0, k=7.3, family="eta_power",
                      height=40.0), 1.9e-15),
], ids=["classical-sl2z-12", "classical-gamma0(5)-16", "classical-induced-p4",
        "classical-eta-7.3", "elliptic-gamma0(2)-12", "elliptic-gamma0(3)-16",
        "elliptic-eta-7.3-nu1", "elliptic-eta-7.3-nu0"])
def test_sum_matches_an_fsum_of_slashed_terms(make, gate):
    h = make()
    taus = np.array(SUM_POINTS)
    values, _ = h.evaluate_many(taus)
    terms = slash(h.seed, h.cosets.reps, taus, h.ms, h.rep)
    worst = 0.0
    for t in range(len(taus)):
        for l in range(h.p):
            col = terms[t, :, l]
            exact = complex(math.fsum(col.real), math.fsum(col.imag))
            scale = math.fsum(np.abs(col))
            worst = max(worst, abs(values[t, l] - exact) / scale)
    assert worst <= gate


ACC_POINTS = [complex(0.3, 1.1), complex(0.45, 0.06), complex(-0.2, 0.5)]


def _mpc(z: complex):
    return mpmath.mpc(z.real, z.imag)


def _scalars(h, taus):
    """The kernel's per-(point, coset) scalars of a handle, in table order."""
    ws = kernel_workspace(len(taus) * len(h.cosets))
    return h.seed._slashed_many(taus, h._prepared()["consts"], ws)


def _errors(h, exact_of):
    """Per-term relative errors over every point and coset, and each
    point's sum error relative to the sum of |terms|, for a scalar handle
    with trivial data; exact_of(tau, (a, b, c, d)) is the exact term."""
    tab = h.cosets
    ents = tab.ents[tab.order].tolist()
    taus = np.array(ACC_POINTS)
    got = _scalars(h, taus) * h._prepared()["w"][:, 0]
    values, _ = h.evaluate_many(taus)
    per_term, per_sum = [], []
    for t, tau in enumerate(ACC_POINTS):
        with mpmath.workdps(35):
            exact = [exact_of(_mpc(tau), g) for g in ents]
            for z, x in zip(got[t].tolist(), exact):
                per_term.append(float(abs(_mpc(z) - x) / abs(x)))
            total = mpmath.fsum(exact)
            per_sum.append(float(abs(_mpc(complex(values[t, 0])) - total)
                                 / mpmath.fsum(abs(x) for x in exact)))
    return per_term, per_sum


@lru_cache(maxsize=1)
def classical_grid():
    """Gamma_inf(1) tables at H = 25 on SL2(Z), Gamma0(2) and Gamma0(5),
    alpha = nu + 1 in {1, 2, 5}, k = 12: 27 sums."""
    per_term, per_sum = [], []
    for gamma in (GroupSpec.sl2z(), GroupSpec.gamma0(2), GroupSpec.gamma0(5)):
        for nu in (0, 1, 4):
            h = classical(gamma, nu=nu, height=25.0)

            def exact_of(tau, g, alpha=nu + 1):
                a, b, c, d = g
                j = c * tau + d
                return j ** -12 * mpmath.expjpi(2 * alpha * (a * tau + b) / j)

            terms, sums = _errors(h, exact_of)
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
                h = elliptic(gamma, xi, nu, height=15.0)

                def exact_of(tau, g, x=_mpc(xi), nu=nu):
                    a, b, c, d = g
                    big_a = (a - x * c) * tau + (b - x * d)
                    x = mpmath.conj(x)
                    return big_a ** nu * ((a - x * c) * tau + (b - x * d)) ** -(nu + 12)

                terms, sums = _errors(h, exact_of)
                per_term += terms
                per_sum += sums
    return per_term, per_sum


# worst and median per-term error, median sum error, measured (rounded up):
# classical 1.785e-14, 8.29e-16, 7.59e-16; elliptic 4.40e-15, 8.97e-16,
# 3.21e-16 (6.22e-15, 1.04e-15, 3.42e-16 when the kernel formed g.tau)
@pytest.mark.parametrize("grid, gates", [
    (classical_grid, (1.8e-14, 8.3e-16, 7.6e-16)),
    (elliptic_grid, (4.4e-15, 9.0e-16, 3.3e-16)),
], ids=["classical", "elliptic"])
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
    h = elliptic(GroupSpec.gamma0(2), 1j, 140, height=150.0)
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
    # k = 98 at tau = 30 + i: |B| passes 1.4e3 on 429 of the 3,549 cosets,
    # where B^98 leaves the float range, and those entries are taken again by
    # the log route.  Against an fsum of slash's terms: measured 2.2e-16
    h = elliptic(GroupSpec.gamma0(2), 1j, 0, k=98.0, height=60.0)
    taus = np.array([complex(30.0, 1.0)])
    values, _ = h.evaluate_many(taus)
    terms = slash(h.seed, h.cosets.reps, taus, h.ms, h.rep)[0, :, 0]
    exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
    assert abs(values[0, 0] - exact) <= 4e-16 * math.fsum(np.abs(terms))
