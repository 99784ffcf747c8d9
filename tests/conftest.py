import numpy as np
import pytest

from vvps.modgroup import (I2, S, GroupSpec, _cocycle, entry_arrays, right_coset_reps,
                           slash_kernel, t_power)
from vvps.multiplier import MultiplierSystem, _random_element
from vvps.rep import SpectralSplit, dirichlet_rep, induce, spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import SeriesHandle


def random_element(rng, max_len=12):
    """Random product of the generators S, T, T^{-1}."""
    return _random_element(rng, max_len)


def plain_split(p=1):
    return SpectralSplit(np.eye(p, dtype=complex), tuple([1.0] * p))


def induced_trivial(n: int):
    """The rho of SL2(Z) induced from the trivial rho of Gamma0(n)."""
    group = GroupSpec.gamma0(n)
    return induce(trivial_rep(1, group), right_coset_reps(group))


def legendre_mod5():
    """The Legendre character mod 5, a rho of Gamma0(5)."""
    return dirichlet_rep(5, [0, 1, -1, -1, 1])


def eta_product(powers: dict, order: int) -> list:
    """The integer coefficients of q^0 .. q^order of
    prod_d prod_{n >= 1} (1 - q^{d n})^{r_d}, powers = {d: r_d >= 0}."""
    poly = [1] + [0] * order
    for d, r in powers.items():
        for n in range(d, order + 1, d):
            for _ in range(r):
                for i in range(order, n - 1, -1):  # times (1 - q^n), in place
                    poly[i] -= poly[i - n]
    return poly


def classical_handle(gamma, k=12.0, nu=0, family="trivial_even", height=40.0, rep=None, j=1, M=1):
    """The series over gamma of the classical seed of component j at the
    cusp infinity of width M; rep is the trivial rho of gamma by default."""
    ms = MultiplierSystem(family, k)
    rep = trivial_rep(1, gamma) if rep is None else rep
    seed = ClassicalSeed(nu, j, spectral_split(rep, ms, M), M)
    return SeriesHandle(seed, rep, ms, gamma, height)


def elliptic_handle(gamma, xi=1j, nu=0, k=12.0, family="trivial_even", height=30.0):
    """The scalar series over gamma of the elliptic seed centred at xi."""
    ms = MultiplierSystem(family, k)
    seed = EllipticSeed(nu, xi, np.array([1.0 + 0j]), k)
    return SeriesHandle(seed, trivial_rep(1, gamma), ms, gamma, height)


def syllable_product(syll):
    """Left-to-right product of the syllables that st_syllables returns."""
    g = I2
    for kind, q in syll:
        g = g * (t_power(q) if kind == "T" else S)
    return g


def act(g, tau) -> complex:
    """g.tau for one matrix and one point, from modgroup.slash_kernel."""
    return complex(slash_kernel(entry_arrays([g]), [tau], 0.0)[1][0, 0])


def cocycle(g, tau) -> complex:
    """j(g, tau) = c tau + d for one matrix and one point, from
    modgroup._cocycle."""
    return complex(_cocycle(float(g.c), float(g.d), np.array([tau], dtype=complex))[0])


def random_tau(rng, y_lo=0.2, y_hi=3.0):
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(y_lo, y_hi))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
