import numpy as np
import pytest

from vvps.modgroup import I2, S, _cocycle, entry_arrays, slash_kernel, t_power


def random_element(rng, max_len=12):
    """Random product of the generators S, T, T^{-1}."""
    g = I2
    gens = (S, t_power(1), t_power(-1))
    for _ in range(int(rng.integers(1, max_len + 1))):
        g = g * gens[int(rng.integers(0, 3))]
    return g


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
