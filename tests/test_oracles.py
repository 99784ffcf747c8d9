"""Exact oracles from integer q-expansions: the Eisenstein series and the
one-dimensional cusp spaces.

Summed over Gamma_inf(1)\\SL2(Z), j(g, tau)^-k is the Eisenstein series
E_k = 1 + c_k sum sigma_{k-1}(n) q^n, an absolute value at every tau.
Where S_k(Gamma) is one-dimensional, the classical Poincare series with
nu = 0 is a multiple of one known form, so the ratios b_n / b_0 of its
Fourier coefficients are that form's integer coefficients.  Each gate is
about 3x the worst error measured at the stated height and line.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import classical_handle, eta_product
from vvps.analysis import fourier_coefficients
from vvps.modgroup import GroupSpec, enumerate_cosets, slash_kernel

GAMMA_INF1 = GroupSpec.gamma_infinity(1)


def sigma(n: int, s: int) -> int:
    return sum(d ** s for d in range(1, n + 1) if n % d == 0)


def e4_delta(order: int) -> list:
    """E_4 Delta / q, spanning S_16(SL2(Z)): E_4 times prod (1 - q^n)^24."""
    e4 = [1] + [240 * sigma(n, 3) for n in range(1, order + 1)]
    delta = eta_product({1: 24}, order)
    return [sum(e4[i] * delta[n - i] for i in range(n + 1)) for n in range(order + 1)]


@lru_cache(maxsize=1)
def eisenstein_table():
    return enumerate_cosets(GAMMA_INF1, GroupSpec.sl2z(), 400.0)


# measured worst relative errors over both points at H = 400 (120,036
# cosets): 1.74e-8 (E_4), 8.96e-14 (E_6), 1.37e-15 (E_8)
@pytest.mark.parametrize("k, c_k, gate", [(4, 240, 5e-8), (6, -504, 2.7e-13),
                                          (8, 480, 4.2e-15)])
def test_eisenstein_series(k, c_k, gate):
    tab = eisenstein_table()
    taus = np.array([complex(0.3, 1.1), complex(0.1, 0.4)])
    jmk, _ = slash_kernel(tab.ents, taus, float(k))
    for tau, terms in zip(taus, jmk):
        got = complex(math.fsum(terms.real), math.fsum(terms.imag))
        q = cmath.exp(2j * math.pi * tau)  # |q| <= 0.081: 80 terms reach rounding
        exact = 1 + c_k * sum(sigma(n, k - 1) * q ** n for n in range(1, 80))
        assert abs(got - exact) <= gate * abs(exact), (tau, got, exact)


# b_1 / b_0, b_2 / b_0, b_3 / b_0 at H = 300 on the line y0 = 0.5 with 64
# nodes; measured worst relative errors 6.6e-16 (S_16) and 1.7e-12 (S_8)
@pytest.mark.parametrize("gamma, k, form, ratios, gate", [
    (GroupSpec.sl2z(), 16, e4_delta(3), (216, -3348, 13888), 2e-15),
    (GroupSpec.gamma0(2), 8, eta_product({1: 8, 2: 8}, 3), (-8, 12, 64), 5.2e-12),
], ids=["S16-SL2Z-E4-Delta", "S8-Gamma0(2)-eta-eta2"])
def test_one_dimensional_cusp_space(gamma, k, form, ratios, gate):
    assert tuple(form[1:]) == ratios and form[0] == 1
    h = classical_handle(gamma, k=float(k), height=300.0)
    tab = fourier_coefficients(h, h.seed.split, 1, [0, 1, 2, 3], 0.5, 64)
    b0 = tab.coeff(1, 0)
    for n, exact in enumerate(ratios, start=1):
        got = tab.coeff(1, n) / b0
        assert abs(got - exact) <= gate * abs(exact), (n, got, exact)
