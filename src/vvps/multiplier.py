"""Unitary multiplier systems of real weight.

Two families are supported: the trivial system for even integer weight,
and the family derived from powers of the eta function, which realises
every real weight.  Its values come in closed form from Dedekind's
transformation law of eta, with the Dedekind sum computed in integers by
reciprocity; the phase is exponentiated once, so the result is exactly
unimodular.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .modgroup import I2, S, IntMatrix2, cocycle_j, mobius_act, real_power, t_power

__all__ = ["MultiplierSystem", "evaluate_v", "check_consistency"]


@dataclass(frozen=True)
class MultiplierSystem:
    """A unitary multiplier system v of weight k on SL2(Z).

    family "trivial_even" is v = 1 and requires an even integer weight;
    family "eta_power" takes v from the 2k-th power of the eta multiplier
    and works for any real k.  In both cases v(-I) = (-1)^{-k} with the
    principal-branch convention, and v(T) = e^{2 pi i kappa}.
    """

    family: str
    k: float

    def __post_init__(self):
        if self.family not in ("trivial_even", "eta_power"):
            raise ValueError(f"unknown multiplier family {self.family!r}")
        if self.family == "trivial_even":
            half = self.k / 2.0
            if half != round(half):
                raise ValueError("trivial_even needs an even integer weight")

    @property
    def kappa(self) -> float:
        """Cusp parameter in [0, 1) with v(T) = e^{2 pi i kappa}."""
        if self.family == "trivial_even":
            return 0.0
        return (self.k / 12.0) % 1.0


def _dedekind12(d: int, c: int) -> int:
    """The integer 12 c s(d, c) for c > 0 and gcd(d, c) = 1, with s the
    Dedekind sum, by reciprocity:
    12 c d (s(d, c) + s(c, d)) = d^2 + c^2 + 1 - 3 c d."""
    d %= c
    if d == 0:
        return 0
    return (d * d + c * c + 1 - 3 * c * d - c * _dedekind12(c, d)) // d


def _eta_phase(ms: MultiplierSystem, g: IntMatrix2) -> float:
    """Phase phi with v(g) = e^{i phi}.

    For c > 0, Dedekind's transformation law
    eta(g.t) = exp(pi i ((a + d)/(12 c) - s(d, c))) (-i (c t + d))^{1/2} eta(t),
    raised to the 2k-th power, gives
    phi = pi k (a + d - 12 c s(d, c)) / (6 c) - pi k / 2.  For c = 0,
    g = a T^{ab} with a = +-1, and v(T^q) = e^{i pi k q / 6}.  Negating an
    element with c > 0, or T^q, multiplies v by e^{-i pi k}.
    """
    k = ms.k
    a, b, c, d = g.a, g.b, g.c, g.d
    if c == 0:
        return math.pi * k * (a * b) / 6.0 - (math.pi * k if d < 0 else 0.0)
    shift = 0.0
    if c < 0:
        a, c, d = -a, -c, -d
        shift = math.pi * k
    return (math.pi * k * (a + d - _dedekind12(d, c)) / (6.0 * c)
            - math.pi * k / 2.0 + shift)


def evaluate_v(ms: MultiplierSystem, g: IntMatrix2) -> complex:
    """Value v(g) on the unit circle."""
    if ms.family == "trivial_even":
        return 1.0 + 0.0j
    return cmath.exp(1j * _eta_phase(ms, g))


def _random_element(rng, max_len: int = 10) -> IntMatrix2:
    g = I2
    gens = (S, t_power(1), t_power(-1))
    for _ in range(int(rng.integers(1, max_len + 1))):
        g = g * gens[int(rng.integers(0, 3))]
    return g


def check_consistency(ms: MultiplierSystem, samples: int, rng_seed: int = 0) -> float:
    """Max residual of the automorphy-factor identity and the v(-I) value.

    The identity mu(g1 g2, t) = mu(g1, g2.t) mu(g2, t) is checked on random
    (g1, g2, t) triples as |ratio - 1|, which keeps the residual on the unit
    scale independently of |j|^k.
    """
    rng = np.random.default_rng(rng_seed)
    worst = abs(evaluate_v(ms, -I2) - real_power(-1.0, -ms.k))
    for _ in range(samples):
        g1 = _random_element(rng)
        g2 = _random_element(rng)
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0))
        num = evaluate_v(ms, g1 * g2) * real_power(cocycle_j(g1 * g2, tau), ms.k)
        den = (evaluate_v(ms, g1) * real_power(cocycle_j(g1, mobius_act(g2, tau)), ms.k)
               * evaluate_v(ms, g2) * real_power(cocycle_j(g2, tau), ms.k))
        worst = max(worst, abs(num / den - 1.0))
    return worst
