"""Unitary multiplier systems of real weight.

Two families are supported: the trivial system for even integer weight,
and the family derived from powers of the eta function, which realises
every real weight.  Its values come in closed form from Dedekind's
transformation law of eta, with the Dedekind sum computed in integers by
reciprocity; the phase is exponentiated once, so the result is exactly
unimodular.  The formula works on int64 entry arrays, so `evaluate_v`
serves a whole coset table at once as well as one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusalError
from .modgroup import (I2, S, IntMatrix2, _column_runs, cocycle_j, mobius_act, real_power,
                       t_power)

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


# Entries at or beyond this bound are refused: the Dedekind recursion forms
# c * 12 c s(d, c), of size up to c^3, which must stay inside int64.
_MAX_ENTRY = 1 << 20


def _dedekind12(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The integers 12 c s(d, c) for int64 arrays with c > 0 and
    gcd(d, c) = 1, s the Dedekind sum, by reciprocity
    12 c d (s(d, c) + s(c, d)) = d^2 + c^2 + 1 - 3 c d.

    The Euclidean steps (x, y) -> (y mod x, x) run forward in lockstep over
    all entries until every x is 0 (where s = 0); the sums are then
    assembled backward, (x^2 + y^2 + 1 - 3 x y - y val) // x per step.
    Each step's y is the previous step's x, so only the x are kept.
    """
    xs = [c, d % c]
    while xs[-1].any():
        y, x = xs[-2], xs[-1]
        xs.append(np.remainder(y, x, out=np.zeros_like(x), where=x != 0))
    val = np.zeros_like(c)
    for y, x in zip(xs[-3::-1], xs[-2:0:-1]):
        num = x * (x - 3 * y)
        num += y * (y - val)
        num += 1
        val = np.floor_divide(num, x, out=np.zeros_like(x), where=x != 0)
    return val


def _eta_phase(ms: MultiplierSystem, ents: np.ndarray) -> np.ndarray:
    """Phases phi with v(g) = e^{i phi}, one per row (a, b, c, d) of ents.

    For c > 0, Dedekind's transformation law
    eta(g.t) = exp(pi i ((a + d)/(12 c) - s(d, c))) (-i (c t + d))^{1/2} eta(t),
    raised to the 2k-th power, gives
    phi = pi k (a + d - 12 c s(d, c)) / (6 c) - pi k / 2.  For c = 0,
    g = a T^{ab} with a = +-1, and v(T^q) = e^{i pi k q / 6}.  Negating an
    element with c > 0, or T^q, multiplies v by e^{-i pi k}.

    s(d, c) depends on d mod c = a^-1 mod c only, and is taken once per
    run of rows with one left column (a, c) (modgroup._column_runs).
    """
    pk = math.pi * ms.k
    a, b, c, d = ents.T
    neg = c < 0
    a, c, d = np.where(neg, -a, a), np.abs(c), np.where(neg, -d, d)
    top = c > 0
    cs = np.where(top, c, 1)
    ds = np.where(top, d, 0)
    starts = _column_runs(ents)
    dedekind = np.repeat(_dedekind12(ds[starts], cs[starts]), np.diff(starts, append=len(cs)))
    lower = pk * (a + ds - dedekind) / (6.0 * cs) - pk / 2.0 + np.where(neg, pk, 0.0)
    upper = pk * (a * b) / 6.0 - np.where(d < 0, pk, 0.0)
    return np.where(top, lower, upper)


def evaluate_v(ms: MultiplierSystem, g):
    """Values v(g) on the unit circle: a complex for one IntMatrix2, an
    array with one value per row (a, b, c, d) of an integer array of shape
    (n, 4).  One body serves both.

    The eta family exponentiates its phase once per row; entries of
    absolute value 2^20 or more are refused rather than left to wrap in
    int64 arithmetic.
    """
    one = isinstance(g, IntMatrix2)
    ents = np.asarray(g.entries() if one else g).reshape(-1, 4)
    if ms.family == "trivial_even":
        vals = np.ones(len(ents), dtype=complex)
    elif np.max(np.abs(ents), initial=0) >= _MAX_ENTRY:
        raise RefusalError(f"multiplier values need matrix entries below 2^20, got "
                           f"{np.max(np.abs(ents))}")
    else:
        vals = np.exp(1j * _eta_phase(ms, ents.astype(np.int64)))
    return complex(vals[0]) if one else vals


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
