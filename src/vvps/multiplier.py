"""Unitary multiplier systems of real weight.

Two families are supported: the trivial system for even integer weight,
and the family derived from powers of the eta function, which realises
every real weight.  Its values come in closed form from Dedekind's
transformation law of eta, with the Dedekind sum computed in integers by
reciprocity and the integer part of the weight entering the phase
exactly; the phase is exponentiated once, so the result is exactly
unimodular.  The formula works on int64 entry arrays, so `evaluate_v`
serves a whole coset table at once as well as one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusalError
from .modgroup import (I2, S, IntMatrix2, _cocycle, _column_runs, entry_arrays,
                       principal_power, slash_kernel, t_power)

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
        """Cusp parameter in [0, 1) with v(T) = e^{2 pi i kappa}: (k mod 12)/12,
        whose one rounding is the division's.  A tiny negative k, whose
        k mod 12 rounds up to 12, reads 0, the nearest point of R/Z."""
        if self.family == "trivial_even":
            return 0.0
        r = self.k % 12.0
        return r / 12.0 if r < 12.0 else 0.0


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
    raised to the 2k-th power, gives phi = pi k n / 6 with the integer
    n = (a + d - 12 c s(d, c)) / c - 3: 12 c s(d, c) = d + a mod c
    (Rademacher and Grosswald, Dedekind Sums, 1972, ch. 3), as a d = 1 mod c.
    For c = 0, g = a T^{ab} with a = +-1, and v(T^q) = e^{i pi k q / 6}:
    n = ab.  Negating an element with c > 0 adds 6 to n, negating T^q
    takes 6 from it (v times e^{+-i pi k}).

    So v depends on the integer part K of k mod 12 alone, which enters as
    K n mod 12, exact in int64 and centred on 0; only (k - K) n is rounded,
    so phi errs by ulps of (k - K)|n|, not of k|n|.  s(d, c) depends on
    d mod c = a^-1 mod c only, and is taken once per run of rows with one
    left column (a, c) (modgroup._column_runs).
    """
    a, b, c, d = ents.T
    neg = c < 0
    a, c, d = np.where(neg, -a, a), np.abs(c), np.where(neg, -d, d)
    top = c > 0
    cs = np.where(top, c, 1)
    starts = _column_runs(ents)
    dedekind = np.repeat(_dedekind12(np.where(top, d, 0)[starts], cs[starts]),
                         np.diff(starts, append=len(cs)))
    n = np.where(top, (a + d - dedekind) // cs - 3 + 6 * neg, a * b - 6 * (d < 0))
    whole = math.floor(ms.k)
    exact = n * (whole % 12) % 12
    exact -= 12 * (exact > 6)
    return (exact + (ms.k - whole) * n) / 6.0 * math.pi


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
    scale independently of |j|^k.  Each factor comes over the arrays of all
    samples, by the primitives the series use: v by evaluate_v, j by
    _cocycle, g2.t by slash_kernel and j^k by principal_power.
    """
    rng = np.random.default_rng(rng_seed)
    g1s, g2s, taus = [], [], []
    for _ in range(samples):
        g1s.append(_random_element(rng))
        g2s.append(_random_element(rng))
        taus.append(complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0)))
    taus = np.array(taus, dtype=complex)
    e12, e1, e2 = (entry_arrays(gs) for gs in ([a * b for a, b in zip(g1s, g2s)], g1s, g2s))

    def mu(ents, points):  # v(g) j(g, t)^k, matrix i at point i
        jj = _cocycle(ents[:, 2].astype(float), ents[:, 3].astype(float), points)
        return evaluate_v(ms, ents) * principal_power(jj, ms.k)

    moved = np.diagonal(slash_kernel(e2, taus, ms.k)[1])  # g2_i . t_i
    ratio = mu(e12, taus) / (mu(e1, moved) * mu(e2, taus))
    minus_one = principal_power(np.array([-1.0 + 0j]), -ms.k)[0]
    return float(max(abs(evaluate_v(ms, -I2) - minus_one),
                     np.max(np.abs(ratio - 1.0), initial=0.0)))
