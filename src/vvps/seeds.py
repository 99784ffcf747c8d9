"""Seed functions for the two Poincare families.

A classical seed is an exponential at the cusp at infinity attached to one
spectral exponent; an elliptic seed is a rational expression in
(tau - xi)/(tau - conj(xi)) attached to a point xi of the half-plane.  Both
evaluate to vectors in C^p and factor as scalar(tau) * fixed_vector, which
the series module exploits; the two share that evaluation.  Each seed
carries its stabiliser `lam`, the group its series sums over the cosets
of: GammaInfinity(M) for a classical seed of width M, <-I> for an
elliptic seed.  The invariance check of a seed under its stabiliser is
series.check_seed_invariance, beside the slash action it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._quad import gamma_over_power, log_beta
from .errors import DomainError
from .modgroup import GroupSpec, _as_complex, principal_power
from .rep import SpectralSplit

__all__ = ["ClassicalSeed", "EllipticSeed", "SeedFn", "seed_strip_integral"]


class _ScalarTimesVector:
    """Evaluation of a seed scalar_many(tau) * vector.

    scalar_many(taus, out=None, scratch=None) writes into out, which may be
    taus itself, and uses scratch, one complex and two float arrays shaped
    like taus, for its intermediates; without them it allocates."""

    def eval_many(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=complex)
        return self.scalar_many(taus)[..., None] * self.vector

    def eval(self, tau) -> np.ndarray:
        return self.eval_many(np.array([_as_complex(tau)]))[0]


@dataclass(frozen=True, eq=False)
class ClassicalSeed(_ScalarTimesVector):
    """tau -> e^{2 pi i (nu + m_j) tau / M} U^{-1} e_j (j is 1-based)."""

    nu: int
    j: int
    split: SpectralSplit
    M: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if not 1 <= self.j <= self.split.p:
            raise ValueError(f"index j={self.j} out of range 1..{self.split.p}")
        if self.M < 1:
            raise ValueError("M must be positive")

    @property
    def p(self) -> int:
        return self.split.p

    @property
    def lam(self) -> GroupSpec:
        return GroupSpec.gamma_infinity(self.M)

    @property
    def m_j(self) -> float:
        return self.split.m[self.j - 1]

    @property
    def alpha(self) -> float:
        """Frequency (nu + m_j) / M of the exponential."""
        return (self.nu + self.m_j) / self.M

    @property
    def vector(self) -> np.ndarray:
        """U^{-1} e_j, the j-th column of U*."""
        return self.split.U[self.j - 1].conj()

    def scalar_many(self, taus: np.ndarray, out=None, scratch=None) -> np.ndarray:
        return np.exp(np.multiply(2j * math.pi * self.alpha, taus, out=out), out=out)


@dataclass(frozen=True, eq=False)
class EllipticSeed(_ScalarTimesVector):
    """tau -> (tau - xi)^nu / (tau - conj(xi))^{nu + k} * u."""

    nu: int
    xi: complex
    u: np.ndarray
    k: float

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if not complex(self.xi).imag > 0:
            raise DomainError("xi must lie in the upper half-plane")
        uu = np.asarray(self.u, dtype=complex)
        if uu.ndim != 1 or not np.any(uu != 0):
            raise ValueError("u must be a nonzero vector")
        object.__setattr__(self, "xi", complex(self.xi))
        object.__setattr__(self, "u", uu)

    @property
    def p(self) -> int:
        return len(self.u)

    @property
    def lam(self) -> GroupSpec:
        return GroupSpec.plus_minus_identity()

    @property
    def vector(self) -> np.ndarray:
        return self.u

    def scalar_many(self, taus: np.ndarray, out=None, scratch=None) -> np.ndarray:
        # Im(tau - conj(xi)) > 0 always, principal branch; the denominator
        # comes first, as out may be taus.  At integer nu + k the power is
        # binary powering in place, and mod and arg keep a copy of den for
        # the entries that leave the float range
        tmp, mod, arg = (None,) * 3 if scratch is None else scratch
        den = np.subtract(taus, self.xi.conjugate(), out=tmp)
        den = principal_power(den, -(self.nu + self.k), den, (mod, arg))
        num = np.subtract(taus, self.xi, out=out)
        num **= self.nu
        num *= den
        return num


SeedFn = Union[ClassicalSeed, EllipticSeed]


def seed_strip_integral(seed: SeedFn, k: float) -> float:
    """The weighted L^1 mass of the seed over a fundamental domain of its
    stabiliser, integral of ||f(tau)|| Im(tau)^{k/2} dv.

    Classical seeds have the closed form M Gamma(s) / alpha^s with
    s = k/2 - 1 and alpha = 2 pi (nu + m_j) / M (_quad.gamma_over_power);
    OverflowError when the value itself exceeds the float range.  For
    elliptic seeds the proof-level upper bound is the product of two
    one-dimensional integrals, both Beta values in closed form, scaled by
    ||u|| / Im(xi)^{k/2}.
    """
    if k <= 2:
        raise DomainError("the strip integral diverges for k <= 2")
    if isinstance(seed, ClassicalSeed):
        return gamma_over_power(seed.M, k / 2.0 - 1.0,
                                2.0 * math.pi * (seed.nu + seed.m_j) / seed.M)
    if isinstance(seed, EllipticSeed):
        # int_R dx/(x^2+1)^{k/2} = B(1/2, (k-1)/2)
        log_ix = log_beta(0.5, (k - 1.0) / 2.0)
        # int_0^inf y^{k/2-2} (y+1)^{1-k} dy = B(k/2-1, k/2)
        log_iy = log_beta(k / 2.0 - 1.0, k / 2.0)
        unorm = float(np.linalg.norm(seed.u))
        return unorm / complex(seed.xi).imag ** (k / 2.0) * math.exp(log_ix + log_iy)
    raise TypeError(f"not a seed: {seed!r}")

