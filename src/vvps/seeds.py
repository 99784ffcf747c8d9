"""Seed functions for the two Poincare families.

A classical seed is an exponential at the cusp at infinity attached to one
spectral exponent; an elliptic seed is a rational expression in
(tau - xi)/(tau - conj(xi)) attached to a point xi of the half-plane.  Both
evaluate to vectors in C^p and factor as scalar(tau) * fixed_vector, which
the series module exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .modgroup import GroupSpec, I2, _as_complex, principal_power, t_power
from .multiplier import MultiplierSystem
from .rep import RepSpec, SpectralSplit

__all__ = ["ClassicalSeed", "EllipticSeed", "SeedFn",
           "check_seed_invariance", "seed_strip_integral",
           "seed_to_json", "seed_from_json"]


@dataclass(frozen=True, eq=False)
class ClassicalSeed:
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

    def scalar_many(self, taus: np.ndarray) -> np.ndarray:
        return np.exp(2j * math.pi * self.alpha * taus)

    def eval_many(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=complex)
        return self.scalar_many(taus)[..., None] * self.vector

    def eval(self, tau) -> np.ndarray:
        return self.eval_many(np.array([_as_complex(tau)]))[0]


@dataclass(frozen=True, eq=False)
class EllipticSeed:
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
    def vector(self) -> np.ndarray:
        return self.u

    def scalar_many(self, taus: np.ndarray) -> np.ndarray:
        w1 = taus - self.xi
        w2 = taus - self.xi.conjugate()  # Im > 0 always, principal branch
        return w1 ** self.nu * principal_power(w2, -(self.nu + self.k))

    def eval_many(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=complex)
        return self.scalar_many(taus)[..., None] * self.vector

    def eval(self, tau) -> np.ndarray:
        return self.eval_many(np.array([_as_complex(tau)]))[0]


SeedFn = Union[ClassicalSeed, EllipticSeed]


def check_seed_invariance(seed: SeedFn, lam: GroupSpec, rep: RepSpec,
                          ms: MultiplierSystem, samples: int = 32,
                          rng_seed: int = 0) -> float:
    """Max residual of the stabiliser invariance of the seed under the
    weight-k slash action twisted by rho, over random group elements and
    sample points."""
    from .series import slash_k_rho  # local import avoids a module cycle

    rng = np.random.default_rng(rng_seed)
    if lam.kind == "GammaInfinity":
        elts = []
        for _ in range(samples):
            mlt = int(rng.integers(-4, 5))
            g = t_power(mlt * lam.n)
            if rng.integers(0, 2):
                g = -g
            elts.append(g)
    elif lam.kind == "PlusMinusIdentity":
        elts = [I2, -I2] * (samples // 2 + 1)
    else:
        raise ValueError(f"unsupported stabiliser {lam}")
    worst = 0.0
    for g in elts[:samples]:
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0))
        moved = slash_k_rho(seed.eval, g, rep, ms, ms.k)(tau)
        worst = max(worst, float(np.linalg.norm(moved - seed.eval(tau))))
    return worst


def seed_strip_integral(seed: SeedFn, k: float) -> float:
    """The weighted L^1 mass of the seed over a fundamental domain of its
    stabiliser, integral of ||f(tau)|| Im(tau)^{k/2} dv.

    Classical seeds have the closed form
    M^{k/2} Gamma(k/2 - 1) / (2 pi (nu + m_j))^{k/2 - 1}; for elliptic seeds
    the proof-level upper bound is the product of two one-dimensional
    integrals, both Beta values in closed form, scaled by
    ||u|| / Im(xi)^{k/2}.
    """
    if k <= 2:
        raise DomainError("the strip integral diverges for k <= 2")
    if isinstance(seed, ClassicalSeed):
        s = k / 2.0 - 1.0
        alpha = 2.0 * math.pi * (seed.nu + seed.m_j)
        return seed.M ** (k / 2.0) * math.gamma(s) / alpha ** s
    if isinstance(seed, EllipticSeed):
        # int_R dx/(x^2+1)^{k/2} = B(1/2, (k-1)/2)
        #   = sqrt(pi) Gamma((k-1)/2) / Gamma(k/2)
        log_ix = 0.5 * math.log(math.pi) + math.lgamma((k - 1.0) / 2.0) - math.lgamma(k / 2.0)
        # int_0^inf y^{k/2-2} (y+1)^{1-k} dy = B(k/2-1, k/2)
        log_iy = math.lgamma(k / 2.0 - 1.0) + math.lgamma(k / 2.0) - math.lgamma(k - 1.0)
        unorm = float(np.linalg.norm(seed.u))
        return unorm / complex(seed.xi).imag ** (k / 2.0) * math.exp(log_ix + log_iy)
    raise TypeError(f"not a seed: {seed!r}")


def seed_to_json(seed: SeedFn) -> dict:
    if isinstance(seed, ClassicalSeed):
        return {"variant": "classical", "nu": seed.nu, "j": seed.j,
                "M": seed.M, "split": seed.split.to_json()}
    return {"variant": "elliptic", "nu": seed.nu,
            "xi": [seed.xi.real, seed.xi.imag],
            "u": [[z.real, z.imag] for z in seed.u],
            "k": seed.k}


def seed_from_json(data: dict) -> SeedFn:
    if data["variant"] == "classical":
        return ClassicalSeed(int(data["nu"]), int(data["j"]),
                             SpectralSplit.from_json(data["split"]), int(data["M"]))
    if data["variant"] == "elliptic":
        u = np.array([complex(re, im) for re, im in data["u"]])
        return EllipticSeed(int(data["nu"]), complex(*data["xi"]), u, float(data["k"]))
    raise ValueError(f"unknown seed variant {data['variant']!r}")
