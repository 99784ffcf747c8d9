"""Seed functions for the two Poincare families.

A classical seed is an exponential at the cusp at infinity attached to one
spectral exponent; an elliptic seed is a rational expression in
(tau - xi)/(tau - conj(xi)) attached to a point xi of the half-plane.  Both
evaluate to vectors in C^p and factor as scalar(tau) * fixed_vector, which
the series module exploits; the two share that evaluation.  Each seed
carries its stabiliser `lam`, the group its series sums over the cosets
of: GammaInfinity(M) for a classical seed of width M, <-I> for an
elliptic seed.  Each seed gives the series kernel its slashed scalar
j(g, tau)^-k scalar(g.tau) over a coset table, in table order, from
constants it draws from the table once per series (_slash_constants: the
classical seed's bottom rows in (c, d) order, the elliptic seed's affine
coefficients per coset), written into the kernel's workspace
(_slashed_many).  The invariance check of a seed under its stabiliser is
series.check_seed_invariance, beside the slash action it applies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._quad import gamma_over_power, log_beta
from .errors import DomainError
from .modgroup import (GroupSpec, _as_complex, _cocycle, _integer_power, _shaped,
                       principal_power)
from .rep import SpectralSplit

__all__ = ["ClassicalSeed", "EllipticSeed", "SeedFn", "seed_strip_integral"]


class _ScalarTimesVector:
    """Evaluation of a seed scalar_many(tau) * vector."""

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

    def scalar_many(self, taus: np.ndarray) -> np.ndarray:
        return np.exp(np.multiply(2j * math.pi * self.alpha, taus))

    def _slash_constants(self, tab, k: float) -> tuple:
        """The constants of the slashed seed j(g, tau)^-k f(g.tau) over a
        CosetTable of Gamma_inf(M): k, the cosets' bottom rows in (c, d)
        order with each stored coset's index into them (rows[row] equals
        ents[:, 2:]), and the table's ents and order.  j^-k runs fastest
        over the rows in (c, d) order: np.power(z, -12) took 38.5 ms there,
        56.1 in stored order and 63.7 in table order, over 64 points and
        67,547 cosets (SL2(Z), H = 300; 2-core x86_64, numpy 2.4.6)."""
        c, d = tab.ents[:, 2], tab.ents[:, 3]
        by_row = np.argsort(c * (2 * int(np.abs(d).max(initial=0)) + 1) + d)
        row = np.empty_like(by_row)
        row[by_row] = np.arange(len(by_row))
        # (c, d) of coset i is pair 2 i + 1 of ents: taking whole pairs is
        # 4x as fast as ents[by_row, 2:]
        rows = np.take(tab.ents.reshape(-1, 2), 2 * by_row + 1, axis=0)
        return float(k), rows, row, tab.ents, tab.order

    def _slashed_many(self, taus: np.ndarray, consts: tuple, ws: tuple) -> np.ndarray:
        """The scalars j^-k e(alpha g.tau) of the slashed seed at every
        point and coset, in table order: j^-k over the bottom rows in
        (c, d) order, g.tau and its exp in stored order (by left column,
        where the exp runs fastest), then taken into table order.  ws is a
        kernel_workspace; the result is a view of ws[0], whose float halves
        serve the log route of j^-k first."""
        k, rows, row, ents, order = consts
        tt = taus[:, None]
        shape = (len(taus), len(ents))
        moved, tmp = _shaped(ws[1], shape), _shaped(ws[2], shape)
        jmk, jj, num = (_shaped(b, shape) for b in ws[:3])
        scratch = tuple(_shaped(h, shape) for h in ws[0].view(float).reshape(2, -1))
        tmp = np.multiply(rows[:, 0], tt, out=tmp)
        tmp += rows[:, 1]
        pw = principal_power(tmp, -k, moved, scratch)
        # the indices are valid; mode "raise" would copy through a temporary
        jmk = np.take(pw, row, axis=1, out=jmk, mode="clip")
        jj = np.take(tmp, row, axis=1, out=jj, mode="clip")
        num = np.multiply(ents[:, 0], tt, out=num)
        num += ents[:, 1]
        s = np.divide(num, jj, out=jj)
        np.multiply(2j * math.pi * self.alpha, s, out=s)
        np.exp(s, out=s)
        np.multiply(jmk, s, out=s)
        return np.take(s, order, axis=1, out=jmk, mode="clip")


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

    def scalar_many(self, taus: np.ndarray) -> np.ndarray:
        # Im(tau - conj(xi)) > 0 always, principal branch
        den = principal_power(np.subtract(taus, self.xi.conjugate()), -(self.nu + self.k))
        num = np.subtract(taus, self.xi)
        num **= self.nu
        num *= den
        return num

    def _slash_constants(self, tab, k: float) -> tuple:
        """The constants of the slashed seed j(g, tau)^-k f(g.tau) over a
        CosetTable of <-I>.  With A = j (g.tau - xi) and
        B = j (g.tau - conj(xi)) the scalar is A^nu B^-(nu + k), and as
        g.tau = a/c - 1/(c j), B = lam z + mu and A = conj(lam) z + conj(mu)
        with z = c tau + d, lam = a/c - conj(xi), mu = -1/c; the cosets
        (1 b; 0 1) take z = tau, lam = 1, mu = b - conj(xi).  Returns c, d,
        lam and mu per coset in table order, and max |lam|, |mu|, |c|, |d|."""
        a, b, c, d = (tab.ents[tab.order, i].astype(float) for i in range(4))
        xb = self.xi.conjugate()
        at_inf = c == 0  # then a = d = 1
        c[at_inf], d[at_inf] = 1.0, 0.0
        lam = a / c - xb
        mu = (-1.0 / c).astype(complex)
        lam[at_inf], mu[at_inf] = 1.0, b[at_inf] - xb
        return c, d, lam, mu, tuple(float(np.abs(v).max()) for v in (lam, mu, c, d))

    def _slashed_many(self, taus: np.ndarray, consts: tuple, ws: tuple) -> np.ndarray:
        """The scalars A^nu B^-(nu + k) of the slashed seed at every point
        and coset, in table order, with no j^-k and no division.

        arg B = arg j + arg(g.tau - conj(xi)) lies in (0, 2 pi), as c > 0,
        or c = 0 and d = 1, puts arg j in [0, pi): at non-integer nu + k the
        principal power takes e(-(nu + k)) where Im B < 0.  Where |A|^nu
        could pass the float range, by the bound from consts, the scalar is
        (A/B)^nu B^-k, |A/B| < 1.  Integer powers are array binary powering;
        entries past the float range are B again by the log route.  ws is
        a kernel_workspace; the result is a view of ws[0]."""
        c, d, lam, mu, (lam_max, mu_max, c_max, d_max) = consts
        out, den, z, *scratch = (_shaped(b, (len(taus), len(lam))) for b in ws)
        z = _cocycle(c, d, taus, z)
        den = np.multiply(lam, z, out=den)
        den += mu
        power = -(self.nu + self.k)
        if self.nu:
            num = np.multiply(lam.conj(), z, out=z)
            num += mu.conj()
            bound = lam_max * (c_max * float(np.abs(taus).max(initial=0.0)) + d_max) + mu_max
            if self.nu * math.log(bound) > 700.0:
                num /= den
                power = -self.k
        if float(power).is_integer():
            out = _integer_power(den, int(power), out)  # den is spent
            t, i = np.nonzero(~np.isfinite(out))
            if len(t):  # past the float range: B again, by the log route
                b = lam[i] * (c[i] * taus[t] + d[i]) + mu[i]
                out[t, i] = principal_power(b, power)
        else:
            out = principal_power(den, power, out, scratch)
            out[np.signbit(den.imag)] *= cmath.exp(2j * math.pi * power)
        if self.nu == 1:
            out *= num
        elif self.nu:  # |A|^nu stays in the float range, by the bound above
            out *= _integer_power(num, self.nu, den)
        return out


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

