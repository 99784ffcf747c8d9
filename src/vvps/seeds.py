"""Seed functions for the two Poincare families.

A classical seed is an exponential at the cusp at infinity attached to one
spectral exponent; an elliptic seed is a rational expression in
(tau - xi)/(tau - conj(xi)) attached to a point xi of the half-plane.  Both
evaluate to vectors in C^p and factor as scalar(tau) * fixed_vector, which
the series module exploits; the two share that evaluation.  Each seed
carries its stabiliser `lam`, the group its series sums over the cosets
of: GammaInfinity(M) for a classical seed of width M, <-I> for an
elliptic seed.  Each seed gives the series kernel its slashed scalar
j(g, tau)^-k scalar(g.tau) over coset rows (a, b, c, d), in the order the
caller passes them, from constants it draws from the rows once per series
(_slash_constants), written into the kernel's workspace (_slashed_many).
Both are closed forms in each coset's integers: the classical term is
e(alpha a/c) j^-k e^X, X = -2 pi i alpha / (c j), from c and d, with its
phase e(alpha a/c), fixed by the coset, left to the series to fold into
the coset's vector (_phase_runs); the elliptic term is A^nu B^-(nu + k)
from affine coefficients per coset, and its value at the identity coset
is the elliptic seed's point value.  Kernels, pointwise values and
`slash` share each primitive: c tau + d is modgroup._cocycle, powers
modgroup._power, e(alpha tau) _exp_i_alpha from the alpha = A/N a
classical seed fixes when built.  The invariance check of a seed under
its stabiliser is series.check_seed_invariance, beside the slash action.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._quad import gamma_over_power, log_beta
from .errors import DomainError, RefusalError
from .modgroup import (I2, GroupSpec, _cocycle, _column_runs, _integer_power, _power,
                       _shaped, _upper_half_plane, entry_arrays, kernel_workspace)
from .rep import _MAX_ORDER, SpectralSplit, _exponent

__all__ = ["ClassicalSeed", "EllipticSeed", "SeedFn", "seed_strip_integral"]


class _ScalarTimesVector:
    """Evaluation of a seed scalar_many(tau) * vector, after the DomainError
    of modgroup._upper_half_plane for a point outside H."""

    def eval_many(self, taus) -> np.ndarray:
        return self.scalar_many(_upper_half_plane(taus))[..., None] * self.vector


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
        # alpha = (nu + m_j) / M as the exact ratio (A, N), m_j as the r/n of
        # e(m_j) plus the integer nearest m_j - r/n (r/n in spectral_split)
        exp = _exponent(cmath.exp(2j * math.pi * self.m_j))
        if exp is None:
            raise ValueError(f"m_j = {self.m_j} is not a rational r/n with n <= {_MAX_ORDER}")
        r, n = exp
        object.__setattr__(self, "_alpha_ratio",
                           ((self.nu + round(self.m_j - r / n)) * n + r, n * self.M))

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
        return _exp_i_alpha(*self._alpha_ratio, taus)

    def _phase_runs(self, ents: np.ndarray) -> tuple:
        """The factor e(alpha a/c) of the slashed seed that each coset fixes
        (e(alpha b) where c = 0), for rows (a, b, c, d) with c >= 0, as in
        every table of Gamma_inf(M): the angle 2 pi t, t = alpha a/c mod 1
        in (-1/2, 1/2] taken exactly in int64 from alpha = A/N
        (_alpha_ratio), once per run of modgroup._column_runs, and the
        length of each run."""
        num, den = self._alpha_ratio
        starts = _column_runs(ents)
        a, b, c = ents[starts, 0], ents[starts, 1], ents[starts, 2]
        at_inf = c == 0
        mod = den * (c + at_inf)
        turn = np.where(at_inf, b, a)
        if abs(num) * int(np.abs(turn).max(initial=0)) >= 2 ** 63:
            raise RefusalError("the phases e(alpha a/c) of this table pass int64")
        turn *= num
        turn %= mod
        turn -= mod * (2 * turn > mod)
        return (2.0 * math.pi) * (turn / mod), np.diff(starts, append=len(ents))

    def _slash_constants(self, ents: np.ndarray, k: float) -> tuple:
        """The constants of the slashed seed over cosets of Gamma_inf(M),
        the rows (a, b, c, d) of ents in their order: k, c and d as floats,
        kappa = -2 pi alpha / c (0 where c = 0), the indices of the cosets
        with c = 0 (where a = d = 1), the least c > 0, and alpha = A/N
        (_alpha_ratio)."""
        c, d = (ents[:, i].astype(float) for i in (2, 3))
        num, den = self._alpha_ratio
        top = c != 0
        kappa = np.divide(-2.0 * math.pi * (num / den), c, out=np.zeros_like(c), where=top)
        c_low = float(c.min(where=top, initial=np.inf))
        return float(k), c, d, kappa, np.flatnonzero(~top), c_low, (num, den)

    def _slashed_many(self, taus: np.ndarray, consts: tuple, ws: tuple) -> np.ndarray:
        """The scalars j^-k e^X of the slashed seed at every point and
        coset, in the order of the rows, from each coset's c and d, with
        X = -2 pi i alpha / (c j): as a d - b c = 1, g.tau = a/c - 1/(c j),
        so the slashed seed is e(alpha a/c) j^-k e^X, and the series folds
        the phase e(alpha a/c) into each coset's vector (_phase_runs).  The
        cosets with c = 0 get e(alpha tau), their phase e(alpha b) folded
        likewise.

        |X| <= 2 pi alpha / (c^2 Im tau) is small but for small c.  Where
        |Re X| + |Im X| > _STEEP, whose rounding would cost the term |X|
        ulps, the term is taken again in long double from the integers, as
        is e(alpha tau).  j^-k is modgroup._power, which takes j again
        from c and d where an integer power passes the float range.  ws is
        a kernel_workspace; the result is a view of ws[1]."""
        k, c, d, kappa, at_inf, c_low, (num, den) = consts
        z, out, jmk, *scratch = (_shaped(b, (len(taus), len(c))) for b in ws)
        z = _cocycle(c, d, taus[:, None], z)
        out = np.divide(kappa, z, out=out)
        out *= 1j
        # |Re X| + |Im X| <= sqrt(2) |X|: the columns that can hold a steep
        # entry, with room for rounding
        y = float(taus.imag.min(initial=np.inf))
        reach = math.sqrt(4.0 * math.pi * (num / den) / (_STEEP * y))
        t = i = at_inf[:0]
        if c_low <= reach:
            cols = np.flatnonzero(c <= reach)  # and c = 0, where X = 0
            steep = out[:, cols]
            t, i = np.nonzero(np.abs(steep.real) + np.abs(steep.imag) > _STEEP)
            i = cols[i]
        jmk = _power(z, -k, lambda t, i: _cocycle(c[i], d[i], taus[t]), jmk, scratch)
        np.exp(out, out=out)
        out *= jmk
        if len(t):
            out[t, i] = _steep_term(num, den, k, c[i], d[i], taus[t])
        out[:, at_inf] = _exp_i_alpha(num, den, taus)[:, None]
        return out


# |Re X| + |Im X| past which the classical kernel takes its term in long double
_STEEP = 2.0 * math.pi
_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")


def _exp_i_alpha(num: int, den: int, taus) -> np.ndarray:
    """e(alpha tau), alpha = num/den, for each point, in long double: in
    floats the rounding of 2 pi i alpha tau would cost |2 pi alpha tau|
    ulps."""
    x = (1j * (_TWO_PI_LD * np.longdouble(num) / np.longdouble(den))) * taus.astype(np.clongdouble)
    return np.exp(x).astype(complex)


def _steep_term(num: int, den: int, k: float, c, d, taus) -> np.ndarray:
    """j^-k e^X, j = c tau + d and X = -2 pi i alpha / (c j), alpha =
    num/den, for float integers c > 0 and d and points tau, elementwise:
    one exponential of X - k log j in long double, rounded to complex."""
    cl = c.astype(np.longdouble)
    z = cl * taus.astype(np.clongdouble) + d.astype(np.longdouble)
    x = (-1j * (_TWO_PI_LD * np.longdouble(num) / np.longdouble(den))) / (cl * z)
    x -= np.longdouble(k) * np.log(z)
    return np.exp(x).astype(complex)


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
        # the kernel at the identity coset, where z = tau, B = tau - conj(xi)
        # and A = tau - xi
        ws = kernel_workspace(len(taus))
        consts = self._slash_constants(entry_arrays([I2]), self.k)
        return self._slashed_many(taus, consts, ws)[:, 0].copy()

    def _phase_runs(self, ents: np.ndarray) -> None:
        """No factor of the slashed seed is fixed by each coset."""
        return None

    def _slash_constants(self, ents: np.ndarray, k: float) -> tuple:
        """The constants of the slashed seed j(g, tau)^-k f(g.tau) over
        cosets of <-I>, the rows (a, b, c, d) of ents.  With A = j (g.tau -
        xi) and B = j (g.tau - conj(xi)) the scalar is A^nu B^-(nu + k), and
        as g.tau = a/c - 1/(c j), B = lam z + mu and A = conj(lam) z +
        conj(mu) with z = c tau + d, lam = a/c - conj(xi), mu = -1/c; the
        cosets (1 b; 0 1) take z = tau, lam = 1, mu = b - conj(xi).  Returns
        c, d, lam and mu per row of ents, and max |lam|, |mu|, |c|, |d|."""
        a, b, c, d = (ents[:, i].astype(float) for i in range(4))
        xb = self.xi.conjugate()
        at_inf = c == 0  # then a = d = 1
        c[at_inf], d[at_inf] = 1.0, 0.0
        lam = a / c - xb
        mu = (-1.0 / c).astype(complex)
        lam[at_inf], mu[at_inf] = 1.0, b[at_inf] - xb
        return c, d, lam, mu, tuple(float(np.abs(v).max()) for v in (lam, mu, c, d))

    def _slashed_many(self, taus: np.ndarray, consts: tuple, ws: tuple) -> np.ndarray:
        """The scalars A^nu B^-(nu + k) of the slashed seed at every point
        and coset, in the order of the rows, with no j^-k and no division.

        arg B = arg j + arg(g.tau - conj(xi)) lies in (0, 2 pi), as c > 0,
        or c = 0 and d = 1, puts arg j in [0, pi): at non-integer nu + k the
        principal power takes e(-(nu + k)) where Im B < 0.  Where |A|^nu
        could pass the float range, by the bound from consts, the scalar is
        (A/B)^nu B^-k, |A/B| < 1.  The power of B is modgroup._power, which
        takes B again from the coset where an integer power passes the float
        range.  ws is a kernel_workspace; the result is a view of ws[1]."""
        c, d, lam, mu, (lam_max, mu_max, c_max, d_max) = consts
        den, out, z, *scratch = (_shaped(b, (len(taus), len(lam))) for b in ws)
        z = _cocycle(c, d, taus[:, None], z)
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
        out = _power(den, power, lambda t, i: lam[i] * _cocycle(c[i], d[i], taus[t]) + mu[i],
                     out, scratch)
        if not float(power).is_integer():  # den is kept
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

