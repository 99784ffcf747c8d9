"""Unimodular integer 2x2 matrices, congruence subgroups, and actions on
the upper half-plane.

Covers the group-theoretic substrate: the factors j(g, tau)^-k and g.tau
of the slash action over arrays of points and matrices (slash_kernel,
which refuses a point outside the upper half-plane), principal-branch real
powers by the one route the seed kernels take too (_power: integer ones by
binary powering, the entries past the float range and the rest through log
and exp), membership tests for the supported subgroup families, the S/T
syllables of a matrix, coset enumeration inside a Frobenius-norm ball,
cusp widths, and the cusps of a group as the T-orbits of its right cosets
(_cusp_orbits).  Enumeration serves both stabilisers, Gamma_inf(M) and
<-I>, as array arithmetic over all coprime left columns (a, c) at once, c
first and a in the stabiliser's range, and then the exact window of
parameters s per column that keeps the right column (b0 + s a, d0 + s c)
inside the ball.  A coset table stores its cosets once, in that (c, a, s)
order, with the permutation into the table order by norm.  c tau + d over
arrays of points and integer pairs is taken with Re tau split (_cocycle),
accurate where c Re(tau) and d cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RefusalError

__all__ = [
    "IntMatrix2", "GroupSpec", "CosetTable",
    "I2", "S", "T", "t_power",
    "principal_power", "entry_arrays", "kernel_workspace", "slash_kernel",
    "contains", "is_subgroup", "st_syllables",
    "enumerate_cosets", "cusp_width", "right_coset_reps",
]


@dataclass(frozen=True)
class IntMatrix2:
    """Integer matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {self.entries()} is not 1")

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "IntMatrix2":
        return IntMatrix2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "IntMatrix2":
        return IntMatrix2(self.d, -self.b, -self.c, self.a)

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


I2 = IntMatrix2(1, 0, 0, 1)
S = IntMatrix2(0, -1, 1, 0)
T = IntMatrix2(1, 1, 0, 1)


def t_power(n: int) -> IntMatrix2:
    """The translation matrix (1 n; 0 1)."""
    return IntMatrix2(1, n, 0, 1)


def _upper_half_plane(taus) -> np.ndarray:
    """The points taus as a 1-d complex array, after a DomainError unless
    every one has Im tau > 0 (nan has not)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=complex))
    outside = np.isnan(taus) | (taus.imag <= 0)
    if np.any(outside):
        raise DomainError("tau must lie in the upper half-plane, "
                          f"got {complex(taus[outside][0])}")
    return taus


def _log_power(z: np.ndarray, k: float, out=None, scratch=None) -> np.ndarray:
    """exp(k (log|z| + i arctan2(Im z, Re z))), the log route of _power,
    into out (complex, shaped like z, not overlapping it) and scratch (two
    float arrays of that shape) when given."""
    mod, arg = (None, None) if scratch is None else scratch
    mod = np.log(np.abs(z, out=mod), out=mod)
    arg = np.arctan2(z.imag, z.real, out=arg)
    out = np.multiply(1j, arg, out=out)
    out += mod
    out *= k
    return np.exp(out, out=out)


def principal_power(z: np.ndarray, k: float) -> np.ndarray:
    """Elementwise z**k = |z|**k e^{ik arg z} for complex arrays, with
    arg = arctan2(Im z, Re z) in [-pi, pi].  Callers pass values with
    Im z > 0 or Im z = +0.0, so a negative real gets arg = pi, or correct
    the branch themselves.  It is _power on a copy of z, so `slash` shares
    the seed kernels' bits: against exact powers on the Fourier line
    binary powering reads 4.8e-16 at k = 12 and 3.6e-15 at k = 172, the
    log route exp(k (log|z| + i arg z)) 1.4e-14 and 1.3e-13."""
    return _power(z.copy(), k, lambda *at: z[at])


def _power(z: np.ndarray, k: float, base_at, out=None, scratch=None) -> np.ndarray:
    """z**k, the one power route of principal_power and both seed kernels.
    A nonzero integer k is taken by _integer_power (z is spent), and the
    entries past the float range again by the log route from
    base_at(*indices), the base at those indices, which a kernel recomputes
    from its coset integers (so 2000^-99 is 0, not nan).  Every other k, 0
    included, takes the log route into out and scratch, and z is kept."""
    if not float(k).is_integer() or k == 0:
        return _log_power(z, k, out, scratch)
    out = _integer_power(z, int(k), out)
    bad = np.nonzero(~np.isfinite(out))
    if len(bad[0]):
        with np.errstate(over="ignore", invalid="ignore"):  # past the range stays inf, unwarned
            out[bad] = _log_power(base_at(*bad), k)
    return out


def _integer_power(z: np.ndarray, k: int, out=None) -> np.ndarray:
    """z**k for a nonzero integer k by binary powering in array operations,
    the running square in z (which is spent), one reciprocal for k < 0;
    entries past the float range come out inf or nan for the caller.
    np.power's complex integer power is a scalar loop, 10-16 ns per element
    at |k| = 12 to 20 against 5.5-9 here (2-core x86_64, numpy 2.4.6), and
    no more accurate on the Fourier line (4.8e-16 here, 5.4e-16 at k = -12).
    It serves _power, which the seed kernels call in place in their
    workspace."""
    out = np.empty_like(z) if out is None else out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, started = abs(k), False
        while n:
            if n & 1 and started:
                out *= z
            elif n & 1:
                np.copyto(out, z)
                started = True
            n >>= 1
            if n:
                z *= z
        if k < 0:
            np.divide(1.0, out, out=out)
    return out


def entry_arrays(mats) -> np.ndarray:
    """The int64 array of shape (n, 4) whose rows are the entries
    (a, b, c, d) of a sequence of n matrices."""
    return np.array([g.entries() for g in mats], dtype=np.int64).reshape(-1, 4)


def _column_runs(ents: np.ndarray) -> np.ndarray:
    """The first row of each run of rows (a, b, c, d) of ents with one left
    column (a, c), c != 0, and every row with c = 0: the rows of a run
    share d mod c = a^-1 mod c.  A coset table stores each left column as
    one run."""
    a, c = ents[:, 0], ents[:, 2]
    new = c == 0
    new[:1] = True
    new[1:] |= a[1:] != a[:-1]
    new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def kernel_workspace(terms: int) -> tuple:
    """Buffers for the series kernel, a seed's slashed scalars, over up to
    terms (point, coset) pairs: three complex and two float flat arrays."""
    return (*(np.empty(terms, dtype=complex) for _ in range(3)),
            *(np.empty(terms) for _ in range(2)))


def _shaped(buf, shape):
    """The leading entries of a flat buffer in the given 2-d shape."""
    return buf[:shape[0] * shape[1]].reshape(shape)


# Veltkamp's splitter 2^27 + 1: x = head + tail with a 26-bit head
_SPLIT = 134217729.0


def _cocycle(c, d, taus, out=None) -> np.ndarray:
    """c tau + d for float integers c, d, |c| < 2^26, and points taus,
    broadcast together: a column of points against rows of pairs gives
    every (point, pair).  Re tau is split into a 26-bit head, whose product
    with c is exact, and a tail, so Re(c tau + d) is accurate where
    c Re(tau) and d cancel; the plain product errs by u |c Re(tau)|."""
    x, y = taus.real, taus.imag
    head = x * _SPLIT
    head -= head - x
    tail = x - head
    out = np.empty(np.broadcast(c, taus).shape, dtype=complex) if out is None else out
    re, im = out.real, out.imag
    np.multiply(c, head, out=re)
    re += d
    re += np.multiply(c, tail, out=im)
    np.multiply(c, y, out=im)
    return out


def slash_kernel(ents, taus, k: float) -> tuple:
    """The weight-k slash factors for every (point, matrix) pair.

    Returns (j(g, tau)^{-k}, g.tau) as arrays of shape (points, matrices),
    with g running over the rows (a, b, c, d) of the integer array ents and
    tau over taus, for `series.slash` and its users.  The series kernel
    takes its terms from the seeds' closed forms on the same primitives
    (j by _cocycle, an integer j^-k by _integer_power), so the two differ
    in g.tau alone; mpmath and exact powers are the independent references.
    A point outside the upper half-plane raises DomainError.  Im tau > 0 and
    c is an integer, so Im(c tau + d) is +0.0 when c = 0: a negative real j
    lies on the upper side of the cut, where arctan2 puts it (arg = pi).
    """
    tt = _upper_half_plane(taus)[:, None]
    jj = _cocycle(ents[:, 2].astype(float), ents[:, 3].astype(float), tt)
    num = ents[:, 0] * tt
    num += ents[:, 1]
    return principal_power(jj, -k), np.divide(num, jj, out=num)


_KINDS = ("SL2Z", "Gamma0", "Gamma1pm", "GammaNpm", "GammaInfinity", "PlusMinusIdentity")


@dataclass(frozen=True)
class GroupSpec:
    """Description of one of the supported subgroups of SL2(Z).

    All described groups contain -I; "Gamma1pm" and "GammaNpm" denote the
    standard congruence groups of level n with -I adjoined, and
    "GammaInfinity" is the translation stabiliser <-I, T^n>.
    """

    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind in ("SL2Z", "PlusMinusIdentity"):
            if self.n != 0:
                raise ValueError(f"{self.kind} takes no level")
        elif self.n < 1:
            raise ValueError(f"{self.kind} needs a positive level/width")

    @classmethod
    def sl2z(cls):
        return cls("SL2Z")

    @classmethod
    def gamma0(cls, n: int):
        return cls("Gamma0", n)

    @classmethod
    def gamma1pm(cls, n: int):
        return cls("Gamma1pm", n)

    @classmethod
    def gamma_npm(cls, n: int):
        return cls("GammaNpm", n)

    @classmethod
    def gamma_infinity(cls, m: int):
        return cls("GammaInfinity", m)

    @classmethod
    def plus_minus_identity(cls):
        return cls("PlusMinusIdentity")

    @property
    def finite_index(self) -> bool:
        return self.kind in ("SL2Z", "Gamma0", "Gamma1pm", "GammaNpm")

    @property
    def level(self) -> int:
        """Congruence level (1 for the full group)."""
        if self.kind == "SL2Z":
            return 1
        if not self.finite_index:
            raise ValueError(f"{self.kind} has no congruence level")
        return self.n

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        return cls(data["kind"], int(data.get("n", 0)))

    def __str__(self):
        if self.kind == "SL2Z":
            return "SL2(Z)"
        if self.kind == "PlusMinusIdentity":
            return "<-I>"
        return f"{self.kind}({self.n})"


def contains(spec: GroupSpec, g):
    """Membership test by congruence conditions: a bool for one IntMatrix2,
    a boolean mask for the rows (a, b, c, d) of an integer array of shape
    (n, 4).  One body serves both, in elementwise operators only."""
    a, b, c, d = g.entries() if isinstance(g, IntMatrix2) else g.T
    if spec.kind == "GammaInfinity":
        return (c == 0) & (a == d) & (abs(a) == 1) & (b % spec.n == 0)
    if spec.kind == "PlusMinusIdentity":
        return (b == 0) & (c == 0) & (a == d) & (abs(a) == 1)
    n = spec.level
    if spec.kind in ("SL2Z", "Gamma0"):
        return c % n == 0
    # +-(1 *; 0 1) mod n; GammaNpm also needs b = 0 mod n
    unit = (((a - 1) % n == 0) & ((d - 1) % n == 0)) | (((a + 1) % n == 0) & ((d + 1) % n == 0))
    if spec.kind == "Gamma1pm":
        return (c % n == 0) & unit
    return (b % n == 0) & (c % n == 0) & unit


def is_subgroup(inner: GroupSpec, outer: GroupSpec) -> bool:
    """Whether the finite-index group inner lies in the finite-index group
    outer, from their kinds and levels."""
    n, m = outer.level, inner.level
    if n == 1:  # outer is SL2(Z)
        return True
    if m % n:  # inner holds (1 0; m 1), outer lies in Gamma0(n)
        return False
    if outer.kind == "Gamma0" or inner.kind == "GammaNpm":
        return True
    # Gamma0(m) maps onto every unit d mod n, Gamma1pm(n) keeps only d = +-1;
    # GammaNpm(n) misses T, which Gamma0(m) and Gamma1pm(m) hold
    return outer.kind == "Gamma1pm" and (inner.kind == "Gamma1pm" or n in (2, 3, 4, 6))


def _coset_key(gamma: GroupSpec, g: IntMatrix2) -> tuple:
    """What g shares exactly with the matrices of its right coset gamma g:
    the bottom row mod N up to a unit (SL2(Z), Gamma0(N)) or up to sign
    (Gamma1pm(N)), and g mod N up to sign (GammaNpm(N)).

    Up to a unit, (c : d) is the normalised point of P^1(Z/NZ) (Cremona,
    Algorithms for Modular Elliptic Curves, 2nd ed., sec. 2.2): the unit
    multiples with c = h = gcd(c, N) are u (c, d) with u = (c/h)^{-1}
    mod N/h, and the key takes the least of their d, in O(h) steps."""
    n = gamma.level
    if gamma.kind in ("SL2Z", "Gamma0"):
        h = math.gcd(g.c, n)
        units = range(pow(g.c // h, -1, n // h), n, n // h)
        return h, min(u * g.d % n for u in units if math.gcd(u, n) == 1)
    v = g.entries() if gamma.kind == "GammaNpm" else (g.c, g.d)
    return min(tuple(u * x % n for x in v) for u in (1, -1))


def st_syllables(g: IntMatrix2):
    """Reduce g to syllables over the generators.

    Returns (syllables, sign) where syllables is a list of ("T", q) and
    ("S", 1) entries whose left-to-right product equals sign * g, with
    sign in {+1, -1}.  Continued-fraction reduction on the bottom row:
    each step applies T^{-q} and then S on the left, until c = 0 leaves
    s T^{s b} with s = +-1.  Inverting the steps writes g with S^{-1} = -S,
    so the word of S syllables equals s (-1)^{#S} g.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    syll = []
    n_s = 0
    while c != 0:
        q = a // c
        if q != 0:
            syll.append(("T", q))
            a, b = a - q * c, b - q * d
        syll.append(("S", 1))
        n_s += 1
        a, b, c, d = -c, -d, a, b
    if a * b != 0:
        syll.append(("T", a * b))
    return syll, a * (-1) ** n_s


def cusp_width(gamma: GroupSpec, sigma: IntMatrix2) -> int:
    """Smallest M > 0 with sigma T^M sigma^{-1} in gamma."""
    if not gamma.finite_index:
        raise ValueError(f"{gamma} does not have finite index")
    sigma_inv = sigma.inv()
    bound = gamma.level
    for m in range(1, bound + 1):
        if contains(gamma, sigma * t_power(m) * sigma_inv):
            return m
    raise AssertionError(f"no cusp width <= {bound} found for {gamma}")  # pragma: no cover


# right_coset_reps refuses groups of larger index
_MAX_INDEX = 100000


def right_coset_reps(gamma: GroupSpec):
    """Representatives g_j with SL2(Z) equal to the disjoint union of the
    right cosets gamma * g_j; g_1 is the identity.

    Breadth-first search over the generator graph, so the output is
    deterministic; a candidate opens a new coset when its _coset_key is new.
    """
    if not gamma.finite_index:
        raise ValueError(f"{gamma} does not have finite index")
    reps = [I2]
    seen = {_coset_key(gamma, I2)}
    for g in reps:  # first in, first out, while the list grows
        for h in (T, T.inv(), S):
            cand = g * h
            key = _coset_key(gamma, cand)
            if key not in seen:
                seen.add(key)
                reps.append(cand)
                if len(reps) > _MAX_INDEX:
                    raise RefusalError(f"{gamma} has more than {_MAX_INDEX} right cosets")
    return reps


def _cusp_orbits(gamma: GroupSpec) -> list:
    """One (g, w) per cusp of gamma: the right cosets of right_coset_reps
    fall into orbits gamma g T^i, 0 <= i < w, under right multiplication
    by T, each a cusp g.infinity of width w; g is the orbit's first
    representative in right_coset_reps' order.  The widths sum to the
    index."""
    seen, out = set(), []
    for g in right_coset_reps(gamma):
        h, key, w = g, _coset_key(gamma, g), 0
        while key not in seen:
            seen.add(key)
            h, w = h * T, w + 1
            key = _coset_key(gamma, h)
        if w:
            out.append((g, w))
    return out


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Canonical representatives of the left lam-cosets inside gamma whose
    canonical representative has Frobenius norm <= height, as the rows
    (a, b, c, d) of the int64 array ents of shape (n, 4).

    ents is stored once, in the order enumerate_cosets generates it: by
    left column (c, a), then by the parameter s of the right column (so by
    d, or by b when c = 0).  order is the int64 permutation into the table
    order (norm, c, d, a, b): ents[order] is the table, and reps and
    to_json list it so.  Series preparation works over ents as stored,
    where each left column is one run (one Dedekind sum, one phase
    e(alpha a/c)), and takes its per-coset vectors into table order; both
    seed kernels run in table order, from constants taken once per series.
    The sums are correctly rounded but near a rounding boundary, where the
    order of the terms can move their last bit."""

    lam: GroupSpec
    gamma: GroupSpec
    height: float
    ents: np.ndarray
    order: np.ndarray

    def __len__(self):
        return len(self.ents)

    @property
    def reps(self) -> tuple:
        """The representatives as matrices, in table order."""
        return tuple(IntMatrix2(*row) for row in self.ents[self.order].tolist())

    def to_json(self) -> dict:
        return {
            "lambda": self.lam.to_json(),
            "gamma": self.gamma.to_json(),
            "height": self.height,
            "reps": self.ents[self.order].tolist(),
        }


# enumerate_cosets refuses heights from here on, where int64 arithmetic
# could overflow; Gamma_inf(1) in SL2(Z) would have ~3e15 cosets there
_MAX_HEIGHT = 2 ** 26


def _check_stabiliser(lam: GroupSpec, gamma: GroupSpec) -> None:
    """Refuse (ValueError) a lam that is not a seed's stabiliser in gamma."""
    if lam.kind not in ("GammaInfinity", "PlusMinusIdentity"):
        raise ValueError(f"lam must be a translation stabiliser or <-I>, got {lam}")
    if not (lam.kind == "PlusMinusIdentity" or contains(gamma, t_power(lam.n))):
        raise ValueError(f"{lam} is not a subgroup of {gamma}")


def _inverse_mod(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The x in [0, c) with x d = 1 mod c, for coprime int64 arrays d and
    c > 0: the extended Euclidean algorithm in lockstep over the pairs not
    yet done, keeping r = s d mod c for both remainders."""
    x = np.empty_like(c)
    at = np.arange(len(c))
    r0, r1, s0, s1 = c, d % c, np.zeros_like(c), np.ones_like(c)
    while len(at):
        x[at] = s0  # final where r1 = 0, overwritten later elsewhere
        live = np.flatnonzero(r1)
        at, r0, r1, s0, s1 = at[live], r0[live], r1[live], s0[live], s1[live]
        q, r = np.divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return x % c


def _left_columns(lam: GroupSpec, h2: int, step: int) -> tuple:
    """The coprime left columns (a, c) of the cosets inside the ball of
    squared radius h2, with a solution (b0, d0) of a d0 - b0 c = 1 each.

    c runs over the multiples of step with c^2 <= h2 - 1, and a over the
    canonical range of lam: [0, M c) for GammaInfinity(M), every a for <-I>,
    both cut to a^2 <= h2 - 1 - c^2, because the other column is not zero.
    d0 = a^{-1} mod c comes from one lockstep Euclid.  The column (1, 0)
    comes first, with (b0, d0) = (0, 1), whenever h2 >= 2."""
    cs = np.arange(step, math.isqrt(max(h2 - 1, 0)) + 1, step, dtype=np.int64)
    amax = np.sqrt(h2 - 1 - cs * cs).astype(np.int64)
    if lam.kind == "GammaInfinity":
        a_lo, n_a = np.zeros_like(cs), np.minimum(lam.n * cs, amax + 1)
    else:
        a_lo, n_a = -amax, 2 * amax + 1
    c = np.repeat(cs, n_a)
    a = np.arange(len(c)) + np.repeat(a_lo - (np.cumsum(n_a) - n_a), n_a)
    coprime = np.gcd(a, c) == 1
    c, a = c[coprime], a[coprime]
    d0 = _inverse_mod(a, c)
    b0 = (a * d0 - 1) // c
    if h2 < 2:  # then cs is empty too
        return a, b0, c, d0
    one, zero = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return tuple(np.concatenate(x) for x in ((one, a), (zero, b0), (zero, c), (one, d0)))


def _s_window(a, b0, c, d0, rem) -> tuple:
    """The least and greatest s with (b0 + s a)^2 + (d0 + s c)^2 <= rem,
    exactly (hi < lo when there is none).

    With qa = a^2 + c^2, u = a b0 + c d0 and a d0 - b0 c = 1, qa times the
    left side is (qa s + u)^2 + 1, so s lies within sqrt(qa rem - 1) / qa
    of -u / qa.  That product can pass 2^63, so the bounds are taken in
    floats, whose error stays far below 1 for heights under 2^26, and then
    moved by at most one step each way by the exact integer test."""
    qa, u = a * a + c * c, a * b0 + c * d0
    root = np.sqrt(qa * rem.astype(float) - 1.0)
    lo = np.ceil((-root - u) / qa).astype(np.int64)
    hi = np.floor((root - u) / qa).astype(np.int64)

    def inside(s):
        b, d = b0 + s * a, d0 + s * c
        return b * b + d * d <= rem

    # "not above the window" and "not below it", each monotone in s
    hi += (qa * (hi + 1) + u <= 0) | inside(hi + 1)
    hi -= (qa * hi + u > 0) & ~inside(hi)
    lo -= (qa * (lo - 1) + u >= 0) | inside(lo - 1)
    lo += (qa * lo + u < 0) & ~inside(lo)
    return lo, hi


def enumerate_cosets(lam: GroupSpec, gamma: GroupSpec, height: float) -> CosetTable:
    """Enumerate canonical left lam-coset representatives in gamma with
    Frobenius norm at most height.

    lam must be GammaInfinity(M) or PlusMinusIdentity.  Representatives are
    canonicalised (sign so that the first nonzero of (c, d, a) is positive;
    for the translation stabiliser additionally a reduced into [0, M c),
    and (a, d) = (1, 1) with b in [0, M) when c = 0), so tables are
    deterministic.

    A coset of either stabiliser is a coprime left column (a, c) in lam's
    canonical range (see _left_columns) plus a parameter s: with
    a d0 - b0 c = 1, every right column is (b0 + s a, d0 + s c).  Everything
    is array work over all columns at once: the columns inside the ball,
    d0 = a^{-1} mod c by a lockstep extended Euclid, the exact window of s
    inside the ball per column (_s_window), then membership in gamma.  The
    table keeps the cosets in that order, (c, a, s), with one argsort: the
    permutation into the table order (norm, c, d, a, b).
    """
    _check_stabiliser(lam, gamma)
    if not 0 <= height < _MAX_HEIGHT:
        raise ValueError(f"height must lie in [0, {_MAX_HEIGHT}), got {height}")
    h2 = int(math.floor(height * height + 1e-9))
    # every supported finite-index group of level N (Gamma0, Gamma1pm,
    # GammaNpm) has N | c, so other columns cannot occur
    step = gamma.level if gamma.finite_index else 1
    # the table order is that of one int64 key, (norm, c / step, d, side)
    # in mixed radix: |d| <= dmax, and side = (a c + b d > 0) tells apart
    # the at most two cosets that share norm and bottom row (the line
    # a d - b c = 1 meets the circle of a^2 + b^2 twice, on either side of
    # its foot, and a grows along (c, d) there, or b when c = 0)
    dmax = math.isqrt(max(h2 - step * step - 1, 1))
    n_c, n_d = math.isqrt(max(h2 - 1, 0)) // step + 1, 2 * dmax + 1
    if (h2 + 1) * n_c * n_d * 2 > 2 ** 63:
        raise ValueError(f"height {height} is too large for {gamma}: "
                         "the table order would overflow int64")
    # int64 holds every product below: all entries of the columns and of
    # the cosets are at most height, and _s_window's tests stay under 9 h2.
    # And h2 < 2^52, where the float sqrt of an integer floors to its exact
    # isqrt
    a, b0, c, d0 = _left_columns(lam, h2, step)
    lo, hi = _s_window(a, b0, c, d0, h2 - a * a - c * c)
    if lam.kind == "GammaInfinity" and len(a):  # b in [0, M) on the column (1, 0)
        lo[0], hi[0] = max(lo[0], 0), min(hi[0], lam.n - 1)
    n_s = np.maximum(hi - lo + 1, 0)
    s = np.repeat(lo - (np.cumsum(n_s) - n_s), n_s)
    s += np.arange(len(s))
    ents = np.repeat(np.stack((a, b0, c, d0), axis=1), n_s, axis=0)
    ents[:, 1] += s * ents[:, 0]
    ents[:, 3] += s * ents[:, 2]
    del a, b0, c, d0, s, lo, hi, n_s  # keep the peak low: the key comes next
    member = contains(gamma, ents)
    if not member.all():
        ents = ents[member]
    del member
    # the key, with one int64 temporary beside it
    key = np.einsum("ij,ij->i", ents, ents)
    key *= n_c
    tmp = ents[:, 2] // step
    key += tmp
    key *= n_d
    np.add(ents[:, 3], dmax, out=tmp)
    key += tmp
    key *= 2
    np.einsum("ij,ij->i", ents[:, :2], ents[:, 2:], out=tmp)  # a c + b d
    key += np.greater(tmp, 0, out=tmp)
    del tmp
    return CosetTable(lam, gamma, float(height), ents, np.argsort(key))
