"""Unimodular integer 2x2 matrices, congruence subgroups, and actions on
the upper half-plane.

Covers the group-theoretic substrate: Moebius action and its cocycle,
principal-branch real powers, Iwasawa and Cartan coordinates, membership
tests for the supported subgroup families, reduction of a matrix to a word
in the standard generators, coset enumeration inside a Frobenius-norm ball,
and cusp widths.  Enumeration serves both stabilisers, Gamma_inf(M) and
<-I>, with one loop over coprime bottom rows (c, d) and a translation
parameter t per row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "IntMatrix2", "GroupSpec", "CosetTable",
    "I2", "S", "T", "t_power",
    "mobius_act", "cocycle_j", "arg_principal", "real_power",
    "principal_power", "entry_arrays", "slash_kernel",
    "iwasawa_decompose", "cartan_decompose",
    "contains", "word_in_st", "st_syllables",
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

    def __pow__(self, n: int) -> "IntMatrix2":
        if n < 0:
            return self.inv() ** (-n)
        out = I2
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def norm_sq(self) -> int:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


I2 = IntMatrix2(1, 0, 0, 1)
S = IntMatrix2(0, -1, 1, 0)
T = IntMatrix2(1, 1, 0, 1)


def t_power(n: int) -> IntMatrix2:
    """The translation matrix (1 n; 0 1)."""
    return IntMatrix2(1, n, 0, 1)


def _as_complex(tau) -> complex:
    """Coerce a complex-like to a complex number in the half-plane."""
    z = complex(tau)
    if not z.imag > 0:
        raise DomainError(f"tau must lie in the upper half-plane, got {z}")
    return z


def _row_entries(g) -> tuple:
    if isinstance(g, IntMatrix2):
        return (float(g.a), float(g.b), float(g.c), float(g.d))
    m = np.asarray(g, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    return (m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def mobius_act(g, tau) -> complex:
    """Fractional linear action g.tau = (a tau + b)/(c tau + d)."""
    a, b, c, d = _row_entries(g)
    z = _as_complex(tau)
    return (a * z + b) / (c * z + d)


def cocycle_j(g, tau) -> complex:
    """The automorphy cocycle j(g, tau) = c tau + d."""
    _, _, c, d = _row_entries(g)
    return c * _as_complex(tau) + d


def arg_principal(z: complex) -> float:
    """Argument in ]-pi, pi]; negative reals get +pi regardless of the
    sign of a zero imaginary part."""
    z = complex(z)
    if z.imag == 0.0:
        if z.real == 0.0:
            raise DomainError("argument of zero is undefined")
        return 0.0 if z.real > 0 else math.pi
    return math.atan2(z.imag, z.real)


def real_power(z: complex, k: float) -> complex:
    """z**k with |z|**k e^{ik arg z}, arg in ]-pi, pi]."""
    z = complex(z)
    if z == 0:
        raise DomainError("0**k is undefined here")
    return cmath.exp(k * (math.log(abs(z)) + 1j * arg_principal(z)))


def principal_power(z: np.ndarray, k: float) -> np.ndarray:
    """Elementwise z**k = |z|**k e^{ik arg z} for complex arrays, with
    arg = np.angle in [-pi, pi].  Callers pass values with Im z > 0 or
    Im z = +0.0, so a negative real gets arg = pi as in arg_principal."""
    return np.exp(k * (np.log(np.abs(z)) + 1j * np.angle(z)))


def entry_arrays(mats) -> tuple:
    """Entry arrays (a, b, c, d) as float64 over a sequence of matrices."""
    ents = np.array([g.entries() for g in mats], dtype=float).reshape(-1, 4)
    return tuple(ents.T.copy())


def slash_kernel(a, b, c, d, taus, k: float) -> tuple:
    """The weight-k slash factors for every (point, matrix) pair.

    Returns (j(g, tau)^{-k}, g.tau) as arrays of shape (points, matrices),
    with g running over the entry arrays (a, b, c, d) and tau over taus.
    The entries are integers and Im tau > 0, so Im(c tau + d) is +0.0 when
    c = 0: a negative real j lies on the upper side of the cut, where
    np.angle and arg_principal both put it (arg = pi).
    """
    tt = np.asarray(taus, dtype=complex)[:, None]
    jj = c[None, :] * tt + d[None, :]
    return principal_power(jj, -k), (a[None, :] * tt + b[None, :]) / jj


def iwasawa_decompose(g) -> tuple:
    """Coordinates (x, y, theta) with g = n_x a_y k_theta; x + iy = g.i."""
    a, b, c, d = _row_entries(g)
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise DomainError(f"matrix must have determinant 1, got {det}")
    r = c * c + d * d
    y = 1.0 / r
    x = (a * c + b * d) * y
    theta = math.atan2(c, d)
    return (x, y, theta)


def cartan_decompose(g) -> tuple:
    """Coordinates (theta1, t, theta2) with g = k_{theta1} h_t k_{theta2}.

    Normalised so t >= 0, theta1 in [0, pi), theta2 in [0, 2 pi); for t = 0
    the convention is theta1 = 0.
    """
    a, b, c, d = _row_entries(g)
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise DomainError(f"matrix must have determinant 1, got {det}")
    m = np.array([[a, b], [c, d]])
    u, sv, vt = np.linalg.svd(m)
    # land both rotation factors in SO(2); det u = det vt since det m = 1
    if np.linalg.det(u) < 0:
        u = u @ np.diag([1.0, -1.0])
        vt = np.diag([1.0, -1.0]) @ vt
    t = math.log(max(sv[0], 1.0))
    if t < 1e-13:
        t = 0.0
        theta1 = 0.0
        theta2 = math.atan2(c, a)
    else:
        theta1 = math.atan2(u[1, 0], u[0, 0])
        theta2 = math.atan2(vt[1, 0], vt[0, 0])
    if theta1 < 0:
        theta1 += math.pi
        theta2 += math.pi
    theta2 = theta2 % (2.0 * math.pi)
    return (theta1, t, theta2)


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


def contains(spec: GroupSpec, g: IntMatrix2) -> bool:
    """Membership test by congruence conditions."""
    if spec.kind == "SL2Z":
        return True
    if spec.kind == "Gamma0":
        return g.c % spec.n == 0
    if spec.kind == "Gamma1pm":
        n = spec.n
        if g.c % n != 0:
            return False
        return (g.a % n == 1 % n and g.d % n == 1 % n) or \
               (g.a % n == (-1) % n and g.d % n == (-1) % n)
    if spec.kind == "GammaNpm":
        n = spec.n
        for sgn in (1, -1):
            if (g.a % n == sgn % n and g.d % n == sgn % n
                    and (sgn * g.b) % n == 0 and (sgn * g.c) % n == 0):
                return True
        return False
    if spec.kind == "GammaInfinity":
        return g.c == 0 and g.a == g.d and abs(g.a) == 1 and g.b % spec.n == 0
    if spec.kind == "PlusMinusIdentity":
        return g == I2 or g == -I2
    raise ValueError(spec.kind)


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


def word_in_st(g: IntMatrix2):
    """Express g as a word over {S, T, T^-1}.

    Returns (letters, sign): the product of the letters equals sign * g.
    """
    syll, sign = st_syllables(g)
    letters = []
    for kind, e in syll:
        if kind == "S":
            letters.append("S")
        elif e >= 0:
            letters.extend(["T"] * e)
        else:
            letters.extend(["T^-1"] * (-e))
    return letters, sign


_LETTER = {"S": S, "T": T, "T^-1": T.inv()}


def evaluate_word(letters) -> IntMatrix2:
    """Multiply out a list of generator letters."""
    out = I2
    for let in letters:
        out = out * _LETTER[let]
    return out


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


def right_coset_reps(gamma: GroupSpec, max_index: int = 100000):
    """Representatives g_j with SL2(Z) equal to the disjoint union of the
    right cosets gamma * g_j; g_1 is the identity.

    Breadth-first search over the generator graph, so the output is
    deterministic.
    """
    if not gamma.finite_index:
        raise ValueError(f"{gamma} does not have finite index")
    reps = [I2]
    frontier = [I2]
    gens = (T, T.inv(), S)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                cand = g * h
                if not any(contains(gamma, cand * r.inv()) for r in reps):
                    reps.append(cand)
                    nxt.append(cand)
                    if len(reps) > max_index:
                        raise RuntimeError("coset search exceeded max_index")
        frontier = nxt
    return reps


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Canonical representatives of the left lam-cosets inside gamma whose
    canonical representative has Frobenius norm <= height."""

    lam: GroupSpec
    gamma: GroupSpec
    height: float
    reps: tuple

    def __len__(self):
        return len(self.reps)

    def arrays(self):
        """Entry arrays (a, b, c, d) as float64, in table order."""
        return entry_arrays(self.reps)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam.to_json(),
            "gamma": self.gamma.to_json(),
            "height": self.height,
            "reps": [list(g.entries()) for g in self.reps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CosetTable":
        reps = tuple(IntMatrix2(*r) for r in data["reps"])
        return cls(GroupSpec.from_json(data["lambda"]),
                   GroupSpec.from_json(data["gamma"]),
                   float(data["height"]), reps)


def enumerate_cosets(lam: GroupSpec, gamma: GroupSpec, height: float) -> CosetTable:
    """Enumerate canonical left lam-coset representatives in gamma with
    Frobenius norm at most height.

    lam must be GammaInfinity(M) or PlusMinusIdentity.  Representatives are
    canonicalised (sign so that the first nonzero of (c, d, a) is positive;
    for the translation stabiliser additionally a reduced into [0, M c),
    and (a, d) = (1, 1) with b in [0, M) when c = 0), so tables are
    deterministic.

    A coset of either stabiliser is a coprime bottom row (c, d), c > 0 or
    (c, d) = (0, 1), plus a translation parameter t: with a0 d - b0 c = 1
    every top row is (a0 + t c, b0 + t d).  One loop walks the rows inside
    the ball; only the window of t depends on the stabiliser.
    """
    if lam.kind not in ("GammaInfinity", "PlusMinusIdentity"):
        raise ValueError(f"lam must be a translation stabiliser or <-I>, got {lam}")
    if not (lam.kind == "PlusMinusIdentity" or contains(gamma, t_power(lam.n))):
        raise ValueError(f"{lam} is not a subgroup of {gamma}")
    h2 = int(math.floor(height * height + 1e-9))
    # every supported finite-index group of level N (Gamma0, Gamma1pm,
    # GammaNpm) has N | c, so other rows cannot occur
    step = gamma.level if gamma.finite_index else 1
    # Gamma_inf(M) takes every t in one fixed window; <-I> takes the t of
    # each row whose matrix lies in the ball
    fixed = range(lam.n) if lam.kind == "GammaInfinity" else None
    reps = []
    for c in range(0, math.isqrt(h2) + 1, step):
        dmax = math.isqrt(h2 - c * c)
        for d in range(-dmax, dmax + 1) if c else (1,):
            rem = h2 - c * c - d * d
            if rem < 1 or math.gcd(c, d) != 1:
                continue
            a0 = pow(d, -1, c) if c else 1
            b0 = (a0 * d - 1) // c if c else 0
            window = fixed
            if window is None:
                # integer roots of (a0 + t c)^2 + (b0 + t d)^2 <= rem
                qa = c * c + d * d
                qb = 2.0 * (a0 * c + b0 * d)
                disc = qb * qb - 4.0 * qa * (a0 * a0 + b0 * b0 - rem)
                if disc < 0:
                    continue
                rt = math.sqrt(disc)
                window = range(math.ceil((-qb - rt) / (2.0 * qa) - 1e-12),
                               math.floor((-qb + rt) / (2.0 * qa) + 1e-12) + 1)
            for t in window:
                a, b = a0 + t * c, b0 + t * d
                if a * a + b * b <= rem:
                    g = IntMatrix2(a, b, c, d)
                    if contains(gamma, g):
                        reps.append(g)
    reps.sort(key=lambda g: (g.norm_sq(), g.c, g.d, g.a, g.b))
    return CosetTable(lam, gamma, float(height), tuple(reps))
