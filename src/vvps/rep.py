"""Finite-dimensional unitary representations of the supported groups.

Recipes, which are also the formats in which to_json writes a rep file
and from_json reads one: trivial; dirichlet, a character acting on
Gamma0(N) through the lower-right entry; and st_generated, a
representation of SL2(Z) given by unitary images of S and T.  Inducing
from a finite-index subgroup assembles the block-permutation images of S
and T once, so an induced representation is an st_generated one.

evaluate_rho(rep, g) gives one matrix, walking the S/T word of g for a
generator-image representation.  fold_rho gives rho(g)^* w, for a vector
or a matrix w, for a whole array of matrices without a loop over them.
Every other evaluation looks rho up by class in one place
(_class_lookup), which first refuses any matrix with ad - bc != 1: one
class for the trivial recipe and d mod N for a Dirichlet character mod N,
with one refusal of a matrix outside the group.  A generator-image rho
that factors through SL2(Z/NZ), N the order of rho(T) -- every rho induced
from a congruence subgroup does -- has one class per element of that
finite group, tabulated one right coset x<T> at a time with every edge of
its Cayley graph checked (_level_table), once per rho, which keeps the
table read-only beside its analyses.  Class y N + j is x_y T^j, y the
coset of the first column of x_y, so a matrix finds its class from its
residues mod N by arithmetic (_element).  A class stores the permutation
pi_g, with rho(g)^* w the gather w[pi_g], when rho(S) and rho(T) are
permutation matrices (every rho induced from a trivial representation),
else conj(rho(g)).  A rho that does not factor (a non-congruence kernel,
or rho(T) of no finite order), or whose table would pass 4 MB, keeps None
instead, and fold_rho walks the S/T word of each matrix.

One analysis (_analysis) of the cusp monodromy e^{2 pi i kappa M}
rho(T^M), kept on rho by (kappa, M), decides finite order: one
eigendecomposition, the root of unity e^{2 pi i r/n} of each eigenvalue
(_exponent: r/n a convergent of arg / 2 pi), and a split into a unitary
U and exponents m_j = r/n in ]0, 1], accepted only when it rebuilds the
monodromy within _UNITARY_TOL.  check_normal and spectral_split read it,
and at kappa = 0, M = 1 it gives the level table its modulus N.
SpectralSplit.residual measures how far any split is from the monodromy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .modgroup import (GroupSpec, I2, IntMatrix2, S, T, _coset_key, contains, cusp_width,
                       entry_arrays, st_syllables, t_power)
from .multiplier import MultiplierSystem

__all__ = [
    "RepSpec", "SpectralSplit",
    "trivial_rep", "dirichlet_rep", "st_rep",
    "evaluate_rho", "fold_rho", "permutation_ell", "induce", "check_normal", "spectral_split",
]

_UNITARY_TOL = 1e-10
# largest root order of a monodromy eigenvalue that check_normal accepts
_MAX_ORDER = 360
# largest stored level table of rho, in bytes: |SL2(Z/NZ)| p int32
# permutations or |SL2(Z/NZ)| p^2 complex entries
_TABLE_BYTES = 1 << 22


@dataclass(frozen=True, eq=False)
class RepSpec:
    """A unitary representation given by one of the supported recipes."""

    recipe: str
    p: int
    group: GroupSpec
    chi: Optional[tuple] = None          # dirichlet: values indexed mod N
    s_img: Optional[np.ndarray] = None   # st_generated
    t_img: Optional[np.ndarray] = None
    _analyses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.recipe not in ("trivial", "dirichlet", "st_generated"):
            raise ValueError(f"unknown recipe {self.recipe!r}")
        if self.p < 1:
            raise ValueError("dimension must be positive")

    def to_json(self) -> dict:
        out = {"recipe": self.recipe, "p": self.p, "group": self.group.to_json()}
        if self.recipe == "dirichlet":
            out["values"] = [[z.real, z.imag] for z in self.chi]
        elif self.recipe == "st_generated":
            out["matrices"] = {"S": _mat_to_json(self.s_img), "T": _mat_to_json(self.t_img)}
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RepSpec":
        recipe = data["recipe"]
        group = GroupSpec.from_json(data["group"])
        if recipe == "dirichlet":
            vals = [complex(re, im) for re, im in data["values"]]
            return dirichlet_rep(group.n, vals)
        if recipe == "st_generated":
            return st_rep(_mat_from_json(data["matrices"]["S"]),
                          _mat_from_json(data["matrices"]["T"]))
        return cls(recipe, int(data["p"]), group)  # trivial; refuses any other recipe


def _mat_to_json(m: np.ndarray):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def _mat_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def trivial_rep(p: int, group: GroupSpec = GroupSpec.sl2z()) -> RepSpec:
    return RepSpec("trivial", p, group)


def dirichlet_rep(n: int, values) -> RepSpec:
    """One-dimensional representation chi(d) I on Gamma0(n).

    values[r] is chi(r) for residues r coprime to n (other slots are
    ignored); complete multiplicativity and unitarity are verified.
    """
    vals = [complex(v) for v in values]
    if len(vals) != n:
        raise ValueError(f"need {n} values, got {len(vals)}")
    units = [r for r in range(n) if math.gcd(r, n) == 1]
    for r in units:
        if abs(abs(vals[r]) - 1.0) > 1e-12:
            raise ValueError(f"chi({r}) is not on the unit circle")
    for r in units:
        for s in units:
            if abs(vals[(r * s) % n] - vals[r] * vals[s]) > 1e-10:
                raise ValueError("character table is not multiplicative")
    return RepSpec("dirichlet", 1, GroupSpec.gamma0(n), chi=tuple(vals))


def st_rep(s_img, t_img) -> RepSpec:
    """Representation of SL2(Z) from unitary images of S and T.

    The defining relations are verified at construction: S^4 = I,
    (ST)^6 = I, S^2 = (ST)^3 (hence S^2 is central), which is exactly what
    makes word evaluation well defined.
    """
    s = np.asarray(s_img, dtype=complex)
    t = np.asarray(t_img, dtype=complex)
    if s.shape != t.shape or s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("generator images must be square matrices of equal size")
    p = s.shape[0]
    eye = np.eye(p)
    st = s @ t
    st3 = st @ st @ st
    s2 = s @ s
    for lhs, rhs, what in ((s @ s.conj().T, eye, "rho(S) is not unitary"),
                           (t @ t.conj().T, eye, "rho(T) is not unitary"),
                           (s2 @ s2, eye, "rho(S)^4 != I"),
                           (st3 @ st3, eye, "(rho(S) rho(T))^6 != I"),
                           (s2, st3, "rho(S)^2 != (rho(S) rho(T))^3"),
                           (s2 @ t, t @ s2, "rho(S)^2 does not commute with rho(T)")):
        if np.linalg.norm(lhs - rhs) > _UNITARY_TOL:
            raise ValueError(what)
    return RepSpec("st_generated", p, GroupSpec.sl2z(), s_img=s, t_img=t)


def evaluate_rho(rep: RepSpec, g: IntMatrix2) -> np.ndarray:
    """The matrix rho(g)."""
    if rep.recipe == "st_generated":
        syll, sign = st_syllables(g)
        out = np.eye(rep.p, dtype=complex)
        for kind, e in syll:
            t_e = rep.t_img if e >= 0 else rep.t_img.conj().T  # rho(T)^-1 = rho(T)^*
            out = out @ (np.linalg.matrix_power(t_e, abs(e)) if kind == "T" else rep.s_img)
        if sign < 0:
            out = (rep.s_img @ rep.s_img) @ out
        return out
    mats, idx = _class_lookup(rep, entry_arrays([g]))
    return mats[idx[0]].conj()


def _sl2_order(n: int) -> int:
    """|SL2(Z/nZ)| = n^3 prod_{q | n} (1 - q^-2), q prime."""
    out, m, q = n ** 3, n, 2
    while m > 1:
        if q * q > m:
            q = m
        if m % q == 0:
            out = out // (q * q) * (q * q - 1)
            while m % q == 0:
                m //= q
        q += 1
    return out


def _level_table(rep: RepSpec):
    """rho on SL2(Z/NZ) for an st_generated rho, N the order of rho(T).

    Returns (N, coset, reps, table): row y N + j of table stores rho on
    the element x T^j of the right coset x<T> of SL2(Z/NZ) with
    representative x = reps[y], and coset[a N + c] = y names that coset by
    the first column (a, c) of x (_element).  When rho(S) and rho(T) are
    permutation matrices (every entry exactly 0 or 1), a row is the
    permutation pi_g with rho(g) e_j = e_{pi_g(j)}, so rho(g)^* w = w[pi_g],
    and a class composes with rho(S) and rho(T) by a gather, checked
    exactly; otherwise it is the p x p complex conjugate of rho(g), which
    composes by a matrix product, checked to 1e-10.  By Wohlfahrt's level
    theorem a rho whose kernel is a congruence subgroup factors through
    SL2(Z/NZ).  Returns None when it does not (a failed edge check), when
    rho(T) has no finite order (_analysis of rho(T) finds no split), or
    when the stored rows would pass _TABLE_BYTES.
    """
    found = _analysis(rep, 0.0, 1)
    if found is None:
        return None
    pi_s, pi_t = _permutation(rep.s_img), _permutation(rep.t_img)
    if pi_s is not None and pi_t is not None:
        return _coset_table(found[1], np.arange(rep.p, dtype=np.int32), pi_s, pi_t,
                            lambda x, g: x[:, g], np.array_equal)
    return _coset_table(found[1], np.eye(rep.p, dtype=complex), rep.s_img.conj(),
                        rep.t_img.conj(), lambda x, g: x[:, None] @ g,
                        lambda x, y: np.linalg.norm(x - y, axis=(-2, -1)).max() <= _UNITARY_TOL)


def _permutation(m: np.ndarray):
    """pi with m e_j = e_{pi(j)}, as int32, when m is a permutation matrix
    with every entry exactly 0 or 1, else None."""
    if not (np.isin(m, (0, 1)).all() and (m.sum(axis=0) == 1).all()
            and (m.sum(axis=1) == 1).all()):
        return None
    return m.argmax(axis=0).astype(np.int32)


def _coset_table(n: int, one: np.ndarray, s: np.ndarray, t: np.ndarray, compose, agree):
    """The level table in the stored form of one, s and t, the classes of
    I, S and T, built one right coset x<T> of SL2(Z/NZ) at a time; None if
    a check fails or the table would pass _TABLE_BYTES.  For stacks x and
    g of classes, compose(x, g)[i, k] is the class x_i g_k, and agree(x, y)
    decides whether two stacks are equal.

    A coset x<T> is named by the first column (a, c) of x; its N elements
    x T^m get x T^m in one compose, so the T-edges hold by construction
    once T^N agrees with I.  The cosets are reached breadth first along
    x T^m -> x T^m S, whose first column is the second column of x T^m: a
    new column makes a coset with representative x T^m S.  Then every
    S-edge is checked, x T^m S against the stored element (_element) of
    its coset.  With the search reaching all |SL2(Z/NZ)| elements, these
    identities make the row of g mod N the class of g for every g."""
    size = _sl2_order(n)
    if size * one.nbytes > _TABLE_BYTES:
        return None
    powers = [one]  # powers[m] = T^m
    for _ in range(n):
        powers.append(compose(powers[-1][None], t[None])[0, 0])
    if not agree(powers.pop(), one):
        return None
    powers = np.array(powers)
    count = size // n
    rows = np.empty((count, n) + one.shape, dtype=one.dtype)
    reps = np.empty((count, 4), dtype=np.int64)  # the representative x of each coset
    coset = np.full(n * n, -1, dtype=np.int64)   # the coset of first column (a, c), at a N + c
    reps[0] = (1 % n, 0, 0, 1 % n)
    coset[reps[0, 0] * n] = 0
    rows[0] = powers
    flat = rows.reshape((size,) + one.shape)  # a view: row y N + m is rows[y, m]
    steps = np.arange(n)
    # cosets leave the first-in first-out queue in blocks of at most 2^18
    # bytes of table, which bounds the temporaries of composes and checks
    block = max(1, (1 << 18) // powers.nbytes)
    lo, known = 0, 1
    while lo < known:
        hi = min(lo + block, known)
        a, b, c, d = np.repeat(reps[lo:hi], n, axis=0).T  # x T^m = (a, b + m a, c, d + m c)
        m = np.tile(steps, hi - lo)
        b, d = (b + m * a) % n, (d + m * c) % n
        image = compose(rows[lo:hi].reshape((-1,) + one.shape), s[None])[:, 0]
        fresh = np.flatnonzero(coset[b * n + d] < 0)
        fresh = fresh[np.unique(b[fresh] * n + d[fresh], return_index=True)[1]]
        made = np.arange(known, known + len(fresh))
        known += len(fresh)
        coset[b[fresh] * n + d[fresh]] = made
        reps[made] = np.stack([b[fresh], -a[fresh] % n, d[fresh], -c[fresh] % n], axis=1)
        rows[made] = compose(image[fresh], powers)
        if not agree(flat[_element(coset, reps, n, b, -a % n, d, -c % n)], image):
            return None
        lo = hi
    if known < count:  # the search stopped short of SL2(Z/NZ)
        return None
    for kept in (coset, reps, flat):
        kept.setflags(write=False)  # every caller shares the memoised table
    return n, coset, reps, flat


def _element(coset, reps, n: int, a, b, c, d):
    """The table row y N + j of the matrices (a, b, c, d) of SL2(Z/NZ),
    given by their residues mod N: y = coset[a N + c] is the coset x<T>
    of their first column, x = reps[y], and j = d_x b - b_x d is the power
    with x T^j = (a, b, c, d), since a d_x - b_x c = 1."""
    y = coset[a * n + c]
    return y * n + (reps[y, 3] * b - reps[y, 1] * d) % n


def _class_lookup(rep: RepSpec, ents: np.ndarray):
    """(table, idx): row i of table holds rho on class i of a finite
    quotient, idx the class of each row (a, b, c, d) of ents.  A row is
    the complex conjugate of rho(g), p x p, or for a permutation rho the
    permutation pi_g itself (_level_table).  A row with ad - bc != 1 is
    refused for every recipe.  The trivial recipe has one class and the
    Dirichlet recipe one per residue d mod N, and a row outside rep.group
    is refused; an st_generated rho has one class per element of
    SL2(Z/NZ), found from the residues mod N by _element in the table
    kept in rep._analyses under "table", or None when it has no table."""
    a, b, c, d = ents.T
    unimodular = a * d - b * c == 1
    if not unimodular.all():
        raise ValueError(f"{ents[unimodular.argmin()].tolist()} is not in SL2(Z): ad - bc != 1")
    if rep.recipe == "st_generated":
        if "table" not in rep._analyses:
            rep._analyses["table"] = _level_table(rep)
        if rep._analyses["table"] is None:
            return None
        n, coset, reps, rows = rep._analyses["table"]
        return rows, _element(coset, reps, n, *(ents % n).T)
    outside = ~contains(rep.group, ents)
    if outside.any():
        raise ValueError(f"{IntMatrix2(*ents[outside.argmax()].tolist())} "
                         f"is not in {rep.group}")
    if rep.recipe == "trivial":
        return np.eye(rep.p, dtype=complex).conj()[None], np.zeros(len(ents), dtype=np.intp)
    return np.conj(rep.chi).reshape(-1, 1, 1), ents[:, 3] % rep.group.n


def fold_rho(rep: RepSpec, w, ents) -> np.ndarray:
    """The products rho(g)^* w, one per row (a, b, c, d) of the integer
    array ents of shape (n, 4), for a vector or a p x p matrix w: shape
    (n,) + shape(w), so w = I gives the matrices rho(g)^* themselves.

    A ValueError refuses a w whose leading dimension is not p, then the
    first row with ad - bc != 1.  rho is looked up by class (_class_lookup,
    in the level table rho keeps) and w folded once per class present --
    every class when the rows outnumber them -- then gathered by the class
    of each row.  A dense class folds as the product of its conjugate
    transpose with w, a permutation class pi as the gather w[pi], which
    equals that product bit for bit.  Without a table, an st_generated rho
    walks each row's S/T word (evaluate_rho).
    """
    if np.shape(w)[:1] != (rep.p,):
        raise ValueError(f"w has shape {np.shape(w)}; its leading dimension must be p = {rep.p}")
    ents = np.asarray(ents, dtype=np.int64).reshape(-1, 4)
    lookup = _class_lookup(rep, ents)
    if lookup is None:
        out = np.empty((len(ents),) + np.shape(w), dtype=complex)
        for i, row in enumerate(ents):
            out[i] = evaluate_rho(rep, IntMatrix2(*map(int, row))).conj().T @ w
        return out
    rows, idx = lookup
    if len(idx) < len(rows):
        used, idx = np.unique(idx, return_inverse=True)
        rows = rows[used]
    if rows.ndim == 2:
        folded = np.asarray(w, dtype=complex)[rows]
    else:
        folded = rows.transpose(0, 2, 1) @ w
    return folded[idx]


def permutation_ell(g: IntMatrix2, cosets, group: GroupSpec):
    """The permutation l with group * cosets[j] * g^{-1} = group * cosets[l(j)].

    Zero-indexed.  Raises unless the list is a full right-coset system:
    no two cosets share a _coset_key and every image is a listed coset.
    """
    index = {_coset_key(group, r): l for l, r in enumerate(cosets)}
    ginv = g.inv()
    ell = tuple(index.get(_coset_key(group, r * ginv)) for r in cosets)
    if len(index) != len(cosets) or set(ell) != set(range(len(cosets))):
        raise ValueError("invalid coset system: map is not a permutation")
    return ell


def _induced_image(inner: RepSpec, cosets, g: IntMatrix2) -> np.ndarray:
    """rho(g) of the induced representation: block (l(j), j) is
    inner(cosets[l(j)] g cosets[j]^{-1})."""
    d = len(cosets)
    p = inner.p
    ell = permutation_ell(g, cosets, inner.group)
    out = np.zeros((p * d, p * d), dtype=complex)
    for s_idx in range(d):
        l = ell[s_idx]
        blk = evaluate_rho(inner, cosets[l] * g * cosets[s_idx].inv())
        out[l * p:(l + 1) * p, s_idx * p:(s_idx + 1) * p] = blk
    return out


def induce(rep: RepSpec, cosets) -> RepSpec:
    """The representation of SL2(Z) induced from rep through the given
    right-coset representatives (cosets[0] must be the identity), returned
    as its images of S and T."""
    cosets = tuple(cosets)
    if not cosets or cosets[0] != I2:
        raise ValueError("coset list must start with the identity")
    # permutation_ell rejects a list with coinciding cosets: two cosets
    # with one _coset_key, or an image outside the list
    return st_rep(_induced_image(rep, cosets, S), _induced_image(rep, cosets, T))


def _monodromy(rep: RepSpec, kappa: float, m_width: int) -> np.ndarray:
    """The cusp monodromy e^{2 pi i kappa M} rho(T^M) at infinity."""
    return cmath.exp(2j * math.pi * kappa * m_width) * evaluate_rho(rep, t_power(m_width))


def _exponent(lam: complex) -> Optional[tuple]:
    """(r, n) with lam within 1e-8 of e^{2 pi i r/n}, r/n in lowest terms
    with n <= _MAX_ORDER and r in 1..n, or None.  r/n is the last
    convergent with n <= _MAX_ORDER of the continued fraction of theta =
    arg(lam) / 2 pi, walked exactly on the float's integer ratio.  A
    passing fraction lies within ~1.6e-9 of theta, below 1/(2 n^2), so it
    is a convergent (Legendre); two fractions of such denominators lie at
    least 1/(360 * 359) apart, so no later convergent can pass.  m = r/n
    lies in ]0, 1]: eigenvalue 1 gives m = 1, and -1 gives m = 1/2 from
    either side of the cut."""
    num, den = (math.atan2(lam.imag, lam.real) / (2.0 * math.pi)).as_integer_ratio()
    r0, n0, r, n = 0, 1, 1, 0  # the two latest convergents
    while den:
        a, rem = divmod(num, den)
        if a * n + n0 > _MAX_ORDER:
            break
        r0, n0, r, n = r, n, a * r + r0, a * n + n0
        num, den = den, rem
    return ((r - 1) % n + 1, n) if abs(lam - cmath.exp(2j * math.pi * r / n)) <= 1e-8 else None


def _analysis(rep: RepSpec, kappa: float, m_width: int):
    """(split, order) of the cusp monodromy at width M, or None: the split
    of spectral_split if it rebuilds the monodromy within _UNITARY_TOL, and
    the lcm of the n of m_j = r/n, kept in rep._analyses by (kappa, M), so
    it is freed with rep.  kappa = 0, M = 1 analyses rho(T) itself."""
    key = (kappa, m_width)
    if key not in rep._analyses:
        rep._analyses[key] = _analyse(rep, kappa, m_width)
    return rep._analyses[key]


def _analyse(rep: RepSpec, kappa: float, m_width: int):
    mono = _monodromy(rep, kappa, m_width)
    if rep.p == 1:  # the entry is the eigenvalue, and U = [[1]]
        exps = [_exponent(complex(mono[0, 0]))]
        if None in exps:
            return None
        split = SpectralSplit(np.ones((1, 1), dtype=complex), (exps[0][0] / exps[0][1],))
    else:
        eigvals, eigvecs = np.linalg.eig(mono)
        exps = [_exponent(lam) for lam in eigvals]
        if None in exps:
            return None
        order = sorted(range(rep.p), key=lambda i: exps[i][0] / exps[i][1])
        m = [exps[i][0] / exps[i][1] for i in order]
        eigvecs = eigvecs[:, order]
        # orthonormalise within clusters of equal m; distinct eigenspaces of
        # a unitary matrix are already orthogonal
        i = 0
        for j in range(1, rep.p + 1):
            if j == rep.p or m[j] != m[i]:
                eigvecs[:, i:j] = np.linalg.qr(eigvecs[:, i:j])[0]
                i = j
        eigvecs /= np.linalg.norm(eigvecs, axis=0, keepdims=True)
        split = SpectralSplit(np.array([_phase_fix(v.conj()) for v in eigvecs.T]), tuple(m))
    split.U.setflags(write=False)  # every caller shares the memoised split
    return None if split._misfit(mono) > _UNITARY_TOL else (split, math.lcm(*(n for _, n in exps)))


def check_normal(rep: RepSpec, ms: MultiplierSystem, gamma: GroupSpec) -> Optional[int]:
    """The order of the cusp monodromy at infinity when rho(-I) = I and
    that order is finite, else None.

    The monodromy e^{2 pi i kappa M} rho(T^M), M the cusp width of gamma
    (1 for a group without finite index, such as a stabiliser), passes when
    the split of spectral_split rebuilds it within _UNITARY_TOL
    (_analysis); its order is the lcm of the orders n of its m_j = r/n.
    """
    if np.linalg.norm(evaluate_rho(rep, -I2) - np.eye(rep.p)) > _UNITARY_TOL:
        return None
    found = _analysis(rep, ms.kappa, cusp_width(gamma, I2) if gamma.finite_index else 1)
    return None if found is None else found[1]


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """Unitary diagonalisation of the cusp monodromy at infinity:
    rho(T^M) = e^{-2 pi i kappa M} U^{-1} diag(e^{2 pi i m_j}) U with
    m_j = r/n in ]0, 1] (eigenvalue 1 maps to m = 1)."""

    U: np.ndarray
    m: tuple

    @property
    def p(self) -> int:
        return len(self.m)

    def residual(self, rep: RepSpec, ms: MultiplierSystem, m_width: int) -> float:
        """||e^{2 pi i kappa M} rho(T^M) - U^* diag(e^{2 pi i m_j}) U||, how
        far this split is from diagonalising the cusp monodromy of (rho, v)
        at width M."""
        return self._misfit(_monodromy(rep, ms.kappa, m_width))

    def _misfit(self, mono: np.ndarray) -> float:
        diag = np.diag([cmath.exp(2j * math.pi * mj) for mj in self.m])
        return float(np.linalg.norm(mono - self.U.conj().T @ diag @ self.U))


def _phase_fix(vec: np.ndarray) -> np.ndarray:
    big = np.abs(vec)
    piv = vec[int(np.argmax(big > 1e-8 * big.max()))]
    return vec * (piv.conjugate() / abs(piv))


def spectral_split(rep: RepSpec, ms: MultiplierSystem, m_width: int) -> SpectralSplit:
    """The split of e^{2 pi i kappa M} rho(T^M) (_analysis): m_j = r/n
    exactly, m_1 <= ... <= m_p, tied m_j in the order of np.linalg.eig.
    Refused unless it rebuilds the monodromy and check_normal passes."""
    if not contains(rep.group, t_power(m_width)):
        raise ValueError(f"T^{m_width} is not in {rep.group}")
    found = _analysis(rep, ms.kappa, m_width)
    # check_normal analyses the cusp width of rep.group, a divisor of M
    if found is None or check_normal(rep, ms, rep.group) is None:
        if found is not None:  # the failing width is that of rep.group
            m_width = cusp_width(rep.group, I2) if rep.group.finite_index else 1
        raise ValueError(f"representation is not normal at width {m_width}: rho(-I) != I, or no "
                         f"exact split rebuilds its cusp monodromy within residual {_UNITARY_TOL:g}")
    return found[0]
