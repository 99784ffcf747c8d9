"""Slash actions and truncated evaluation of Poincare series.

A SeriesHandle bundles a seed, the groups, the representation, the
multiplier system, the weight, and a coset table; evaluation sums the
slashed seed over the table with exactly-rounded (compensated) summation
and reports an empirical tail proxy, the mass of the outermost tenth of
the included cosets by Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._quad import block_sum
from .errors import DomainError, RefusalError
from .modgroup import (CosetTable, GroupSpec, IntMatrix2, _as_complex,
                       contains, entry_arrays, enumerate_cosets, slash_kernel)
from .multiplier import MultiplierSystem, evaluate_v
from .rep import RepSpec, _monodromy, check_normal, evaluate_rho
from .seeds import ClassicalSeed, EllipticSeed, SeedFn

__all__ = ["SeriesHandle", "build_series", "slash_k", "slash_k_rho", "twist",
           "check_transformation", "sup_norm_probe", "MIN_IM"]

MIN_IM = 0.05  # evaluation closer to the real line than this is refused


def twist(ms: MultiplierSystem, rep: RepSpec, g: IntMatrix2, w):
    """conj(v(g)) rho(g)^* w, the inverse multiplier and representation
    factors of the twisted slash action, applied to a vector (or to the
    columns of a matrix)."""
    return evaluate_v(ms, g).conjugate() * (evaluate_rho(rep, g).conj().T @ w)


def _slash_at(F, g: IntMatrix2, k: float, tau):
    """j(g, tau)^{-k} F(g.tau) at one point, through slash_kernel."""
    jmk, z = slash_kernel(*entry_arrays([g]), [_as_complex(tau)], k)
    return jmk[0, 0] * np.asarray(F(complex(z[0, 0])))


def slash_k(F, g: IntMatrix2, ms: MultiplierSystem, k: float):
    """The weight-k slash action: tau -> v(g)^{-1} j(g,tau)^{-k} F(g.tau)."""
    vinv = evaluate_v(ms, g).conjugate()
    return lambda tau: vinv * _slash_at(F, g, k, tau)


def slash_k_rho(F, g: IntMatrix2, rep: RepSpec, ms: MultiplierSystem, k: float):
    """The rho-twisted slash action: rho(g)^{-1} (F |_k g)."""
    return lambda tau: twist(ms, rep, g, _slash_at(F, g, k, tau))


@dataclass(eq=False)
class SeriesHandle:
    """A truncated Poincare series ready for evaluation."""

    seed: SeedFn
    lam: GroupSpec
    gamma: GroupSpec
    rep: RepSpec
    ms: MultiplierSystem
    k: float
    cosets: CosetTable
    _data: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.k <= 2:
            raise DomainError("series are only supported in the convergent range k > 2")
        if abs(self.ms.k - self.k) > 1e-12:
            raise ValueError("multiplier weight differs from the series weight")
        if self.cosets.lam != self.lam or self.cosets.gamma != self.gamma:
            raise ValueError("coset table does not match the given groups")
        if isinstance(self.seed, ClassicalSeed):
            if self.lam.kind != "GammaInfinity" or self.lam.n != self.seed.M:
                raise ValueError("classical seeds need lam = GammaInfinity(M) "
                                 "with the seed's width")
        elif isinstance(self.seed, EllipticSeed):
            if self.lam.kind != "PlusMinusIdentity":
                raise ValueError("elliptic seeds need lam = <-I>")
            if abs(self.seed.k - self.k) > 1e-12:
                raise ValueError("elliptic seed weight differs from the series weight")
        else:
            raise TypeError(f"not a seed: {self.seed!r}")
        if self.seed.p != self.rep.p:
            raise ValueError("seed dimension does not match the representation")
        res = check_normal(self.rep, self.ms,
                           self.gamma if self.gamma.finite_index else GroupSpec.sl2z())
        if not res.ok:
            raise ValueError("representation is not normal")
        if isinstance(self.seed, ClassicalSeed):
            self._check_split_consistency()

    def _check_split_consistency(self):
        mono = _monodromy(self.rep, self.ms, self.seed.M)
        u = self.seed.split.U
        diag = np.diag([np.exp(2j * math.pi * mj) for mj in self.seed.split.m])
        if np.linalg.norm(mono - u.conj().T @ diag @ u) > 1e-8:
            raise ValueError("seed spectral data does not diagonalise rho(T^M)")

    @property
    def p(self) -> int:
        return self.seed.p

    @property
    def height(self) -> float:
        return self.cosets.height

    def _prepared(self):
        """Per-coset arrays: matrix entries and folded vectors
        W_i = conj(v(g_i)) rho(g_i)^* w, where the seed is scalar * w."""
        if self._data:
            return self._data
        tbl = self.cosets
        if len(tbl) == 0:
            raise ValueError("empty coset table")
        a, b, c, d = tbl.arrays()
        w = self.seed.vector
        n = len(tbl)
        trivial = self.rep.recipe == "trivial" and self.ms.family == "trivial_even"
        if trivial:
            wmat = np.broadcast_to(w, (n, self.p)).copy()
        else:
            wmat = np.empty((n, self.p), dtype=complex)
            for i, g in enumerate(tbl.reps):
                wmat[i] = twist(self.ms, self.rep, g, w)
        self._data.update(a=a, b=b, c=c, d=d, w=wmat,
                          wnorm=np.linalg.norm(wmat, axis=1),
                          n_tail=max(1, math.ceil(n / 10)))
        return self._data

    def _scalars(self, taus: np.ndarray):
        """Per-(point, coset) scalars s = j^{-k} * seed_scalar(g.tau)."""
        dat = self._prepared()
        jmk, z = slash_kernel(dat["a"], dat["b"], dat["c"], dat["d"], taus, self.k)
        return jmk * self.seed.scalar_many(z)

    def evaluate_many(self, taus):
        """Truncated values and tail proxies at an array of points.

        Returns (values, tails): values has shape (len(taus), p), tails the
        per-point mass of the outermost tenth of cosets by norm.
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=complex))
        outside = np.isnan(taus) | (taus.imag <= 0)
        if np.any(outside):
            raise DomainError("tau must lie in the upper half-plane, "
                              f"got {complex(taus[outside][0])}")
        if np.any(taus.imag < MIN_IM):
            raise RefusalError(f"evaluation refused for Im(tau) < {MIN_IM}: "
                               "truncation error blows up near the real line")
        dat = self._prepared()
        wmat, wnorm, n_tail = dat["w"], dat["wnorm"], dat["n_tail"]
        n = wmat.shape[0]
        total = np.empty((len(taus), self.p), dtype=complex)
        tails = np.empty(len(taus))
        # blocks of ~1 MB of terms stay in cache; much larger blocks make
        # the kernel's temporaries memory-bound
        chunk = max(1, 65_536 // max(n, 1))
        for lo in range(0, len(taus), chunk):
            sl = slice(lo, min(lo + chunk, len(taus)))
            s = self._scalars(taus[sl])
            for l in range(self.p):
                total[sl, l] = block_sum(s * wmat[None, :, l], axis=1)
            tails[sl] = np.sum(np.abs(s[:, n - n_tail:]) * wnorm[None, n - n_tail:], axis=1)
        return total, tails

    def evaluate(self, tau):
        values, tails = self.evaluate_many([tau])
        return values[0], float(tails[0])

    def __call__(self, tau):
        return self.evaluate(tau)[0]


def build_series(seed: SeedFn, lam: GroupSpec, gamma: GroupSpec, rep: RepSpec,
                 ms: MultiplierSystem, k: float, height: float) -> SeriesHandle:
    """Enumerate cosets up to the given norm and wrap everything in a handle."""
    table = enumerate_cosets(lam, gamma, height)
    return SeriesHandle(seed, lam, gamma, rep, ms, k, table)


class TransformationCheck(NamedTuple):
    residual: float
    tail: float


def check_transformation(handle: SeriesHandle, gammas, taus) -> TransformationCheck:
    """Max residual of the invariance of the truncated series under the
    twisted slash action, over the given group elements and points.

    The reported tail is the largest tail proxy seen on either side of the
    comparison; residuals below it are truncation-dominated.
    """
    gammas = list(gammas)
    for g in gammas:
        if not contains(handle.gamma, g):
            raise ValueError(f"{g} is not in {handle.gamma}")
    taus = np.array([_as_complex(t) for t in taus], dtype=complex)
    if not gammas or not len(taus):
        return TransformationCheck(0.0, 0.0)
    jmk, moved = slash_kernel(*entry_arrays(gammas), taus, handle.k)
    base, tail0 = handle.evaluate_many(taus)
    image, tail1 = handle.evaluate_many(moved.T.ravel())
    image = image.reshape(len(gammas), len(taus), handle.p)
    worst = 0.0
    for i, g in enumerate(gammas):
        acted = twist(handle.ms, handle.rep, g, (jmk[:, i, None] * image[i]).T).T
        worst = max(worst, float(np.max(np.linalg.norm(acted - base, axis=1))))
    return TransformationCheck(worst, float(max(tail0.max(), tail1.max())))


def sup_norm_probe(handle: SeriesHandle, taus) -> float:
    """Grid maximum of ||P(tau)|| Im(tau)^{k/2}, a bounded quantity for
    cuspidal data; useful as a sanity scale."""
    taus = [_as_complex(t) for t in taus]
    values, _ = handle.evaluate_many(taus)
    norms = np.linalg.norm(values, axis=1)
    ys = np.array([t.imag for t in taus])
    return float(np.max(norms * ys ** (handle.k / 2.0)))
