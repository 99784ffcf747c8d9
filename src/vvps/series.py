"""Slash actions and truncated evaluation of Poincare series.

A SeriesHandle holds a seed, the representation, the multiplier system,
the group gamma and the height of its coset table, and nothing these
determine: the weight is ms.k and the table's stabiliser seed.lam.  It
refuses at construction whatever needs no table, and enumerates the table
on first evaluation, so a refused job never builds one.  Evaluation asks
the seed for its slashed scalar j(g, tau)^{-k} f(g.tau) / w over the
table's rows in table order, from constants it takes once per handle
(see seeds: closed forms in each coset's integers, powered by modgroup's
one route; the classical one leaves out the phase e(alpha a/c) that each
coset fixes, which preparation folds into the coset's vector), and
block_sum of _quad sums them there: one level of error-free extraction,
correctly rounded but near a rounding boundary, and a function of each
point's terms (their order moves only the rounding of a residual below
n 2^-50 of the largest of n terms).  It reports an empirical tail proxy,
the mass of the outermost tenth of the included cosets by Frobenius norm.
evaluate_many splits its points into blocks of about 65,536 terms and
maps them over thread_cap() workers, one per usable CPU; no result
depends on the blocks or the worker count.  Each worker allocates one
workspace per call (modgroup.kernel_workspace: three complex and two float
arrays of one block) and every step of the kernel, the seed's slashed
scalars (in its second complex array), the products, the sums' scratch
(in its first) and the tail masses, writes into it with out=.  A
block's dozen ~1 MB temporaries, allocated and freed, went back to the OS
and were faulted in again by the next block: ~150k page faults per call
of an elliptic pairing, and a quarter of its CPU time spent in the system.

Preparation folds the inverse multiplier, the representation and the
classical seed's phase into one vector per coset, conj(v(g)) e(alpha a/c)
rho(g)^* w, as array work over the table's integer entries: v from
multiplier.evaluate_v, rho(g)^* w from rep.fold_rho, a lookup by residue
class mod N whenever rho factors through SL2(Z/NZ), and the phase once per
left column.  Only a generator-image rho that does not factor walks an
S/T word per coset.  Every factor is elementwise in the coset, so the
vectors are computed over the stored order, where each left column is
one run, and then taken into table order, once per handle.  Every other
use of the slash action (Fourier extraction at a cusp, both invariance
checks) goes through `slash` or its factor step, which takes conj(v(g))
and rho(g)^* from the same two calls on the entry array of its matrices.
The slash action and evaluate_many raise DomainError for a point outside
the upper half-plane, by the one check of modgroup that `slash_kernel`
and `evaluate_many` call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._quad import block_sum
from .errors import DomainError, RefusalError
from .modgroup import (CosetTable, GroupSpec, I2, _check_stabiliser, _shaped,
                       _upper_half_plane, contains, entry_arrays, enumerate_cosets,
                       is_subgroup, kernel_workspace, slash_kernel, t_power)
from .multiplier import MultiplierSystem, evaluate_v
from .rep import _UNITARY_TOL, RepSpec, check_normal, fold_rho
from .seeds import ClassicalSeed, EllipticSeed, SeedFn

__all__ = ["SeriesHandle", "build_series", "slash", "check_transformation",
           "check_seed_invariance", "thread_cap", "MIN_IM"]

MIN_IM = 0.05  # evaluation closer to the real line than this is refused


def thread_cap() -> int:
    """The CPUs this process may run on: evaluate_many's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _values(F, taus: np.ndarray) -> np.ndarray:
    """Vector values, shape (len(taus), p), of a handle, a seed or a
    callable of one point."""
    if hasattr(F, "evaluate_many"):
        vals = F.evaluate_many(taus)[0]
    elif hasattr(F, "eval_many"):
        vals = F.eval_many(taus)
    else:
        vals = np.asarray([F(complex(t)) for t in taus])
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None]
    return vals


def _act(vals, jmk, ents, ms: MultiplierSystem, rep: Optional[RepSpec] = None):
    """The factors of the slash action on vals[t, i] = F(g_i.tau_t), with
    jmk[t, i] = j(g_i, tau_t)^{-k} and g_i the row (a, b, c, d) of ents:
    conj(v(g_i)) j^{-k} vals, then rho(g_i)^* when rep is given.  Shape
    (points, matrices, p)."""
    out = (evaluate_v(ms, ents).conj() * jmk)[..., None] * vals
    if rep is None:
        return out
    rho_star = fold_rho(rep, np.eye(rep.p), ents)
    return np.einsum("tip,iqp->tiq", out, rho_star)  # rho(g_i)^* times row t, i


def slash(F, gs, taus, ms: MultiplierSystem, rep: Optional[RepSpec] = None) -> np.ndarray:
    """The slash action v(g)^{-1} [rho(g)^{-1}] j(g, tau)^{-k} F(g.tau) in
    the weight k = ms.k, for every point tau of taus and matrix g of gs,
    as an array of shape (points, matrices, p); rho enters when rep is
    given.  F is a handle, a seed or a callable of one point."""
    ents = entry_arrays(gs)
    jmk, moved = slash_kernel(ents, taus, ms.k)
    vals = _values(F, moved.ravel())
    return _act(vals.reshape(moved.shape + vals.shape[1:]), jmk, ents, ms, rep)


@dataclass(eq=False)
class SeriesHandle:
    """A truncated Poincare series over the seed.lam-cosets in gamma of
    Frobenius norm at most height."""

    seed: SeedFn
    rep: RepSpec
    ms: MultiplierSystem
    gamma: GroupSpec
    height: float
    _data: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        seed, rep, ms = self.seed, self.rep, self.ms
        if ms.k <= 2:
            raise DomainError("series are only supported in the convergent range k > 2")
        if not rep.group.finite_index:
            raise ValueError(f"rho is a representation of {rep.group}, "
                             "a group without finite index")
        # a stabiliser gamma (<-I>, Gamma_inf(M)) has no level to compare
        if self.gamma.finite_index and not is_subgroup(self.gamma, rep.group):
            raise ValueError(f"rho is a representation of {rep.group}, "
                             f"which does not contain {self.gamma}")
        _check_stabiliser(seed.lam, self.gamma)
        if isinstance(seed, EllipticSeed) and abs(seed.k - ms.k) > 1e-12:
            raise ValueError("elliptic seed weight differs from the series weight")
        if seed.p != rep.p:
            raise ValueError("seed dimension does not match the representation")
        if check_normal(rep, ms, self.gamma) is None:
            raise ValueError("representation is not normal")
        if isinstance(seed, ClassicalSeed) and seed.split.residual(rep, ms, seed.M) > _UNITARY_TOL:
            raise ValueError("seed spectral data does not diagonalise rho(T^M)")

    @property
    def cosets(self) -> CosetTable:
        """The coset table, enumerated on first use."""
        if "cosets" not in self._data:
            self._data["cosets"] = enumerate_cosets(self.seed.lam, self.gamma, self.height)
        return self._data["cosets"]

    @property
    def k(self) -> float:
        """The weight, that of the multiplier system."""
        return self.ms.k

    @property
    def p(self) -> int:
        return self.seed.p

    def _prepared(self):
        """Per-coset folded vectors W_i = conj(v(g_i)) e(alpha a_i/c_i)
        rho(g_i)^* w, where the seed is scalar * w and e(alpha a/c) the
        classical seed's phase (_phase_runs), in table order; the norms of
        the outermost tenth of them, which the tail proxy reads; and the
        seed's constants of its slashed scalars.

        Array work over the table's integer entries as stored: v from the
        multiplier's closed form, skipped for the trivial system where
        v = 1, rho(g_i)^* w from rep.fold_rho (a lookup by residue class
        whenever rho factors through SL2(Z/NZ)) and the phase's exponential
        once per left column, then taken into table order."""
        if "w" in self._data:
            return self._data
        tab = self.cosets
        if len(tab) == 0:
            raise ValueError("empty coset table")
        wmat = fold_rho(self.rep, self.seed.vector, tab.ents)
        if self.ms.family != "trivial_even":
            wmat *= evaluate_v(self.ms, tab.ents).conj()[:, None]
        runs = self.seed._phase_runs(tab.ents)
        if runs is not None:
            wmat *= np.repeat(np.exp(1j * runs[0]), runs[1])[:, None]
        wmat = wmat[tab.order]
        n_tail = max(1, math.ceil(len(tab) / 10))
        self._data.update(w=wmat, wnorm=np.linalg.norm(wmat[len(tab) - n_tail:], axis=1),
                          consts=self.seed._slash_constants(tab.ents[tab.order], self.k),
                          n_tail=n_tail)
        return self._data

    def evaluate_many(self, taus):
        """Truncated values and tail proxies at an array of points.

        Returns (values, tails): values has shape (len(taus), p), tails the
        per-point mass of the outermost tenth of cosets by norm.
        """
        taus = _upper_half_plane(taus)
        if np.any(taus.imag < MIN_IM):
            raise RefusalError(f"evaluation refused for Im(tau) < {MIN_IM}: "
                               "truncation error blows up near the real line")
        if not len(taus):
            return np.empty((0, self.p), dtype=complex), np.empty(0)
        dat = self._prepared()
        wmat, wnorm, n_tail = dat["w"], dat["wnorm"], dat["n_tail"]
        n = wmat.shape[0]
        total = np.empty((len(taus), self.p), dtype=complex)
        tails = np.empty(len(taus))
        # blocks of ~1 MB of terms stay in cache
        chunk = max(1, 65_536 // n)
        blocks = [slice(lo, lo + chunk) for lo in range(0, len(taus), chunk)]
        workers = min(len(blocks), thread_cap())

        def work(mine):
            ws = kernel_workspace(min(chunk, len(taus)) * n)
            # errstate is per thread; non-finite sums are refused by block_sum
            with np.errstate(over="ignore", invalid="ignore"):
                for sl in mine:
                    s = self.seed._slashed_many(taus[sl], dat["consts"], ws)
                    prod, spare = _shaped(ws[2], s.shape), _shaped(ws[0], s.shape)
                    for l in range(self.p):
                        total[sl, l] = block_sum(np.multiply(s, wmat[None, :, l], out=prod), spare)
                    mass = _shaped(ws[3], (len(s), n_tail))
                    np.abs(s[:, n - n_tail:], out=mass)
                    mass *= wnorm
                    np.sum(mass, axis=1, out=tails[sl])

        if workers == 1:
            work(blocks)
        else:
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(work, [blocks[i::workers] for i in range(workers)]))
        return total, tails

    def evaluate(self, tau):
        values, tails = self.evaluate_many([tau])
        return values[0], float(tails[0])


def build_series(seed: SeedFn, lam: GroupSpec, gamma: GroupSpec, rep: RepSpec,
                 ms: MultiplierSystem, k: float, height: float) -> SeriesHandle:
    """The handle on the lam-cosets in gamma up to the given norm.  lam must
    be the seed's stabiliser and k the weight of ms."""
    if abs(ms.k - k) > 1e-12:
        raise ValueError("multiplier weight differs from the series weight")
    if lam != seed.lam:
        raise ValueError(f"table stabiliser {lam} is not seed.lam {seed.lam}")
    return SeriesHandle(seed, rep, ms, gamma, height)


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
    ents = entry_arrays(gammas)
    outside = ~contains(handle.gamma, ents)
    if outside.any():
        raise ValueError(f"{gammas[outside.argmax()]} is not in {handle.gamma}")
    taus = np.asarray(taus, dtype=complex)
    jmk, moved = slash_kernel(ents, taus, handle.k)
    if not gammas or not len(taus):
        return TransformationCheck(0.0, 0.0)
    base, tail0 = handle.evaluate_many(taus)
    image, tail1 = handle.evaluate_many(moved.ravel())
    acted = _act(image.reshape(moved.shape + (handle.p,)), jmk, ents, handle.ms, handle.rep)
    worst = float(np.max(np.linalg.norm(acted - base[:, None], axis=2)))
    return TransformationCheck(worst, float(max(tail0.max(), tail1.max())))


def check_seed_invariance(seed: SeedFn, rep: RepSpec, ms: MultiplierSystem) -> float:
    """Max residual of the invariance of the seed under the weight-k slash
    action of its stabiliser, twisted by rho, over 32 random pairs of a
    stabiliser element and a sample point."""
    rng = np.random.default_rng(0)
    if isinstance(seed, ClassicalSeed):
        elts = []
        for _ in range(32):
            g = t_power(int(rng.integers(-4, 5)) * seed.M)
            elts.append(-g if rng.integers(0, 2) else g)
    else:
        elts = [I2, -I2] * 16
    taus = np.array([complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0)) for _ in elts])
    # the diagonal pairs element i with point i
    acted = np.diagonal(slash(seed, elts, taus, ms, rep)).T
    return float(np.max(np.linalg.norm(acted - seed.eval_many(taus), axis=1)))

