"""Small shared quadrature helpers: Gauss-Legendre panels and compensated sums."""

from __future__ import annotations

import math

import numpy as np

from .errors import RefusalError

_BLOCK = 4096  # terms per pairwise partial of block_sum


def gauss_panels(a: float, b: float, n_panels: int, geometric: bool = False):
    """Nodes and weights for composite 4-point Gauss-Legendre panels on [a, b].

    With geometric=True the panel edges are geometrically spaced (a > 0
    required), refining toward a.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    x0, w0 = np.polynomial.legendre.leggauss(4)
    if geometric:
        if a <= 0:
            raise ValueError("geometric spacing needs a > 0")
        edges = a * (b / a) ** (np.arange(n_panels + 1) / n_panels)
    else:
        edges = np.linspace(a, b, n_panels + 1)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def comp_sum_complex(values) -> complex:
    v = np.asarray(values, dtype=complex).ravel()
    if not np.isfinite(v).all():
        raise RefusalError("a sum has non-finite terms: the values overflow the float range")
    return complex(math.fsum(v.real), math.fsum(v.imag))


def block_sum(x: np.ndarray) -> np.ndarray:
    """Deterministic block-compensated sum of a complex array along its
    last axis, which must not be empty.

    Pairwise numpy sums within fixed blocks, then an fsum of the block
    partials; the result does not depend on how callers chunk their work.
    A non-finite term makes its block partial non-finite, which is refused.
    """
    parts = np.add.reduceat(x, np.arange(0, x.shape[-1], _BLOCK), axis=-1)
    if not np.isfinite(parts).all():
        raise RefusalError("a sum has non-finite terms: the values overflow the float range")
    flat = parts.reshape(-1, parts.shape[-1])
    out = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in flat])
    return out.reshape(parts.shape[:-1])
