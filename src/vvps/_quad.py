"""Small shared quadrature helpers (adaptive Simpson, Gauss-Legendre panels)."""

from __future__ import annotations

import math

import numpy as np

_MAX_DEPTH = 40  # bisection levels of adaptive_simpson
_BLOCK = 4096  # terms per pairwise partial of block_sum


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson integration of a scalar function on [a, b]."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fb, fm, whole, tol, _MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, m, fa, fm, flm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, m, b, fm, fb, frm, right, tol / 2.0, depth - 1))


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
    return complex(math.fsum(v.real), math.fsum(v.imag))


def block_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Deterministic block-compensated sum along one axis.

    Pairwise numpy sums within fixed blocks, then an fsum of the block
    partials; the result does not depend on how callers chunk their work.
    """
    x = np.moveaxis(np.asarray(x), axis, -1)
    n = x.shape[-1]
    if n == 0:
        return np.zeros(x.shape[:-1], dtype=x.dtype)
    idx = np.arange(0, n, _BLOCK)
    parts = np.add.reduceat(x, idx, axis=-1)
    flat = parts.reshape(-1, parts.shape[-1])
    if np.iscomplexobj(x):
        out = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in flat])
    else:
        out = np.array([math.fsum(row) for row in flat])
    return out.reshape(parts.shape[:-1])
