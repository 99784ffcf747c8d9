"""Expansions and Petersson pairings by quadrature.

Fourier coefficients are extracted on a horizontal line by the periodic
rectangle rule; elliptic expansion coefficients on a circle in the disk
variable w = (tau - xi)/(tau - conj(xi)).  Pairings against seeds unfold to
the stabiliser's fundamental domain.  For GammaInfinity(M) that is the
period strip, integrated on a trapezoid in x times geometrically refined
Gauss panels in y.  For <-I> it is the whole half-plane, integrated on a
hyperbolic disk about the seed's xi: a periodic trapezoid in arg w times
Gauss panels in |w|.  The closed-form pairing values provide the
independent second pipeline.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import comp_sum_complex, gauss_panels
from .errors import DomainError, RefusalError
from .modgroup import (GroupSpec, I2, IntMatrix2, entry_arrays,
                       principal_power, right_coset_reps, slash_kernel)
from .multiplier import MultiplierSystem, evaluate_v
from .rep import SpectralSplit

__all__ = [
    "QuadratureSpec", "FourierTable",
    "fourier_coefficients", "elliptic_expansion_coeffs",
    "petersson_strip", "petersson_pair_full",
    "classical_pairing_closed_form", "elliptic_pairing_closed_form",
    "thread_cap",
]


def thread_cap() -> int:
    """Worker cap from VVPS_THREADS (default 1; results do not depend on it)."""
    try:
        return max(1, int(os.environ.get("VVPS_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid and box of a pairing integral.  For the GammaInfinity strip: nx
    trapezoid nodes across the period, ny geometric Gauss panels in y.  For
    the <-I> disk about xi: nx trapezoid nodes in arg w, max(4, ny // 4)
    Gauss panels in |w|, the disk being the largest hyperbolic one inside
    the box |x| <= x_max (default 8), y_min <= y <= y_max."""

    y_min: float
    y_max: float
    nx: int = 32
    ny: int = 24
    x_max: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.y_min < self.y_max:
            raise ValueError("need 0 < y_min < y_max")
        if self.nx < 16 or self.ny < 16:
            raise ValueError("nx and ny must be at least 16")


def _eval_many(F, taus: np.ndarray) -> np.ndarray:
    """Vector values of an evaluable (handle, seed, or plain callable)."""
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


def _eval_many_parallel(F, taus: np.ndarray) -> np.ndarray:
    workers = thread_cap()
    if workers == 1 or len(taus) < 2048:
        return _eval_many(F, taus)
    chunks = [taus[lo:lo + 1024] for lo in range(0, len(taus), 1024)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda c: _eval_many(F, c), chunks))
    return np.concatenate(parts, axis=0)


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Coefficients b_n(j) of (U F)_j |_k sigma in the expansion with
    frequencies (n + m_j)/M, extracted at height y0."""

    sigma: IntMatrix2
    M: int
    m: tuple
    ns: tuple
    b: np.ndarray  # shape (p, len(ns))
    y0: float

    def coeff(self, j: int, n: int) -> complex:
        """b_n(j), j 1-based."""
        return complex(self.b[j - 1, self.ns.index(n)])

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma.entries()),
            "M": self.M,
            "m": list(self.m),
            "y0": self.y0,
            "b": [{"j": j + 1, "n": n, "value": [self.b[j, i].real, self.b[j, i].imag]}
                  for j in range(self.b.shape[0]) for i, n in enumerate(self.ns)],
        }

    def to_csv(self) -> str:
        lines = ["j,n,re,im"]
        for j in range(self.b.shape[0]):
            for i, n in enumerate(self.ns):
                lines.append(f"{j + 1},{n},{self.b[j, i].real!r},{self.b[j, i].imag!r}")
        return "\n".join(lines) + "\n"


def fourier_coefficients(F, split: SpectralSplit, M: int, ns, y0: float, nx: int,
                         sigma: IntMatrix2 = I2, ms: Optional[MultiplierSystem] = None,
                         k: Optional[float] = None) -> FourierTable:
    """Fourier coefficients of U (F |_k sigma) on the line Im = y0.

    Periodic rectangle rule with nx >= 1 nodes; for sigma != +-I the slash
    needs the multiplier system and the weight.  Refused (RefusalError)
    when y0 < 0.05 or when a growth factor e^{2 pi (n + m_j) y0 / M}
    overflows.
    """
    if nx < 1:
        raise ValueError(f"nx must be at least 1, got {nx}")
    if y0 < 0.05:
        raise RefusalError("extraction height y0 < 0.05 refused")
    ns = tuple(int(n) for n in ns)
    xs = np.arange(nx) * (M / nx)
    taus = xs + 1j * y0
    if sigma in (I2, -I2):
        vals = _eval_many_parallel(F, taus)
    else:
        if ms is None or k is None:
            raise ValueError("sigma != +-I needs ms and k for the slash action")
        if abs(ms.k - k) > 1e-12:
            raise ValueError("multiplier weight differs from the slash weight")
        jmk, moved = slash_kernel(*entry_arrays([sigma]), taus, k)
        vals = _eval_many_parallel(F, moved[:, 0])
        vals = (evaluate_v(ms, sigma).conjugate() * jmk) * vals
    uvals = vals @ split.U.T  # row t holds U F(tau_t)
    p = uvals.shape[1]
    b = np.empty((p, len(ns)), dtype=complex)
    for j in range(p):
        freq = np.asarray(ns, dtype=float) + split.m[j]
        for i, _ in enumerate(ns):
            phase = np.exp(-2j * math.pi * freq[i] * xs / M)
            try:
                growth = math.exp(2.0 * math.pi * freq[i] * y0 / M)
            except OverflowError as exc:
                raise RefusalError(f"growth factor at n={ns[i]}, y0={y0} overflows") from exc
            b[j, i] = growth / nx * comp_sum_complex(uvals[:, j] * phase)
    return FourierTable(sigma, M, split.m, ns, b, y0)


def elliptic_expansion_coeffs(F, xi, k: float, ns, r0: float,
                              nt: int = 256, j: int = 1) -> dict:
    """Coefficients b_{n,xi}(j) of (tau - conj(xi))^k F_j(tau) as a power
    series in w = (tau - xi)/(tau - conj(xi)), from a circle of radius r0
    in the disk variable."""
    if not 0 < r0 < 1:
        raise RefusalError("disk radius must satisfy 0 < r0 < 1")
    xi = complex(xi)
    ts = 2.0 * math.pi * np.arange(nt) / nt
    ws = r0 * np.exp(1j * ts)
    taus = (xi - xi.conjugate() * ws) / (1.0 - ws)
    vals = _eval_many(F, taus)[:, j - 1]
    gs = principal_power(taus - xi.conjugate(), k) * vals  # Im > 0
    out = {}
    for n in ns:
        phase = np.exp(-1j * n * ts)
        out[int(n)] = comp_sum_complex(gs * phase) / (nt * r0 ** n)
    return out


def _strip_nodes(f, lam: GroupSpec, k: float, q: QuadratureSpec):
    """Flat (taus, weights) over the stabiliser's fundamental domain, the
    weights carrying Im(tau)^k dv: the period strip for GammaInfinity, the
    disk about f.xi for <-I>, where dv = 4 rho drho dtheta/(1 - rho^2)^2
    in w = rho e^{i theta} = (tau - xi)/(tau - conj(xi))."""
    if lam.kind == "GammaInfinity":
        m_width = lam.n
        xs = (np.arange(q.nx) + 0.5) * (m_width / q.nx)
        wx = np.full(q.nx, m_width / q.nx)
        ys, wy = gauss_panels(q.y_min, q.y_max, q.ny, geometric=True)
        taus = (xs[:, None] + 1j * ys[None, :]).ravel()
        weights = (wx[:, None] * (wy * ys ** (k - 2.0))[None, :]).ravel()
        return taus, weights
    if lam.kind != "PlusMinusIdentity":
        raise ValueError(f"unsupported stabiliser {lam}")
    if getattr(f, "xi", None) is None:
        raise ValueError("the <-I> pairing needs a second argument with a centre xi")
    xi = complex(f.xi)
    eta = xi.imag
    xmax = q.x_max if q.x_max is not None else 8.0
    d = min(math.log(eta / q.y_min), math.log(q.y_max / eta),
            math.asinh((xmax - abs(xi.real)) / eta))
    if not d > 0:
        raise ValueError(f"no disk about xi={xi} fits the box |x| <= {xmax}, "
                         f"{q.y_min} <= y <= {q.y_max}")
    rhos, wr = gauss_panels(0.0, math.tanh(d / 2.0), max(4, q.ny // 4))
    thetas = 2.0 * math.pi * np.arange(q.nx) / q.nx
    ws = (rhos[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    taus = (xi - xi.conjugate() * ws) / (1.0 - ws)
    wmeas = 4.0 * rhos * wr / (1.0 - rhos ** 2) ** 2 * (2.0 * math.pi / q.nx)
    weights = np.repeat(wmeas, q.nx) * taus.imag ** k
    return taus, weights


def petersson_strip(F, f, lam: GroupSpec, k: float, q: QuadratureSpec,
                    return_error: bool = False):
    """Unfolded pairing <F, P f> = int <F(tau), f(tau)> Im(tau)^k dv over a
    fundamental domain of the stabiliser lam.

    For GammaInfinity(M) the domain is the period strip, truncated to
    y_min <= y <= y_max.  For <-I> it is the whole half-plane, truncated to
    the largest hyperbolic disk about f.xi (f must be an elliptic seed)
    inside the box |x| <= x_max (default 8), y_min <= y <= y_max; a box
    that holds no such disk raises ValueError.  With return_error=True a
    (value, error_estimate) pair is returned, the estimate coming from a
    half-resolution grid.
    """
    if k <= 2:
        raise DomainError("strip pairing diverges for k <= 2")
    taus, weights = _strip_nodes(f, lam, k, q)
    fv = _eval_many(f, taus)
    big = _eval_many_parallel(F, taus)
    inner = np.sum(big * fv.conj(), axis=1)
    value = comp_sum_complex(weights * inner)
    if not return_error:
        return value
    q2 = QuadratureSpec(q.y_min, q.y_max, max(16, q.nx // 2), max(16, q.ny // 2), q.x_max)
    coarse = petersson_strip(F, f, lam, k, q2, return_error=False)
    return value, abs(value - coarse)


def petersson_pair_full(F, G, gamma: GroupSpec, k: float, cosets=None,
                        q: Optional[QuadratureSpec] = None) -> complex:
    """Petersson pairing over a fundamental domain of gamma, realised as the
    translates by right-coset representatives of the standard domain
    {|tau| >= 1, |Re tau| <= 1/2}.

    Columns of the grid are clipped from below at the unit circle.  This is
    a low-accuracy route (percent level) used to cross-check unfoldings.
    """
    if q is None:
        q = QuadratureSpec(0.05, 6.0, 32, 24)
    if cosets is None:
        cosets = right_coset_reps(gamma)
    xs, wx = gauss_panels(-0.5, 0.5, max(4, q.nx // 4))
    # one column of geometric Gauss nodes per x, clipped at the unit circle
    cols = [gauss_panels(max(q.y_min, math.sqrt(max(1.0 - x * x, 0.0))), q.y_max,
                         max(4, q.ny // 4), geometric=True) for x in xs]
    ys = np.array([c[0] for c in cols])
    wy = np.array([c[1] for c in cols])
    taus = (xs[:, None] + 1j * ys).ravel()
    _, moved = slash_kernel(*entry_arrays(cosets), taus, k)
    moved = moved.T.ravel()  # coset-major, then x, then y
    f_vals = _eval_many(F, moved)
    g_vals = f_vals if G is F else _eval_many(G, moved)
    inner = np.sum(f_vals * g_vals.conj(), axis=1)
    imk = moved.imag.reshape((-1,) + ys.shape) ** k  # Im(g tau)^k
    cells = (wx[:, None] * wy) * imk / ys ** 2 * inner.reshape(imk.shape)
    parts = [comp_sum_complex(col) for col in cells.reshape(-1, ys.shape[1])]
    return comp_sum_complex(np.array(parts))


def classical_pairing_closed_form(b_nu: complex, M: int, k: float, nu: int,
                                  m_j: float) -> complex:
    """Closed form b * M^k Gamma(k-1) / (4 pi (nu + m_j))^{k-1} for the
    pairing of a cusp form against a classical Poincare series."""
    if k <= 2:
        raise DomainError("pairing formula requires k > 2")
    return b_nu * M ** k * math.gamma(k - 1.0) / (4.0 * math.pi * (nu + m_j)) ** (k - 1.0)


def elliptic_pairing_closed_form(b_nu_xi: complex, k: float, nu: int, xi) -> complex:
    """Closed form 4 pi / (4 Im xi)^k * nu! / ((k-1) k ... (k+nu-1)) * b."""
    if k <= 2:
        raise DomainError("pairing formula requires k > 2")
    denom = 1.0
    for i in range(nu + 1):
        denom *= (k - 1.0 + i)
    return (4.0 * math.pi / (4.0 * complex(xi).imag) ** k
            * math.factorial(nu) / denom * b_nu_xi)

