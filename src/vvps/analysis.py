"""Expansions and Petersson pairings by quadrature.

Fourier coefficients are extracted on a horizontal line by the periodic
rectangle rule; elliptic expansion coefficients on a circle in the disk
variable w = (tau - xi)/(tau - conj(xi)).  Pairings against seeds unfold to
a fundamental domain of the seed's stabiliser seed.lam.  For GammaInfinity(M)
that is the period strip, integrated on a trapezoid in x times geometrically
refined Gauss panels in y.  For <-I> it is the whole half-plane, integrated
on a hyperbolic disk about the seed's xi: a periodic trapezoid in arg w times
the ceil((nu + 1)/2)-point Gauss rule in s = |w|^2 of the seed's radial
weight (1 - s)^(k-2), which is exact for the b s^nu that the trapezoid
leaves.  The closed-form pairing values provide the
independent second pipeline, and domain_share the exact part of them that
the truncated domain keeps.  Every grid is evaluated by one
evaluate_many call, whose block loop runs on the usable CPUs
(series.thread_cap, re-exported here); extraction at a cusp sigma != +-I
applies series.slash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import (comp_sum_complex, gamma_over_power, gauss_jacobi_truncated, gauss_panels,
                    log_beta, regularized_incomplete_beta, regularized_incomplete_gamma)
from .errors import DomainError, RefusalError
from .modgroup import (GroupSpec, I2, IntMatrix2, entry_arrays,
                       principal_power, right_coset_reps, slash_kernel)
from .multiplier import MultiplierSystem
from .rep import SpectralSplit
from .series import MIN_IM, _values, slash, thread_cap

__all__ = [
    "QuadratureSpec", "FourierTable",
    "fourier_coefficients", "elliptic_expansion_coeffs",
    "petersson_strip", "domain_share", "petersson_pair_full",
    "classical_pairing_closed_form", "elliptic_pairing_closed_form",
    "thread_cap",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid and box of a pairing integral.  For the GammaInfinity strip: nx
    trapezoid nodes across the period, ny geometric Gauss panels in y.  For
    the <-I> disk about xi: nx trapezoid nodes in arg w times the
    ceil((nu + 1)/2) nodes in |w|^2 of the seed's radial Gauss rule (ny is
    not read), the disk being the largest hyperbolic one inside the box
    |x| <= x_max (default 8), y_min <= y <= y_max."""

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
        if not 1 <= j <= self.b.shape[0]:
            raise ValueError(f"index j={j} out of range 1..{self.b.shape[0]}")
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
                z = complex(self.b[j, i])
                lines.append(f"{j + 1},{n},{z.real!r},{z.imag!r}")
        return "\n".join(lines) + "\n"


def fourier_coefficients(F, split: SpectralSplit, M: int, ns, y0: float, nx: int,
                         sigma: IntMatrix2 = I2, ms: Optional[MultiplierSystem] = None,
                         k: Optional[float] = None) -> FourierTable:
    """Fourier coefficients of U (F |_k sigma) on the line Im = y0.

    Periodic rectangle rule with nx >= 1 nodes; for sigma != +-I the slash
    needs the multiplier system and the weight.  Refused (RefusalError),
    before F is evaluated, when y0 < series.MIN_IM or when a growth factor
    e^{2 pi (n + m_j) y0 / M} overflows.
    """
    if nx < 1:
        raise ValueError(f"nx must be at least 1, got {nx}")
    if y0 < MIN_IM:
        raise RefusalError(f"extraction height y0 < {MIN_IM} refused")
    if sigma not in (I2, -I2):
        if ms is None or k is None:
            raise ValueError("sigma != +-I needs ms and k for the slash action")
        if abs(ms.k - k) > 1e-12:
            raise ValueError("multiplier weight differs from the slash weight")
    ns = tuple(int(n) for n in ns)
    freq = np.asarray(ns, dtype=float)[None, :] + np.asarray(split.m)[:, None]  # [j, i]
    growth = {}  # (j, i) -> Python float, whose overflowing products do not warn
    for (j, i), f in np.ndenumerate(freq):
        try:
            growth[j, i] = math.exp(2.0 * math.pi * f * y0 / M)
        except OverflowError as exc:
            raise RefusalError(f"growth factor at n={ns[i]}, y0={y0} overflows") from exc
    xs = np.arange(nx) * (M / nx)
    taus = xs + 1j * y0
    vals = _values(F, taus) if sigma in (I2, -I2) else slash(F, [sigma], taus, ms)[:, 0]
    uvals = vals @ split.U.T  # row t holds U F(tau_t)
    b = np.empty(freq.shape, dtype=complex)
    for (j, i), f in np.ndenumerate(freq):
        phase = np.exp(-2j * math.pi * f * xs / M)
        b[j, i] = growth[j, i] / nx * comp_sum_complex(uvals[:, j] * phase)
    return FourierTable(sigma, M, split.m, ns, b, y0)


def elliptic_expansion_coeffs(F, xi, k: float, ns, r0: float,
                              nt: int = 256, j: int = 1) -> dict:
    """Coefficients b_{n,xi}(j) of (tau - conj(xi))^k F_j(tau) as a power
    series in w = (tau - xi)/(tau - conj(xi)), from a circle of radius r0
    in the disk variable, by the rectangle rule with nt >= 1 nodes; j is
    1-based."""
    if nt < 1:
        raise ValueError(f"nt must be at least 1, got {nt}")
    if not 0 < r0 < 1:
        raise RefusalError("disk radius must satisfy 0 < r0 < 1")
    xi = complex(xi)
    ts = 2.0 * math.pi * np.arange(nt) / nt
    ws = r0 * np.exp(1j * ts)
    taus = (xi - xi.conjugate() * ws) / (1.0 - ws)
    vals = _values(F, taus)
    if not 1 <= j <= vals.shape[1]:
        raise ValueError(f"index j={j} out of range 1..{vals.shape[1]}")
    vals = vals[:, j - 1]
    # what overflows here is refused by the sums as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gs = principal_power(taus - xi.conjugate(), k) * vals  # Im > 0
    out = {}
    for n in ns:
        phase = np.exp(-1j * n * ts)
        out[int(n)] = comp_sum_complex(gs * phase) / (nt * r0 ** n)
    return out


def _disk_radius(xi: complex, q: QuadratureSpec) -> float:
    """rho_max = tanh(d/2) in the disk variable w: d is the radius of the
    largest hyperbolic disk about xi inside the box |x| <= x_max (default
    8), y_min <= y <= y_max; ValueError when no disk fits."""
    eta = xi.imag
    xmax = q.x_max if q.x_max is not None else 8.0
    d = min(math.log(eta / q.y_min), math.log(q.y_max / eta),
            math.asinh((xmax - abs(xi.real)) / eta))
    if not d > 0:
        raise ValueError(f"no disk about xi={xi} fits the box |x| <= {xmax}, "
                         f"{q.y_min} <= y <= {q.y_max}")
    return math.tanh(d / 2.0)


def _strip_nodes(f, k: float, q: QuadratureSpec):
    """Flat (taus, weights) over a fundamental domain of f.lam, the weights
    carrying Im(tau)^k dv: the period strip for GammaInfinity, the disk
    about f.xi for <-I>.  There, in s = |w|^2 with w = s^(1/2) e^{i theta}
    = (tau - xi)/(tau - conj(xi)), Im(tau)^k dv = 2 (Im xi)^k (1 - s)^(k-2)
    / |1 - w|^(2k) ds dtheta, and the seed's frequency leaves b s^nu
    (1 - s)^(k-2) after the trapezoid in theta: the Gauss rule of the
    weight (1 - s)^(k-2) on [0, rho_max^2] takes it exactly with
    ceil((nu + 1)/2) nodes in s, and q.ny is not read.  More nodes would
    reach toward the disk's edge, where the trapezoid aliases.  Refused
    (RefusalError) when a weight overflows the float range, and on the
    disk, before any node is made, when the box's y_max^k does."""
    lam = getattr(f, "lam", None)
    if lam is None:
        raise ValueError("the pairing needs a seed as its second argument: a classical "
                         "seed for the strip, an elliptic seed for the disk about its xi")
    power = k - 2.0 if lam.kind == "GammaInfinity" else k
    overflow = RefusalError(f"the weight y^{power:g} on [{q.y_min}, {q.y_max}] "
                            "overflows the float range")
    if lam.kind == "GammaInfinity":
        xs = (np.arange(q.nx) + 0.5) * (lam.n / q.nx)
        wx = np.full(q.nx, lam.n / q.nx)
        ys, wy = gauss_panels(q.y_min, q.y_max, q.ny, geometric=True)
        taus = (xs[:, None] + 1j * ys[None, :]).ravel()
        weights = (wx[:, None] * (wy * ys ** power)[None, :]).ravel()
    else:
        try:
            q.y_max ** power  # the nodes need not come near y_max
        except OverflowError:
            raise overflow from None
        xi = complex(f.xi)
        s, ws = gauss_jacobi_truncated((f.nu + 2) // 2, k - 2.0, _disk_radius(xi, q) ** 2)
        thetas = 2.0 * math.pi * np.arange(q.nx) / q.nx
        w = (np.sqrt(s)[:, None] * np.exp(1j * thetas)[None, :]).ravel()
        taus = (xi - xi.conjugate() * w) / (1.0 - w)
        weights = (np.repeat(ws * (4.0 * math.pi / q.nx), q.nx)
                   * (xi.imag / np.abs(1.0 - w) ** 2) ** k)
    if not np.isfinite(weights).all():
        raise overflow
    return taus, weights


def petersson_strip(F, f, k: float, q: QuadratureSpec):
    """Unfolded pairing <F, P f> = int <F(tau), f(tau)> Im(tau)^k dv over a
    fundamental domain of the stabiliser f.lam of the seed f.

    For GammaInfinity(M) the domain is the period strip, truncated to
    y_min <= y <= y_max.  For <-I> it is the whole half-plane, truncated to
    the largest hyperbolic disk about f.xi inside the box |x| <= x_max
    (default 8), y_min <= y <= y_max; a box that holds no such disk raises
    ValueError.
    """
    if k <= 2:
        raise DomainError("strip pairing diverges for k <= 2")
    # what overflows here is refused by the sums as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        taus, weights = _strip_nodes(f, k, q)
        fv = _values(f, taus)
        big = _values(F, taus)
        inner = np.sum(big * fv.conj(), axis=1)
        return comp_sum_complex(weights * inner)


def domain_share(f, k: float, q: QuadratureSpec) -> float:
    """Share of the unfolded pairing <F, P f> that petersson_strip's
    truncated domain keeps, for any F.  The x (or arg w) integral keeps
    only the seed's own frequency, so the share is exact: P(k - 1, beta
    y_max) - P(k - 1, beta y_min) with beta = 4 pi (nu + m_j)/M on the
    strip, I_{rho_max^2}(nu + 1, k - 1) on the disk about xi."""
    if f.lam.kind == "GammaInfinity":
        beta = 4.0 * math.pi * f.alpha
        return (regularized_incomplete_gamma(k - 1.0, beta * q.y_max)
                - regularized_incomplete_gamma(k - 1.0, beta * q.y_min))
    rho_max = _disk_radius(complex(f.xi), q)
    return regularized_incomplete_beta(f.nu + 1.0, k - 1.0, rho_max ** 2)


def petersson_pair_full(F, G, gamma: GroupSpec, k: float,
                        q: Optional[QuadratureSpec] = None) -> complex:
    """Petersson pairing over a fundamental domain of gamma, realised as the
    translates by right-coset representatives of the standard domain
    {|tau| >= 1, |Re tau| <= 1/2}.

    Columns of the grid are clipped from below at the unit circle.  This is
    a low-accuracy route (percent level) used to cross-check unfoldings.
    """
    if q is None:
        q = QuadratureSpec(0.05, 6.0, 32, 24)
    cosets = right_coset_reps(gamma)
    xs, wx = gauss_panels(-0.5, 0.5, max(4, q.nx // 4))
    # one column of geometric Gauss nodes per x, clipped at the unit circle
    cols = [gauss_panels(max(q.y_min, math.sqrt(max(1.0 - x * x, 0.0))), q.y_max,
                         max(4, q.ny // 4), geometric=True) for x in xs]
    ys = np.array([c[0] for c in cols])
    wy = np.array([c[1] for c in cols])
    taus = (xs[:, None] + 1j * ys).ravel()
    jmk, moved = slash_kernel(entry_arrays(cosets), taus, k)
    moved = moved.T.ravel()  # coset-major, then x, then y
    f_vals = _values(F, moved)
    g_vals = f_vals if G is F else _values(G, moved)
    inner = np.sum(f_vals * g_vals.conj(), axis=1)
    # Im(g tau)^k = y^k |j(g, tau)^-k|^2
    imk = (taus.imag ** k * np.abs(jmk.T) ** 2).reshape((-1,) + ys.shape)
    cells = (wx[:, None] * wy) * imk / ys ** 2 * inner.reshape(imk.shape)
    parts = [comp_sum_complex(col) for col in cells.reshape(-1, ys.shape[1])]
    return comp_sum_complex(np.array(parts))


def classical_pairing_closed_form(b_nu: complex, M: int, k: float, nu: int,
                                  m_j: float) -> complex:
    """Closed form b * M^k Gamma(k-1) / (4 pi (nu + m_j))^{k-1} for the
    pairing of a cusp form against a classical Poincare series
    (_quad.gamma_over_power); RefusalError when it exceeds the float range."""
    if k <= 2:
        raise DomainError("pairing formula requires k > 2")
    try:
        return gamma_over_power(b_nu * M ** k, k - 1.0, 4.0 * math.pi * (nu + m_j))
    except OverflowError as exc:
        raise RefusalError(f"the classical pairing b M^k Gamma(k-1) / (4 pi (nu + m_j))^(k-1) "
                           f"overflows the float range at k={k}") from exc


def elliptic_pairing_closed_form(b_nu_xi: complex, k: float, nu: int, xi) -> complex:
    """Closed form 4 pi / (4 Im xi)^k * nu! / ((k-1) k ... (k+nu-1)) * b,
    taken in logs, with the ratio as B(nu + 1, k - 1) (_quad.log_beta),
    where a factor or a partial product passes the float range (nu! from
    nu = 171, the product from 163 at k = 12); RefusalError when the value
    itself passes it, at either end."""
    if k <= 2:
        raise DomainError("pairing formula requires k > 2")
    eta = complex(xi).imag
    denom = 1.0
    for i in range(nu + 1):
        denom *= (k - 1.0 + i)
    value = math.inf
    if nu <= 170:
        try:
            value = 4.0 * math.pi / (4.0 * eta) ** k * math.factorial(nu) / denom * b_nu_xi
        except (OverflowError, ZeroDivisionError):
            pass
    if b_nu_xi != 0 and not 0.0 < abs(value) < math.inf:
        log_value = math.log(4.0 * math.pi) - k * math.log(4.0 * eta) + log_beta(nu + 1.0, k - 1.0)
        value = (math.exp(log_value) if log_value < 709.78 else math.inf) * b_nu_xi
    if not np.isfinite(value) or (value == 0 and b_nu_xi != 0):
        raise RefusalError(f"the elliptic pairing 4 pi / (4 Im xi)^k nu! / ((k-1) k ... "
                           f"(k+nu-1)) b passes the float range at k={k}, Im xi={eta}")
    return value

