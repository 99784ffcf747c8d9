"""Expansions and Petersson pairings by quadrature.

Fourier coefficients are extracted on a horizontal line by the periodic
rectangle rule; elliptic expansion coefficients on a circle in the disk
variable w = (tau - xi)/(tau - conj(xi)).  Pairings against seeds unfold to
a fundamental domain of the seed's stabiliser seed.lam, each by a periodic
trapezoid times the Gauss rule of the weight that the trapezoid leaves,
which takes the seed's term exactly.  For GammaInfinity(M) that is the
whole period strip, with the two-point Gauss-Laguerre rule of y^(k-2)
e^(-4 pi alpha y) in y; for <-I>, a hyperbolic disk about the seed's xi,
with the ceil((nu + 1)/2)-point Gauss rule of (1 - s)^(k-2) in s = |w|^2.
The closed-form pairing values provide the independent second pipeline,
and domain_share the exact part of them that the domain keeps.
petersson_pair_full pairs over a fundamental domain of the group itself,
without unfolding, cut at its cusps: on the strip of each, the periodic
trapezoid in x and the Gauss-Laguerre rule of the cusp form's decay in y
above y = 1, and Gauss-Legendre cells between y = 1 and the unit arcs.
Every grid is evaluated by one evaluate_many call, whose block loop runs
on the usable CPUs (series.thread_cap, re-exported here); extraction at a
cusp sigma != +-I applies series.slash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import (comp_sum_complex, gamma_over_power, gauss_jacobi_truncated, log_beta,
                    regularized_incomplete_beta)
from .errors import DomainError, RefusalError
from .modgroup import (GroupSpec, I2, IntMatrix2, _cusp_orbits, entry_arrays,
                       principal_power, slash_kernel)
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

# petersson_pair_full's rule per unit cell (_cusp_strip): nodes in x, Gauss
# nodes in y under y = 1, and the Gauss-Laguerre rule above it with its cut
_CUSP_X, _ARC_Y = 8, 4
_LAGUERRE_NODES, _LAGUERRE_CUT = 20, 1e-13


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid of a pairing integral: nx trapezoid nodes across the period of
    the GammaInfinity strip, or in arg w on the <-I> disk about xi, the
    largest hyperbolic disk inside the box |x| <= x_max, y_min <= y <= y_max
    (_strip_nodes).  The strip reads nx alone."""

    y_min: float = 0.05
    y_max: float = 10.0
    nx: int = 32
    x_max: float = 8.0

    def __post_init__(self):
        if not 0 < self.y_min < self.y_max:
            raise ValueError("need 0 < y_min < y_max")
        if self.nx < 16:
            raise ValueError("nx must be at least 16")


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
    largest hyperbolic disk about xi inside the box |x| <= x_max, y_min
    <= y <= y_max; ValueError when no disk fits."""
    eta = xi.imag
    d = min(math.log(eta / q.y_min), math.log(q.y_max / eta),
            math.asinh((q.x_max - abs(xi.real)) / eta))
    if not d > 0:
        raise ValueError(f"no disk about xi={xi} fits the box |x| <= {q.x_max}, "
                         f"{q.y_min} <= y <= {q.y_max}")
    return math.tanh(d / 2.0)


def _strip_nodes(f, k: float, q: QuadratureSpec):
    """Flat (taus, weights) over a fundamental domain of f.lam, the weights
    carrying Im(tau)^k dv (on the strip, up to the scale that _strip_scale
    applies to the sum).  The trapezoid across the GammaInfinity strip
    leaves b y^(k-2) e^-t, t = 4 pi alpha y, which the two-point
    Gauss-Laguerre rule of t^(k-2) e^-t takes: nodes t = k -+ sqrt(k),
    weights (sqrt(k) +- 1) / (2 sqrt(k)) e^t, and the scale Gamma(k - 1) /
    (4 pi alpha)^(k - 1).  On the <-I> disk about f.xi, with w = (tau -
    xi)/(tau - conj(xi)) = s^(1/2) e^{i theta}, Im(tau)^k dv = 2 (Im xi)^k
    (1 - s)^(k-2) / |1 - w|^(2k) ds dtheta, and the trapezoid in theta
    leaves b s^nu (1 - s)^(k-2), which the ceil((nu + 1)/2)-point Gauss
    rule of (1 - s)^(k-2) on [0, rho_max^2] takes (more nodes would reach
    the disk's edge, where the trapezoid aliases).  Refused (RefusalError)
    before any node is made where the strip's lower node lies below
    series.MIN_IM or its scale passes the float range, or the disk's
    y_max^k does, and where a disk weight overflows."""
    lam = getattr(f, "lam", None)
    if lam is None:
        raise ValueError("the pairing needs a seed as its second argument: a classical "
                         "seed for the strip, an elliptic seed for the disk about its xi")
    if lam.kind == "GammaInfinity":
        root, beta = math.sqrt(k), 4.0 * math.pi * f.alpha
        t = np.array([k - root, k + root])
        if t[0] / beta < MIN_IM:
            raise RefusalError(f"the strip rule's lower node y = {t[0] / beta:.4g} < {MIN_IM}")
        _strip_scale(1.0, k, f)
        xs = (np.arange(q.nx) + 0.5) * (lam.n / q.nx)
        # an e^t past the float range makes a non-finite term, which the sum refuses
        wt = (root + np.array([1.0, -1.0])) / (2.0 * root) * np.exp(t) * (lam.n / q.nx)
        return (xs[:, None] + 1j * (t / beta)[None, :]).ravel(), np.tile(wt, q.nx)
    overflow = RefusalError(f"the weight y^{k:g} on [{q.y_min}, {q.y_max}] "
                            "overflows the float range")
    try:
        q.y_max ** k  # the nodes need not come near y_max
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


def _strip_scale(c, k: float, f):
    """c Gamma(k - 1) / (4 pi alpha)^(k - 1) (_quad.gamma_over_power), or RefusalError."""
    try:
        return gamma_over_power(c, k - 1.0, 4.0 * math.pi * f.alpha)
    except OverflowError:
        raise RefusalError(f"the strip rule's scale c Gamma(k-1) / (4 pi alpha)^(k-1) passes "
                           f"the float range at k={k}, alpha={f.alpha:g}") from None


def petersson_strip(F, f, k: float, q: QuadratureSpec):
    """Unfolded pairing <F, P f> = int <F(tau), f(tau)> Im(tau)^k dv over a
    fundamental domain of the stabiliser f.lam of the seed f: for
    GammaInfinity(M) the whole period strip, of which q sets nx alone; for
    <-I> the half-plane, truncated to the largest hyperbolic disk about
    f.xi inside q's box (a box that holds no such disk raises ValueError)."""
    if k <= 2:
        raise DomainError("strip pairing diverges for k <= 2")
    # what overflows here is refused by the sums as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        taus, weights = _strip_nodes(f, k, q)
        fv = _values(f, taus)
        big = _values(F, taus)
        inner = np.sum(big * fv.conj(), axis=1)
        total = comp_sum_complex(weights * inner)
    return _strip_scale(total, k, f) if f.lam.kind == "GammaInfinity" else total


def domain_share(f, k: float, q: QuadratureSpec) -> float:
    """Share of the unfolded pairing <F, P f> that petersson_strip's domain
    keeps, for any F: 1.0 on the whole strip, and on the disk, whose arg w
    integral keeps only the seed's frequency, exactly I_{rho_max^2}(nu+1, k-1)."""
    if f.lam.kind == "GammaInfinity":
        return 1.0
    return regularized_incomplete_beta(f.nu + 1.0, k - 1.0, _disk_radius(complex(f.xi), q) ** 2)


def _cusp_strip(g: IntMatrix2, w: int):
    """Nodes tau and area weights dx dy of petersson_pair_full on the
    strip of the cusp g.infinity of width w: the w cells T^n of the
    standard domain, n0 <= n < n0 + w, centred on -d/c (on 0 for c = 0),
    where |c tau + d| is least and g.tau farthest from the real line.
    Above y = 1 the integrand has period w in x: the trapezoid, _CUSP_X
    nodes per unit width, times the Gauss-Laguerre rule in t = 4 pi (y -
    1) / w, the decay e^-t of a cusp form's square; the nodes of weight
    below _LAGUERRE_CUT of the largest carry under 1e-9 of that integral
    at k = 12, and g maps them below series.MIN_IM (t = 37 at w = 7), so
    they are dropped.  Under y = 1 each cell takes a Gauss-Legendre
    product, _CUSP_X nodes in x and _ARC_Y in y between its arc
    |tau - n| = 1 and y = 1."""
    centre = -g.d / g.c if g.c else 0.0
    n0 = math.floor(centre - w / 2.0 + 1.0)
    t, wt = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
    keep = wt >= _LAGUERRE_CUT * wt.max()
    xs = n0 - 0.5 + (np.arange(_CUSP_X * w) + 0.5) / _CUSP_X
    up = w / (4.0 * math.pi)
    above = (xs[:, None] + 1j * (1.0 + up * t[keep])).ravel()
    w_above = np.tile(wt[keep] * np.exp(t[keep]) * (up / _CUSP_X), len(xs))
    u, wu = np.polynomial.legendre.leggauss(_CUSP_X)
    v, wv = np.polynomial.legendre.leggauss(_ARC_Y)
    half = 0.5 * (1.0 - np.sqrt(1.0 - 0.25 * u * u))  # half the column under y = 1
    ys = 1.0 - half[:, None] * (1.0 - v)
    cells = (n0 + np.arange(w))[:, None, None] + 0.5 * u[:, None]
    below = (cells + 1j * ys).ravel()
    w_below = np.tile(((0.5 * wu * half)[:, None] * wv).ravel(), w)
    return np.concatenate([above, below]), np.concatenate([w_above, w_below])


def _pair_full_nodes(gamma: GroupSpec, k: float):
    """Flat (points, weights) of petersson_pair_full: the images g.tau of
    the nodes of every cusp's strip, and the weights Im(g tau)^k dv =
    y^(k - 2) |j(g, tau)^-k|^2 dx dy."""
    moved, weights = [], []
    for g, w in _cusp_orbits(gamma):
        taus, area = _cusp_strip(g, w)
        jmk, gtau = slash_kernel(entry_arrays([g]), taus, k)
        moved.append(gtau[:, 0])
        weights.append(area * taus.imag ** (k - 2.0) * np.abs(jmk[:, 0]) ** 2)
    return np.concatenate(moved), np.concatenate(weights)


def petersson_pair_full(F, G, gamma: GroupSpec, k: float) -> complex:
    """Petersson pairing of F and G over a fundamental domain of gamma,
    without unfolding: the check on the closed-form pairings.

    The domain is cut at its cusps (modgroup._cusp_orbits): a cusp
    g.infinity of width w holds the w translates g T^i of the standard
    domain {|tau| >= 1, |Re tau| <= 1/2}, the nodes of _cusp_strip mapped
    by g.  F and G are taken at g.tau, each by one evaluation over every
    cusp's nodes.  Measured against the closed forms of <P, P> at k = 12
    on SL2(Z) and Gamma0(N), N <= 7 (tests/test_analysis.py): 7e-10 to
    5.5e-7, where the series' truncation has its share.  The rule takes
    the e^(-4 pi y / w) decay of a cusp form's square; one decaying as
    e^(-2 pi y / w), as the slashes F|g by the cosets of Gamma0(2) do on
    SL2(Z), reads about 2e-4.  Refused (RefusalError) where a node's image
    lies below series.MIN_IM, at cusps of large width or denominator:
    Gamma0(6) and Gamma0(N) from N = 8 (seen up to 13).
    """
    # what overflows here is refused by the sum as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        moved, weights = _pair_full_nodes(gamma, k)
        f_vals = _values(F, moved)
        g_vals = f_vals if G is F else _values(G, moved)
        return comp_sum_complex(weights * np.sum(f_vals * g_vals.conj(), axis=1))


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

