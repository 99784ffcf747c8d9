"""Independent reference values for the benchmark's correctness checks.

Nothing here calls into `vvps`: each reference is computed from a closed
form or from scipy, so a job that passes its check agrees with a second
pipeline.  scipy is imported lazily, after the timed loop, so it never
counts towards a workload's memory or time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Largest modulus c in the Kloosterman-Bessel series.  For k >= 12 and the
# frequencies used here (m <= 2, n <= 16) the term at c = 400 is below
# 1e-17 of the leading term.
KLOOSTERMAN_C_MAX = 400


def petersson_kloosterman(m: int, ns, k: float, level: int,
                          c_max: int = KLOOSTERMAN_C_MAX) -> np.ndarray:
    """Fourier coefficients b_n of the classical Poincare series P_m of
    weight k on Gamma0(level) with trivial data, for the frequencies n:

        b_n = delta_mn + 2 pi i^-k (n/m)^((k-1)/2)
              * sum_{level | c} S(m, n; c) / c * J_{k-1}(4 pi sqrt(m n) / c).
    """
    from scipy.special import jv

    ns = np.asarray(ns, dtype=float)
    total = np.zeros(len(ns), dtype=complex)
    for c in range(level, c_max + 1, level):
        d = np.array([x for x in range(c) if math.gcd(x, c) == 1])
        dbar = np.array([pow(int(x), -1, c) if c > 1 else 0 for x in d])
        phase = np.exp(2j * math.pi * (m * dbar[None, :] + ns[:, None] * d[None, :]) / c)
        kloost = phase.sum(axis=1)
        total += kloost / c * jv(k - 1.0, 4.0 * math.pi * np.sqrt(m * ns) / c)
    delta = (ns == m).astype(float)
    return delta + 2.0 * math.pi * (1j) ** (-k) * (ns / m) ** ((k - 1.0) / 2.0) * total


def fourier_sum(coeffs, freqs, tau: complex) -> complex:
    """sum_n b_n e^{2 pi i f_n tau}."""
    return complex(np.sum(np.asarray(coeffs) * np.exp(2j * math.pi * np.asarray(freqs) * tau)))


def elliptic_pairing(b: complex, k: float, nu: int, xi: complex) -> complex:
    """<P, P> for the elliptic Poincare series at xi, from its nu-th
    expansion coefficient: 4 pi (4 Im xi)^-k nu! Gamma(k-1) / Gamma(k+nu) * b."""
    return (4.0 * math.pi / (4.0 * xi.imag) ** k
            * (math.gamma(nu + 1.0) * math.gamma(k - 1.0) / math.gamma(k + nu)) * b)


def principal_power(z: complex, s: float) -> complex:
    """z^s on the principal branch, arg in ]-pi, pi]."""
    return cmath.exp(s * complex(math.log(abs(z)), cmath.phase(z)))


def gamma_median(a: float) -> float:
    from scipy.special import gammaincinv
    return float(gammaincinv(a, 0.5))


def beta_median(a: float, b: float) -> float:
    from scipy.special import betaincinv
    return float(betaincinv(a, b, 0.5))


def classical_margins(k: float, M: int, N: int, nu: int, m_j: float) -> dict:
    """Closed-form and sharp (gamma-median) margins of the classical criterion."""
    margin = M * N * (k - 8.0 / 3.0) / (4.0 * math.pi) - (nu + m_j)
    sharp = gamma_median(k / 2.0 - 1.0) - 2.0 * math.pi * (nu + m_j) / (M * N)
    return {"margin": margin, "sharp_margin": sharp}


def elliptic_margin(k: float, N: int, nu: int) -> float:
    mb = beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0)
    return N - 4.0 * math.sqrt(mb) / (1.0 - mb)


def region_a_margin(k: float, M: int, N: int, nu: int, m_j: float) -> float:
    """1 - 2 P(k/2 - 1, 2 pi (nu + m_j) / (M N))."""
    from scipy.special import gammainc
    return 1.0 - 2.0 * float(gammainc(k / 2.0 - 1.0, 2.0 * math.pi * (nu + m_j) / (M * N)))


def region_c_radius(k: float, nu: int, N: int):
    """Midpoint of [atanh(sqrt(beta median)), r_max], or None when empty."""
    r_max = math.acosh((N * N + 2.0) / 2.0) / 4.0
    r_star = math.atanh(math.sqrt(beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0)))
    if r_star >= r_max:
        return None
    return 0.5 * (r_star + r_max)


def region_c_mass_margin(k: float, nu: int, r: float) -> float:
    """(head - tail) / (head + tail) = 2 I_{tanh^2 r}(nu/2 + 1, k/2 - 1) - 1."""
    from scipy.special import betainc
    return 2.0 * float(betainc(nu / 2.0 + 1.0, k / 2.0 - 1.0, math.tanh(r) ** 2)) - 1.0
