"""Command-line workbench.

Subcommands: eval, fourier, pair, criterion, induce, cosets, selftest,
table.  Each job validates its configuration, runs one computation, and
writes a single artifact: CSV for table, JSON or CSV (--format) for
fourier, JSON otherwise.  Identical configurations (including selftest's
--rng-seed) produce byte-identical artifacts.  A subcommand takes only
the options its job reads; any other option is a usage error.  Each
subcommand's parser binds its runner as `job`, and `run(ns)` calls
`ns.job(ns)`.  Numbers must be finite: nan and +-inf are refused.  A
point "x,y" with negative x is written with "=", as in --tau=-0.2,0.2,
since argparse reads a bare "-0.2,0.2" as an option.  Exit codes: 0
success, 2 invalid configuration, 3 numeric refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import (QuadratureSpec, classical_pairing_closed_form,
                       elliptic_expansion_coeffs, elliptic_pairing_closed_form,
                       fourier_coefficients, petersson_strip)
from .errors import DomainError, RefusalError
from .modgroup import (GroupSpec, I2, S, cocycle_j, cusp_width, enumerate_cosets,
                       mobius_act, right_coset_reps, st_syllables, t_power)
from .multiplier import MultiplierSystem, _random_element, check_consistency
from .nonvanish import (beta_median, classical_criterion, elliptic_criterion,
                        find_radius, gamma_median, region_test_a, region_test_c)
from .rep import RepSpec, induce, spectral_split, trivial_rep
from .seeds import ClassicalSeed, EllipticSeed
from .series import build_series

__all__ = ["run", "emit_threshold_table", "main"]


class ConfigError(ValueError):
    pass


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _parse_group(ns) -> GroupSpec:
    kind = ns.group.lower()
    level = ns.level
    if kind == "sl2z":
        return GroupSpec.sl2z()
    if level is None:
        raise ConfigError(f"--group {kind} needs --level")
    if kind == "gamma0":
        return GroupSpec.gamma0(level)
    if kind == "gamma1pm":
        return GroupSpec.gamma1pm(level)
    if kind == "gammanpm":
        return GroupSpec.gamma_npm(level)
    raise ConfigError(f"unknown group {kind!r}")


def _parse_ms(ns) -> MultiplierSystem:
    family = {"trivial": "trivial_even", "trivial_even": "trivial_even",
              "eta": "eta_power", "eta_power": "eta_power"}.get(ns.family.lower())
    if family is None:
        raise ConfigError(f"unknown multiplier family {ns.family!r}")
    return MultiplierSystem(family, ns.k)


def _parse_rep(ns, group: GroupSpec) -> RepSpec:
    spec = ns.rep
    if spec == "trivial":
        return trivial_rep(ns.p, group)
    try:
        with open(spec) as fh:
            return RepSpec.from_json(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read rep file {spec!r}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed rep file {spec!r}: {exc!r}") from exc


def _parse_xy(text: str, what: str) -> complex:
    try:
        x, y = (float(v) for v in text.split(","))
    except Exception as exc:
        raise ConfigError(f"{what} must be 'x,y', got {text!r}") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return complex(x, y)


def _finite_float(text: str) -> float:
    """The type of every float option: nan and +-inf are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _classical_seed(group: GroupSpec, rep: RepSpec, ms: MultiplierSystem,
                    nu: int, j: int) -> ClassicalSeed:
    """The classical seed at the cusp infinity of group, of its width."""
    m_width = cusp_width(group, I2)
    return ClassicalSeed(nu, j, spectral_split(rep, ms, m_width), m_width)


def _build_series(ns):
    group = _parse_group(ns)
    ms = _parse_ms(ns)
    rep = _parse_rep(ns, group)
    if ns.seed == "classical":
        seed = _classical_seed(group, rep, ms, ns.nu, ns.j)
        lam = GroupSpec.gamma_infinity(seed.M)
    else:
        if not 1 <= ns.j <= rep.p:
            raise ConfigError(f"index j={ns.j} out of range 1..{rep.p}")
        xi = _parse_xy(ns.xi, "--xi")
        u = np.zeros(rep.p, dtype=complex)
        u[ns.j - 1] = 1.0
        seed = EllipticSeed(ns.nu, xi, u, ns.k)
        lam = GroupSpec.plus_minus_identity()
    return build_series(seed, lam, group, rep, ms, ns.k, ns.height)


def _run_eval(ns) -> dict:
    handle = _build_series(ns)
    tau = _parse_xy(ns.tau, "--tau")
    value, tail = handle.evaluate(tau)
    return {"tau": [tau.real, tau.imag],
            "value": [_c2j(z) for z in value],
            "tail": tail,
            "height": handle.height}


def _run_fourier(ns) -> dict:
    if ns.n0 > ns.n1:
        raise ConfigError(f"need --n0 <= --n1, got {ns.n0} > {ns.n1}")
    handle = _build_series(ns)
    seed = handle.seed
    if not isinstance(seed, ClassicalSeed):
        raise ConfigError("fourier needs a classical seed configuration")
    ns_range = list(range(ns.n0, ns.n1 + 1))
    table = fourier_coefficients(handle, seed.split, seed.M, ns_range,
                                 ns.y0, ns.nx_fourier)
    return table.to_json() if ns.fmt == "json" else table.to_csv()


def _run_pair(ns) -> dict:
    handle = _build_series(ns)
    seed = handle.seed
    q = QuadratureSpec(ns.ymin, ns.ymax, ns.nx, ns.ny, ns.xmax)
    strip = petersson_strip(handle, seed, handle.lam, ns.k, q)
    if isinstance(seed, ClassicalSeed):
        table = fourier_coefficients(handle, seed.split, seed.M, [seed.nu],
                                     0.5, 64)
        b = table.coeff(seed.j, seed.nu)
        closed = classical_pairing_closed_form(b, seed.M, ns.k, seed.nu, seed.m_j)
    else:
        coeffs = elliptic_expansion_coeffs(handle, seed.xi, ns.k, [seed.nu],
                                           0.4, nt=128, j=ns.j)
        b = coeffs[seed.nu]
        closed = elliptic_pairing_closed_form(b, ns.k, seed.nu, seed.xi)
    rel = abs(strip - closed) / abs(closed) if closed != 0 else float("inf")
    return {"strip": _c2j(strip), "closed_form": _c2j(closed),
            "coefficient": _c2j(b), "rel_err": rel, "height": handle.height}


def _run_criterion(ns) -> dict:
    kind = ns.kind
    if kind == "classical":
        report = classical_criterion(ns.k, ns.M, ns.N, ns.nu, ns.m)
    elif kind == "elliptic":
        report = elliptic_criterion(ns.k, ns.N, ns.nu)
    elif kind == "regionA":
        group = GroupSpec.gamma0(ns.N)
        ms = MultiplierSystem("trivial_even", ns.k) if ns.k % 2 == 0 \
            else MultiplierSystem("eta_power", ns.k)
        seed = _classical_seed(group, trivial_rep(1, group), ms, ns.nu, 1)
        report = region_test_a(seed, GroupSpec.gamma_infinity(seed.M), group, ns.k)
    else:
        r = ns.r if ns.r is not None else find_radius(ns.k, ns.nu, ns.N)
        if r is None:
            return {"criterion": "regionC", "satisfied": False,
                    "margin": float(elliptic_criterion(ns.k, ns.N, ns.nu).margin),
                    "inputs": {"k": ns.k, "nu": ns.nu, "N": ns.N, "r": None},
                    "details": {"note": "no feasible radius"}}
        report = region_test_c(ns.k, ns.nu, ns.N, r)
    return report.to_json()


def _run_induce(ns) -> dict:
    group = _parse_group(ns)
    rep = _parse_rep(ns, group)
    cosets = right_coset_reps(group)
    return {**induce(rep, cosets).to_json(), "cosets": [list(g.entries()) for g in cosets]}


def _run_cosets(ns) -> dict:
    group = _parse_group(ns)
    if ns.stabiliser == "gammainf":
        width = ns.width if ns.width is not None else cusp_width(group, I2)
        lam = GroupSpec.gamma_infinity(width)
    else:
        lam = GroupSpec.plus_minus_identity()
    return enumerate_cosets(lam, group, ns.height).to_json()


def _run_selftest(ns) -> dict:
    rng = np.random.default_rng(ns.rng_seed)
    checks = {}

    worst = 0.0
    for _ in range(100):
        g1, g2 = _random_element(rng, 11), _random_element(rng, 11)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        jj = cocycle_j(g1 * g2, tau)
        rhs = cocycle_j(g1, mobius_act(g2, tau)) * cocycle_j(g2, tau)
        worst = max(worst, abs(jj - rhs) / (1.0 + abs(jj) ** 2))
    checks["cocycle"] = worst

    worst = 0.0
    for _ in range(100):
        g = _random_element(rng, 11)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        lhs = mobius_act(g, tau).imag
        rhs = tau.imag / abs(cocycle_j(g, tau)) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    checks["imaginary_part"] = worst

    ok = True
    for _ in range(100):
        g = _random_element(rng, 11)
        syll, sign = st_syllables(g)
        prod = I2
        for kind, q in syll:
            prod = prod * (t_power(q) if kind == "T" else S)
        ok = ok and prod == (g if sign == 1 else -g)
    checks["word_reconstruction"] = 0.0 if ok else 1.0

    checks["multiplier_identity"] = check_consistency(
        MultiplierSystem("eta_power", 0.5), 40, rng_seed=ns.rng_seed)
    checks["gamma_median_ln2"] = abs(gamma_median(1.0) - math.log(2.0))
    checks["beta_median_sym"] = abs(beta_median(3.0, 3.0) - 0.5)

    passed = (checks["cocycle"] <= 1e-12 and checks["imaginary_part"] <= 1e-12
              and checks["word_reconstruction"] == 0.0
              and checks["multiplier_identity"] <= 1e-10
              and checks["gamma_median_ln2"] <= 1e-12
              and checks["beta_median_sym"] <= 1e-12)
    return {"selftest": "pass" if passed else "fail", "checks": checks,
            "rng_seed": ns.rng_seed}


def emit_threshold_table(ks, ns_levels, nus, m_j: float = 1.0, M: int = 1) -> str:
    """CSV of criterion margins over a parameter grid."""
    if not ks or not ns_levels or not nus:
        raise ConfigError("table ranges must be nonempty")
    lines = ["k,N,nu,classical_margin,elliptic_margin,sharp_classical"]
    for k in ks:
        for n in ns_levels:
            for nu in nus:
                cl = classical_criterion(k, M, n, nu, m_j)
                sharp = cl.details.get("sharp_margin")
                if n >= 2:
                    el = elliptic_criterion(k, n, nu).margin
                else:
                    el = float("nan")
                lines.append(f"{k!r},{n},{nu},{cl.margin!r},{el!r},{sharp!r}")
    return "\n".join(lines) + "\n"


def _run_table(ns) -> str:
    ks = [float(v) for v in ns.k_list.split(",")] if ns.k_list else []
    if not all(math.isfinite(k) for k in ks):
        raise ConfigError(f"--k-list must be finite, got {ns.k_list!r}")
    levels = [int(v) for v in ns.n_list.split(",")] if ns.n_list else []
    nus = list(range(ns.nu_max + 1))
    return emit_threshold_table(ks, levels, nus, m_j=ns.m, M=ns.M)


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed job and write its artifact; returns the exit status."""
    try:
        result = ns.job(ns)
    except RefusalError as exc:
        _emit_error("refusal", exc)
        return 3
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        _emit_error("invalid_config", exc)
        return 2
    if isinstance(result, str):
        payload = result
    else:
        payload = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if ns.out == "-":
        sys.stdout.write(payload)
    else:
        with open(ns.out, "w") as fh:
            fh.write(payload)
    if ns.command == "selftest" and result.get("selftest") != "pass":
        return 1
    return 0


def _emit_error(kind: str, exc: Exception):
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "class": type(exc).__name__, "message": str(exc)}},
        sort_keys=True) + "\n")


def _add_group(sp, rep=False):
    sp.add_argument("--group", default="sl2z")
    sp.add_argument("--level", type=int, default=None)
    if rep:
        sp.add_argument("--rep", default="trivial")
        sp.add_argument("--p", type=int, default=1)


def _add_series(sp, quad_opts=False):
    """Options of the jobs that build a truncated series."""
    _add_group(sp, rep=True)
    sp.add_argument("--k", type=_finite_float, default=12.0)
    sp.add_argument("--family", default="trivial")
    sp.add_argument("--seed", default="classical", choices=("classical", "elliptic"))
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--xi", default="0,1", metavar="X,Y",
                    help="centre x+iy of an elliptic seed; a negative x needs "
                         "the form --xi=-0.5,1")
    sp.add_argument("--height", type=_finite_float, default=60.0)
    if quad_opts:
        sp.add_argument("--ymin", type=_finite_float, default=0.05)
        sp.add_argument("--ymax", type=_finite_float, default=10.0)
        sp.add_argument("--nx", type=int, default=32,
                        help="classical: trapezoid nodes across the period; "
                             "elliptic: trapezoid nodes in arg w (at least 16)")
        sp.add_argument("--ny", type=int, default=24,
                        help="classical: geometric Gauss panels in y; elliptic: "
                             "max(4, ny // 4) Gauss panels in |w| (at least 16)")
        sp.add_argument("--xmax", type=_finite_float, default=None,
                        help="elliptic: the disk about xi stays in |x| <= xmax "
                             "(default 8), as it stays in ymin <= y <= ymax")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vvps",
                                 description="Poincare series workbench")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, job):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(job=job)
        sp.add_argument("--out", default="-")
        return sp

    sp = command("eval", "evaluate a truncated series at a point", _run_eval)
    _add_series(sp)
    sp.add_argument("--tau", required=True, metavar="X,Y",
                    help="the point x+iy; a negative x needs the form --tau=-0.2,0.2")

    sp = command("fourier", "Fourier coefficients of a series", _run_fourier)
    _add_series(sp)
    sp.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
    sp.add_argument("--n0", type=int, default=0)
    sp.add_argument("--n1", type=int, default=2)
    sp.add_argument("--y0", type=_finite_float, default=0.5)
    sp.add_argument("--nx-fourier", dest="nx_fourier", type=int, default=64)

    sp = command("pair", "unfolded pairing vs closed form", _run_pair)
    _add_series(sp, quad_opts=True)

    sp = command("criterion", "non-vanishing criteria", _run_criterion)
    sp.add_argument("kind", choices=("classical", "elliptic", "regionA", "regionC"))
    sp.add_argument("--k", type=_finite_float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--m", type=_finite_float, default=1.0)
    sp.add_argument("--r", type=_finite_float, default=None)

    sp = command("induce", "induce a representation to the full group", _run_induce)
    _add_group(sp, rep=True)

    sp = command("cosets", "enumerate coset representatives", _run_cosets)
    _add_group(sp)
    sp.add_argument("--stabiliser", default="gammainf", choices=("gammainf", "pmi"))
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--height", type=_finite_float, default=20.0)

    sp = command("selftest", "run the fast invariant suite", _run_selftest)
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)

    sp = command("table", "criterion margins over a grid, as CSV", _run_table)
    sp.add_argument("--k-list", default="4,6,12,20.5")
    sp.add_argument("--n-list", default="2,3,5,11")
    sp.add_argument("--nu-max", type=int, default=6)
    sp.add_argument("--m", type=_finite_float, default=1.0)
    sp.add_argument("--M", type=int, default=1)
    return ap


def config_from_args(argv=None) -> argparse.Namespace:
    """The parsed job; a usage error exits 2 before any job runs."""
    return build_parser().parse_args(argv)


def main(argv=None) -> None:
    sys.exit(run(config_from_args(argv)))


if __name__ == "__main__":
    main()
