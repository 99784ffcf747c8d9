"""Command-line workbench.

Subcommands: eval, fourier, pair, criterion, induce, cosets, selftest,
table.  Each job validates its configuration, runs one computation, and
writes a single JSON or CSV artifact; identical configurations (including
the rng seed) produce byte-identical artifacts.  Exit codes: 0 success,
2 invalid configuration, 3 numeric refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import (QuadratureSpec, classical_pairing_closed_form,
                       elliptic_expansion_coeffs, elliptic_pairing_closed_form,
                       fourier_coefficients, petersson_strip)
from .errors import DomainError, RefusalError
from .modgroup import (GroupSpec, I2, S, cocycle_j, cusp_width,
                       enumerate_cosets, evaluate_word, mobius_act,
                       right_coset_reps, word_in_st, t_power)
from .multiplier import MultiplierSystem, check_consistency
from .nonvanish import (beta_median, classical_criterion, elliptic_criterion,
                        find_radius, gamma_median, region_test_a, region_test_c)
from .rep import RepSpec, induce, spectral_split, trivial_rep
from .seeds import ClassicalSeed, EllipticSeed
from .series import build_series

__all__ = ["JobConfig", "run", "emit_threshold_table", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    """A validated job: one command plus everything it needs."""

    command: str
    args: dict = field(default_factory=dict)
    out: str = "-"
    fmt: str = "json"
    rng_seed: int = 0


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _parse_group(ns) -> GroupSpec:
    kind = (ns.group or "sl2z").lower()
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
              "eta": "eta_power", "eta_power": "eta_power"}.get((ns.family or "trivial").lower())
    if family is None:
        raise ConfigError(f"unknown multiplier family {ns.family!r}")
    return MultiplierSystem(family, ns.k)


def _parse_rep(ns, group: GroupSpec) -> RepSpec:
    spec = ns.rep or "trivial"
    if spec == "trivial":
        return trivial_rep(getattr(ns, "p", 1) or 1, group)
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
    return complex(x, y)


def _build_seed_and_series(ns):
    group = _parse_group(ns)
    ms = _parse_ms(ns)
    rep = _parse_rep(ns, group)
    if ns.seed == "classical":
        m_width = cusp_width(group, I2)
        split = spectral_split(rep, ms, m_width)
        seed = ClassicalSeed(ns.nu, ns.j, split, m_width)
        lam = GroupSpec.gamma_infinity(m_width)
    elif ns.seed == "elliptic":
        xi = _parse_xy(ns.xi or "0,1", "--xi")
        u = np.zeros(rep.p, dtype=complex)
        u[ns.j - 1] = 1.0
        seed = EllipticSeed(ns.nu, xi, u, ns.k)
        lam = GroupSpec.plus_minus_identity()
    else:
        raise ConfigError(f"unknown seed variant {ns.seed!r}")
    handle = build_series(seed, lam, group, rep, ms, ns.k, ns.height)
    return seed, lam, group, rep, ms, handle


def _quad_from(ns) -> QuadratureSpec:
    return QuadratureSpec(ns.ymin, ns.ymax, ns.nx, ns.ny,
                          getattr(ns, "xmax", None))


def _run_eval(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    _, _, _, _, _, handle = _build_seed_and_series(ns)
    tau = _parse_xy(ns.tau, "--tau")
    value, tail = handle.evaluate(tau)
    return {"tau": [tau.real, tau.imag],
            "value": [_c2j(z) for z in value],
            "tail": tail,
            "height": handle.height}


def _run_fourier(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    seed, _, _, _, ms, handle = _build_seed_and_series(ns)
    if not isinstance(seed, ClassicalSeed):
        raise ConfigError("fourier needs a classical seed configuration")
    ns_range = list(range(ns.n0, ns.n1 + 1))
    table = fourier_coefficients(handle, seed.split, seed.M, ns_range,
                                 ns.y0, ns.nx_fourier)
    return table.to_json() if cfg.fmt == "json" else table.to_csv()


def _run_pair(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    seed, lam, _, _, _, handle = _build_seed_and_series(ns)
    q = _quad_from(ns)
    strip = petersson_strip(handle, seed, lam, ns.k, q)
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


def _run_criterion(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    kind = ns.kind
    if kind == "classical":
        report = classical_criterion(ns.k, ns.M, ns.N, ns.nu, ns.m)
    elif kind == "elliptic":
        report = elliptic_criterion(ns.k, ns.N, ns.nu)
    elif kind == "regionA":
        group = GroupSpec.gamma0(ns.N)
        ms = MultiplierSystem("trivial_even", ns.k) if ns.k % 2 == 0 \
            else MultiplierSystem("eta_power", ns.k)
        rep = trivial_rep(1, group)
        m_width = cusp_width(group, I2)
        split = spectral_split(rep, ms, m_width)
        seed = ClassicalSeed(ns.nu, 1, split, m_width)
        report = region_test_a(seed, GroupSpec.gamma_infinity(m_width), group, ns.k)
    elif kind == "regionC":
        r = ns.r if ns.r is not None else find_radius(ns.k, ns.nu, ns.N)
        if r is None:
            return {"criterion": "regionC", "satisfied": False,
                    "margin": float(elliptic_criterion(ns.k, ns.N, ns.nu).margin),
                    "inputs": {"k": ns.k, "nu": ns.nu, "N": ns.N, "r": None},
                    "details": {"note": "no feasible radius"}}
        report = region_test_c(ns.k, ns.nu, ns.N, r)
    else:
        raise ConfigError(f"unknown criterion {kind!r}")
    return report.to_json()


def _run_induce(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    group = _parse_group(ns)
    rep = _parse_rep(ns, group)
    cosets = right_coset_reps(group)
    return {**induce(rep, cosets).to_json(), "cosets": [list(g.entries()) for g in cosets]}


def _run_cosets(cfg: JobConfig) -> dict:
    ns = cfg.args["ns"]
    group = _parse_group(ns)
    if ns.stabiliser == "gammainf":
        width = ns.width if ns.width is not None else cusp_width(group, I2)
        lam = GroupSpec.gamma_infinity(width)
    elif ns.stabiliser == "pmi":
        lam = GroupSpec.plus_minus_identity()
    else:
        raise ConfigError(f"unknown stabiliser {ns.stabiliser!r}")
    return enumerate_cosets(lam, group, ns.height).to_json()


def _run_selftest(cfg: JobConfig) -> dict:
    rng = np.random.default_rng(cfg.rng_seed)
    checks = {}

    def rand_elt():
        g = I2
        for _ in range(int(rng.integers(1, 12))):
            g = g * (S, t_power(1), t_power(-1))[int(rng.integers(0, 3))]
        return g

    worst = 0.0
    for _ in range(100):
        g1, g2 = rand_elt(), rand_elt()
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        jj = cocycle_j(g1 * g2, tau)
        rhs = cocycle_j(g1, complex(mobius_act(g2, tau))) * cocycle_j(g2, tau)
        worst = max(worst, abs(jj - rhs) / (1.0 + abs(jj) ** 2))
    checks["cocycle"] = worst

    worst = 0.0
    for _ in range(100):
        g = rand_elt()
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        lhs = complex(mobius_act(g, tau)).imag
        rhs = tau.imag / abs(cocycle_j(g, tau)) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    checks["imaginary_part"] = worst

    ok = True
    for _ in range(100):
        g = rand_elt()
        letters, _ = word_in_st(g)
        prod = evaluate_word(letters)
        ok = ok and (prod == g or prod == -g)
    checks["word_reconstruction"] = 0.0 if ok else 1.0

    checks["multiplier_identity"] = check_consistency(
        MultiplierSystem("eta_power", 0.5), 40, rng_seed=cfg.rng_seed)
    checks["gamma_median_ln2"] = abs(gamma_median(1.0) - math.log(2.0))
    checks["beta_median_sym"] = abs(beta_median(3.0, 3.0) - 0.5)

    passed = (checks["cocycle"] <= 1e-12 and checks["imaginary_part"] <= 1e-12
              and checks["word_reconstruction"] == 0.0
              and checks["multiplier_identity"] <= 1e-10
              and checks["gamma_median_ln2"] <= 1e-12
              and checks["beta_median_sym"] <= 1e-12)
    return {"selftest": "pass" if passed else "fail", "checks": checks,
            "rng_seed": cfg.rng_seed}


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


def _run_table(cfg: JobConfig) -> str:
    ns = cfg.args["ns"]
    ks = [float(v) for v in ns.k_list.split(",")] if ns.k_list else []
    levels = [int(v) for v in ns.n_list.split(",")] if ns.n_list else []
    nus = list(range(0, ns.nu_max + 1)) if ns.nu_max is not None else []
    return emit_threshold_table(ks, levels, nus, m_j=ns.m, M=ns.M)


_RUNNERS = {
    "eval": _run_eval,
    "fourier": _run_fourier,
    "pair": _run_pair,
    "criterion": _run_criterion,
    "induce": _run_induce,
    "cosets": _run_cosets,
    "selftest": _run_selftest,
    "table": _run_table,
}


def run(cfg: JobConfig) -> int:
    """Execute one job and write its artifact; returns the exit status."""
    try:
        result = _RUNNERS[cfg.command](cfg)
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
    if cfg.out == "-":
        sys.stdout.write(payload)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    if cfg.command == "selftest" and result.get("selftest") != "pass":
        return 1
    return 0


def _emit_error(kind: str, exc: Exception):
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "class": type(exc).__name__, "message": str(exc)}},
        sort_keys=True) + "\n")


def _add_common(sp, seed_opts=False, quad_opts=False):
    sp.add_argument("--group", default="sl2z")
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--k", type=float, default=12.0)
    sp.add_argument("--family", default="trivial")
    sp.add_argument("--rep", default="trivial")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--out", default="-")
    sp.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)
    if seed_opts:
        sp.add_argument("--seed", default="classical", choices=("classical", "elliptic"))
        sp.add_argument("--nu", type=int, default=0)
        sp.add_argument("--j", type=int, default=1)
        sp.add_argument("--xi", default="0,1")
        sp.add_argument("--height", type=float, default=60.0)
    if quad_opts:
        sp.add_argument("--ymin", type=float, default=0.05)
        sp.add_argument("--ymax", type=float, default=10.0)
        sp.add_argument("--nx", type=int, default=32)
        sp.add_argument("--ny", type=int, default=24)
        sp.add_argument("--xmax", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vvps",
                                 description="Poincare series workbench")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate a truncated series at a point")
    _add_common(sp, seed_opts=True)
    sp.add_argument("--tau", required=True)

    sp = sub.add_parser("fourier", help="Fourier coefficients of a series")
    _add_common(sp, seed_opts=True)
    sp.add_argument("--n0", type=int, default=0)
    sp.add_argument("--n1", type=int, default=2)
    sp.add_argument("--y0", type=float, default=0.5)
    sp.add_argument("--nx-fourier", dest="nx_fourier", type=int, default=64)

    sp = sub.add_parser("pair", help="strip pairing vs closed form")
    _add_common(sp, seed_opts=True, quad_opts=True)

    sp = sub.add_parser("criterion", help="non-vanishing criteria")
    sp.add_argument("kind", choices=("classical", "elliptic", "regionA", "regionC"))
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--out", default="-")
    sp.add_argument("--format", dest="fmt", default="json", choices=("json",))
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)

    sp = sub.add_parser("induce", help="induce a representation to the full group")
    _add_common(sp)

    sp = sub.add_parser("cosets", help="enumerate coset representatives")
    _add_common(sp)
    sp.add_argument("--stabiliser", default="gammainf", choices=("gammainf", "pmi"))
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--height", type=float, default=20.0)

    sp = sub.add_parser("selftest", help="run the fast invariant suite")
    sp.add_argument("--out", default="-")
    sp.add_argument("--format", dest="fmt", default="json", choices=("json",))
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)

    sp = sub.add_parser("table", help="criterion margins over a grid, as CSV")
    sp.add_argument("--k-list", default="4,6,12,20.5")
    sp.add_argument("--n-list", default="2,3,5,11")
    sp.add_argument("--nu-max", type=int, default=6)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--out", default="-")
    sp.add_argument("--format", dest="fmt", default="csv", choices=("csv",))
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)
    return ap


def config_from_args(argv=None) -> JobConfig:
    ns = build_parser().parse_args(argv)
    return JobConfig(command=ns.command, args={"ns": ns}, out=ns.out,
                     fmt=ns.fmt, rng_seed=ns.rng_seed)


def main(argv=None) -> None:
    try:
        cfg = config_from_args(argv)
    except ConfigError as exc:
        _emit_error("invalid_config", exc)
        sys.exit(2)
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
