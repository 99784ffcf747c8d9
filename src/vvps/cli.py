"""Command-line workbench.

Subcommands: eval, fourier, pair, criterion, induce, cosets, selftest,
table.  Each job validates its configuration, runs one computation, and
writes a single artifact: CSV for table, JSON or CSV (--format) for
fourier, JSON otherwise.  Identical configurations (including selftest's
--rng-seed) produce byte-identical artifacts.  A subcommand takes only
the options its job reads (but for --ny of an elliptic pair, which the
benchmark still passes); any other option is a usage error.  One
table, `_COMMANDS`, gives each subcommand its help line, runner and
options.  `parse_args` parses with one parser of all subcommands, which
binds each subcommand's runner as `job`, and `run(ns)` calls
`ns.job(ns)`.  A process builds that parser on its first parse, not at
import, and parsing never changes it, so the jobs of one process share
it.  Numbers must be finite: nan and +-inf are refused.  A point "x,y"
with negative x is written with "=", as in --tau=-0.2,0.2, since
argparse reads a bare "-0.2,0.2" as an option.  Exit codes: 0 success,
2 invalid configuration, 3 numeric refusal, which includes a job that
runs out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from functools import lru_cache, partial

import numpy as np

from . import __version__
from .analysis import (QuadratureSpec, classical_pairing_closed_form,
                       domain_share, elliptic_expansion_coeffs,
                       elliptic_pairing_closed_form, fourier_coefficients, petersson_strip)
from .errors import RefusalError
from .modgroup import (GroupSpec, I2, S, _cocycle, cusp_width, entry_arrays, enumerate_cosets,
                       right_coset_reps, slash_kernel, st_syllables, t_power)
from .multiplier import MultiplierSystem, _random_element, check_consistency
from .nonvanish import (beta_median, classical_criterion, elliptic_criterion,
                        gamma_median, margin_grid, region_test_a, region_test_c)
from .rep import RepSpec, induce, spectral_split, trivial_rep
from .seeds import ClassicalSeed, EllipticSeed
from .series import SeriesHandle

__all__ = ["run", "parse_args", "emit_threshold_table", "main"]


class ConfigError(ValueError):
    pass


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _parse_group(ns) -> GroupSpec:
    name = ns.group.lower()
    kind = {"sl2z": "SL2Z", "gamma0": "Gamma0", "gamma1pm": "Gamma1pm",
            "gammanpm": "GammaNpm"}.get(name)
    if kind is None:
        raise ConfigError(f"unknown group {name!r}")
    if kind == "SL2Z":
        if ns.level is not None:
            raise ConfigError("--group sl2z does not read --level")
        return GroupSpec.sl2z()
    if ns.level is None:
        raise ConfigError(f"--group {name} needs --level")
    return GroupSpec(kind, ns.level)


def _parse_ms(ns) -> MultiplierSystem:
    family = {"trivial": "trivial_even", "trivial_even": "trivial_even",
              "eta": "eta_power", "eta_power": "eta_power"}.get(ns.family.lower())
    if family is None:
        raise ConfigError(f"unknown multiplier family {ns.family!r}")
    return MultiplierSystem(family, ns.k)


def _parse_rep(ns, group: GroupSpec) -> RepSpec:
    spec = ns.rep
    if spec == "trivial":
        return trivial_rep(1 if ns.p is None else ns.p, group)
    if ns.p is not None:
        raise ConfigError("--p is the dimension of --rep trivial; "
                          "a rep file carries its own")
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


def _build_series(ns):
    group = _parse_group(ns)
    ms = _parse_ms(ns)
    rep = _parse_rep(ns, group)
    if ns.seed == "classical":
        if ns.xi is not None:
            raise ConfigError("--xi is the centre of an elliptic seed; "
                              "a classical seed does not read it")
        # the seed at the cusp infinity of the group, of its width
        m_width = cusp_width(group, I2)
        seed = ClassicalSeed(ns.nu, ns.j, spectral_split(rep, ms, m_width), m_width)
    else:
        if not 1 <= ns.j <= rep.p:
            raise ConfigError(f"index j={ns.j} out of range 1..{rep.p}")
        xi = 1j if ns.xi is None else _parse_xy(ns.xi, "--xi")
        u = np.zeros(rep.p, dtype=complex)
        u[ns.j - 1] = 1.0
        seed = EllipticSeed(ns.nu, xi, u, ns.k)
    return SeriesHandle(seed, rep, ms, group, ns.height)


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
    if ns.seed != "classical":
        raise ConfigError("fourier needs a classical seed configuration")
    handle = _build_series(ns)
    seed = handle.seed
    ns_range = list(range(ns.n0, ns.n1 + 1))
    table = fourier_coefficients(handle, seed.split, seed.M, ns_range,
                                 ns.y0, ns.nx_fourier)
    return table.to_json() if ns.fmt == "json" else table.to_csv()


def _run_pair(ns) -> dict:
    box = {"y_min": ns.ymin, "y_max": ns.ymax, "ny": ns.ny, "x_max": ns.xmax}
    box = {name: value for name, value in box.items() if value is not None}
    if ns.seed == "classical" and box:
        raise ConfigError(f"--{next(iter(box)).replace('_', '')} is an option of the elliptic "
                          "disk; a classical seed does not read it")
    q = QuadratureSpec(nx=ns.nx, **box)
    handle = _build_series(ns)
    seed = handle.seed
    strip = petersson_strip(handle, seed, ns.k, q)
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
    rel = abs(strip - closed) / abs(closed) if closed != 0 else math.inf
    if not math.isfinite(rel):
        raise RefusalError(f"the closed form of the pairing is {complex(closed)}, 0 or not "
                           "finite: the relative error against it is undefined")
    return {"strip": _c2j(strip), "closed_form": _c2j(closed),
            "coefficient": _c2j(b), "rel_err": rel, "height": handle.height,
            "domain_share": domain_share(seed, ns.k, q)}


def _run_criterion(ns) -> dict:
    kind = ns.kind
    for opt, owner in (("M", "classical"), ("m", "classical"), ("r", "regionC")):
        if getattr(ns, opt) is not None and kind != owner:
            raise ConfigError(f"--{opt} is read by {owner} only; {kind} does not read it")
    if kind == "classical":
        report = classical_criterion(ns.k, 1 if ns.M is None else ns.M, ns.N, ns.nu,
                                     1.0 if ns.m is None else ns.m)
    elif kind == "elliptic":
        report = elliptic_criterion(ns.k, ns.N, ns.nu)
    elif kind == "regionA":
        # the seed of Gamma0(N) at infinity, of width 1: m_j is the kappa of
        # the weight's multiplier, 1 where kappa = 0
        ms = MultiplierSystem("trivial_even" if ns.k % 2 == 0 else "eta_power", ns.k)
        report = region_test_a(ns.k, 1, ns.N, ns.nu, ms.kappa or 1.0)
    else:
        report = region_test_c(ns.k, ns.nu, ns.N, ns.r)
    return report.to_json()


def _run_induce(ns) -> dict:
    group = _parse_group(ns)
    rep = _parse_rep(ns, group)
    if rep.group != group:
        raise ConfigError(f"the rep file is a representation of {rep.group}; "
                          f"it cannot be induced from {group}")
    cosets = right_coset_reps(group)
    return {**induce(rep, cosets).to_json(), "cosets": [list(g.entries()) for g in cosets]}


def _run_cosets(ns) -> dict:
    group = _parse_group(ns)
    if ns.stabiliser == "gammainf":
        width = ns.width if ns.width is not None else cusp_width(group, I2)
        lam = GroupSpec.gamma_infinity(width)
    elif ns.width is not None:
        raise ConfigError("--width is the width of --stabiliser gammainf; "
                          "pmi does not read it")
    else:
        lam = GroupSpec.plus_minus_identity()
    return enumerate_cosets(lam, group, ns.height).to_json()


def _run_selftest(ns) -> dict:
    rng = np.random.default_rng(ns.rng_seed)
    checks = {}

    def draw(n):  # 100 samples of n random elements and a point, in that order
        rows = [[_random_element(rng, 11) for _ in range(n)]
                + [complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))] for _ in range(100)]
        *gs, taus = zip(*rows)
        return *gs, np.array(taus)

    def j(gs, taus):  # j(g_i, tau_i)
        ents = entry_arrays(gs)
        return _cocycle(ents[:, 2].astype(float), ents[:, 3].astype(float), taus)

    def act(gs, taus):  # g_i . tau_i
        return np.diagonal(slash_kernel(entry_arrays(gs), taus, 0.0)[1])

    g1, g2, taus = draw(2)
    jj = j([a * b for a, b in zip(g1, g2)], taus)
    rhs = j(g1, act(g2, taus)) * j(g2, taus)
    checks["cocycle"] = float(np.max(np.abs(jj - rhs) / (1.0 + np.abs(jj) ** 2)))

    g, taus = draw(1)
    rhs = taus.imag / np.abs(j(g, taus)) ** 2
    checks["imaginary_part"] = float(np.max(np.abs(act(g, taus).imag - rhs) / rhs))

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

    limits = {"cocycle": 1e-12, "imaginary_part": 1e-12, "word_reconstruction": 0.0,
              "multiplier_identity": 1e-10, "gamma_median_ln2": 1e-12,
              "beta_median_sym": 1e-12}
    passed = all(checks[name] <= limit for name, limit in limits.items())
    return {"selftest": "pass" if passed else "fail", "checks": checks,
            "rng_seed": ns.rng_seed}


def emit_threshold_table(ks, ns_levels, nus, m_j: float = 1.0, M: int = 1) -> str:
    """CSV of criterion margins over a parameter grid."""
    if not ks or not ns_levels or not nus:
        raise ConfigError("table ranges must be nonempty")
    lines = ["k,N,nu,classical_margin,elliptic_margin,sharp_classical"]
    lines += [f"{k!r},{n},{nu},{cl!r},{el!r},{sharp!r}"
              for k, n, nu, cl, el, sharp in margin_grid(ks, ns_levels, nus, m_j, M)]
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
    except (RefusalError, MemoryError, OverflowError) as exc:
        _emit_error("refusal", exc)
        return 3
    except (ValueError, OSError) as exc:
        _emit_error("invalid_config", exc)
        return 2
    # a dict is encoded into the file chunk by chunk: the whole string of a
    # large artifact would double the peak memory of the job
    with contextlib.nullcontext(sys.stdout) if ns.out == "-" else open(ns.out, "w") as fh:
        if isinstance(result, str):
            fh.write(result)
        else:
            fh.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(result))
            fh.write("\n")
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
        sp.add_argument("--p", type=int, default=None,
                        help="dimension of --rep trivial (default 1)")


def _add_series(sp, quad_opts=False):
    """Options of the jobs that build a truncated series."""
    _add_group(sp, rep=True)
    sp.add_argument("--k", type=_finite_float, default=12.0)
    sp.add_argument("--family", default="trivial")
    sp.add_argument("--seed", default="classical", choices=("classical", "elliptic"))
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--xi", default=None, metavar="X,Y",
                    help="centre x+iy of an elliptic seed (default 0,1); a "
                         "negative x needs the form --xi=-0.5,1")
    sp.add_argument("--height", type=_finite_float, default=60.0)
    if quad_opts:
        sp.add_argument("--ymin", type=_finite_float, default=None,
                        help="elliptic disk only (default 0.05)")
        sp.add_argument("--ymax", type=_finite_float, default=None,
                        help="elliptic disk only (default 10)")
        sp.add_argument("--nx", type=int, default=32,
                        help="classical: trapezoid nodes across the period; "
                             "elliptic: trapezoid nodes in arg w (at least 16)")
        sp.add_argument("--ny", type=int, default=None,
                        help="elliptic disk only, and not read (at least 16)")
        sp.add_argument("--xmax", type=_finite_float, default=None,
                        help="elliptic disk only: the disk about xi stays in |x| "
                             "<= xmax (default 8), ymin <= y <= ymax")


def _eval_options(sp):
    _add_series(sp)
    sp.add_argument("--tau", required=True, metavar="X,Y",
                    help="the point x+iy; a negative x needs the form --tau=-0.2,0.2")


def _fourier_options(sp):
    _add_series(sp)
    sp.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
    sp.add_argument("--n0", type=int, default=0)
    sp.add_argument("--n1", type=int, default=2)
    sp.add_argument("--y0", type=_finite_float, default=0.5)
    sp.add_argument("--nx-fourier", dest="nx_fourier", type=int, default=64)


def _criterion_options(sp):
    sp.add_argument("kind", choices=("classical", "elliptic", "regionA", "regionC"))
    sp.add_argument("--k", type=_finite_float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--M", type=int, default=None, help="classical only (default 1)")
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--m", type=_finite_float, default=None, help="classical only (default 1)")
    sp.add_argument("--r", type=_finite_float, default=None, help="regionC only")


def _cosets_options(sp):
    _add_group(sp)
    sp.add_argument("--stabiliser", default="gammainf", choices=("gammainf", "pmi"))
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--height", type=_finite_float, default=20.0)


def _table_options(sp):
    sp.add_argument("--k-list", default="4,6,12,20.5")
    sp.add_argument("--n-list", default="2,3,5,11")
    sp.add_argument("--nu-max", type=int, default=6)
    sp.add_argument("--m", type=_finite_float, default=1.0)
    sp.add_argument("--M", type=int, default=1)


# command: (help line, runner, the function that adds its options)
_COMMANDS = {
    "eval": ("evaluate a truncated series at a point", _run_eval, _eval_options),
    "fourier": ("Fourier coefficients of a series", _run_fourier, _fourier_options),
    "pair": ("unfolded pairing vs closed form", _run_pair, partial(_add_series, quad_opts=True)),
    "criterion": ("non-vanishing criteria", _run_criterion, _criterion_options),
    "induce": ("induce a representation to the full group", _run_induce,
               partial(_add_group, rep=True)),
    "cosets": ("enumerate coset representatives", _run_cosets, _cosets_options),
    "selftest": ("run the fast invariant suite", _run_selftest,
                 lambda sp: sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)),
    "table": ("criterion margins over a grid, as CSV", _run_table, _table_options),
}


def parse_args(argv) -> argparse.Namespace:
    """Parse one job's argv with the parser that every job of the process shares."""
    return _parser().parse_args(argv)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of all commands, each with its options and its runner as `job`."""
    ap = argparse.ArgumentParser(prog="vvps", description="Poincare series workbench")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, job, add_options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(job=job)
        sp.add_argument("--out", default="-")
        add_options(sp)
    return ap


def main(argv=None) -> None:
    """Parse and run one job; a usage error exits 2 before any job runs."""
    sys.exit(run(parse_args(sys.argv[1:] if argv is None else argv)))


if __name__ == "__main__":
    main()
