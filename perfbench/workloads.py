"""Seeded job lists for the four workloads, how to run a job, and how to
check its output against an independent oracle.

A job is either a `vvps` command line (run in-process through
`vvps.cli.main`, with its artifact captured from stdout) or a short
library call for the configurations the command line cannot express.
Library calls look functions up through the `vvps` modules at call time,
so the tracing wrappers see them.  `vvps` is imported inside functions
because run.py imports this module for the workload names without `vvps`
on its path.

Job lists are balanced so that their total work and their median job
hardly depend on the seed: every workload cycles through a fixed set of
cells (discrete parameters), and the jobs of a cell get stratified
heights, one per equal stratum of coset count (`stratified_heights`).
The seed draws the jitter of the heights, the points, the secondary
parameters and the order of the jobs.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import oracles

WORKLOADS = ("cusp-fourier", "elliptic-pair", "twisted-eval", "criteria-grid")

# Nominal seconds per cycle of each workload's job list on the reference
# machine (2-core Xeon, see NOTES.md).  A run of --seconds S runs
# max(1, round(S / CYCLE_S)) cycles: the job list depends only on the seed
# and S, never on how fast the program is.
CYCLE_S = {"cusp-fourier": 20.0, "elliptic-pair": 15.0, "twisted-eval": 17.0,
           "criteria-grid": 0.5}

# Tolerances of the oracle checks, each a small multiple of the worst
# error seen at this version over the corners of each workload's parameter
# space (every configuration, for the finite criteria space) and over the
# seeded runs, so that a loss of accuracy fails a job.
TOL = {
    "fourier": 1e-13,          # max |b - b_PK| / max |b_PK|; worst seen 3.8e-14
    "eval_classical": 3e-14,   # |F(tau) - sum_n b_PK(n) q^n| / sum_n |b_PK(n) q^n|;
                               # 1.2e-14 over 420 seeded jobs
    "fourier_sigma_s": 2e-15,  # max |b_S - b_I| / max |b_I| on SL2(Z); 8.6e-16
    "pair": 2e-2,              # |strip - closed| / |closed|; 1.2e-2 (nu = 2, H = 40)
    "pair_closed_form": 1e-15, # reported closed form vs recomputed from b; 1.4e-16
    "pair_full": 3e-4,         # |<P,P>_full - closed| / |closed|; 1.5e-4 (H = 20)
    "eval_eta": 5e-5,          # transformation-law residual, relative; 2.7e-5,
                               # truncation-dominated (k = 5.5, N = 7, H = 60)
    "eval_induced": 1e-14,     # same residual for induced rho; 3.8e-15
    "eval_st": 1e-14,          # same for the st_generated rebuild; 3.8e-15
    "criteria_median": 2e-13,  # gamma and beta medians vs scipy, relative; 1.4e-13
    "criteria_margin": 1e-12,  # criterion margins, abs / max(1, |ref|); 4.8e-13
    "region_c_radius": 1e-13,  # find_radius vs closed-form midpoint, absolute; 6.7e-14
    "region_c_mass": 1e-12,    # quadrature mass margin vs incomplete beta; 7.9e-13
}

_PMI = "pmi"
_GAMMA_INF = "gammainf"


@dataclass
class Job:
    index: int
    kind: str
    params: dict
    argv: Optional[list] = None
    coset_key: Optional[tuple] = None   # (group, stabiliser, height)
    prep_key: Optional[tuple] = None    # (group, k, multiplier family, rho)


@dataclass
class Outcome:
    code: int
    artifact: bytes
    stderr: str = ""
    ctx: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generation

def _fmt(x: float) -> str:
    return repr(float(x))


def stratified_heights(rng, lo: float, hi: float, n: int) -> list:
    """n heights in [lo, hi], one in each of n equal strata of height^2
    (i.e. of coset count), each within 5% of the range from its stratum's
    centre.  Strata are taken in pairs with opposite offsets, so for even n
    the sum of height^2 is n (lo^2 + hi^2) / 2 whatever the seed."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            jitter = float(rng.uniform(-0.05, 0.05))
        x = (i + 0.5) / n + (jitter if i % 2 == 0 else -jitter)
        out.append(round(math.sqrt(lo * lo + x * (hi * hi - lo * lo)), 2))
    return out


def _with_heights(rng, specs, lo: float, hi: float) -> list:
    """Give each job spec a height: jobs of the same kind and level share
    one stratified set, dealt out in a seeded order."""
    groups: dict = {}
    for spec in specs:
        groups.setdefault((spec[0], spec[1]["level"]), []).append(spec[1])
    for members in groups.values():
        heights = stratified_heights(rng, lo, hi, len(members))
        for p, i in zip(members, rng.permutation(len(members))):
            p["height"] = heights[i]
    return specs


def _group_args(level: int) -> list:
    if level == 1:
        return ["--group", "sl2z"]
    return ["--group", "gamma0", "--level", str(level)]


def _group_name(level: int) -> str:
    return "sl2z" if level == 1 else f"gamma0({level})"


def _cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


def _gen_cusp_fourier(rng, cycles):
    specs = []
    for cycle in range(cycles):
        for k in (12, 16, 20):
            for level in (1, 2, 3, 5):
                for _ in range(4):
                    specs.append(("fourier", {"level": level, "k": float(k),
                                              "nu": int(rng.integers(0, 2))}))
        for _ in range(2):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.2))
            specs.append(("eval_classical", {"level": (1, 2, 3, 5)[cycle % 4],
                                             "k": float(rng.choice((12, 16, 20))),
                                             "nu": int(rng.integers(0, 2)),
                                             "tau": (round(tau.real, 6), round(tau.imag, 6))}))
            specs.append(("fourier_sigma_s", {"level": 1, "k": float(rng.choice((12, 16, 20))),
                                              "nu": int(rng.integers(0, 2))}))
    out = []
    for kind, p in _with_heights(rng, specs, 150.0, 300.0):
        argv = None
        common = [*_group_args(p["level"]), "--k", _fmt(p["k"]), "--seed", "classical",
                  "--nu", str(p["nu"]), "--height", _fmt(p["height"])]
        if kind == "fourier":
            argv = ["fourier", *common, "--n0", "0", "--n1", "2", "--y0", "0.5",
                    "--nx-fourier", "64"]
        elif kind == "eval_classical":
            argv = ["eval", *common, f"--tau={_fmt(p['tau'][0])},{_fmt(p['tau'][1])}"]
        group = _group_name(p["level"])
        out.append(Job(0, kind, p, argv, (group, _GAMMA_INF, p["height"]),
                       (group, p["k"], "trivial_even", "trivial")))
    return out


ELLIPTIC_XI = ((0.0, 1.0), (0.0, 1.05), (0.05, 1.0))
PAIR_GRID = ["--ymin", "0.05", "--ymax", "14", "--nx", "160", "--ny", "28", "--xmax", "8"]


def _gen_elliptic_pair(rng, cycles):
    specs = []
    for _ in range(cycles):
        for kind in ("pair", "pair", "pair_full"):
            for level in (2, 3):
                xi = ELLIPTIC_XI[int(rng.integers(0, len(ELLIPTIC_XI)))]
                specs.append((kind, {"level": level, "k": 12.0, "nu": int(rng.integers(0, 3)),
                                     "xi": xi}))
    out = []
    for kind, p in _with_heights(rng, specs, 20.0, 40.0):
        argv = None
        if kind == "pair":
            xi = p["xi"]
            argv = ["pair", *_group_args(p["level"]), "--k", "12", "--seed", "elliptic",
                    "--nu", str(p["nu"]), f"--xi={_fmt(xi[0])},{_fmt(xi[1])}",
                    "--height", _fmt(p["height"]), *PAIR_GRID]
        group = _group_name(p["level"])
        out.append(Job(0, kind, p, argv, (group, _PMI, p["height"]),
                       (group, 12.0, "trivial_even", "trivial")))
    return out


def _gen_twisted_eval(rng, cycles):
    specs = []
    for _ in range(cycles):
        # Four eta jobs per cell, so the median job of the list is an eta job
        # rather than the boundary between the eta and the rho jobs.
        for level, k in zip((3, 5, 7), rng.permutation([5.5, 7.3, 9.1])):
            for _ in range(4):
                # tau = -1/N + i y and gamma = (1 0; N 1) send each other to
                # heights near 1/N, so both points are well inside H.
                y = float(rng.uniform(0.9, 1.1)) / level
                x = -1.0 / level + float(rng.uniform(-0.02, 0.02))
                specs.append(("eval_eta", {"level": level, "k": float(k),
                                           "tau": (round(x, 6), round(y, 6))}))
        for level in (3, 5, 11):
            index = {3: 4, 5: 6, 11: 12}[level]
            for kind in ("eval_induced", "eval_st"):
                # |tau| near 1, so tau and S tau = -1/tau have Im near 1
                tau = cmath.rect(float(rng.uniform(0.95, 1.05)), float(rng.uniform(1.2, 1.9)))
                specs.append((kind, {"level": level, "k": 12.0,
                                     "j": int(rng.integers(1, index + 1)),
                                     "tau": (round(tau.real, 6), round(tau.imag, 6))}))
    out = []
    for kind, p in _with_heights(rng, specs, 60.0, 120.0):
        if kind == "eval_eta":
            argv = ["eval", *_group_args(p["level"]), "--k", _fmt(p["k"]), "--family", "eta",
                    "--seed", "classical", "--nu", "0", "--height", _fmt(p["height"]),
                    f"--tau={_fmt(p['tau'][0])},{_fmt(p['tau'][1])}"]
            group = _group_name(p["level"])
            out.append(Job(0, kind, p, argv, (group, _GAMMA_INF, p["height"]),
                           (group, p["k"], "eta_power", "trivial")))
        else:
            recipe = "induced" if kind == "eval_induced" else "st_generated"
            out.append(Job(0, kind, p, None, ("sl2z", _GAMMA_INF, p["height"]),
                           ("sl2z", 12.0, "trivial_even", (recipe, _group_name(p["level"])))))
    return out


CRITERIA_LEVELS = (2, 3, 5, 7, 11)


def _half(x: float) -> float:
    return round(2.0 * x) / 2.0


def _gen_criteria_grid(rng, cycles):
    out = []
    for _ in range(cycles):
        for _ in range(2):
            ks = sorted({_half(rng.uniform(4.0, 24.0)) for _ in range(6)})
            levels = sorted(int(n) for n in rng.choice(np.arange(2, 14), size=5, replace=False))
            p = {"k_list": ks, "n_list": levels, "nu_max": 8}
            argv = ["table", "--k-list", ",".join(_fmt(k) for k in ks),
                    "--n-list", ",".join(str(n) for n in levels), "--nu-max", "8"]
            out.append(Job(0, "table", p, argv))
        for kind, count in (("classical", 5), ("elliptic", 5), ("regionA", 4), ("regionC", 4)):
            for _ in range(count):
                p = {"criterion": kind, "k": _half(rng.uniform(4.0, 24.0)),
                     "N": int(rng.choice(CRITERIA_LEVELS)), "nu": int(rng.integers(0, 7))}
                argv = ["criterion", kind, "--k", _fmt(p["k"]), "--N", str(p["N"]),
                        "--nu", str(p["nu"])]
                if kind == "classical":
                    p["M"] = int(rng.integers(1, 3))
                    p["m"] = float(rng.choice((0.25, 0.5, 1.0)))
                    argv += ["--M", str(p["M"]), "--m", _fmt(p["m"])]
                out.append(Job(0, "criterion", p, argv))
    return out


_GENERATORS = {"cusp-fourier": _gen_cusp_fourier, "elliptic-pair": _gen_elliptic_pair,
               "twisted-eval": _gen_twisted_eval, "criteria-grid": _gen_criteria_grid}


def generate(workload: str, seed: int, seconds: float) -> list:
    """The job list of one run: same (workload, seed, seconds), same jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _GENERATORS[workload](rng, _cycles(workload, seconds))
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    for i, job in enumerate(jobs):
        job.index = i
    return jobs


def repeat_shares(jobs) -> dict:
    """Share of jobs whose coset-table key, or preparation key, an earlier
    job in the list already had.  Jobs without such a key never repeat."""
    out = {}
    for attr in ("coset_key", "prep_key"):
        seen, repeats = set(), 0
        for job in jobs:
            key = getattr(job, attr)
            if key is None:
                continue
            repeats += key in seen
            seen.add(key)
        out[attr] = repeats / len(jobs) if jobs else 0.0
    return out


# ----------------------------------------------------------------- execution

def run_cli(argv) -> Outcome:
    """One command line in-process, as the installed `vvps` script runs it."""
    import vvps.cli
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            vvps.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error exits 1 with a traceback, as the script would
            traceback.print_exc(file=err)
            code = 1
    return Outcome(code, out.getvalue().encode(), err.getvalue())


def _artifact(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _run_fourier_sigma_s(p) -> Outcome:
    """Fourier coefficients at the cusp 0 (sigma = S) on SL2(Z); the command
    line only extracts at infinity."""
    import vvps
    group = vvps.GroupSpec.sl2z()
    ms = vvps.MultiplierSystem("trivial_even", p["k"])
    rep = vvps.trivial_rep(1, group)
    split = vvps.spectral_split(rep, ms, 1)
    handle = vvps.build_series(vvps.ClassicalSeed(p["nu"], 1, split, 1),
                               vvps.GroupSpec.gamma_infinity(1), group, rep, ms, p["k"], p["height"])
    table = vvps.fourier_coefficients(handle, split, 1, [0, 1, 2], 0.5, 64,
                                      sigma=vvps.S, ms=ms, k=p["k"])
    return Outcome(0, _artifact(table.to_json()), ctx={"handle": handle, "split": split})


def _run_pair_full(p) -> Outcome:
    import vvps
    group = vvps.GroupSpec.gamma0(p["level"])
    ms = vvps.MultiplierSystem("trivial_even", 12.0)
    seed = vvps.EllipticSeed(p["nu"], complex(*p["xi"]), np.array([1.0 + 0j]), 12.0)
    handle = vvps.build_series(seed, vvps.GroupSpec.plus_minus_identity(), group,
                               vvps.trivial_rep(1, group), ms, 12.0, p["height"])
    value = vvps.petersson_pair_full(handle, handle, group, 12.0)
    return Outcome(0, _artifact({"pairing": [value.real, value.imag]}), ctx={"handle": handle})


def _run_twisted_library(p, recipe: str) -> Outcome:
    """Single-point evaluation with rho induced from Gamma0(N), either as
    the induced recipe or rebuilt as st_generated from rho(S) and rho(T).
    (The command line cannot take the rho that `vvps induce` writes; see
    NOTES.md.)"""
    import vvps
    group = vvps.GroupSpec.gamma0(p["level"])
    rho = vvps.induce(vvps.trivial_rep(1, group), vvps.right_coset_reps(group))
    if recipe == "st_generated":
        rho = vvps.st_rep(vvps.evaluate_rho(rho, vvps.S), vvps.evaluate_rho(rho, vvps.T))
    ms = vvps.MultiplierSystem("trivial_even", 12.0)
    split = vvps.spectral_split(rho, ms, 1)
    seed = vvps.ClassicalSeed(0, p["j"], split, 1)
    handle = vvps.build_series(seed, vvps.GroupSpec.gamma_infinity(1), vvps.GroupSpec.sl2z(),
                               rho, ms, 12.0, p["height"])
    value, tail = handle.evaluate(complex(*p["tau"]))
    return Outcome(0, _artifact({"value": [[z.real, z.imag] for z in value], "tail": tail}),
                   ctx={"handle": handle})


def execute(job: Job) -> Outcome:
    if job.argv is not None:
        return run_cli(job.argv)
    if job.kind == "fourier_sigma_s":
        return _run_fourier_sigma_s(job.params)
    if job.kind == "pair_full":
        return _run_pair_full(job.params)
    if job.kind == "eval_induced":
        return _run_twisted_library(job.params, "induced")
    if job.kind == "eval_st":
        return _run_twisted_library(job.params, "st_generated")
    raise ValueError(f"unknown job kind {job.kind!r}")


# -------------------------------------------------------------------- checks

# Kinds whose check needs the job's live series handle; they are checked
# right after the job, outside its timed span, and the handle is dropped.
# The rest are checked after the timed loop, when scipy may be imported.
CHECK_NOW = ("fourier_sigma_s", "pair_full", "eval_eta", "eval_induced", "eval_st")


@dataclass
class Check:
    ok: bool
    errors: dict            # check name -> measured error
    cause: str = ""


def _within(errors: dict) -> Check:
    bad = [f"{name} error {err:.3e} > tol {TOL[name]:.0e}"
           for name, err in errors.items() if not err <= TOL[name]]
    return Check(not bad, errors, "; ".join(bad))


@functools.lru_cache(maxsize=None)
def _pk(m: int, freqs: tuple, k: float, level: int) -> np.ndarray:
    """Petersson-Kloosterman coefficients, cached per configuration (read only)."""
    return oracles.petersson_kloosterman(m, freqs, k, level)


def _coeffs(table_json: dict) -> np.ndarray:
    return np.array([complex(*row["value"]) for row in sorted(table_json["b"], key=lambda r: r["n"])])


def _check_fourier(job, out) -> Check:
    p = job.params
    got = _coeffs(json.loads(out.artifact))
    ref = _pk(p["nu"] + 1, (1, 2, 3), p["k"], p["level"])
    return _within({"fourier": float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))})


def _check_eval_classical(job, out) -> Check:
    """F(tau) against the Fourier sum of the Petersson-Kloosterman
    coefficients, relative to the sum of its terms' moduli: near a zero of
    F the terms cancel, and |F(tau)| alone would turn rounding into a large
    relative error."""
    p = job.params
    value = complex(*json.loads(out.artifact)["value"][0])
    freqs = tuple(range(1, 17))
    coeffs = _pk(p["nu"] + 1, freqs, p["k"], p["level"])
    tau = complex(*p["tau"])
    ref = oracles.fourier_sum(coeffs, freqs, tau)
    scale = oracles.fourier_sum(np.abs(coeffs), freqs, complex(0.0, tau.imag)).real
    return _within({"eval_classical": abs(value - ref) / scale})


def _check_fourier_sigma_s(job, out) -> Check:
    import vvps
    got = _coeffs(json.loads(out.artifact))
    ident = vvps.fourier_coefficients(out.ctx["handle"], out.ctx["split"], 1, [0, 1, 2], 0.5, 64)
    ref = ident.b[0]
    return _within({"fourier_sigma_s": float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))})


def _check_pair(job, out) -> Check:
    p = job.params
    art = json.loads(out.artifact)
    b, closed, strip = (complex(*art[key]) for key in ("coefficient", "closed_form", "strip"))
    recomputed = oracles.elliptic_pairing(b, 12.0, p["nu"], complex(*p["xi"]))
    rel = abs(strip - closed) / abs(closed)
    check = _within({"pair_closed_form": abs(closed - recomputed) / abs(recomputed), "pair": rel})
    if check.ok and not math.isclose(art["rel_err"], rel, rel_tol=1e-12):
        return Check(False, check.errors, f"reported rel_err {art['rel_err']!r} != {rel!r}")
    return check


def _check_pair_full(job, out) -> Check:
    import vvps
    p = job.params
    xi = complex(*p["xi"])
    value = complex(*json.loads(out.artifact)["pairing"])
    b = vvps.elliptic_expansion_coeffs(out.ctx["handle"], xi, 12.0, [p["nu"]], 0.4, nt=128)[p["nu"]]
    closed = oracles.elliptic_pairing(b, 12.0, p["nu"], xi)
    return _within({"pair_full": abs(value - closed) / abs(closed)})


def _transformation_residual(handle, gamma, tau: complex, value=None) -> float:
    """|| v(g)^-1 rho(g)^-1 j(g, tau)^-k F(g tau) - F(tau) || / ||F(tau)||."""
    import vvps
    a, b, c, d = gamma.entries()
    moved = (a * tau + b) / (c * tau + d)
    if value is None:
        value = handle.evaluate(tau)[0]
    image = handle.evaluate(moved)[0]
    factor = (vvps.evaluate_v(handle.ms, gamma).conjugate()
              * oracles.principal_power(c * tau + d, -handle.k))
    acted = factor * (vvps.evaluate_rho(handle.rep, gamma).conj().T @ image)
    return float(np.linalg.norm(acted - value) / np.linalg.norm(value))


def _check_eval_eta(job, out) -> Check:
    """Rebuilds the series through the library; its value at tau must be
    bit-identical to the command line's, then checks the transformation
    law under (1 0; N 1), which is outside Gamma_infinity."""
    import vvps
    p = job.params
    group = vvps.GroupSpec.gamma0(p["level"])
    ms = vvps.MultiplierSystem("eta_power", p["k"])
    rep = vvps.trivial_rep(1, group)
    split = vvps.spectral_split(rep, ms, 1)
    handle = vvps.build_series(vvps.ClassicalSeed(0, 1, split, 1), vvps.GroupSpec.gamma_infinity(1),
                               group, rep, ms, p["k"], p["height"])
    tau = complex(*p["tau"])
    value = handle.evaluate(tau)[0]
    reported = np.array([complex(*z) for z in json.loads(out.artifact)["value"]])
    if not np.array_equal(reported, value):
        return Check(False, {}, "command-line value differs from the library value "
                                "for the identical configuration")
    gamma = vvps.IntMatrix2(1, 0, p["level"], 1)
    return _within({"eval_eta": _transformation_residual(handle, gamma, tau, value)})


def _check_eval_rho(job, out) -> Check:
    import vvps
    tau = complex(*job.params["tau"])
    res = _transformation_residual(out.ctx["handle"], vvps.S, tau)
    return _within({job.kind: res})


def _rel(got, ref) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def _relative(got, ref) -> float:
    return abs(got - ref) / abs(ref)


def _check_table(job, out) -> Check:
    lines = out.artifact.decode().strip().splitlines()
    p = job.params
    expected_rows = len(p["k_list"]) * len(p["n_list"]) * (p["nu_max"] + 1)
    if len(lines) != expected_rows + 1:
        return Check(False, {}, f"table has {len(lines) - 1} rows, expected {expected_rows}")
    worst = 0.0
    for line in lines[1:]:
        k, n, nu, margin, ell, sharp = line.split(",")
        k, n, nu = float(k), int(n), int(nu)
        ref = oracles.classical_margins(k, 1, n, nu, 1.0)
        worst = max(worst, _rel(float(margin), ref["margin"]),
                    _rel(float(sharp), ref["sharp_margin"]),
                    _rel(float(ell), oracles.elliptic_margin(k, n, nu)))
    return _within({"criteria_margin": worst})


def _region_a_m_j(k: float) -> float:
    if k % 2 == 0:
        return 1.0
    kappa = (k / 12.0) % 1.0
    return kappa if kappa > 1e-12 else 1.0


def _check_criterion(job, out) -> Check:
    p = job.params
    rep = json.loads(out.artifact)
    k, N, nu = p["k"], p["N"], p["nu"]
    det = rep.get("details", {})
    errs = {}
    if p["criterion"] == "classical":
        ref = oracles.classical_margins(k, p["M"], N, nu, p["m"])
        errs["criteria_margin"] = max(_rel(rep["margin"], ref["margin"]),
                                      _rel(det["sharp_margin"], ref["sharp_margin"]))
        errs["criteria_median"] = _relative(det["gamma_median"], oracles.gamma_median(k / 2.0 - 1.0))
    elif p["criterion"] == "elliptic":
        errs["criteria_margin"] = _rel(rep["margin"], oracles.elliptic_margin(k, N, nu))
        errs["criteria_median"] = _relative(det["beta_median"],
                                            oracles.beta_median(nu / 2.0 + 1.0, k / 2.0 - 1.0))
    elif p["criterion"] == "regionA":
        m_j = _region_a_m_j(k)
        if abs(rep["inputs"]["m_j"] - m_j) > 1e-12:
            return Check(False, {}, f"regionA used m_j={rep['inputs']['m_j']!r}, expected {m_j!r}")
        errs["criteria_margin"] = _rel(rep["margin"], oracles.region_a_margin(k, 1, N, nu, m_j))
        errs["criteria_median"] = _relative(det["gamma_median"], oracles.gamma_median(k / 2.0 - 1.0))
    else:
        r_ref = oracles.region_c_radius(k, nu, N)
        r = rep["inputs"]["r"]
        if (r is None) != (r_ref is None):
            return Check(False, {}, f"find_radius gave {r!r}, closed form gives {r_ref!r}")
        if r is None:
            errs["criteria_margin"] = _rel(rep["margin"], oracles.elliptic_margin(k, N, nu))
        else:
            errs["region_c_radius"] = abs(r - r_ref)
            errs["region_c_mass"] = abs(det["mass_margin"] - oracles.region_c_mass_margin(k, nu, r))
    return _within(errs)


_CHECKS = {
    "fourier": _check_fourier,
    "eval_classical": _check_eval_classical,
    "fourier_sigma_s": _check_fourier_sigma_s,
    "pair": _check_pair,
    "pair_full": _check_pair_full,
    "eval_eta": _check_eval_eta,
    "eval_induced": _check_eval_rho,
    "eval_st": _check_eval_rho,
    "table": _check_table,
    "criterion": _check_criterion,
}


def check(job: Job, out: Outcome) -> Check:
    """Exit status first, then the job's oracle."""
    if out.code != 0:
        last = out.stderr.strip().splitlines()[-1:] or [""]
        return Check(False, {}, f"exit {out.code}: {last[0][:200]}")
    try:
        return _CHECKS[job.kind](job, out)
    except Exception as exc:  # a malformed artifact fails the job, never the run
        return Check(False, {}, f"check raised {type(exc).__name__}: {exc}")
