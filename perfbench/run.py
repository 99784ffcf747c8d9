"""Benchmark of the vvps pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `--workload all`, each in turn) from the root of a
checkout.  Each workload runs in its own fresh interpreter (worker.py),
importing `vvps` from `src/` of the checkout with VVPS_THREADS removed from
the environment, so the program's default thread count applies.  There is
no build step: the package is pure Python.

--trace 0 prints the end-to-end metrics: wall_ref, wall_s, job_p50_s,
setup_s and peak_rss_mb, plus job_p90_s where a run has at least 100 jobs,
and fail_frac; the JSON result carries wall_ref, setup_s and peak_rss_mb.
wall_ref is wall_s over the mean time of a fixed reference computation
timed between the jobs, so the speed the shared host gives the run cancels
out of it.
--trace 1 runs the same job list untraced and then traced, and prints the
per-layer metrics of the traced run with trace.overhead_frac.
The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Without `src/vvps` the
benchmark exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10        # fresh interpreters timed for setup_s, besides the worker's own;
                         # half before the workload and half after, so that one slow
                         # stretch of a shared machine moves fewer of them
RUN_BUDGET_S = 170.0     # everything one invocation starts must end within this
DEADLINE_S = 100.0       # jobs not started this long after the loop began count as failed

# What the traced run should confirm for each workload (NOTES.md has the
# reasoning); each line is reported as measured, holding or not.
PREDICTED = {
    "cusp-fourier": "enumeration 30-50% of job time, kernel the rest, preparation ~0",
    "elliptic-pair": "kernel > 90% of job time",
    "twisted-eval": "preparation ~95% of job time",
    "criteria-grid": "nonvanish does the work; cli overhead visible",
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("VVPS_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _worker_args(workload, seed, seconds, trace, deadline):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--deadline", str(deadline)]


def _report_checks(res: dict) -> None:
    for name, err in sorted(res["max_errors"].items()):
        print(f"  check {name:18s} max error {err:.3e}  (tol {res['tolerances'][name]:.0e})")
    for kind, det in sorted(res["determinism"].items()):
        print(f"  rerun {kind:18s} job {det['job']}: "
              f"{'byte-identical' if det['identical'] else 'DIFFERS'}")
    for f in res["failures"]:
        print(f"  FAILED job {f['job']} ({f['kind']}): {f['cause']}")


def run_untraced(workload: str, seed: int, seconds: float) -> tuple:
    def probes(n):
        return [_python(["--probe"], 30)["setup_s"] for _ in range(n)]

    setups = probes(SETUP_PROBES // 2)
    res = _python(_worker_args(workload, seed, seconds, 0, DEADLINE_S), RUN_BUDGET_S - 40)
    setups += [res["setup_s"]] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    lat = res["latencies"]
    n = len(lat)
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(res["kinds"].items()))
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}: {res['attempted']} jobs ({kinds}); "
          f"closed loop, 1 client, {res['env']['vvps_threads']} vvps thread(s)")
    print(f"  repeat shares: coset-table key {res['repeat_shares']['coset_key']:.3f}, "
          f"preparation key {res['repeat_shares']['prep_key']:.3f}")
    # The JSON carries the metrics that every workload has and whose
    # 10-seed spread stays inside its bound on the reference machine; raw
    # wall time, the latency percentiles and fail_frac are printed with
    # them (NOTES.md).
    metrics = {
        "wall_ref": (res["wall_ref"], "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = dict(metrics)
    lines["wall_s"] = (res["wall_s"], "s")
    lines["job_p50_s"] = (statistics.median(lat) if lat else 0.0, "s")
    notes = {"wall_ref": f"wall_s / {res['ref_s']:.6f} s, the reference computation's mean "
                         f"over {res['refs']} timings",
             "job_p50_s": f"n={n}", "setup_s": f"median of {len(setups)} fresh interpreters"}
    if n >= 100:
        lines["job_p90_s"] = (percentile(lat, 90), "s")
        notes["job_p90_s"] = f"n={n}"
    lines["fail_frac"] = (res["failed"] / res["attempted"], "ratio")
    notes["fail_frac"] = f"{res['failed']}/{res['attempted']}"
    by_kind = {}
    for kind, t in zip(res["job_kinds"], lat):
        by_kind.setdefault(kind, []).append(t)
    print("  median job latency by kind: " + ", ".join(
        f"{kind} {statistics.median(ts):.4f} s (n={len(ts)})" for kind, ts in sorted(by_kind.items())))
    for name in ("wall_ref", "wall_s", "job_p50_s", "job_p90_s", "setup_s", "peak_rss_mb", "fail_frac"):
        if name in lines:
            value, unit = lines[name]
            print(f"  {name:12s} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    _report_checks(res)
    print("  env " + json.dumps(res["env"], sort_keys=True))
    return metrics, res


def _isolation_lines(workload: str, layers: dict, jobs: int) -> list:
    share = {k[len("share."):]: v[0] for k, v in layers.items() if k.startswith("share.")}
    cosets = layers["modgroup.enumerate_cosets.cosets"][0]
    v_calls = layers["multiplier.evaluate_v.calls"][0]
    rho_calls = layers["rep.evaluate_rho.calls"][0]
    prep = share["preparation"]
    kernel = share["kernel"]
    nonvanish_s = sum(layers[f"nonvanish.{f}.busy_s"][0]
                      for f in ("classical_criterion", "elliptic_criterion", "find_radius",
                                "region_test_c"))
    out = [f"predicted: {PREDICTED[workload]}",
           f"measured: enumeration {share['modgroup']:.3f}, preparation {prep:.3f}, "
           f"kernel {kernel:.3f}, analysis {share['analysis']:.3f}, "
           f"nonvanish {share['nonvanish']:.3f}, cli {share['cli']:.3f}, other {share['other']:.3f}",
           f"evaluate_v calls {v_calls}, evaluate_rho calls {rho_calls}, cosets {cosets} "
           f"over {jobs} jobs",
           f"nonvanish busy {nonvanish_s:.4f} s"]
    if workload in ("cusp-fourier", "elliptic-pair"):
        ok = v_calls + rho_calls < 0.01 * max(cosets, 1)
        out.append(f"preparation calls {'do not scale' if ok else 'SCALE'} with cosets")
    elif workload == "twisted-eval":
        out.append(f"preparation is {'most' if prep > 0.5 else 'NOT most'} of job time")
    if workload == "elliptic-pair":
        out.append(f"kernel is {'most' if kernel > 0.5 else 'NOT most'} of job time")
    if workload != "criteria-grid":
        out.append(f"nonvanish time {'absent' if nonvanish_s == 0 else 'PRESENT'}")
    return out


def run_traced(workload: str, seed: int, seconds: float) -> tuple:
    deadline = DEADLINE_S / 2   # two runs of the same job list share the budget
    base = _python(_worker_args(workload, seed, seconds, 0, deadline), RUN_BUDGET_S / 2)
    res = _python(_worker_args(workload, seed, seconds, 1, deadline), RUN_BUDGET_S / 2)
    layers = {k: tuple(v) for k, v in res["layers"].items()}
    layers["trace.overhead_frac"] = (res["wall_ref"] / base["wall_ref"] - 1.0, "ratio")
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}: traced {res['attempted']} jobs, "
          f"{res['spans']} spans; untraced wall {base['wall_s']:.4f} s, traced {res['wall_s']:.4f} s")
    for name, (value, unit) in layers.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for line in _isolation_lines(workload, layers, res["attempted"]):
        print(f"  isolation: {line}")
    _report_checks(res)
    failed = max(base["failed"], res["failed"])
    return layers, {"attempted": res["attempted"], "failed": failed}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, res = run_traced(workload, seed, seconds)
    else:
        metrics, res = run_untraced(workload, seed, seconds)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the vvps pipeline.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vvps" / "__init__.py").is_file():
        sys.stderr.write(f"no vvps package under {ROOT / 'src'}: run from a full checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
