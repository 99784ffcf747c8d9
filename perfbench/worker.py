"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --probe
        prints the seconds from this interpreter's first statement until
        `vvps` and `vvps.cli` are imported.
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        runs W's job list as a closed loop with one client and prints one
        JSON object with the raw measurements as its last line.

The `vvps` package must come from `src/` of the checkout this file sits in.
"""

import time

_T0 = time.perf_counter()
import vvps  # noqa: E402
import vvps.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VVPS_THREADS")

REF_EVERY_S = 0.25      # the reference computation is timed at least this often in the loop
_REF_Z = np.exp(1j * np.linspace(0.0, 3.0, 1 << 14))


def reference_s() -> float:
    """Seconds that one fixed computation takes right now: complex numpy
    arithmetic like the series kernel, then a pure-Python integer loop like
    coset enumeration.  It never calls vvps, so its time follows only the
    speed the shared host gives this process at the moment."""
    t = time.perf_counter()
    for _ in range(24):
        np.sum(np.exp(2j * math.pi * _REF_Z * (0.3 + 0.7j)) * _REF_Z)
    acc = 0
    for c in range(1, 400):
        for d in range(1, 160):
            if math.gcd(c, d) == 1:
                acc += c * d % 7
    return time.perf_counter() - t


def environment(threads: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "vvps_threads": threads,
            "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool, deadline_s: float) -> dict:
    jobs = workloads.generate(workload, seed, seconds)
    threads = vvps.analysis.thread_cap()
    rec = None
    if trace:
        rec = tracing.Recorder()
        tracing.install(rec)

    latencies, timed_kinds, outcomes, checks = [], [], {}, {}
    # The reference computation is timed before the first job, after the
    # last, and between jobs at least every REF_EVERY_S, outside the jobs'
    # timed spans.
    refs = [reference_s()]
    last_ref = loop_start = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - loop_start > deadline_s:
            checks[job.index] = workloads.Check(False, {}, "not started: run deadline passed")
            continue
        if rec is not None:
            rec.current_job = job.index
            rec.active = True
            root = rec.open("job")
        t = time.perf_counter()
        out = workloads.execute(job)
        latencies.append(time.perf_counter() - t)
        timed_kinds.append(job.kind)
        if rec is not None:
            rec.close(root)
            rec.active = False
        if job.kind in workloads.CHECK_NOW:
            checks[job.index] = workloads.check(job, out)
            out.ctx = {}
        outcomes[job.index] = out
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
    refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for job in jobs:
        if job.index not in checks:
            checks[job.index] = workloads.check(job, outcomes[job.index])

    # Identical configurations must give byte-identical artifacts: run the
    # fastest job of each kind again and compare.
    determinism = {}
    done = [j for j in jobs if j.index in outcomes]
    fastest = {}
    lat_of = dict(zip([j.index for j in done], latencies))
    for job in done:
        if job.kind not in fastest or lat_of[job.index] < lat_of[fastest[job.kind].index]:
            fastest[job.kind] = job
    for kind, job in sorted(fastest.items()):
        again = workloads.execute(job)
        same = again.artifact == outcomes[job.index].artifact and again.code == outcomes[job.index].code
        determinism[kind] = {"job": job.index, "identical": same}
        if not same and checks[job.index].ok:
            checks[job.index] = workloads.Check(False, checks[job.index].errors,
                                                "artifact differs on an identical rerun")

    kinds = {}
    worst = {}
    for job in jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
        for name, err in checks[job.index].errors.items():
            worst[name] = max(worst.get(name, 0.0), err)
    failures = [{"job": job.index, "kind": job.kind, "argv": job.argv, "params": job.params,
                 "cause": checks[job.index].cause}
                for job in jobs if not checks[job.index].ok]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_s": SETUP_S, "wall_s": sum(latencies),
              "wall_ref": sum(latencies) / (sum(refs) / len(refs)),
              "ref_s": sum(refs) / len(refs), "refs": len(refs),
              "latencies": latencies, "job_kinds": timed_kinds,
              "peak_rss_mb": peak_rss_mb, "attempted": len(jobs), "failed": len(failures),
              "failures": failures, "kinds": kinds, "max_errors": worst,
              "tolerances": {name: workloads.TOL[name] for name in worst},
              "determinism": determinism, "repeat_shares": workloads.repeat_shares(jobs),
              "env": environment(threads)}
    if rec is not None:
        result["layers"] = {name: list(v) for name, v in tracing.layer_metrics(rec, threads).items()}
        result["spans"] = len(rec)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        rec.dump(out_dir / f"spans-{workload}.npz")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=100.0,
                    help="jobs not started within this many seconds count as failed")
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(vvps.__file__).resolve().parents:
        sys.stderr.write(f"vvps was imported from {vvps.__file__}, not from {src}\n")
        return 2
    if args.probe:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
