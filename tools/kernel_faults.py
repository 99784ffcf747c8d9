"""Time, page faults and peak memory of a warm SeriesHandle.evaluate_many.

Two kernel shapes, each on 1 worker and on thread_cap() workers:

- cusp-fourier: SL2(Z), GammaInfinity(1), H = 300, the 64-point line
  Im tau = 0.5 of a Fourier extraction;
- elliptic: Gamma0(2), <-I>, H = 40, the 456 points of
  petersson_pair_full on Gamma0(2) against 1,567 cosets (elliptic seed at
  xi = i, nu = 1): with Gamma0(3)'s 608 points against 1,205, the largest
  kernel calls of the elliptic-pair workload.

Each configuration runs in a fresh interpreter, which restricts its own CPU
affinity to the worker count, builds and prepares the handle, calls
evaluate_many once to warm up and once measured.  Both shapes take
several blocks, so both calls run on the process's kernel pool: the
first starts its threads and maps each one's workspace, and the measured
call reuses them, so its minor faults count what the kernel itself
allocates (a handful of pages; a workspace per call read 776-1,538 on the
elliptic shape).  Printed per line: wall, user and system seconds and
minor page faults of the measured call, its wall nanoseconds per (point,
coset) term, the kernel's unit, and the growth of ru_maxrss from before
the first call to after the second, which holds the kept workspaces.

    PYTHONPATH=src python3 tools/kernel_faults.py
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from vvps.analysis import _pair_full_nodes
from vvps.modgroup import GroupSpec
from vvps.multiplier import MultiplierSystem
from vvps.rep import spectral_split, trivial_rep
from vvps.seeds import ClassicalSeed, EllipticSeed
from vvps.series import SeriesHandle, thread_cap

SHAPES = ("cusp-fourier", "elliptic")


def _handle_and_points(shape: str):
    ms = MultiplierSystem("trivial_even", 12.0)
    if shape == "cusp-fourier":
        gamma = GroupSpec.sl2z()
        rep = trivial_rep(1, gamma)
        seed = ClassicalSeed(0, 1, spectral_split(rep, ms, 1), 1)
        h = SeriesHandle(seed, rep, ms, gamma, 300.0)
        return h, np.arange(64) / 64 + 0.5j
    gamma = GroupSpec.gamma0(2)
    seed = EllipticSeed(1, 1j, np.array([1.0 + 0j]), 12.0)
    h = SeriesHandle(seed, trivial_rep(1, gamma), ms, gamma, 40.0)
    return h, _pair_full_nodes(gamma, 12.0)[0]


def measure(shape: str, workers: int) -> dict:
    """One configuration, in this process."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workers])
    h, taus = _handle_and_points(shape)
    h._prepared()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    h.evaluate_many(taus)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    h.evaluate_many(taus)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"shape": shape, "workers": thread_cap(), "points": len(taus),
            "cosets": len(h.cosets), "wall_s": wall,
            "ns_per_term": wall * 1e9 / (len(taus) * len(h.cosets)),
            "user_s": r1.ru_utime - r0.ru_utime, "sys_s": r1.ru_stime - r0.ru_stime,
            "minflt": r1.ru_minflt - r0.ru_minflt,
            "maxrss_growth_mb": (r1.ru_maxrss - rss0) / 1024.0}


def main() -> None:
    if len(sys.argv) == 3:  # one configuration, run by the loop below
        print(json.dumps(measure(sys.argv[1], int(sys.argv[2]))))
        return
    cap = len(os.sched_getaffinity(0))
    print(f"{'shape':<13}{'workers':>8}{'points':>8}{'cosets':>8}{'wall_s':>9}"
          f"{'user_s':>9}{'sys_s':>8}{'minflt':>9}{'ns/term':>9}{'maxrss+MB':>11}")
    for shape in SHAPES:
        for workers in sorted({1, cap}):
            proc = subprocess.run([sys.executable, __file__, shape, str(workers)],
                                  capture_output=True, text=True, check=True)
            r = json.loads(proc.stdout)
            print(f"{r['shape']:<13}{r['workers']:>8}{r['points']:>8}{r['cosets']:>8}"
                  f"{r['wall_s']:>9.3f}{r['user_s']:>9.3f}{r['sys_s']:>8.3f}"
                  f"{r['minflt']:>9}{r['ns_per_term']:>9.1f}{r['maxrss_growth_mb']:>11.1f}")


if __name__ == "__main__":
    main()
