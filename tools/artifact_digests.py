"""MD5 digests of the artifacts of a fixed list of CLI jobs.

Each job runs in-process through `vvps.cli.main`; the script prints one
`md5  label` line per job, and exits 1, naming the job on stderr, if a job
exits nonzero or writes a JSON artifact that is not strict JSON (NaN or
Infinity; the CSV of `table` and `fourier --format csv` is exempt).  It then
runs a usage error and a help text (GUARDS), whose output it discards,
and the list once more in reverse order in the same process.  It exits 1,
naming the culprit on stderr, if a guard exits with the wrong code or an
artifact's bytes differ from the first pass: a job must not change the
artifact of a later one through state the process keeps (the cached
parser and medians).  A level table lives on its rho, and each job reads
its rep file afresh, so no rho and no table outlives its job; the reverse
pass still guards every state kept across jobs.  The five rep files the
list reads (the representations induced from the trivial representations
of Gamma0(5) and Gamma0(13) and from the Legendre character mod 5,
written by `vvps induce`, that character itself and a non-congruence
permutation representation) are written to a temporary directory, and no
label names a path, so the output of two checkouts compares with one diff:

    PYTHONPATH=src python3 tools/artifact_digests.py > new.txt
    PYTHONPATH=../other/src python3 tools/artifact_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import vvps.cli
import vvps.rep

SERIES = ["--group", "gamma0", "--level", "2", "--k", "12"]

# (label, argv); {induced}, {induced13}, {induced_legendre}, {dirichlet} and
# {noncongruence} name the rep files
JOBS = [
    ("eval classical", ["eval", "--group", "gamma0", "--level", "5", "--k", "12",
                        "--tau", "0.3,1.1", "--height", "60"]),
    ("eval eta", ["eval", "--group", "gamma0", "--level", "3", "--family", "eta",
                  "--k", "6", "--tau=-0.2,0.9", "--height", "60"]),
    ("eval eta order 240", ["eval", "--group", "gamma0", "--level", "3", "--family", "eta",
                            "--k", "2.05", "--tau", "0.3,1.1", "--height", "30"]),
    ("eval elliptic", ["eval", *SERIES, "--seed", "elliptic", "--nu", "1",
                       "--xi=-0.5,1", "--tau", "0.25,1.3", "--height", "40"]),
    ("eval induced rep file", ["eval", "--rep", "{induced}", "--j", "2",
                               "--tau", "0.3,1.1", "--height", "40"]),
    ("eval induced Gamma0(13) rep file", ["eval", "--rep", "{induced13}", "--j", "2",
                                          "--tau", "0.3,1.1", "--height", "40"]),
    # the images of S and T have entries -1, so rho keeps the complex level
    # table; its entries 0 and +-1 multiply exactly
    ("eval induced Legendre mod 5 rep file", ["eval", "--rep", "{induced_legendre}", "--j", "2",
                                              "--tau", "0.3,1.1", "--height", "40"]),
    ("eval non-congruence rep file", ["eval", "--rep", "{noncongruence}", "--j", "2",
                                      "--tau", "0.3,1.1", "--height", "40"]),
    ("eval dirichlet rep file", ["eval", "--group", "gamma0", "--level", "5",
                                 "--rep", "{dirichlet}", "--tau", "0.1,0.8",
                                 "--height", "60"]),
    ("eval elliptic dirichlet rep file", ["eval", "--group", "gamma0", "--level", "5",
                                          "--rep", "{dirichlet}", "--seed", "elliptic",
                                          "--nu", "1", "--tau", "0.1,0.8",
                                          "--height", "30"]),
    ("eval tied exponents", ["eval", "--rep", "trivial", "--p", "3", "--j", "3",
                             "--tau", "0.3,1.1", "--height", "20"]),
    ("fourier json", ["fourier", *SERIES, "--height", "150", "--n1", "3"]),
    ("fourier csv", ["fourier", *SERIES, "--height", "150", "--n1", "3",
                     "--format", "csv"]),
    ("fourier eta fractional weight", ["fourier", "--group", "gamma0", "--level", "3",
                                       "--family", "eta", "--k", "7.3",
                                       "--height", "60", "--n1", "2"]),
    ("pair classical", ["pair", *SERIES, "--height", "40", "--ymax", "8",
                        "--nx", "24", "--ny", "20"]),
    ("pair classical closed form at Gamma(171)", ["pair", "--group", "gamma0", "--level", "2",
                                                  "--k", "172", "--height", "20", "--ymax", "8",
                                                  "--nx", "24", "--ny", "20"]),
    ("pair classical closed form past Gamma(171)", ["pair", "--group", "gamma0", "--level", "2",
                                                    "--k", "180", "--height", "20", "--ymax", "8",
                                                    "--nx", "24", "--ny", "20"]),
    ("pair elliptic", ["pair", *SERIES, "--seed", "elliptic", "--nu", "1",
                       "--height", "20", "--ymax", "14", "--nx", "64", "--ny", "16"]),
    ("pair elliptic off i", ["pair", "--group", "gamma0", "--level", "3", "--seed",
                             "elliptic", "--nu", "0", "--xi", "0.5,0.866",
                             "--height", "20", "--nx", "32", "--ny", "16"]),
    ("criterion classical", ["criterion", "classical", "--k", "12", "--N", "5",
                             "--nu", "2", "--M", "2", "--m", "0.5"]),
    ("criterion elliptic", ["criterion", "elliptic", "--k", "12", "--N", "3", "--nu", "1"]),
    ("criterion regionA", ["criterion", "regionA", "--k", "12", "--N", "5", "--nu", "2"]),
    ("criterion regionA large weight", ["criterion", "regionA", "--k", "400", "--N", "5"]),
    ("criterion regionA continued fraction", ["criterion", "regionA", "--k", "6", "--N", "2",
                                              "--nu", "3"]),
    ("criterion regionC radius found", ["criterion", "regionC", "--k", "12", "--N", "2"]),
    ("criterion regionC radius given", ["criterion", "regionC", "--k", "12", "--N", "3",
                                        "--nu", "1", "--r", "0.3"]),
    ("criterion regionC no radius", ["criterion", "regionC", "--k", "4", "--N", "2"]),
    ("criterion elliptic median next to 1", ["criterion", "elliptic", "--k", "2.05",
                                             "--N", "3"]),
    ("criterion classical gamma median at 499", ["criterion", "classical", "--k", "1000",
                                                 "--N", "5", "--nu", "20"]),
    ("criterion classical gamma median at 4499", ["criterion", "classical", "--k", "9000",
                                                  "--N", "5"]),
    ("table", ["table"]),
    ("table 84 beta medians", ["table", "--k-list", "2.05,4,24,1000", "--n-list", "2,13",
                               "--nu-max", "20"]),
    ("cosets gammainf", ["cosets", "--group", "gamma0", "--level", "3", "--height", "20"]),
    ("cosets pmi", ["cosets", "--group", "gamma1pm", "--level", "5",
                    "--stabiliser", "pmi", "--height", "15"]),
    ("cosets gammainf height 150", ["cosets", "--group", "gamma0", "--level", "3",
                                    "--height", "150"]),
    ("cosets pmi height 60", ["cosets", "--group", "gamma1pm", "--level", "5",
                              "--stabiliser", "pmi", "--height", "60"]),
    ("induce gamma0 5", ["induce", "--group", "gamma0", "--level", "5"]),
    ("induce gamma1pm 7", ["induce", "--group", "gamma1pm", "--level", "7"]),
    ("induce gammanpm 7", ["induce", "--group", "gammanpm", "--level", "7"]),
    ("selftest", ["selftest", "--rng-seed", "3"]),
]

# (argv, exit code) of a usage error and a help text, run between the two
# passes and their output discarded: both go through the parser that every
# job of the process shares
GUARDS = [
    (["criterion", "elliptic", "--k", "12", "--N", "3", "--bogus", "1"], 2),
    (["eval", "-h"], 0),
]

LEGENDRE_MOD5 = vvps.rep.dirichlet_rep(5, [0, 1, -1, -1, 1]).to_json()


def _permutation(images) -> np.ndarray:
    """The matrix P with P e_i = e_{images[i]}."""
    return np.eye(len(images))[:, images]


# rho(S) = P(x), rho(T) = P(x) P(y): rho(T) has order 6, and rho does not
# factor through SL2(Z/6Z), so its kernel is not a congruence subgroup and
# fold_rho walks the S/T word of every coset
_X, _Y = _permutation([3, 1, 5, 0, 6, 2, 4]), _permutation([1, 4, 5, 2, 0, 3, 6])
NONCONGRUENCE = vvps.rep.st_rep(_X, _X @ _Y).to_json()


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(artifact: bytes) -> bool:
    """Whether the artifact parses as JSON without NaN or Infinity."""
    try:
        json.loads(artifact, parse_constant=_reject)
    except ValueError:
        return False
    return True


def run_job(argv) -> tuple[int, bytes]:
    """Exit code and stdout of one command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            vvps.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode()


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = {"induced": str(Path(tmp) / "induced.json"),
                 "induced13": str(Path(tmp) / "induced13.json"),
                 "induced_legendre": str(Path(tmp) / "induced_legendre.json"),
                 "dirichlet": str(Path(tmp) / "dirichlet.json"),
                 "noncongruence": str(Path(tmp) / "noncongruence.json")}
        Path(files["dirichlet"]).write_text(json.dumps(LEGENDRE_MOD5))
        Path(files["noncongruence"]).write_text(json.dumps(NONCONGRUENCE))
        for name, level, rep in (("induced", "5", []), ("induced13", "13", []),
                                 ("induced_legendre", "5", ["--rep", files["dirichlet"]])):
            code, _ = run_job(["induce", "--group", "gamma0", "--level", level, *rep,
                               "--out", files[name]])
            if code != 0:
                sys.stderr.write(f"writing the {name} rep file failed\n")
                return 1
        artifacts = {}
        for label, argv in JOBS:
            code, artifacts[label] = run_job([a.format(**files) for a in argv])
            if code != 0:
                sys.stderr.write(f"{label}: exit {code}\n")
                status = 1
            elif not (argv[0] == "table" or "csv" in argv or strict_json(artifacts[label])):
                sys.stderr.write(f"{label}: the artifact is not strict JSON\n")
                status = 1
            print(f"{hashlib.md5(artifacts[label]).hexdigest()}  {label}")
        for argv, expected in GUARDS:
            with contextlib.redirect_stderr(io.StringIO()):
                code = run_job(argv)[0]
            if code != expected:
                sys.stderr.write(f"{' '.join(argv)}: exit {code}, not {expected}\n")
                status = 1
        for label, argv in reversed(JOBS):
            if run_job([a.format(**files) for a in argv])[1] != artifacts[label]:
                sys.stderr.write(f"{label}: the reverse pass wrote other bytes\n")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
