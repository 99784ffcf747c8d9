import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = (ROOT / "tests" / "data" / "artifact_digests.txt").read_text().splitlines()
# "# key: value" lines name the numpy build and machine the digests were taken on
RECORDED_ON = dict(line[2:].split(": ", 1) for line in RECORDED if line.startswith("# "))


def _this_platform() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x keeps it elsewhere; its version differs anyway
        features = {}
    return {"numpy": np.__version__, "machine": platform.machine(),
            "AVX512F": str(features.get("AVX512F"))}


def _run_tool() -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                          capture_output=True, text=True, env=env)


@pytest.mark.skipif(_this_platform() != RECORDED_ON,
                    reason="float results differ across numpy versions and SIMD paths")
def test_artifacts_match_the_recorded_digests():
    # the 40 artifacts of tools/artifact_digests.py, byte for byte
    proc = _run_tool()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [line for line in RECORDED if not line.startswith("#")]


@pytest.mark.skipif(_this_platform() == RECORDED_ON,
                    reason="test_artifacts_match_the_recorded_digests runs the tool here")
def test_jobs_succeed_and_repeat_in_one_process():
    # where the digests cannot be compared, the tool still checks that every
    # job and guard exits as it should and that the reverse pass writes the
    # same bytes: no job may change a later one through state the process
    # keeps (caches, level tables, a seed's constants)
    proc = _run_tool()
    assert proc.returncode == 0, proc.stderr
    jobs = [line for line in RECORDED if not line.startswith("#")]
    assert len(proc.stdout.splitlines()) == len(jobs)
