"""The benchmark's jobs through the library as it stands.

Several benchmark job kinds call the library directly (Fourier extraction
at sigma = S, the full-domain pairing, induced and S/T-generated rho, the
library rebuild in the eta check), so a signature change there would
otherwise show only as failed benchmark jobs.  This runs the first job of
each kind in every workload, at seed 0, and checks it against the job's
own oracle.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def _first_job_of_each_kind():
    cases = []
    for workload in workloads.WORKLOADS:
        seen = set()
        for job in workloads.generate(workload, 0, 1.0):
            if job.kind not in seen:
                seen.add(job.kind)
                cases.append(pytest.param(job, id=f"{workload}-{job.kind}"))
    return cases


@pytest.mark.parametrize("job", _first_job_of_each_kind())
def test_first_job_of_each_kind_passes_its_oracle(job):
    out = workloads.execute(job)
    result = workloads.check(job, out)
    assert result.ok, result.cause
