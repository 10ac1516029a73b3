"""Smoke tier of the benchmark: every job of every workload, run once.

The workload generator and the output checks are the benchmark's own
(`perfbench/workloads.py`, `perfbench/checks.py`), imported unedited with
`perfbench` on the import path, as the benchmark worker has it.  Each job
runs once through `cli.main` and must pass the check the benchmark applies
to it, the sweep's expected no-equilibrium exits (4) included.  No timing
is asserted.
"""

import sys
from pathlib import Path

import pytest

from ringstab import cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_job_passes_its_check(name, tmp_path, capsys):
    failures = []
    for job in workloads.generate(name, SEED, str(tmp_path)):
        code = cli.main(list(job.argv))
        out = capsys.readouterr()
        ok, why, _, _ = checks.check(job, code, out.out, out.err)
        if not ok:
            failures.append("%s: %s %s" % (job.label, why, out.err.strip()[-300:]))
    assert not failures, "\n".join(failures)
