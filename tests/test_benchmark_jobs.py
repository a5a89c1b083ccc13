"""The benchmark's own jobs, checked by its own oracle.

Each workload of `circbench/workloads.py` is built at seed 0, every job
runs through `cli.main` with its document on stdin, and
`circbench/oracle.py` checks its exit code and stdout, so a wrong output
fails here, before a benchmark run.  `circbench/tracer.py` is installed
around one job, so a change to the modules it wraps that breaks the
per-layer run fails here too.  The modules are loaded from their files
and only read.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from circjoin import cli

CIRCBENCH = Path(__file__).parents[1] / "circbench"


def load(name):
    """circbench/<name>.py as a module, writing no bytecode cache there."""
    spec = importlib.util.spec_from_file_location(
        f"circbench_{name}", CIRCBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads, oracle, tracer = load("workloads"), load("oracle"), load("tracer")


def run(job):
    """(exit code, stdout) of one job, its document on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job.argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_0_jobs_pass_the_benchmark_oracle(name):
    jobs = workloads.build(name, 0)
    assert jobs
    problems = []
    for i, job in enumerate(jobs):
        code, out = run(job)
        problems += [f"job {i} {job.argv}: {p}" for p in oracle.check(job, code, out)]
    assert not problems, problems[:5]


def test_tracer_records_the_spans_of_a_spectrum_job():
    job = next(j for j in workloads.build("small-jobs", 0) if j.argv[0] == "spectrum")
    main = cli.main
    trace = tracer.Tracer()
    trace.install()
    try:
        code, out = run(job)
    finally:
        trace.remove()
    assert cli.main is main
    assert (code, oracle.check(job, code, out)) == (0, [])
    names = {span[2] for span in trace.spans}
    assert {"cli.main", "join.full_spectrum", "cli.report_rows"} <= names
