#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the circjoin command line.

Closed loop: one client, one process per workload, no threads; jobs run
back to back, each a ``circjoin.cli.main(argv)`` call on a seed-generated
join document with stdout captured.  Outputs are checked against an
independent oracle outside the timed region.  Times are scaled to a
reference speed of the host, measured by ``reference.py`` next to every
job.  Run from the repository root:

    python3 circbench/run.py                       # every workload
    python3 circbench/run.py --workload small-jobs --seed 3 --seconds 20
    python3 circbench/run.py --workload kuramoto-large --trace 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from a separate run that alternates
untraced and traced passes.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md in
this directory for the workloads and metrics.
"""

import os

# Fixed before numpy loads (here and in the set-up interpreters), so the
# parent and a change measure alike.  One BLAS thread never exceeds nproc.
# Without numpy's huge-page advice, peak RSS and page-fault time do not
# depend on whether the kernel happens to grant huge pages during a run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 2
PROBE_GAP_S = 0.5
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20


def _fail(msg):
    print(f"circbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_loaded_by_circjoin": "numba" in sys.modules,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(cli, job):
    """One CLI call; returns (seconds, exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    sys.stdin = saved_stdin
    return elapsed, code, out.getvalue(), err.getvalue()


def run_pass(cli, jobs, tracer=None):
    """One pass over the jobs; returns (clock seconds, results, scaled latencies).

    The reference kernel runs before each job that starts PROBE_GAP_S or
    more after the last probe, and once after the pass.  A job's scaled
    latency is its latency times REF_S over the mean of the probes just
    before and just after it: its time at the reference speed.
    """
    results, probes, probe_before = [], [], []
    last_probe = -math.inf
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if time.perf_counter() - last_probe >= PROBE_GAP_S:
            probes.append(reference.probe())
            last_probe = time.perf_counter()
        probe_before.append(len(probes) - 1)
        if tracer is not None:
            tracer.job = i
        results.append(run_job(cli, job))
    probes.append(reference.probe())
    scaled = [r[0] * 2.0 * reference.REF_S / (probes[k] + probes[k + 1])
              for r, k in zip(results, probe_before)]
    return time.perf_counter() - t0, results, scaled


def cold_start(oracle, job):
    """A fresh interpreter running one tiny job: (wall s, [probe s, probe s], problems).

    The probes run just before and just after it; the interpreter may run
    on the other CPU, so the run's set-up is scaled by the median of all
    these probes rather than job by job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    before = reference.probe()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "circjoin.cli", *job.argv],
        input=job.stdin, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    probes = [before, reference.probe()]
    problems = oracle.check(job, proc.returncode, proc.stdout)
    if problems and proc.stderr:
        problems.append(f"stderr: {proc.stderr.strip()}")
    return elapsed, probes, problems


def percentile(values, q):
    """Nearest-rank percentile: one of the values, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Checker:
    """Counts attempted and failed jobs.  Every pass must repeat the first
    byte for byte; ``finish`` then runs the oracle on the first pass, after
    the timed passes, so its work touches neither timing nor peak memory."""

    def __init__(self, oracle, jobs):
        self.oracle = oracle
        self.jobs = jobs
        self.reference = None
        self.attempted = 0
        self.problems = []

    def _label(self, i):
        return f"job {i} ({' '.join(self.jobs[i].argv[:2])})"

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append((label, problems))

    def add_pass(self, results):
        """Keep the first pass's (code, stdout, stderr); compare later ones."""
        if self.reference is None:
            self.reference = [(code, out, err) for _, code, out, err in results]
            return
        for i, ((_, code, out, _), ref) in enumerate(zip(results, self.reference)):
            self.add(self._label(i), [] if (code, out) == ref[:2]
                     else ["output differs from the first pass"])

    def finish(self):
        for i, (job, (code, out, err)) in enumerate(zip(self.jobs, self.reference)):
            problems = self.oracle.check(job, code, out)
            if problems and err:
                problems.append(f"stderr: {err.strip()}")
            self.add(self._label(i), problems)

    @property
    def failed(self):
        return len(self.problems)


def _keep_going(start, seconds, durations, minimum):
    """Another pass (or pair) while the median one still fits the budget."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(cli, oracle, workloads, name, seed, seconds, checker, record):
    jobs = checker.jobs
    setup_job = workloads.setup_job(name, seed)
    setup_times, setup_probes = [], []

    def measure_setup():
        elapsed, probes, problems = cold_start(oracle, setup_job)
        setup_times.append(elapsed)
        setup_probes.extend(probes)
        checker.add("setup job", problems)

    clocks, walls, raw_walls, latencies = [], [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, clocks, MIN_PASSES):
        # Cold starts go between passes, so their median spans the whole
        # run rather than the few seconds at its start.
        if len(setup_times) < SETUP_REPEATS:
            measure_setup()
        clock, results, scaled = run_pass(cli, jobs)
        clocks.append(clock)
        walls.append(sum(scaled))
        raw_walls.append(sum(r[0] for r in results))
        latencies.append(scaled)
        if len(walls) == 1:
            # Later passes repeat the same jobs and add only allocator
            # fragmentation, which a fresh CLI process never sees.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checker.add_pass(results)
        del results
    while len(setup_times) < SETUP_REPEATS:
        measure_setup()

    # A job's latency is its median over the passes, so one slow pass does
    # not decide the percentile of a workload with only a few jobs.
    job_latency = [statistics.median(times) for times in zip(*latencies)]
    record["samples"] = {"setup": len(setup_times), "passes": len(walls),
                         "jobs": len(job_latency)}
    record["raw"] = {"unscaled_setup_s": setup_times, "setup_probe_s": setup_probes,
                     "wall_s": walls, "unscaled_wall_s": raw_walls}
    record["unscaled"] = {"setup_s": statistics.median(setup_times),
                          "wall_s": statistics.median(raw_walls)}
    setup_scale = reference.REF_S / statistics.median(setup_probes)
    return {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "wall_s": statistics.median(walls),
        "job_p50_s": percentile(job_latency, 0.50),
        "job_p90_s": percentile(job_latency, 0.90),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def _layer_value(metric, totals):
    """``<span>.<field>`` from one traced pass's totals; 0 if never called."""
    span, _, field = metric.rpartition(".")
    row = totals.get(span, {})
    if field == "osc_steps_per_s":
        return row.get("osc_steps", 0.0) / row["s"] if row.get("s") else 0.0
    return float(row.get(field, 0.0))


def per_layer(cli, tracer_mod, name, seed, seconds, checker, record, metrics):
    jobs = checker.jobs
    tracer = tracer_mod.Tracer()
    plain, traced, pairs, per_pass = [], [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, pairs, 1):
        clock, results, scaled = run_pass(cli, jobs)
        plain.append(sum(scaled))
        checker.add_pass(results)
        del results

        first = len(tracer.spans)
        tracer.install()
        try:
            traced_clock, results, scaled = run_pass(cli, jobs, tracer)
        finally:
            tracer.remove()
        traced.append(sum(scaled))
        pairs.append(clock + traced_clock)
        checker.add_pass(results)
        del results
        totals = tracer.totals(first)
        per_pass.append({m: _layer_value(m, totals) for m in metrics})
        if "layers" not in record:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{name}-seed{seed}-spans.jsonl"
            tracer.write(path, first, len(tracer.spans))
            record["spans_file"] = str(path.relative_to(ROOT))
            record["layers"] = {span: dict(row) for span, row in sorted(totals.items())}

    overhead = statistics.median(traced) - statistics.median(plain)
    record["samples"] = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    record["raw"] = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return {
        m: overhead if m == "trace.overhead_s"
        else statistics.median(p[m] for p in per_pass)
        for m in metrics
    }


def run_one(name, seed, seconds, trace, spec):
    if not (SRC / "circjoin" / "cli.py").is_file():
        _fail(f"no circjoin sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import oracle
    import tracer as tracer_mod
    import workloads
    from circjoin import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported circjoin from {cli.__file__}, not from {SRC}")

    checker = Checker(oracle, workloads.build(name, seed))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(cli, tracer_mod, name, seed, seconds, checker, record, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(cli, oracle, workloads, name, seed, seconds, checker, record)
        values = {m: values[m] for m in names}

    checker.finish()
    metrics = {m: {"value": values[m], "unit": units[m]} for m in names}
    record["metrics"] = metrics
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["failures"] = [{"job": label, "problems": p} for label, p in checker.problems]

    env = record["environment"]
    print(f"workload {name}  seed {seed}  trace {trace}  jobs/pass {len(checker.jobs)}  "
          f"samples {record['samples']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for m in names:
        print(f"  {m:<48} {values[m]:>14.6g} {units[m]}")
    for m, v in record.get("unscaled", {}).items():
        print(f"  {m + ' (unscaled)':<48} {v:>14.6g} s")
    print(f"  attempted {checker.attempted}  failed {checker.failed}  "
          f"failed_frac {checker.failed / checker.attempted:.4g}")
    for label, problems in checker.problems[:MAX_REPORTED_FAILURES]:
        print(f"  CHECK FAILED {label}: {'; '.join(problems)}")
    if checker.failed > MAX_REPORTED_FAILURES:
        print(f"  ... and {checker.failed - MAX_REPORTED_FAILURES} more failures")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2))
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def run_many(names, args):
    """One child process per workload; metrics are prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None):
    if not SPEC.is_file():
        _fail(f"{SPEC.name} not found next to {HERE.name}/")
    spec = json.loads(SPEC.read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known + ["all"],
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = known if not args.workload or "all" in args.workload else args.workload
    if len(names) == 1:
        result = run_one(names[0], args.seed, args.seconds, args.trace, spec)
    else:
        result = run_many(names, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
