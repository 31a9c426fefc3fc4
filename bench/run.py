#!/usr/bin/env python3
"""The stabaut benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload {tables,groups,cli} --seed N --seconds S --trace {0,1}

Set-up generates the workload's inputs from the seed (see workloads.py).
The timed part then runs the workload's fixed job list in rounds, one
job at a time, until the next round would pass `--seconds` (at least
two rounds).  Every job's answer is checked by an oracle outside its
timed span.  The report lines name each metric with its unit; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones from a traced run (NOTES.md).

    python3 bench/run.py --workload W --steady 10 [--seed N] [--seconds S]

runs the workload once per seed N, N+1, ... in child processes and
reports each end-to-end metric's median, quartiles and spread against
the bound in BENCHMARK.json.

The benchmark reads and writes only inside its checkout: inputs, spans
and result files go to `.bench_work/`.
"""

import os

# one process, one core: numpy must not start a thread pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("tables", "groups", "cli")
MIN_ROUNDS = 2
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# start no round that would end after this, whatever --seconds and the
# minimum round count say, so a badly regressed program still exits
# within three minutes
HARD_STOP_S = 110
CHILD_MAIN = "from stabaut.cli import main; main()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke_child(argv):
    from workloads import CliResult

    proc = subprocess.run([sys.executable, "-c", CHILD_MAIN, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def invoke_in_process(argv):
    import stabaut.cli as cli
    from workloads import CliResult

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:  # a traceback death, as a child process would show it
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def time_child_import() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stabaut.cli"], env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def build(workload: str, seed: int, workdir: str, invoke, smoke: bool):
    """(timed jobs, known-defect jobs) for one workload and seed."""
    import workloads

    rng = random.Random(seed)
    if workload == "tables":
        return workloads.tables_jobs(rng, smoke), []
    if workload == "groups":
        return workloads.groups_jobs(rng, smoke), []
    jobs = workloads.cli_jobs(rng, workdir, invoke, smoke)
    return jobs, workloads.cli_known_defects(rng, workdir, invoke_child)


class Rounds:
    """Per-job times of each completed round, and the failed jobs."""

    def __init__(self):
        self.times: list[list[float]] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.times)

    def walls(self) -> list[float]:
        return [sum(r) for r in self.times]


def run_job(job, tracer=None, job_id=None):
    """(seconds, ok, note); only job.run is inside the timed span."""
    if tracer is not None:
        tracer.job = job_id
    raised = None
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:
        raised = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if raised is not None:
        return elapsed, False, f"{job.kind}: raised {raised!r}"
    try:
        ok = bool(job.check(result))
    except Exception as exc:
        return elapsed, False, f"{job.kind}: oracle raised {exc!r}"
    return elapsed, ok, "" if ok else f"{job.kind}: wrong answer"


def run_rounds(jobs, seconds: float, min_rounds: int, tracer=None) -> Rounds:
    out = Rounds()
    start = time.perf_counter()
    round_clock: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if round_clock:
            expected_end = elapsed + statistics.mean(round_clock)
            if expected_end > HARD_STOP_S or (len(round_clock) >= min_rounds
                                              and expected_end > seconds):
                break
        begin = time.perf_counter()
        times = []
        for job in jobs:
            job_id = len(out.times) * len(jobs) + len(times)
            elapsed_job, ok, note = run_job(job, tracer, job_id)
            times.append(elapsed_job)
            if not ok:
                out.failures.append(note)
        out.times.append(times)
        round_clock.append(time.perf_counter() - begin)
    return out


def tail_percentile(jobs_per_round: int) -> int:
    """Highest percentile with ten jobs beyond it in the smallest run."""
    n = MIN_ROUNDS * jobs_per_round
    return max(50, math.floor(100 * (n - 10) / n))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_commit() -> str:
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


def environment(seed: int) -> dict:
    import numpy

    import stabaut.codes

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "MAX_TABLE_ENTRIES": stabaut.codes.MAX_TABLE_ENTRIES,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def load_program() -> bool:
    """Import stabaut from this checkout's src/, and nowhere else."""
    if not (SRC / "stabaut" / "__init__.py").is_file():
        print(f"error: no stabaut sources at {SRC.relative_to(ROOT)}/stabaut", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import stabaut

    if SRC not in Path(stabaut.__file__).resolve().parents:
        print("error: stabaut was imported from outside this checkout", file=sys.stderr)
        return False
    return True


def measure(args) -> int:
    if not load_program():
        return 2
    import stabaut.codes

    WORK.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        return _measure(args, rundir, stabaut.codes.MAX_TABLE_ENTRIES)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(args, rundir: str, max_entries: int) -> int:
    traced = args.trace == 1
    invoke = invoke_in_process if traced else invoke_child

    # set-up, repeated: a fresh interpreter's import, then input generation
    import_s = statistics.median(time_child_import() for _ in range(SETUP_REPEATS))
    builds = []
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(rundir, f"setup{i}")
        os.mkdir(workdir)
        start = time.perf_counter()
        jobs, defects = build(args.workload, args.seed, workdir, invoke, args.smoke)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    if traced:
        from tracing import Tracer, per_layer, unit_of

        plain = run_rounds(jobs, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        rounds = run_rounds(jobs, args.seconds / 2, 1, tracer)
        overhead = statistics.median(rounds.walls()) / statistics.median(plain.walls())
        layer = per_layer(tracer, len(rounds.times), import_s, overhead, max_entries)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.json"))
        failures = plain.failures + rounds.failures
        attempted = plain.attempted + rounds.attempted
    else:
        rounds = run_rounds(jobs, args.seconds, MIN_ROUNDS)
        failures, attempted = rounds.failures, rounds.attempted

    defect_notes = [note for job in defects for _, ok, note in [run_job(job)] if not ok]
    failed = len(failures)
    failed_frac = (failed + len(defect_notes)) / (attempted + len(defects))

    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(rounds.times)} rounds of {len(jobs)} jobs, "
          f"closed loop, one job at a time" + (" (traced)" if traced else ""))
    for note in failures[:20]:
        print(f"FAILED {note}")
    for note in defect_notes:
        print(f"KNOWN DEFECT still failing: {note}")

    if not traced:
        pooled = [t for r in rounds.times for t in r]
        tail_p = tail_percentile(len(jobs))
        rss_who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(rounds.walls()), "unit": "s"},
            # the lower median is always one job's time: with an even count
            # the mean of two neighbouring job kinds would jump with the count
            "job_p50_s": {"value": statistics.median_low(pooled), "unit": "s"},
            "job_tail_s": {"value": percentile(pooled, tail_p), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(rss_who).ru_maxrss / 1024, "unit": "MB"},
        }
        for name, m in metrics.items():
            extra = f"  (p{tail_p} of {len(pooled)} jobs)" if name == "job_tail_s" else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"failed_frac = {failed_frac:.6g}  ({failed} of {attempted} timed jobs; "
          f"{len(defect_notes)} of {len(defects)} known-defect jobs)")

    with open(WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "failures": failures,
                   "known_defects_failing": defect_notes, "failed_frac": failed_frac,
                   "job_kinds": [job.kind for job in jobs], "job_times": rounds.times}, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def steady(args) -> int:
    """Repeat the workload over consecutive seeds and report each metric's spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for i in range(args.steady):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {args.seed + i}: {result['failed']} jobs failed", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    ok = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        within = name == "setup_s" or spread <= bounds[name] / 3
        ok &= within
        print(json.dumps({"metric": name, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "within_third_of_bound": within, "values": vals}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for the benchmark's own tests")
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="repeat over RUNS seeds and report the spread of each metric")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
