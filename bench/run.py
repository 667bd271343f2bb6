"""sphcodes benchmark: closed-loop runs of the CLI, checked outputs, traces.

Run from the root of a checkout:

    python3 bench/run.py --workload spoiling --seed 0 --seconds 50 --trace 0

One client in one process runs the workload's tasks back to back (a closed
loop); each task is one or two ``sphcodes.cli.main(argv)`` calls made in
process, each writing its output to a file.  Whole passes over the
workload's tasks repeat for about ``--seconds``; the outputs are checked
after the timer stops.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``task_s``, ``work_per_s``,
``peak_rss_mb``).  With ``--trace 1`` the loop runs for half the time
untraced and for the other half with every public function of every
module wrapped (see ``spans.py``), and
the metrics are the per-layer ones plus the tracing overhead.  The line
before it holds the details: failures, work counts, counts that differ
from the reference (a change in behaviour), the per-task times and the
environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class Attempt:
    """One run of one task: its time, outputs, and why it failed if it did."""

    task: object
    outs: list[Path]
    seconds: float
    streams: list[tuple[str, str]]
    error: str | None = None
    check_failed: bool = False
    counts: dict = field(default_factory=dict)


def run_task(main, task, outs: list[Path]) -> tuple[list, str | None]:
    """Run a task's CLI calls in order; stop at the first one that fails."""
    streams: list[tuple[str, str]] = []
    for k, out in enumerate(outs):
        argv = task.argv(k, out)
        so, se = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(so), redirect_stderr(se):
                rc = main(argv)
        except Exception as exc:  # a task that raises is a failed task
            return streams, f"{argv[0]} raised {type(exc).__name__}: {exc}"
        streams.append((so.getvalue(), se.getvalue()))
        if rc != 0:
            last = (se.getvalue().strip().splitlines() or [""])[-1]
            return streams, f"{argv[0]} exited {rc}: {last}"
    return streams, None


def run_loop(tasks, seconds: float, main, workdir: Path) -> tuple[list, float]:
    """Whole passes over ``tasks``, at least one, ending nearest ``seconds``.

    Another pass starts only if it would end no more than half a pass
    past ``seconds`` (judged by the mean pass so far), so that a run with
    passes of 10-20 s does not overrun by a whole pass.
    """
    attempts: list[Attempt] = []
    start = perf_counter()
    passes = 0
    while True:
        for task in tasks:
            outs = [workdir / f"{len(attempts):04d}-{k}.out"
                    for k in range(len(task.calls))]
            t0 = perf_counter()
            streams, error = run_task(main, task, outs)
            attempts.append(Attempt(task, outs, perf_counter() - t0, streams, error))
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return attempts, elapsed


def check_attempts(attempts: list[Attempt]) -> None:
    """Check every output of the attempts that ran to the end."""
    for a in attempts:
        if a.error is not None:
            continue
        try:
            a.counts = a.task.check([p.read_text() for p in a.outs], a.streams)
        except Exception as exc:  # an unreadable output is a wrong output
            a.error = f"check failed: {type(exc).__name__}: {exc}"
            a.check_failed = True


def behaviour_changes(attempts: list[Attempt]) -> list[str]:
    """Tasks whose outcome or counts differ from the reference counts."""
    changes = []
    for a in attempts:
        exp = a.task.expected
        if exp is None:
            continue
        got = {"ok": a.error is None, **a.counts}
        # a failed task has no counts: compare only its outcome
        diff = {k: (v, got.get(k)) for k, v in exp.items()
                if got.get(k) != v and (got["ok"] or k == "ok")}
        if diff:
            text = f"{a.task.label}: " + ", ".join(
                f"{k} {want} -> {have}" for k, (want, have) in sorted(diff.items()))
            if text not in changes:
                changes.append(text)
    return changes


def summary(attempts: list[Attempt], wall: float, per_pass: int) -> dict:
    """End-to-end numbers of one loop.

    ``task_s`` is the median over passes of a pass's mean seconds per task:
    the tasks of one pass differ (the atlas panel spans 1-7 s), whole
    passes are the unit of identical work, and with one task a pass it is
    the median task time.
    """
    times = [a.seconds for a in attempts]
    passes = [statistics.fmean(times[i:i + per_pass])
              for i in range(0, len(times), per_pass)]
    work = sum(a.counts.get(a.task.work, 0) for a in attempts if a.error is None)
    q = statistics.quantiles(times, n=4) if len(times) >= 2 else [times[0]] * 3
    by_task: dict[str, list[float]] = {}
    for a in attempts:
        by_task.setdefault(a.task.label, []).append(a.seconds)
    return {
        "task_s": statistics.median(passes),
        "work_per_s": work / wall,
        "tasks": len(attempts),
        "passes": len(passes),
        "failed": sum(a.error is not None for a in attempts),
        "check_failures": sum(a.check_failed for a in attempts),
        "task_s_dist": {"n": len(times), "min": min(times), "q1": q[0],
                        "median": q[1], "q3": q[2], "max": max(times)},
        "task_times_s": by_task,
        "loop_s": wall,
        "work": work,
    }


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def counts_of(attempts: list[Attempt]) -> dict:
    """Work counts of each task that passed; they must repeat exactly."""
    return {a.task.label: a.counts for a in attempts if a.error is None}


def prepare(workload: str, seed: int, workdir: Path):
    """Set-up: import the program and generate the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import sphcodes.cli
    if Path(sphcodes.cli.__file__).resolve().parent != ROOT / "src" / "sphcodes":
        raise SystemExit(f"error: imported sphcodes from {sphcodes.cli.__file__}")
    from workloads import WORKLOADS
    return sphcodes.cli, WORKLOADS[workload](seed, workdir)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time fresh processes from spawn until their first task is ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--probe-setup"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["spoiling", "lattice"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sphcodes" / "cli.py").is_file():
        print(f"error: no sphcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        workdir = Path(tmp)
        cli, tasks = prepare(args.workload, args.seed, workdir)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        main_fn = lambda argv: cli.main(argv)  # noqa: E731 - looked up per call
        # a traced run splits its time between an untraced and a traced loop
        half = args.seconds / 2 if args.trace else args.seconds
        attempts, wall = run_loop(tasks, half, main_fn, workdir)
        check_attempts(attempts)
        result = summary(attempts, wall, len(tasks))
        all_attempts = list(attempts)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "task_order": [t.label for t in tasks], **result}
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_wall = run_loop(tasks, half, main_fn, workdir)
            finally:
                tracer.restore()
            check_attempts(traced)
            all_attempts += traced
            traced_sum = summary(traced, traced_wall, len(tasks))
            metrics = {k: metric(v, u) for k, (v, u) in tracer.layer_metrics().items()}
            builds = [a.counts for a in traced if "points_accepted" in a.counts]
            accepted = sum(c["points_accepted"] for c in builds)
            ops = sum(c["ops"] for c in builds)
            metrics["atlas.accept_ratio"] = metric(accepted / ops if ops else 0.0,
                                                   "ratio")
            metrics["trace.task_s"] = metric(traced_sum["task_s"], "s")
            metrics["trace.overhead_s"] = metric(
                traced_sum["task_s"] - result["task_s"], "s")
            trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
            detail["traced"] = traced_sum
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            setup = setup_seconds(args.workload, args.seed)
            detail["setup_samples_s"] = setup
            metrics = {
                "setup_s": metric(statistics.median(setup), "s"),
                "task_s": metric(result["task_s"], "s"),
                "work_per_s": metric(result["work_per_s"], "1/s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    failed = sum(a.error is not None for a in all_attempts)
    detail["failed_frac"] = failed / len(all_attempts)
    detail["failures"] = sorted({f"{a.task.label}: {a.error}"
                                 for a in all_attempts if a.error})
    detail["counts"] = counts_of(all_attempts)
    detail["behaviour_change"] = behaviour_changes(all_attempts)
    detail["env"] = environment()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(a.check_failed for a in all_attempts),
        "attempted": len(all_attempts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
