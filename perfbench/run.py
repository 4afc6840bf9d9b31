#!/usr/bin/env python3
"""Benchmark of the ampmech command line: closed-loop jobs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload defaults --seed 0 --seconds 36 --trace 0

Each workload runs as one client in one worker interpreter that calls
`ampmech.cli.run(argv, stream=buffer)` and starts each job only after the
previous one returned. Every job's output is checked (see NOTES.md).

With `--trace 0` the end-to-end metrics are printed. The host's speed
drifts, so job times are given in units of a reference kernel timed after
every job (`kref`), and set-up time is scaled to a host that runs the kernel
in KREF_MS; the wall-clock figures follow as comment lines. With `--trace 1`
a traced run prints the per-layer metrics. Several `--workload` names may be
given; the default is all of them. The last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; with
more than one workload each metric name is prefixed by `<workload>.`.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # per workload: its workers are killed by then
# One BLAS thread keeps each job on the core the reference kernel runs on: with
# a second thread on the other core, jobs feel contention the kernel does not.
BLAS_THREADS = 1
KREF_MS = 2.0  # kernel duration of the host that setup_s is scaled to (NOTES.md)


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload, seed, mode, seconds, deadline, on_pause=None):
    """Start one worker; return (seconds until its ready line, ready, result).

    Each time the worker pauses, `on_pause()` runs before it is resumed.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready_line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            result = None
            for line in proc.stdout:
                event = json.loads(line)
                if event["event"] == "pause":
                    on_pause()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    result = event
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not ready_line or (mode != "setup" and result is None):
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    return setup_s, json.loads(ready_line), result


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(workload, seed, seconds, deadline):
    """Timed loop of one measure worker, with a cold start timed in each pause."""
    setups, problems = [], []

    def cold_start():
        setup_s, ready, _ = run_worker(workload, seed, "setup", seconds, deadline)
        setups.append(setup_s)
        problems.extend(ready["problems"])

    setup_s, ready, result = run_worker(workload, seed, "measure", seconds, deadline,
                                        on_pause=cold_start)
    setups.insert(0, setup_s)
    problems.extend(ready["problems"])
    jobs, kernel_ms = result["jobs"], result["kernel_ms"]
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": (setup_s * KREF_MS / kernel_ms, "s"),
        "jobs_per_kref": (result["jobs_per_s"] * kernel_ms / 1e3, "1/kref"),
        "job_p50_kref": (result["job_ms_p50"] / kernel_ms, "kref"),
        "job_p90_kref": (result["job_ms_p90"] / kernel_ms, "kref"),
        "pass_ratio": ((jobs - result["failed"]) / jobs, "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    notes = [
        f"set-up: wall clock {' '.join(f'{s:.4f}' for s in setups)} s, median "
        f"{setup_s:.4f} s; scaled to a {KREF_MS} ms kernel",
        f"{jobs} jobs in {result['cycles']} whole cycles over {result['elapsed_s']:.2f} s "
        f"({result['busy_s']:.2f} s in jobs); {result['p90_jobs']} jobs in the p90 "
        f"invocation; {result['beyond_p90']} samples beyond the p90 of all jobs",
        f"wall clock: {result['jobs_per_s']:.4f} jobs/s, invocation means at p50 "
        f"{result['job_ms_p50']:.3f} ms and p90 {result['job_ms_p90']:.3f} ms, "
        f"p50 {result['raw_ms_p50']:.3f} ms and p90 {result['raw_ms_p90']:.3f} ms of all jobs",
        f"reference kernel (kref): mean {kernel_ms:.4f} ms over {jobs} runs",
        f"{result['failed']} failed, {result['mismatched']} with output differing "
        "from the reference",
    ]
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} timed outputs differ from their reference")
    return ready, jobs, result["failed"], metrics, problems, notes


def per_layer(workload, seed, seconds, deadline):
    _, ready, result = run_worker(workload, seed, "trace", seconds, deadline)
    problems = list(ready["problems"])
    untraced, traced = result["untraced"], result["traced"]
    for name, loop in (("untraced", untraced), ("traced", traced)):
        if loop["mismatched"]:
            problems.append(f"{loop['mismatched']} {name} outputs differ from their reference")
    if not result["counts_repeat"]:
        problems.append("layer counts differ between traced cycles")
    metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
    notes = [
        f"untraced: {untraced['jobs']} jobs, {untraced['jobs_per_s']:.3f} jobs/s; "
        f"traced: {traced['jobs']} jobs in {traced['cycles']} cycles, "
        f"{traced['jobs_per_s']:.3f} jobs/s",
        f"counts per cycle repeat exactly: {result['counts_repeat']}",
        "counts per cycle: " + json.dumps(result["cycle_counts"], sort_keys=True),
    ]
    attempted = untraced["jobs"] + traced["jobs"]
    failed = untraced["failed"] + traced["failed"]
    return ready, attempted, failed, metrics, problems, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "ampmech" / "cli.py", ROOT / "tests" / "goldens"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2

    measure = per_layer if args.trace else end_to_end
    stamp = {**source_stamp(), "seed": args.seed, "workloads": args.workload,
             "trace": args.trace, "seconds": args.seconds, "nproc": nproc(),
             "blas_threads": BLAS_THREADS}
    correct, attempted, failed, combined = True, 0, 0, {}
    for workload in args.workload:
        try:
            ready, jobs, bad, metrics, problems, notes = measure(
                workload, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"# workload {workload}")
        print("# stamp " + json.dumps({**stamp, **ready["stamp"],
                                       "verify_seed": ready["verify_seed"]}))
        for note in notes:
            print(f"#   {note}")
        for problem in problems:
            print(f"#   PROBLEM: {problem}")
        for name, (value, unit) in metrics.items():
            print(f"{workload:13s} {name:40s} {value:16.6f} {unit}")
        correct = correct and not problems
        attempted += jobs
        failed += bad
        prefix = f"{workload}." if len(args.workload) > 1 else ""
        combined.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
