"""One benchmark client: runs a workload's CLI jobs in this interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/. It
imports `ampmech.cli`, runs one cold pass over the workload's distinct
invocations (which is the reference for every later output), prints a
`ready` line, and in `measure` or `trace` mode then runs whole cycles as a
closed loop: each job starts only after the previous one returned. In
`measure` mode a fixed reference kernel runs after every job, so that the
job times can be set against the host's speed at the same moment (see
NOTES.md, "Host speed"). Results go to stdout as one JSON object per line.
"""

import argparse
import io
import json
import pathlib
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from tracer import Tracer
from workloads import GOLDENS, Schedule

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_JOBS = 100  # leaves ten samples beyond the 90th percentile
PAUSES = 4  # run.py times one more cold start in each (see measure)
KERNEL_STEPS = 10_000  # about 2 ms of interpreter work on a 2.0 GHz Xeon


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_job(run, argv):
    """Exit code (None if the job raised) and output text of one job."""
    buffer = io.StringIO()
    try:
        code = run(list(argv), stream=buffer)
    except Exception as exc:  # a crash is a failed job, recorded, never retried
        print(f"job {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        code = None
    return code, buffer.getvalue()


def reference_kernel() -> None:
    """Fixed interpreter work: dict lookups and stores, float arithmetic.

    It uses no ampmech code, so a change to the program leaves its duration
    alone; what moves it is the host's speed.
    """
    table = {}
    for i in range(KERNEL_STEPS):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5


def class_percentile(by_argv, q):
    """Latency at quantile `q` of the jobs, each taken at its invocation's mean.

    The cycle multiplicities put p50 and p90 inside one invocation class
    (NOTES.md), so this is that invocation's mean latency, and the number of
    its jobs. A mean moves in proportion to the share of the run the host
    spent in its slow state; a median over the jobs jumps between the two
    speeds when that share is near one half.
    """
    means = sorted((statistics.fmean(v), len(v)) for v in by_argv.values())
    total, seen = sum(n for _, n in means), 0
    for mean, n in means:
        seen += n
        if seen >= q * total:
            return mean, n
    raise ValueError("no jobs")


def checks_pass(text: str) -> bool:
    """True unless a JSON payload reports a check that did not pass.

    CSV output carries no verdicts; its exit code does.
    """
    if not text.startswith("{"):
        return True
    return all(c["pass"] for c in json.loads(text)["checks"])


def cold_pass(run, schedule):
    """Reference output and verdict of each distinct invocation."""
    reference, problems = {}, []
    for argv in schedule.distinct:
        code, text = run_job(run, argv)
        reference[argv] = (text, code == 0 and checks_pass(text))
        if code is None:
            problems.append(f"{' '.join(argv)}: raised")
        golden = GOLDENS.get(argv)
        if golden is not None:
            expected = (ROOT / "tests" / "goldens" / golden).read_text(encoding="utf-8")
            if text != expected:
                problems.append(f"{' '.join(argv)}: differs from tests/goldens/{golden}")
    return reference, problems


class Loop:
    """Latencies and output checks of the jobs of whole cycles."""

    def __init__(self, run, reference, calibrate=False):
        self.run, self.reference, self.calibrate = run, reference, calibrate
        self.by_argv = defaultdict(list)  # job latencies per invocation
        self.kernel = []  # reference-kernel durations, one after each job
        self.seconds, self.cycles = 0.0, 0
        self.failed = self.mismatched = self.output_bytes = 0

    def cycle(self, argvs, tracer=None) -> None:
        start = perf_counter()
        for argv in argvs:
            t0 = perf_counter()
            if tracer is None:
                code, text = run_job(self.run, argv)
            else:
                code, text = tracer.call("cli", "cli.run", run_job, self.run, argv)
            self.by_argv[argv].append(perf_counter() - t0)
            expected, ok = self.reference[argv]
            if text != expected:
                self.mismatched += 1
            if code != 0 or not ok or text != expected:
                self.failed += 1
            self.output_bytes += len(text.encode())
            if self.calibrate:
                t0 = perf_counter()
                reference_kernel()
                self.kernel.append(perf_counter() - t0)
        self.seconds += perf_counter() - start
        self.cycles += 1

    @property
    def jobs(self) -> int:
        return sum(len(v) for v in self.by_argv.values())

    def summary(self) -> dict:
        latencies = [x for v in self.by_argv.values() for x in v]
        deciles = statistics.quantiles(latencies, n=10)
        busy = sum(latencies)
        p50, _ = class_percentile(self.by_argv, 0.5)
        p90, p90_jobs = class_percentile(self.by_argv, 0.9)
        result = {
            "jobs": self.jobs,
            "cycles": self.cycles,
            "elapsed_s": self.seconds,
            "busy_s": busy,
            "failed": self.failed,
            "mismatched": self.mismatched,
            "jobs_per_s": self.jobs / busy,
            "job_ms_p50": p50 * 1e3,
            "job_ms_p90": p90 * 1e3,
            "p90_jobs": p90_jobs,
            "raw_ms_p50": deciles[4] * 1e3,
            "raw_ms_p90": deciles[8] * 1e3,
            "beyond_p90": sum(1 for x in latencies if x > deciles[8]),
            "output_bytes": self.output_bytes,
        }
        if self.kernel:
            result["kernel_ms"] = statistics.fmean(self.kernel) * 1e3
        return result


def measure(run, schedule, reference, seconds) -> dict:
    """Whole cycles for about `seconds`, and at least MIN_JOBS jobs.

    The loop stops PAUSES times, evenly spread over the run, and waits for a
    line on stdin. run.py times a cold start in each pause, so that the
    set-up times sample the host's speed across the run and not only at its
    start.
    """
    loop = Loop(run, reference, calibrate=True)
    for segment in range(1, PAUSES + 2):
        if segment > 1:
            emit({"event": "pause"})
            sys.stdin.readline()
        while True:
            loop.cycle(schedule.next_cycle())
            projected = loop.seconds * (loop.cycles + 1) / loop.cycles
            if (projected > seconds * segment / (PAUSES + 1)
                    and (segment <= PAUSES or loop.jobs >= MIN_JOBS)):
                break
    result = loop.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def trace(run, schedule, reference, seconds) -> dict:
    """Alternate untraced and traced cycles for about `seconds`.

    Alternating keeps slow phases of the host out of the overhead ratio.
    """
    untraced, traced = Loop(run, reference), Loop(run, reference)
    tracer = Tracer()
    per_cycle = []
    start = perf_counter()
    while True:
        untraced.cycle(schedule.next_cycle())
        tracer.install()
        try:
            traced.cycle(schedule.next_cycle(), tracer)
        finally:
            tracer.uninstall()
        per_cycle.append(tracer.snapshot())
        elapsed = perf_counter() - start
        if elapsed * (traced.cycles + 1) / traced.cycles > seconds:
            break
    deltas = [
        {k: v - before.get(k, 0) for k, v in after.items()}
        for before, after in zip([{}] + per_cycle, per_cycle)
    ]
    untraced, traced = untraced.summary(), traced.summary()
    return {
        "untraced": untraced,
        "traced": traced,
        "counts_repeat": all(d == deltas[0] for d in deltas),
        "cycle_counts": deltas[0],
        "layers": layer_metrics(tracer, traced, untraced),
    }


# per-layer metrics, each per traced job: span times in ms, and counts
LAYER_TIMES = (
    "core.quantum_condition_residual.ms", "core.multiply.ms",
    "core.commutator_diagonal.ms", "core.self_ms",
    "perturb.solve_perturbative.ms", "perturb.energy_matrix.ms",
    "perturb.extract_structure_constants.ms", "perturb.recursion_residual.ms",
    "perturb.self_ms",
    "classical.classical_solve.ms", "classical.self_ms",
    "oracle.diagonalize.ms", "oracle.build_hamiltonian.ms",
    "oracle.lambda_series_fit.ms", "oracle.self_ms",
    "cli.render.ms", "cli.self_ms",
)
LAYER_COUNTS = (
    "core.quantum_condition_residual.calls", "core.quantum_condition_residual.rows",
    "core.get.calls", "core.multiply.calls",
    "perturb.solve_perturbative.calls", "perturb.errors",
    "oracle.diagonalize.calls", "oracle.diagonalize.basis_cubed", "oracle.errors",
)


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics of the traced cycles."""
    jobs = traced["jobs"]
    counts = Counter(tracer.snapshot())
    metrics = {
        name: {"value": tracer.seconds[name] * 1e3 / jobs, "unit": "ms/job"}
        for name in LAYER_TIMES
    }
    metrics.update(
        {name: {"value": counts[name] / jobs, "unit": "count/job"} for name in LAYER_COUNTS}
    )
    engine_rows = counts["perturb.engine_rows"]
    metrics["perturb.row_utilization"] = {
        "value": counts["perturb.public_rows"] / engine_rows if engine_rows else 0.0,
        "unit": "ratio",
    }
    metrics["cli.output_bytes"] = {"value": traced["output_bytes"] / jobs, "unit": "B/job"}
    metrics["trace.overhead"] = {
        "value": traced["jobs_per_s"] / untraced["jobs_per_s"], "unit": "ratio"}
    return metrics


def stamp() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas.get('version', 'unknown')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    import ampmech.cli

    source = pathlib.Path(ampmech.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"imported ampmech from {source}, not from this checkout", file=sys.stderr)
        return 1
    run = ampmech.cli.run
    schedule = Schedule(args.workload, args.seed)
    reference, problems = cold_pass(run, schedule)
    emit({"event": "ready", "problems": problems, "stamp": stamp(),
          "verify_seed": schedule.verify_seed})
    if args.mode == "measure":
        emit({"event": "result", **measure(run, schedule, reference, args.seconds)})
    elif args.mode == "trace":
        emit({"event": "result", **trace(run, schedule, reference, args.seconds)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
