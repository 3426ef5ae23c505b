"""The clusterknit benchmark: one command, four workloads, exact checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every job is a fresh
``python -m clusterknit.cli`` process, one at a time: a closed loop with a
single client.  Generated inputs and outputs go to ``.perfbench-work/``.

With ``--trace 0`` the run makes one untimed warm-up pass over the
workload's jobs (it fills the bytecode cache as an installed user has it),
then repeats timed passes for about ``--seconds``, timing a fresh
``--help`` process after each, and prints the end-to-end metrics.  A
yardstick process (``yardstick.py``) runs between every two timed
processes, and each time is rescaled by the yardstick times on either side
of it, so that the times do not follow the shared machine's drifting speed.
With ``--trace 1`` it runs the warm-up pass, one timed pass untraced and
the same pass traced, and prints the per-layer metrics.
Every job's output is checked exactly; a job fails on a nonzero exit, on
its timeout or on a wrong output.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 9
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # no job starts a timeout past this point of the run
YARDSTICK = Path(__file__).with_name("yardstick.py")
YARDSTICK_REF_S = 0.200  # the yardstick's time at reference speed

# Zero-call predictions: the layers (or functions) a workload never reaches.
PREDICTED_IDLE = {
    "laurent-path": ["euler.f_action"],
    "tracker-path": ["laurent"],
    "euler-series": ["laurent"],
}


class Runner:
    """Runs jobs of one workload and keeps the run's tallies."""

    def __init__(self, root: Path, workdir: Path, pins: dict):
        self.root = root
        self.workdir = workdir
        self.pins = pins
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, argv: list) -> tuple[float, bool, int]:
        """Run one process to its end: (seconds, exited 0 in time, peak RSS KB)."""
        timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(self.workdir / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            fd = os.pidfd_open(proc.pid)
            reaped = False
            try:
                in_time = bool(select.select([fd], [], [], timeout)[0])
                if not in_time:
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                if not reaped:
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                    os.wait4(proc.pid, 0)
                os.close(fd)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, in_time and proc.returncode == 0, usage.ru_maxrss

    def run_job(self, job: workloads.Job, span_file: Path | None = None) -> float:
        """Run and check one job; returns its wall seconds."""
        if span_file is None:
            argv = [sys.executable, "-m", "clusterknit.cli", *job.argv]
        else:
            tracer = Path(tracing.__file__).resolve()
            argv = [sys.executable, str(tracer), str(span_file), job.name, *job.argv]
        job.out.unlink(missing_ok=True)
        seconds, ok, rss_kb = self.spawn(argv)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        ok = ok and workloads.check_output(job, read(job.out), self.pins)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(job.name)
        return seconds

    def run_pass(self, jobs: list, span_dir: Path | None = None) -> float:
        """One pass over the job list; returns the summed job wall time."""
        total = 0.0
        for job in jobs:
            span_file = None if span_dir is None else span_dir / f"{job.name}.json"
            total += self.run_job(job, span_file)
        return total

    def yardstick(self) -> float:
        """Seconds for one fresh yardstick process: the machine's speed now."""
        seconds, ok, _ = self.spawn([sys.executable, str(YARDSTICK)])
        if not ok:
            raise SystemExit("error: the yardstick process failed")
        return seconds

    def sentinel(self, job: workloads.Job) -> bool:
        """A copy of ``job``'s output with one flipped coefficient must fail
        the check, else the checks cannot be trusted."""
        text = read(job.out)
        return (workloads.check_output(job, text, self.pins)
                and not workloads.check_output(job, workloads.corrupt(job, text), self.pins))


def read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def time_setup(runner: Runner) -> float:
    """Time for a fresh process to print the CLI's help: interpreter start,
    imports and parser build, which every job pays."""
    seconds, ok, _ = runner.spawn([sys.executable, "-m", "clusterknit.cli", "--help"])
    if not ok:
        raise SystemExit("error: `python -m clusterknit.cli --help` failed")
    return seconds


def at_reference_speed(seconds: float, yard_before: float, yard_after: float) -> float:
    """``seconds`` rescaled to reference speed, the speed at which the
    yardstick takes YARDSTICK_REF_S, judged by the yardstick runs on either
    side of the timed process."""
    return seconds * YARDSTICK_REF_S / ((yard_before + yard_after) / 2)


def end_to_end(runner: Runner, jobs: list, seconds: float) -> tuple[dict, list]:
    runner.run_pass(jobs)  # warm-up, untimed
    # The shared machine's speed drifts by tens of percent within seconds,
    # so every timed process sits between two yardstick runs and its time
    # is rescaled to reference speed.  A pass starts only if its midpoint,
    # judged by the last pass, falls inside ``seconds``; each pass is
    # followed by one set-up sample.
    yard = [runner.yardstick()]

    def timed(seconds_taken: float) -> tuple[float, float]:
        """(unscaled, scaled) time of the process that just ended."""
        yard.append(runner.yardstick())
        return seconds_taken, at_reference_speed(seconds_taken, yard[-2], yard[-1])

    passes, setups = [], []  # (unscaled, scaled) pairs
    start = time.monotonic()
    lap = 0.0
    while not passes or (time.monotonic() - start + lap / 2 < seconds
                         and time.monotonic() < runner.deadline):
        lap_start = time.monotonic()
        jobs_timed = [timed(runner.run_job(job)) for job in jobs]
        passes.append(tuple(map(sum, zip(*jobs_timed))))
        setups.append(timed(time_setup(runner)))
        lap = time.monotonic() - lap_start
    while len(setups) < SETUP_REPEATS:
        setups.append(timed(time_setup(runner)))
    raw_passes, scaled_passes = zip(*passes)
    raw_setups, scaled_setups = zip(*setups)
    metrics = {
        "wall_s": (statistics.median(scaled_passes), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "pass_frac": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    notes = [f"wall_s is the median of {len(passes)} timed passes at reference speed: "
             + ", ".join(f"{p:.3f}" for p in scaled_passes),
             f"unscaled pass times, median {statistics.median(raw_passes):.3f} s: "
             + ", ".join(f"{p:.3f}" for p in raw_passes),
             f"setup_s is the median of {len(setups)} runs of --help at reference speed; "
             f"unscaled median {statistics.median(raw_setups):.4f} s",
             f"yardstick runs: {len(yard)}, median {statistics.median(yard):.4f} s",
             f"fail_frac {runner.failed / runner.attempted:g} "
             f"({runner.failed} of {runner.attempted} jobs failed)"]
    return metrics, notes


def per_layer(runner: Runner, workload: str, jobs: list) -> tuple[dict, list]:
    runner.run_pass(jobs)  # warm-up, untimed
    untraced = runner.run_pass(jobs)
    span_dir = runner.workdir / "spans"
    span_dir.mkdir()
    traced = runner.run_pass(jobs, span_dir)
    profiles = []
    with open(runner.workdir / "spans.jsonl", "w") as out:
        for job in jobs:
            record = json.loads(read(span_dir / f"{job.name}.json") or "null")
            if record is None:
                continue  # the job failed and was counted as such
            out.write(json.dumps(record) + "\n")
            profiles.append(tracing.profile(record))
    shutil.rmtree(span_dir)
    prof = tracing.merge(profiles)
    metrics = layer_metrics(prof, traced - untraced)
    layers = tracing.layer_totals(prof)
    calls = {name: row["calls"] for rows in (prof["funcs"], layers) for name, row in rows.items()}
    missed = [name for name in PREDICTED_IDLE.get(workload, []) if calls.get(name)]
    metrics["trace.prediction_misses"] = (len(missed), "count")
    report = tracing.table(prof)
    (runner.workdir / "layers.txt").write_text(report + "\n")
    dominant = max(layers, key=lambda name: layers[name]["self_s"])
    notes = [report, f"dominant layer: {dominant}",
             f"zero-call predictions: {PREDICTED_IDLE.get(workload, [])} "
             + (f"MISSED {missed}" if missed else "hold")]
    return metrics, notes


def layer_metrics(prof: dict, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged span totals."""
    def fn(name):
        row = prof["funcs"].get(name, tracing.empty_row())
        return {"calls": row["calls"], "self_s": row["self_s"],
                "sum": row["sum"] or [0, 0], "max": row["max"] or [0, 0]}

    metrics = {}
    for layer, row in tracing.layer_totals(prof).items():
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        if layer != "cli":
            metrics[f"{layer}.calls"] = (row["calls"], "count")
            metrics[f"{layer}.errors"] = (row["errors"], "count")
    mul, div, add, f_action = fn("laurent.mul"), fn("laurent.div"), fn("laurent.add"), fn("euler.f_action")
    matrix = fn("exchange.mutate_matrix")
    metrics.update({
        "laurent.mul.calls": (mul["calls"], "count"),
        "laurent.mul.self_s": (mul["self_s"], "s"),
        "laurent.mul.pairs": (mul["sum"][0], "count"),
        "laurent.mul.merge_ratio": (mul["sum"][1] / mul["sum"][0] if mul["sum"][0] else 0.0, "ratio"),
        "laurent.div.calls": (div["calls"], "count"),
        "laurent.div.self_s": (div["self_s"], "s"),
        "laurent.div.num_terms": (div["sum"][0], "count"),
        "laurent.div.quot_terms": (div["sum"][1], "count"),
        "laurent.add.self_s": (add["self_s"], "s"),
        "laurent.substitute.self_s": (fn("laurent.substitute")["self_s"], "s"),
        "laurent.max_terms": (max(mul["max"][1], div["max"][1], add["max"][0]), "count"),
        "exchange.mutate_matrix.calls": (matrix["calls"], "count"),
        "exchange.mutate_matrix.self_s": (matrix["self_s"], "s"),
        "exchange.density": (matrix["sum"][0] / matrix["sum"][1] if matrix["sum"][1] else 0.0, "ratio"),
        "exchange.arrows_at.self_s": (fn("exchange.arrows_at")["self_s"], "s"),
        "rigidpath.steps": (fn("rigidpath.run_path")["sum"][0], "count"),
        "euler.f_action.calls": (f_action["calls"], "count"),
        "euler.f_action.self_s": (f_action["self_s"], "s"),
        "euler.f_action.words_in": (f_action["sum"][0], "count"),
        "euler.f_action.words_out": (f_action["sum"][1], "count"),
        "euler.max_words": (f_action["max"][1], "count"),
        "mesh.r": (fn("mesh.build_category")["max"][0], "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (prof["covered_s"] / prof["job_s"] if prof["job_s"] else 0.0, "ratio"),
    })
    for name in ("cluster.mutate_seed", "cluster.mutate_dimvec", "cluster.mutate_delta_dimvec",
                 "cluster.initial_seed", "cluster.from_json", "rigidpath.run_path",
                 "rigidpath.det_identity", "rigidpath.make_schedule", "rigidpath.pbw_expand",
                 "euler.divided_f", "euler.evaluate_phi", "minors.minor",
                 "minors.one_param_product", "mesh.build_category"):
        metrics[f"{name}.self_s"] = (fn(name)["self_s"], "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "clusterknit" / "cli.py").is_file():
        print("error: run from the root of a clusterknit checkout (no src/clusterknit/cli.py)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench-work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    pins = workloads.load_pins()
    jobs = workloads.generate(args.workload, args.seed, workdir, pins)
    runner = Runner(root, workdir, pins)
    if args.trace:
        metrics, notes = per_layer(runner, args.workload, jobs)
    else:
        metrics, notes = end_to_end(runner, jobs, args.seconds)
    sentinel_ok = runner.sentinel(jobs[0])

    for line in notes:
        print(line)
    if runner.failures:
        print("failed jobs: " + ", ".join(runner.failures) + f" (stderr in {workdir / 'stderr.log'})")
    print(f"corrupted copy of {jobs[0].name}: " + ("rejected" if sentinel_ok else "NOT REJECTED"))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and sentinel_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
