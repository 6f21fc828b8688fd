"""quotcount benchmark: seeded workloads run through the real CLI, outputs checked.

    python3 bench/run.py --workload large-sum --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload batch-mixed --seed 7 --seconds 30 --trace 1
    python3 bench/run.py --check [--seed 7]       # untimed: every workload once
    python3 bench/run.py --write-reference        # regenerate bench/reference.json

Run from the root of a source checkout; the program is imported from
./src.  A timed run (--trace 0) spawns `python -m quotcount` child
processes, one at a time, for --seconds and prints the end-to-end metrics.
A traced run (--trace 1) runs the same inputs in this process with
workers=1 and prints per-layer metrics.  Either way, the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import tracing
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

MIN_PASSES = 3
SETUP_REPEATS = 9
FRESH_REPEATS = 5
POOL_JOBS = 24
PROBE_ARGS = ["preset", "--all", "--format", "json"]
SETUP_ARGS = ["grassmannian", "--g", "1", "--d", "1", "--r", "2", "--n", "3", "--ins", "a1:3"]



def workers() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-u", "-m", "quotcount"] + args


class Spawned:
    """One child process: wall and CPU time, peak RSS, exit code, output lines with arrival times."""

    def __init__(self, argv: list[str]):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)
        fd = proc.stdout.fileno()
        chunks, self.arrivals = [], []
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            now = time.perf_counter()
            chunks.append(chunk)
            self.arrivals.extend([now - started] * chunk.count(b"\n"))
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - started
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.lines = b"".join(chunks).decode().splitlines()


def records(lines: list[str]) -> list[dict]:
    """Output lines as JSON records; a line that is not JSON becomes {} and fails its check."""
    out = []
    for line in lines:
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            out.append({})
    return out


# -- one workload's inputs --------------------------------------------------------

class Inputs:
    """Generated jobs, the files the program reads, and their expected outcomes."""

    def __init__(self, workload: str, seed: int, directory: Path, use_stored: bool = True):
        self.workload = workload
        self.jobs = workloads.generate(workload, seed)
        self.data = workloads.render(workload, self.jobs)
        self.batch = directory / f"{workload}-{seed}.jsonl"
        self.batch.write_bytes(self.data)
        self.stored = workloads.load_reference(workload, seed, self.data) if use_stored else None
        self.expected = self.stored if self.stored is not None else workloads.reference(self.jobs)

    @property
    def subsets(self) -> int:
        """Sum of C(n, r) over the engine calls the valid jobs make."""
        total = 0
        for job in self.jobs:
            request = job["request"]
            if job["invalid"] or "n" not in request:
                continue
            total += comb(request["n"], request["r"]) * (2 if request["mode"] == "duality-check" else 1)
        return total


def pass_through_cli(inputs: Inputs, nworkers: int):
    """Run the workload once through child processes.

    Returns (wall_s, cpu_s, peak_rss_mb, job latencies in ms, failed jobs).
    """
    if inputs.workload == "large-sum":
        runs = [Spawned(cli_command(workloads.cli_args(job["request"], nworkers)))
                for job in inputs.jobs]
        failed = 0
        for job, expected, run in zip(inputs.jobs, inputs.expected, runs):
            out = records(run.lines)
            failed += not (run.code == 0 and out and workloads.check_record(job, expected, out[-1]))
        return (sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs),
                max(r.rss_mb for r in runs), [1000 * r.wall_s for r in runs], failed)
    run = Spawned(cli_command(["batch", str(inputs.batch)]))
    failed = workloads.check_batch(inputs.jobs, inputs.expected, records(run.lines), run.code)
    arrivals = run.arrivals[: len(inputs.jobs) + 1]
    latencies = [1000 * (b - a) for a, b in zip(arrivals, arrivals[1:])]
    return run.wall_s, run.cpu_s, run.rss_mb, latencies, failed


def pass_in_process(inputs: Inputs) -> int:
    """Run the workload once through quotcount.cli in this process, workers=1; failed jobs."""
    from quotcount import cli

    if inputs.workload == "large-sum":
        failed = 0
        for job, expected in zip(inputs.jobs, inputs.expected):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(workloads.cli_args(job["request"], 1))
            got = records(out.getvalue().splitlines())
            failed += not (code == 0 and got and workloads.check_record(job, expected, got[-1]))
        return failed
    out = io.StringIO()
    code = cli.run_batch(str(inputs.batch), out=out)
    return workloads.check_batch(inputs.jobs, inputs.expected,
                                 records(out.getvalue().splitlines()), code)


def probe_in_process() -> int:
    """Every preset once, so that each layer has spans on every workload; 1 if any is wrong."""
    from quotcount import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(PROBE_ARGS)
    got = records(out.getvalue().splitlines())
    return int(code != 0 or not got or not all(r.get("matched") for r in got))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(repeats: int) -> tuple[float, int]:
    """Median wall time of a fresh one-off CLI call, and how many calls went wrong."""
    times, bad = [], 0
    for _ in range(repeats):
        run = Spawned(cli_command(SETUP_ARGS + ["--workers", str(workers())]))
        bad += run.code != 0 or not any("value = 3" in line for line in run.lines)
        times.append(run.wall_s)
    return statistics.median(times), bad


def fresh_seconds(code: str) -> float:
    return statistics.median(
        Spawned([sys.executable, "-c", code]).wall_s for _ in range(FRESH_REPEATS))


# -- modes --------------------------------------------------------------------------

def timed_run(inputs: Inputs, seconds: float, report: dict) -> tuple[dict, int, int]:
    nworkers = workers()
    setup_seconds(1)  # compiles the bytecode and warms the file cache
    setup_s, setup_bad = setup_seconds(SETUP_REPEATS)
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(pass_through_cli(inputs, nworkers))
    walls, cpus, rsss, latencies, fails = zip(*passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "job_p50_ms": statistics.median(statistics.median(lat) for lat in latencies),
        "setup_s": setup_s,
    }
    jobs = len(inputs.jobs)
    # Higher percentiles only where a pass has at least ten jobs beyond them.
    for q in (90, 99):
        if jobs * (100 - q) >= 1000:
            report[f"job_p{q}_ms"] = statistics.median(percentile(lat, q) for lat in latencies)
    attempted = jobs * len(passes) + SETUP_REPEATS
    failed = sum(fails) + setup_bad
    report.update(passes=len(passes), latency_samples=sum(len(lat) for lat in latencies))
    return metrics, attempted, failed


def traced_run(inputs: Inputs, report: dict) -> tuple[dict, int, int]:
    from quotcount import vi_engine

    nworkers = workers()
    interpreter_s = fresh_seconds("pass")
    import_s = fresh_seconds("import quotcount.cli")

    def in_process() -> int:
        return probe_in_process() + pass_in_process(inputs)

    tracing.clear_caches()
    started = time.perf_counter()
    failed = in_process()
    untraced_s = time.perf_counter() - started

    tracer = tracing.Tracer()
    tracing.clear_caches()
    tracer.install()
    try:
        started = time.perf_counter()
        failed += in_process()
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, traced_s, untraced_s)

    # Pool pass: each engine job serially, then at the workload's worker count.
    engine_jobs = [job["request"] for job in inputs.jobs
                   if job["request"]["mode"] == "grassmannian" and not job["invalid"]]
    if inputs.workload == "batch-mixed":
        engine_jobs = engine_jobs[:POOL_JOBS]
    serial_s = 0.0
    pool = tracing.Tracer()
    for request in engine_jobs:
        spec, insertions = workloads._engine_args(request)
        started = time.perf_counter()
        serial = vi_engine.vi_integral(spec, insertions).value
        serial_s += time.perf_counter() - started
        pool.install({"pool"})
        try:
            parallel = vi_engine.vi_integral_parallel(spec, insertions, nworkers).value
        finally:
            pool.uninstall()
        failed += serial != parallel
    parallel_s = pool.layer("pool").outer_s
    metrics.update({
        "pool.calls": pool.layer("pool").calls,
        "pool.overhead_s": parallel_s - serial_s / nworkers,
        "pool.efficiency": serial_s / (nworkers * parallel_s),
        "setup.interpreter_s": interpreter_s,
        "setup.import_s": import_s - interpreter_s,
    })
    report.update(traced_s=traced_s, untraced_s=untraced_s, pool_jobs=len(engine_jobs))
    return metrics, 2 * (len(inputs.jobs) + 1) + len(engine_jobs), failed


def check_all(seed: int, directory: Path) -> bool:
    """Untimed: each workload once through the CLI, and every reference recomputed."""
    good = True
    for workload in WORKLOADS:
        inputs = Inputs(workload, seed, directory)
        recomputed = workloads.reference(inputs.jobs)
        agree = inputs.stored is None or recomputed == inputs.stored
        *_, failed = pass_through_cli(inputs, workers())
        stored = ("no stored reference for this seed" if inputs.stored is None
                  else f"stored reference {'agrees' if agree else 'DIFFERS'}")
        print(f"{workload}: {len(inputs.jobs)} jobs, {failed} failed, {stored}")
        good = good and agree and failed == 0
    return good


def write_reference(directory: Path) -> None:
    """Store the default seed's expected values, each cross-checked by the CLI route."""
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        inputs = Inputs(workload, workloads.DEFAULT_SEED, directory, use_stored=False)
        failed = pass_in_process(inputs)
        if failed:
            raise SystemExit(f"{workload}: {failed} jobs disagree between the CLI and the "
                             "independent route; reference not written")
        out["workloads"][workload] = {"inputs_sha256": workloads.digest(inputs.data),
                                      "expected": inputs.expected}
        print(f"{workload}: {len(inputs.jobs)} jobs cross-checked")
    workloads.REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


# -- run record -----------------------------------------------------------------------

def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_record(args, inputs: Inputs) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "workers": workers(),
        "python": platform.python_version(), "commit": commit(),
        "jobs": len(inputs.jobs), "subsets": inputs.subsets,
        "reference": "stored" if inputs.stored is not None else "independent routes",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="untimed output and reference check")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "quotcount" / "__init__.py").is_file():
        print(f"error: no quotcount source tree under {SRC}", file=sys.stderr)
        return 2
    if not (args.check or args.write_reference or args.workload):
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))

    directory = SCRATCH / f"{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            write_reference(directory)
            return 0
        if args.check:
            return 0 if check_all(args.seed, directory) else 1
        inputs = Inputs(args.workload, args.seed, directory)
        record = run_record(args, inputs)
        if args.trace:
            metrics, attempted, failed = traced_run(inputs, record)
        else:
            metrics, attempted, failed = timed_run(inputs, args.seconds, record)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        print(json.dumps({"run_record": record}, sort_keys=True))
        lines = [(name, value, units[name]) for name, value in sorted(metrics.items())]
        lines += [(name, record[name], "ms") for name in ("job_p90_ms", "job_p99_ms")
                  if name in record]
        lines.append(("failed_frac", failed / attempted, "ratio"))
        for name, value, unit in lines:
            print(f"  {name:34s} {value:>16.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


if __name__ == "__main__":
    sys.exit(main())
