"""Tests of the benchmark itself: seeded inputs, their validity, output checks, trace counts.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    data = workloads.render(workload, workloads.generate(workload, 5))
    assert data == workloads.render(workload, workloads.generate(workload, 5))
    assert data != workloads.render(workload, workloads.generate(workload, 6))
    # A fresh interpreter with another hash seed renders the same bytes.
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads as w; "
            f"print(w.digest(w.render({workload!r}, w.generate({workload!r}, 5))))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == workloads.digest(data)


def test_stored_reference_matches_generator():
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, workloads.DEFAULT_SEED)
        stored = workloads.load_reference(
            workload, workloads.DEFAULT_SEED, workloads.render(workload, jobs))
        assert len(stored) == len(jobs)


def _fills_dimension(request):
    r, n = request["r"], request["n"]
    parsed = workloads.parse_ins(request["ins"])
    in_range = all(i <= (r if kind == "chern" else n - r) for kind, i, _ in parsed)
    degree = sum(i * x for _, i, x in parsed)
    return in_range and degree == workloads._vdim(r, n, request["g"], request["d"])


@pytest.mark.parametrize("workload", ("large-sum", "genus0-sweep"))
def test_engine_workloads_are_valid(workload):
    for seed in (1, 2, 3):
        for job in workloads.generate(workload, seed):
            request = job["request"]
            assert job["invalid"] is None and "workers" not in request
            assert _fills_dimension(request), request
            if request["mode"] == "duality-check":
                assert all(kind == "chern" for kind, _, _ in workloads.parse_ins(request["ins"]))
    # Seeds change the insertions, not the multiplication plan of each job.
    plans = [[workloads.plan(job["request"]["ins"]) for job in workloads.generate(workload, seed)]
             for seed in (4, 5)]
    assert sorted(plans[0]) == sorted(plans[1])


def test_batch_requests_are_valid_or_refused_as_named(tmp_path):
    from quotcount import cli

    jobs = workloads.generate("batch-mixed", 3)
    assert {job["request"]["mode"] for job in jobs} == set(workloads.BATCH_MODES)
    refused = [job for job in jobs if job["invalid"]]
    assert len(refused) == round(len(jobs) * workloads.BATCH_INVALID_SHARE)
    assert {job["invalid"] for job in refused} == {workloads.DIMENSION, workloads.REGIME}
    path = tmp_path / "batch.jsonl"
    path.write_bytes(workloads.render("batch-mixed", jobs))
    out = io.StringIO()
    cli.run_batch(str(path), out=out)
    records = [json.loads(line) for line in out.getvalue().splitlines()][1:-1]
    assert len(records) == len(jobs)
    for job, record in zip(jobs, records):
        if job["invalid"]:
            assert record["error"]["type"] == job["invalid"], (job, record)
            assert record["error"]["exit"] == 2
        else:
            assert record["ok"], (job, record)


def test_checks_reject_wrong_outcomes():
    job = {"request": {"mode": "grassmannian"}, "invalid": None}
    good = {"ok": True, "is_integer": True, "value": {"exact": "3"}}
    assert workloads.check_record(job, {"value": "3"}, good)
    assert not workloads.check_record(job, {"value": "4"}, good)
    assert not workloads.check_record(job, {"value": "3"}, dict(good, is_integer=False))
    assert not workloads.check_record(job, {"value": "3"}, None)
    refusal = {"ok": False, "error": {"type": workloads.DIMENSION, "exit": 2}}
    assert workloads.check_record(job, {"error": workloads.DIMENSION}, refusal)
    assert not workloads.check_record(job, {"error": workloads.REGIME}, refusal)
    assert not workloads.check_record(job, {"error": workloads.DIMENSION}, good)


def test_traced_pass_repeats_counts_and_reports_every_layer(tmp_path):
    inputs = run.Inputs("batch-mixed", 5, tmp_path)
    inputs.jobs, inputs.expected = inputs.jobs[:300], inputs.expected[:300]
    inputs.batch.write_bytes(workloads.render("batch-mixed", inputs.jobs))
    first, _, failed_first = run.traced_run(inputs, {})
    second, _, failed_second = run.traced_run(inputs, {})
    assert failed_first == failed_second == 0
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in listed} == set(first)
