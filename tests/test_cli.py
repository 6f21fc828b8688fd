from __future__ import annotations

import io
import json
import os
import pathlib
import re
import shlex
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quotcount import qh_oracle, twist, vi_engine
from quotcount.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    FIELDS,
    PRESETS,
    READERS,
    JobRequest,
    _request_from_argv,
    _request_from_record,
    main,
    parse_insertions,
    run,
    run_batch,
    run_preset,
)
from quotcount.errors import DimensionMismatchError
from quotcount.symfunc import Monomial, chern, monomial
from quotcount.twist import BClassWord, ProblemSpec
from quotcount.vi_engine import GrassmannSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    lines = [line for line in out.strip().splitlines() if line.strip()]
    return json.loads(lines[-1])


def test_parse_insertions():
    assert parse_insertions("a1:3,a2:1") == (("chern", 1, 3), ("chern", 2, 1))
    assert parse_insertions("s2:4") == (("segre", 2, 4),)
    assert parse_insertions("a3") == (("chern", 3, 1),)
    assert parse_insertions("") == ()
    with pytest.raises(ValueError):
        parse_insertions("b1:2")
    # the index and exponent ranges are run()'s to refuse, as for a triple
    assert parse_insertions("a0:1,a1:-1") == (("chern", 0, 1), ("chern", 1, -1))


def test_lagrangian_example(capsys):
    code, out = run_cli(
        capsys, "hypersurface", "--g", "1", "--d", "2", "--r", "2", "--n", "4",
        "--l", "1", "--ins", "a1:4,a2:1", "--format", "json", "--workers", "1",
        "--path", "both",
    )
    assert code == EXIT_OK
    record = last_json(out)
    assert record["value"]["exact"] == "24"
    assert record["is_integer"] is True
    assert record["paths"]["agree"] is True
    assert record["schema"] == "quotcount.result/1"


def test_closed_form_example(capsys):
    code, out = run_cli(
        capsys, "closed-form", "--g", "0", "--d", "2", "--r", "3", "--l", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert last_json(out)["value"]["exact"] == "32"


def test_dimension_mismatch_exit_code(capsys):
    # The degree-3 monomial a1*a2 does not fill the twisted dimension 6.
    code, out = run_cli(
        capsys, "hypersurface", "--g", "1", "--d", "2", "--r", "2", "--n", "4",
        "--l", "1", "--ins", "a1:1,a2:1", "--format", "json", "--workers", "1",
    )
    assert code == EXIT_VALIDATION
    record = last_json(out)
    assert record["ok"] is False
    assert record["error"]["type"] == "DimensionMismatchError"


def test_grassmannian_value_round_trip(capsys):
    code, out = run_cli(
        capsys, "grassmannian", "--g", "1", "--d", "1", "--r", "2", "--n", "3",
        "--ins", "a1:3", "--format", "json", "--workers", "1",
    )
    assert code == EXIT_OK
    record = last_json(out)
    assert record["value"] == {
        "exact": "3", "numerator": "3", "denominator": "1", "float_approx": 3.0,
    }
    assert record["stats"]["subsets"] == 3
    assert record["stats"]["summands"] == 1
    assert record["stats"]["workers"] == 1


def test_duality_mode(capsys):
    code, out = run_cli(
        capsys, "duality-check", "--g", "1", "--d", "1", "--r", "2", "--n", "3",
        "--ins", "a1:3", "--format", "json",
    )
    assert code == EXIT_OK
    assert last_json(out)["duality"]["equal"] is True


def test_oracle_mode(capsys):
    code, out = run_cli(
        capsys, "oracle-check", "--g", "0", "--d", "1", "--r", "2", "--n", "4",
        "--ins", "a1:8", "--format", "json", "--workers", "1",
    )
    assert code == EXIT_OK
    record = last_json(out)
    assert record["oracle"] == {"engine": "8", "oracle": "8", "equal": True}
    # the engine count's work, as a grassmannian record reports it
    stats = record["stats"]
    assert (stats["subsets"], stats["summands"], stats["workers"]) == (6, 2, 1)


def test_tevelev_mode(capsys):
    code, out = run_cli(
        capsys, "tevelev", "--g", "1", "--d", "2", "--r", "5", "--l", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    record = last_json(out)
    assert record["tevelev"]["point_count"] == "16"
    assert record["tevelev"]["implied_tevelev"] == "4"


def test_b_reduce_mode(capsys):
    code, out = run_cli(
        capsys, "b-reduce", "--g", "1", "--d", "1", "--r", "2", "--n", "3",
        "--pairs", "1", "--ins", "a1:2", "--format", "json", "--workers", "1",
    )
    assert code == EXIT_OK
    assert last_json(out)["value"]["exact"] == "1"


# One request per engine-backed mode.  Each of its sums (two for the duality
# check) runs over G(3,7) or G(4,7): 35 subsets and 2 affine-orbit
# representatives, neither of which contributes zero.
ENGINE_REQUESTS = {
    "grassmannian": JobRequest(mode="grassmannian", g=1, d=1, r=3, n=7, insertions=(("chern", 1, 7),)),
    "oracle-check": JobRequest(mode="oracle-check", g=0, d=1, r=3, n=7, insertions=(("chern", 1, 19),)),
    "hypersurface": JobRequest(mode="hypersurface", g=1, d=1, r=3, n=7, multidegree=(1,), path="both",
                               insertions=(("chern", 1, 6),)),
    "complete-intersection": JobRequest(mode="complete-intersection", g=0, d=1, r=3, n=7,
                                        multidegree=(1, 1), insertions=(("chern", 1, 15),)),
    "duality-check": JobRequest(mode="duality-check", g=1, d=1, r=3, n=7, insertions=(("chern", 1, 7),)),
    "b-reduce": JobRequest(mode="b-reduce", g=1, d=1, r=3, n=7, b_pairs=(1,), insertions=(("chern", 1, 6),)),
}
ONE_SUM = {"subsets": 35, "summands": 2, "workers": 1}


@pytest.mark.parametrize("request_, stats", [
    *(pytest.param(request_, ONE_SUM, id=mode) for mode, request_ in ENGINE_REQUESTS.items()
      if mode != "duality-check"),
    pytest.param(ENGINE_REQUESTS["duality-check"], {"subsets": 70, "summands": 4, "workers": 1},
                 id="duality-check"),
    pytest.param(JobRequest(mode="duality-check", g=1, d=1, r=2, n=4, insertions=(("chern", 1, 4),)),
                 {"subsets": 12, "summands": 4, "workers": 1}, id="duality-check-G(2,4)"),
    pytest.param(JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,)), {}, id="closed-form"),
    pytest.param(JobRequest(mode="tevelev", g=1, d=2, r=5, multidegree=(2,)), {}, id="tevelev"),
    pytest.param(JobRequest(mode="b-reduce", g=1, d=2, r=2, n=4, b_pairs=(1, 1),
                            insertions=(("chern", 1, 6),)), {}, id="b-reduce-vanishing"),
    pytest.param(JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 2),)),
                 {}, id="engine-refusal"),
    pytest.param(JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                            insertions=(("chern", 1, 5),)), {}, id="section-refusal"),
])
def test_a_records_stats_are_the_engines_work_and_its_seconds(request_, stats):
    # the engine writes subsets, summands and workers once per sum it runs;
    # a count it does not run (pure arithmetic, a vanishing or refused one) has none
    record = run(request_)
    assert record["stats"].pop("seconds") >= 0
    assert record["stats"] == stats



@pytest.mark.parametrize("mode", ENGINE_REQUESTS)
def test_every_engine_backed_record_carries_its_dims(mode):
    # an ok record and one refused for its insertion degree alike
    request_ = ENGINE_REQUESTS[mode]
    (kind, index, exponent), = request_.insertions
    ok, refused = run(request_), run(request_._replace(insertions=((kind, index, exponent + 1),)))
    assert ok["ok"] and ok["dims"]["insertion_degree"] == exponent
    assert refused["error"]["type"] == "DimensionMismatchError"
    assert refused["dims"]["insertion_degree"] == exponent + 1
    assert ok["dims"]["virtual_dim"] == refused["dims"]["virtual_dim"] == GrassmannSpec(
        request_.r, request_.n, request_.g, request_.d).virtual_dim

def test_workers_do_not_change_output(monkeypatch):
    # With one representative per process and two CPUs, workers=4 runs each
    # sum on a real 2-process pool; workers=1 runs it in-process.
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(vi_engine, "SUMMANDS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for mode, request_ in ENGINE_REQUESTS.items():
        vi_engine._certified_count.cache_clear()  # modes share plain integrals
        serial, pooled = (run(request_._replace(workers=workers)) for workers in (1, 4))
        assert (serial["stats"]["workers"], pooled["stats"]["workers"]) == (1, 2), mode
        assert serial["ok"] and without_stats(serial) == without_stats(pooled), mode
    assert pools == [2] * (len(ENGINE_REQUESTS) + 1)  # the duality check runs two sums


def test_a_refused_count_keeps_its_dims(tmp_path):
    # each runner writes its dims before the count that refuses the degree
    lines = [
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:2"}',
        '{"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4, "multidegree": [1], "ins": "a1:5"}',
        '{"mode": "complete-intersection", "g": 0, "d": 1, "r": 2, "n": 4, "multidegree": [1, 1], "ins": "a1:5"}',
        '{"mode": "b-reduce", "g": 1, "d": 1, "r": 2, "n": 3, "b_pairs": [1], "ins": "a1:3"}',
    ]
    code, rows = run_batch_lines(tmp_path, lines)
    assert code == EXIT_VALIDATION
    assert [row["error"]["type"] for row in rows[:-1]] == ["DimensionMismatchError"] * 4
    assert [row["dims"] for row in rows[:-1]] == [
        {"virtual_dim": 3, "insertion_degree": 2},
        {"virtual_dim": 8, "twisted_dim": 6, "insertion_degree": 5},
        {"virtual_dim": 8, "twisted_dim": 4, "insertion_degree": 5},
        {"virtual_dim": 3, "pairs": 1, "insertion_degree": 3},
    ]


def test_text_format(capsys):
    code, out = run_cli(
        capsys, "grassmannian", "--g", "1", "--d", "1", "--r", "2", "--n", "3",
        "--ins", "a1:3", "--workers", "1",
    )
    assert code == EXIT_OK
    assert "value = 3" in out


def test_batch_runs_all_records_despite_errors(tmp_path):
    lines = [
        {"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"},
        {"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4,
         "multidegree": [1], "ins": "a1:1,a2:1"},
        {"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4,
         "multidegree": [1], "ins": "a1:4,a2:1", "path": "both"},
        {"mode": "closed-form", "variant": "lg24", "g": 0, "d": 1, "m1": 6, "m2": 0},
    ]
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    rows = [json.loads(line) for line in buffer.getvalue().strip().splitlines()]
    summary = rows[-1]
    assert summary["summary"] is True
    assert summary["records"] == 4
    assert summary["ok"] == 3
    assert summary["validation_errors"] == 1
    assert summary["path_agreement"] == {"checked": 1, "agreed": 1, "pass": True}
    assert code == EXIT_VALIDATION  # one record failed validation
    values = [row.get("value", {}).get("exact") for row in rows[:-1]]
    assert values == ["3", None, "24", "8"]


def test_batch_tolerates_malformed_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        "not json at all\n"
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}\n'
        '{"mode": "grassmannian", "unknown_field": 1}\n'
        # JSON, but not an object
        '"abc"\n["mode"]\n5\nnull\n'
        # a known mode with a malformed field
        '{"mode": "grassmannian", "g": 0, "d": 0, "r": 2, "n": 4, "ins": "s9:1,a1:-1"}\n'
    )
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    rows = [json.loads(line) for line in buffer.getvalue().strip().splitlines()]
    assert [row["error"] for row in rows[3:7]] == [
        {"type": "ValueError", "message": f"a batch line must be a JSON object, got {kind}",
         "exit": EXIT_VALIDATION} for kind in ("str", "list", "int", "NoneType")]
    # a line that names a known mode keeps it in its record
    assert [row["mode"] for row in rows[:8]] == [None, "grassmannian", "grassmannian"] + [None] * 4 + [
        "grassmannian"]
    assert rows[7]["error"] == {
        "type": "ValueError", "exit": EXIT_VALIDATION,
        "message": "exponents must be nonnegative"}
    summary = rows[-1]
    assert summary["records"] == 8
    assert summary["ok"] == 1
    assert summary["validation_errors"] == 7
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("spelling", ["ins", "batch text", "batch triple"])
@pytest.mark.parametrize("text, triple, message", [
    ("a1:-1", ("chern", 1, -1), "exponents must be nonnegative"),
    ("a0:1", ("chern", 0, 1), "insertion index must be a positive integer"),
])
def test_an_insertion_out_of_range_is_one_error_record(capsys, tmp_path, spelling, text, triple, message):
    # Monomial and Insertion refuse the range in run(), whichever way the
    # insertion arrives: an error record with exit 2, not an argument error.
    base = {"mode": "grassmannian", "g": 0, "d": 0, "r": 2, "n": 4}
    if spelling == "ins":
        code, out = run_cli(capsys, "grassmannian", "--g", "0", "--d", "0", "--r", "2", "--n", "4",
                            "--ins", text, "--format", "json")
        record = last_json(out)
    else:
        path = tmp_path / "jobs.jsonl"
        path.write_text(json.dumps({**base, **({"ins": text} if spelling == "batch text"
                                               else {"ins": [list(triple)]})}) + "\n")
        buffer = io.StringIO()
        code = run_batch(str(path), out=buffer)
        record = json.loads(buffer.getvalue().splitlines()[0])
    assert code == EXIT_VALIDATION
    assert record["ok"] is False and record["mode"] == "grassmannian"
    assert record["error"] == {"type": "ValueError", "message": message, "exit": EXIT_VALIDATION}


def test_batch_survives_unknown_insertion_kind(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text(
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": [["bogus", 1, 3]]}\n'
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}\n'
    )
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    rows = [json.loads(line) for line in buffer.getvalue().strip().splitlines()]
    assert len(rows) == 3
    assert rows[0]["ok"] is False
    assert rows[0]["error"]["type"] == "ValueError"
    assert rows[0]["error"]["exit"] == EXIT_VALIDATION
    assert rows[1]["ok"] is True and rows[1]["value"]["exact"] == "3"
    assert rows[2]["summary"] is True
    assert rows[2]["records"] == 2 and rows[2]["ok"] == 1 and rows[2]["validation_errors"] == 1
    assert code == EXIT_VALIDATION


def encoded_rows(text):
    """The records of a batch's output, each checked to be written exactly as
    json.dumps with sorted keys writes it, reused records included."""
    rows = []
    for line in text.strip().splitlines():
        rows.append(json.loads(line))
        assert line == json.dumps(rows[-1], sort_keys=True)
    return rows


def run_batch_lines(tmp_path, lines):
    path = tmp_path / "jobs.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    return code, encoded_rows(buffer.getvalue())


def test_batch_refuses_non_integer_fields(tmp_path):
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    bad = [
        '{"mode": "grassmannian", "g": 1.7, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
        '{"mode": "grassmannian", "g": true, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": "3", "ins": "a1:3"}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, '
        '"ins": [["chern", 2, -4], ["chern", 1, 3]]}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": [["chern", 1, 3.0]]}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": [["chern", 1, -1]]}',
        '{"mode": "tevelev", "g": 1, "d": 2, "r": 5, "multidegree": [2.0]}',
        '{"mode": "closed-form", "variant": "lg24", "g": 0, "d": 1, "m1": 6, "m2": false}',
    ]
    code, rows = run_batch_lines(tmp_path, bad + [good])
    assert len(rows) == len(bad) + 2
    for row in rows[:len(bad)]:
        assert row["ok"] is False
        assert row["error"]["type"] == "ValueError"
        assert row["error"]["exit"] == EXIT_VALIDATION
    assert rows[-2]["ok"] is True and rows[-2]["value"]["exact"] == "3"
    summary = rows[-1]
    assert summary["summary"] is True
    assert summary["records"] == len(bad) + 1 and summary["validation_errors"] == len(bad)
    assert code == EXIT_VALIDATION


def test_a_batch_insertion_with_a_non_integer_exponent_is_one_error_record(tmp_path):
    line = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:x"}'
    code, rows = run_batch_lines(tmp_path, [line])
    assert code == EXIT_VALIDATION
    assert rows[0]["ok"] is False and rows[0]["mode"] == "grassmannian"
    assert rows[0]["error"] == {"type": "ValueError", "exit": EXIT_VALIDATION,
                                "message": "bad insertion 'a1:x': index and exponent must be integers"}


def test_blank_and_comment_batch_lines_are_skipped(tmp_path):
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    code, rows = run_batch_lines(tmp_path, ["", "   ", "# a comment", good, "\t# an indented comment", ""])
    assert code == EXIT_OK
    assert [row.get("summary", False) for row in rows] == [False, True]
    assert rows[0]["value"]["exact"] == "3"
    assert rows[1]["records"] == 1 and rows[1]["ok"] == 1


def test_a_negative_twisted_dimension_is_refused_by_both_section_routes(capsys):
    # P^2 cut by two quadrics at g = 1, d = 1 has twisted dimension -1: the
    # closed form once printed -16 for it.
    for argv, message in (
        (("closed-form", "--variant", "projective"), "twisted virtual dimension is -1, below zero"),
        (("complete-intersection", "--n", "3"), "twisted virtual dimension is -1, but the insertion degree is 0"),
    ):
        code, out = run_cli(capsys, *argv, "--g", "1", "--d", "1", "--r", "2", "--l", "2,2", "--format", "json")
        assert code == EXIT_VALIDATION
        assert last_json(out)["error"] == {"type": "DimensionMismatchError", "message": message,
                                           "exit": EXIT_VALIDATION}


def test_a_count_too_long_to_print_is_a_record_of_its_own(tmp_path, capsys):
    # 2^20002 has more digits than str() converts; r = -3 is no projective space.
    huge = '{"mode": "closed-form", "variant": "projective", "g": 0, "d": 10000, "r": 3, "multidegree": [2]}'
    negative_rank = '{"mode": "closed-form", "variant": "projective", "g": 1, "d": 1, "r": -3, "multidegree": [1]}'
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    code, rows = run_batch_lines(tmp_path, [huge, negative_rank, good])
    assert len(rows) == 4
    for row in rows[:2]:
        assert row["ok"] is False and row["error"]["type"] == "ValueError"
        assert row["error"]["exit"] == EXIT_VALIDATION
    assert rows[2]["ok"] is True and rows[2]["value"]["exact"] == "3"
    assert rows[3]["summary"] is True and rows[3]["records"] == 3
    assert code == EXIT_VALIDATION
    code, out = run_cli(capsys, "closed-form", "--g", "0", "--d", "10000", "--r", "3", "--l", "2")
    assert code == EXIT_VALIDATION and "ValueError" in out


def test_cli_refuses_fewer_than_one_worker(capsys):
    for workers in ("0", "-5"):
        code, out = run_cli(
            capsys, "grassmannian", "--g", "1", "--d", "1", "--r", "2", "--n", "3",
            "--ins", "a1:3", "--format", "json", "--workers", workers,
        )
        assert code == EXIT_VALIDATION
        record = last_json(out)
        assert record["ok"] is False and record["mode"] == "grassmannian"
        assert record["error"] == {
            "type": "ValueError", "message": "workers must be a positive integer",
            "exit": EXIT_VALIDATION,
        }


def test_batch_refuses_bad_workers_path_and_variant(tmp_path):
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    bad = [
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3", "workers": 0}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3", "workers": -5}',
        '{"mode": "closed-form", "g": 0, "d": 1, "r": 1, "multidegree": [2], "workers": 0}',
        '{"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4, "multidegree": [1], '
        '"ins": "a1:4,a2:1", "path": "bogus"}',
        '{"mode": "closed-form", "variant": "nonsense", "g": 0, "d": 1, "r": 1, "multidegree": [2]}',
        '{"mode": "closed-form", "variant": null, "g": 0, "d": 1, "r": 1, "multidegree": [2]}',
    ]
    code, rows = run_batch_lines(tmp_path, bad + [good])
    assert len(rows) == len(bad) + 2
    for row in rows[:len(bad)]:
        assert row["ok"] is False and "value" not in row and "paths" not in row
        assert row["error"]["type"] == "ValueError"
        assert row["error"]["exit"] == EXIT_VALIDATION
    assert "path" in rows[3]["error"]["message"] and "variant" in rows[4]["error"]["message"]
    assert rows[-2]["ok"] is True and rows[-2]["value"]["exact"] == "3"
    summary = rows[-1]
    assert summary["summary"] is True
    assert summary["records"] == len(bad) + 1 and summary["validation_errors"] == len(bad)
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("field, message", [
    ('"ins": 5', "insertions is malformed: 5"),
    ('"ins": [5]', "insertions is malformed: [5]"),
    ('"multidegree": 1', "multidegree is malformed: 1"),
    ('"b_pairs": 1', "b_pairs is malformed: 1"),
    ('"ins": [[1, 2]]', "insertions is malformed: ((1, 2),)"),
])
def test_a_malformed_batch_field_is_a_value_error_that_names_it(tmp_path, field, message):
    line = '{"mode": "b-reduce", "g": 1, "d": 1, "r": 2, "n": 3, %s}' % field
    code, rows = run_batch_lines(tmp_path, [line])
    assert rows[0]["mode"] == "b-reduce" and rows[0]["ok"] is False
    assert rows[0]["error"] == {"type": "ValueError", "message": message, "exit": EXIT_VALIDATION}
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("request_", [
    JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
               insertions=(("chern", 1, 4), ("chern", 2, 1))),
    JobRequest(mode="hypersurface", g=0, d=2, r=3, n=4, multidegree=(2,), insertions=(("chern", 1, 6),)),
    JobRequest(mode="hypersurface", g=1, d=1, r=2, n=4, multidegree=(4,)),
    JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1, 1)),
    JobRequest(mode="hypersurface", g=2, d=1, r=2, n=4, multidegree=(1,)),
], ids=lambda request_: f"g{request_.g}d{request_.d}l{request_.multidegree}")
def test_the_hypersurface_paths_differ_only_in_value_and_paths_block(request_):
    records = {path: run(request_._replace(path=path)) for path in ("closed", "phi", "both")}
    for record in records.values():
        record.pop("stats")
    if records["closed"]["ok"]:
        assert records["phi"]["paths"] == records["both"].pop("paths")
        assert records["phi"].pop("paths")["closed"] == records["closed"]["value"]["exact"]
        for record in records.values():
            record.pop("value")
    assert records["closed"] == records["phi"] == records["both"]


def test_run_refuses_unknown_path_and_variant_from_code():
    requests = [
        JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                   insertions=(("chern", 1, 4), ("chern", 2, 1)), path="bogus"),
        JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,), variant="nonsense"),
    ]
    for request, name in zip(requests, ("path", "variant")):
        record = run(request)
        assert record["ok"] is False and "value" not in record and "paths" not in record
        assert record["error"]["type"] == "ValueError" and name in record["error"]["message"]
        assert record["error"]["exit"] == EXIT_VALIDATION



def test_run_refuses_an_unknown_mode_from_code():
    record = run(JobRequest(mode="nope"))
    assert record["ok"] is False and record["mode"] == "nope" and "value" not in record
    assert record["error"] == {"type": "ValueError", "message": "unknown mode 'nope'", "exit": EXIT_VALIDATION}


@pytest.mark.parametrize("request_, message", [
    (JobRequest(mode="grassmannian", g=1, d=1, r=2, insertions=(("chern", 1, 3),)),
     "mode grassmannian requires --n"),
    (JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, insertions=(("chern", 1, 6),)),
     "a section multidegree is required (--l)"),
    (JobRequest(mode="complete-intersection", g=0, d=1, r=4, n=5, insertions=(("chern", 1, 3),)),
     "a section multidegree is required (--l)"),
    (JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6), "closed-form lg24 requires --m1 and --m2"),
    (JobRequest(mode="closed-form", g=0, d=1, r=1), "closed-form projective requires --l"),
    (JobRequest(mode="tevelev", g=1, d=2, r=5, multidegree=(2, 2)),
     "tevelev requires a single section degree (--l)"),
    (JobRequest(mode="oracle-check", g=1, d=1, r=2, n=4, insertions=(("chern", 1, 8),)),
     "the combinatorial oracle is a genus-0 check"),
])
def test_a_runner_refuses_a_request_that_lacks_what_its_mode_needs(request_, message):
    record = run(request_)
    assert record["ok"] is False and "value" not in record
    assert record["error"] == {"type": "ValueError", "message": message, "exit": EXIT_VALIDATION}

def test_run_refuses_mistyped_fields_from_code():
    base = dict(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 3),))
    cases = [
        (dict(workers="2"), "workers"), (dict(workers=None), "workers"), (dict(g="1"), "g"),
        (dict(n=3.0), "n"), (dict(r=True), "r"), (dict(multidegree=2), "multidegree"),
        (dict(insertions=(3,)), "insertions"), (dict(insertions=(("chern", 1, 3.0),)), "exponent"),
        (dict(insertions=(("chern", 1),)), "insertions is malformed"),
        (dict(insertions=(("chern", 1, -1),)), "exponents must be nonnegative"),  # Monomial's refusal
    ]
    for change, word in cases:
        record = run(JobRequest(**{**base, **change}))
        assert record["ok"] is False and "value" not in record, change
        assert record["error"]["type"] == "ValueError" and word in record["error"]["message"], change
        assert record["error"]["exit"] == EXIT_VALIDATION
    assert run(JobRequest(**base))["value"]["exact"] == "3"


def test_duality_and_oracle_checks_pass_the_worker_bound_on(capsys, monkeypatch):
    from quotcount import vi_engine

    seen = []
    original = vi_engine.vi_integral

    def spy(spec, insertions, workers=1, stats=None):
        seen.append(workers)
        return original(spec, insertions, workers, stats)

    monkeypatch.setattr(vi_engine, "vi_integral", spy)
    for mode, g in (("duality-check", 1), ("oracle-check", 0)):
        code, out = run_cli(capsys, mode, "--g", str(g), "--d", "1", "--r", "2", "--n", "3",
                            "--ins", "a1:3" if g else "a1:5", "--workers", "3", "--format", "json")
        record = last_json(out)
        assert code == EXIT_OK and record[mode.split("-")[0]]["equal"] is True
    assert seen == [3, 3, 3]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_pool(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "jobs.jsonl"
    path.write_text('{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}\n' * 2)
    # argparse and the gettext it imports cost about 10 ms of every start
    code = ("import sys, quotcount.cli as cli; "
            "cli.main(['grassmannian', '--g', '1', '--d', '1', '--r', '2', '--n', '3', '--ins', 'a1:3']); "
            f"cli.main(['batch', {str(path)!r}]); "
            "print(sorted(set(sys.modules) & "
            "{'dataclasses', 'inspect', 'concurrent.futures', 'argparse', 'gettext'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "value = 3" in proc.stdout and '"reused_records": 1' in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_batch_survives_a_deeply_nested_line(tmp_path):
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    code, rows = run_batch_lines(tmp_path, ["[" * 10_000 + "]" * 10_000, good])
    assert len(rows) == 3
    assert rows[0]["ok"] is False and rows[0]["mode"] is None
    assert rows[0]["error"]["type"] == "RecursionError"
    assert rows[0]["error"]["exit"] == EXIT_VALIDATION
    assert rows[1]["ok"] is True and rows[1]["value"]["exact"] == "3"
    assert rows[2]["summary"] is True
    assert rows[2]["records"] == 2 and rows[2]["ok"] == 1 and rows[2]["validation_errors"] == 1
    assert code == EXIT_VALIDATION


def test_batch_survives_a_line_that_is_not_utf8(tmp_path, capsys):
    good = b'{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}\n'
    path = tmp_path / "latin1.jsonl"
    # a bad byte first, and one deep in the file; CR alone also ends a line
    path.write_bytes(b"\xff\n" + good * 300 + b'{"mode": "caf\xe9"}\n' + good * 2 + good.strip() + b"\r"
                     + good.strip() + b"\r\n")
    code, out = run_cli(capsys, "batch", str(path))
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 307 and rows[-1]["records"] == 306
    bad = [i for i, row in enumerate(rows[:-1]) if not row["ok"]]
    assert bad == [0, 301]
    for i in bad:
        assert rows[i]["mode"] is None and rows[i]["error"]["type"] == "UnicodeDecodeError"
        assert rows[i]["error"]["exit"] == EXIT_VALIDATION
    assert rows[-1]["ok"] == 304 and rows[-1]["validation_errors"] == 2
    assert code == EXIT_VALIDATION


def test_batch_refuses_a_path_it_cannot_read(tmp_path, capsys):
    for path in (tmp_path / "missing.jsonl", tmp_path):
        assert main(["batch", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("argument error: ")


def test_batch_returns_the_worst_exit_code(tmp_path, monkeypatch):
    from quotcount import twist

    def broken(*args):
        raise ZeroDivisionError("Fraction(1, 0)")

    monkeypatch.setattr(twist, "closed_form_lg24", broken)
    code, rows = run_batch_lines(tmp_path, [
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
        '{"mode": "closed-form", "variant": "lg24", "g": 0, "d": 1, "m1": 6, "m2": 0}',
        "not json",
    ])
    assert [row.get("error", {}).get("exit") for row in rows[:-1]] == [None, EXIT_INTERNAL, EXIT_VALIDATION]
    summary = rows[-1]
    assert (summary["records"], summary["ok"], summary["validation_errors"],
            summary["internal_errors"]) == (3, 1, 1, 1)
    assert code == EXIT_INTERNAL


def _ins_text(request):
    return ",".join(f"{'a' if kind == 'chern' else 's'}{i}:{e}" for kind, i, e in request.insertions)


def _batch_record(request):
    """A request as a batch line's object, every field written: JSON turns
    the tuples into lists and None into null, and `ins` holds triples."""
    record = json.loads(json.dumps(request._asdict()))
    record["ins"] = record.pop("insertions")
    return record


def _argv(request):
    """A preset request spelled as command-line arguments, by hand."""
    argv = [request.mode, "--g", str(request.g), "--d", str(request.d), "--r", str(request.r),
            "--workers", str(request.workers), "--path", request.path]
    if request.n is not None:
        argv += ["--n", str(request.n)]
    if request.multidegree:
        argv += ["--l", ",".join(map(str, request.multidegree))]
    if request.insertions:
        argv += ["--ins", _ins_text(request)]
    if request.mode == "closed-form":
        argv += ["--variant", request.variant]
        for name in ("m1", "m2"):
            if getattr(request, name) is not None:
                argv += [f"--{name}", str(getattr(request, name))]
    if request.b_pairs:
        argv += ["--pairs", ",".join(map(str, request.b_pairs))]
    if request.t is not None:
        argv += ["--t", str(request.t)]
    return argv


def test_presets_parse_alike_from_argv_and_batch_records():
    from quotcount.cli import MODES

    assert {request.mode for _, request, _ in PRESETS.values()} == set(MODES)
    for name, (_, request, _) in PRESETS.items():
        mode, *words = _argv(request)
        from_argv, fmt = _request_from_argv(mode, words)
        assert fmt == "text"
        record = _batch_record(request)
        assert from_argv == request, name
        assert _request_from_record(record) == request, name
        assert _request_from_record({**record, "ins": _ins_text(request)}) == request, name


def test_every_writer_writes_the_same_record(tmp_path, capsys):
    for name, (_, request, expected) in PRESETS.items():
        assert main([*_argv(request), "--format", "json"]) == EXIT_OK
        single = last_json(capsys.readouterr().out)
        code, rows = run_batch_lines(tmp_path, [json.dumps(_batch_record(request))])
        assert code == EXIT_OK
        assert main(["preset", name, "--format", "json"]) == EXIT_OK
        preset = last_json(capsys.readouterr().out)
        assert (preset.pop("preset"), preset.pop("expected"), preset.pop("matched")) == (name, expected, True)
        assert without_stats(single) == without_stats(rows[0]) == without_stats(preset), name


GRASSMANN_ADVISORY = ("enumerative-if-weakly-convex (Grassmannian target: virtual counts agree with "
                      "actual map counts for all sufficiently large d (classical weak convexity of "
                      "the Grassmannian))")
SECTION_ADVISORY = ("enumerative-if-weakly-convex (conditional on weak convexity of the section and "
                    "on d being sufficiently large; neither hypothesis can be checked numerically)")
TEXT_RECORDS = {
    "p2-elliptic-3pt": ["grassmannian: value = 3", GRASSMANN_ADVISORY,
                        'dims: {"insertion_degree": 3, "virtual_dim": 3}'],
    "g24-euler": ["grassmannian: value = 6", GRASSMANN_ADVISORY,
                  'dims: {"insertion_degree": 0, "virtual_dim": 0}'],
    "g24-lines-8pt": ["oracle-check: value = 8", GRASSMANN_ADVISORY,
                      'dims: {"insertion_degree": 8, "virtual_dim": 8}',
                      'oracle: {"engine": "8", "equal": true, "oracle": "8"}'],
    "lg24-g1-d2": ["hypersurface: value = 24", SECTION_ADVISORY,
                   'dims: {"insertion_degree": 6, "twisted_dim": 6, "virtual_dim": 8}',
                   'paths: {"agree": true, "closed": "24", "phi_expansion": "24"}'],
    "lg24-g0-d1-hyperplanes": ["closed-form: value = 8", SECTION_ADVISORY],
    "lg24-g0-d1-points": ["closed-form: value = 1", SECTION_ADVISORY],
    "p3-quadric-g0-d2": ["hypersurface: value = 32", SECTION_ADVISORY,
                         'dims: {"insertion_degree": 6, "twisted_dim": 6, "virtual_dim": 11}',
                         'paths: {"agree": true, "closed": "32", "phi_expansion": "32"}'],
    "p4-ci22-g0-d1": ["complete-intersection: value = 64", SECTION_ADVISORY,
                      'dims: {"insertion_degree": 3, "twisted_dim": 3, "virtual_dim": 9}'],
    "p2-duality-g1-d1": ["duality-check: value = 3", GRASSMANN_ADVISORY,
                         'dims: {"insertion_degree": 3, "virtual_dim": 3}',
                         'duality: {"chern_side": "3", "equal": true, "segre_side": "3"}'],
    "breduce-elliptic": ["b-reduce: value = 1",
                         "virtual-only (odd-cohomology insertions carry no enumerativity statement)",
                         'dims: {"insertion_degree": 2, "pairs": 1, "virtual_dim": 3}'],
    "tevelev-p5-quadric": ["tevelev: value = 16", SECTION_ADVISORY,
                           'tevelev: {"implied_tevelev": "4", "point_count": "16", "t": 2, '
                           '"tevelev_is_integer": true}'],
}


@pytest.mark.parametrize("name", PRESETS)
def test_the_text_format_of_each_preset(capsys, name):
    value, advisory, *blocks = TEXT_RECORDS[name]
    assert main([*_argv(PRESETS[name][1]), "--format", "text"]) == EXIT_OK
    *lines, stats = capsys.readouterr().out.splitlines()
    assert lines == [value, f"  advisory: {advisory}", *(f"  {block}" for block in blocks)]
    assert stats.startswith("  stats: {")


def test_the_text_format_of_a_refusal(capsys):
    # the record carries dims, but a refusal prints its error line only
    argv = ["hypersurface", "--g", "1", "--d", "2", "--r", "2", "--n", "4", "--l", "1",
            "--ins", "a1:5", "--path", "both", "--workers", "1"]
    assert main([*argv, "--format", "json"]) == EXIT_VALIDATION
    assert "dims" in last_json(capsys.readouterr().out)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines() == [
        "hypersurface: ERROR DimensionMismatchError: twisted virtual dimension is 6, "
        "but the insertion degree is 5"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["grassmannian", "--g", "1", "--help"]])
def test_help_names_every_mode_and_flag(capsys, argv):
    from quotcount.cli import FIELDS, MODES

    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: quotcount") and captured.err == ""
    words = set(re.findall(r"[\w-]+", captured.out))
    assert words >= {*MODES, "batch", "preset", "--format", "--all"}
    assert words >= {field.flag for field in FIELDS.values()}
    assert words >= {value for field in FIELDS.values() for value in field.choices} == {
        "closed", "phi", "both", "projective", "lg24"}


@pytest.mark.parametrize("argv", [[], ["nosuchmode", "--g", "1"]])
def test_no_command_prints_usage_and_exits_2(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: quotcount")
    assert captured.err.strip().splitlines()[-1].startswith("argument error: ")


GRASSMANNIAN_ARGV = ["grassmannian", "--g", "1", "--d", "1", "--r", "2", "--n", "3", "--ins", "a1:3"]


BAD_WORDS = [
    (GRASSMANNIAN_ARGV + ["--bogus", "1"], "unrecognized argument --bogus"),
    (GRASSMANNIAN_ARGV + ["--multidegree", "1"], "unrecognized argument --multidegree"),  # --l alone
    (GRASSMANNIAN_ARGV + ["--work", "1"], "unrecognized argument --work"),  # no abbreviations
    (GRASSMANNIAN_ARGV + ["extra"], "unrecognized arguments: extra"),
    (["grassmannian", "--d", "1", "--r", "2", "--n", "3", "--ins", "a1:3", "--g"], "--g expects a value"),
    (["grassmannian", "--g", "--d", "1", "--r", "2", "--n", "3", "--ins", "a1:3"], "--g expects a value"),
    (["grassmannian", "--g", "x", "--d", "1", "--r", "2", "--n", "3", "--ins", "a1:3"],
     "invalid g value: 'x'"),
    (["closed-form", "--g", "0", "--d", "2", "--r", "3", "--l", "2,x"], "invalid multidegree value: '2,x'"),
    (GRASSMANNIAN_ARGV + ["--ins", "b1:3"], "bad insertion 'b1:3': expected a<i>[:exp] or s<i>[:exp]"),
    (GRASSMANNIAN_ARGV + ["--format", "xml"], "--format must be json or text, got 'xml'"),
    (["preset", "--format=xml"], "--format must be json or text, got 'xml'"),
    (["preset", "lg24-g1-d2", "another"], "preset takes one NAME or --all"),
    (["preset", "p2-elliptic-3pt", "g24-euler"], "preset takes one NAME or --all"),  # both exist
    (["preset", "--all", "g24-euler"], "preset takes one NAME or --all"),
    (["preset", "no-such-thing"], "unknown preset 'no-such-thing'"),
    (["batch"], "batch takes one FILE"),
]


@pytest.mark.parametrize("argv, message", BAD_WORDS, ids=[" ".join(argv) for argv, _ in BAD_WORDS])
def test_bad_command_line_words_are_argument_errors(capsys, argv, message):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"argument error: {message}\n"


def test_flag_spellings_read_alike():
    spellings = [
        ["--g", "1", "--d", "2", "--r", "2", "--n", "4", "--l", "1", "--ins", "a1:4,a2:1"],
        ["--g=1", "--d=2", "--r=2", "--n=4", "--l=1", "--ins=a1:4,a2:1"],
        ["--n", "4", "--l", "1", "--ins", "a1:4,a2:1", "--r", "2", "--d", "2", "--g", "1"],
        # the last one given wins
        ["--g", "0", "--g", "1", "--d", "2", "--r", "2", "--n", "4", "--l", "3", "--l=1",
         "--ins", "a1:4,a2:1"],
    ]
    requests = {_request_from_argv("hypersurface", words) for words in spellings}
    assert len(requests) == 1
    request, fmt = requests.pop()
    assert fmt == "text" and request == JobRequest(
        mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
        insertions=(("chern", 1, 4), ("chern", 2, 1)), workers=request.workers)
    assert request.workers >= 1  # the command line defaults to the CPU count
    # only for the modes that read workers; run() checks a given value
    assert _request_from_argv("closed-form", ["--format", "json"]) == (JobRequest(mode="closed-form"), "json")
    assert _request_from_argv("closed-form", ["--workers=-3"]) == (JobRequest(mode="closed-form", workers=-3), "text")


@pytest.mark.parametrize("argv, line", [
    (["hypersurface", "--g", "1", "--d", "2", "--r", "2", "--n", "4", "--l", "1", "--ins", "a1:4,a2:1",
      "--path", "bogus"],
     '{"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4, "multidegree": [1], '
     '"ins": "a1:4,a2:1", "path": "bogus"}'),
    (["closed-form", "--variant", "nonsense", "--g", "0", "--d", "1", "--r", "1", "--l", "2"],
     '{"mode": "closed-form", "variant": "nonsense", "g": 0, "d": 1, "r": 1, "multidegree": [2]}'),
    # a flag of another mode: run() refuses it, as it refuses the batch key
    (GRASSMANNIAN_ARGV + ["--variant", "lg24"],
     '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3", "variant": "lg24"}'),
], ids=["path", "variant", "another mode's flag"])
def test_a_bad_choice_on_the_command_line_is_its_batch_lines_record(tmp_path, capsys, argv, line):
    code, out = run_cli(capsys, *argv, "--format", "json")
    _, rows = run_batch_lines(tmp_path, [line])
    assert code == EXIT_VALIDATION
    assert without_stats(last_json(out)) == without_stats(rows[0])
    assert rows[0]["error"]["type"] == "ValueError" and argv[-2][2:] in rows[0]["error"]["message"]


# One valid request per reader: a mode, or closed-form with its variant.
READER_REQUESTS = {
    **ENGINE_REQUESTS,
    "closed-form projective": JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,)),
    "closed-form lg24": JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6, m2=0),
    "tevelev": JobRequest(mode="tevelev", g=1, d=2, r=5, multidegree=(2,)),
}
# a well-typed value other than the default of each field some reader does not read
OTHER_VALUES = dict(r=2, n=4, multidegree=(2,), insertions=(("chern", 1, 1),), workers=2, path="both",
                    variant="lg24", b_pairs=(1,), t=1, m1=1, m2=1)
UNREAD = [(reader, name) for reader in READERS for name, field in FIELDS.items() if reader not in field.modes]


def _words(request):
    """A request's fields that differ from their defaults as command-line words, read off FIELDS."""
    words = [request.mode]
    for name, field in FIELDS.items():
        value = getattr(request, name)
        if value != field.default:
            text = (_ins_text(request) if name == "insertions"
                    else ",".join(map(str, value)) if isinstance(value, tuple) else str(value))
            words += [field.flag, text]
    return words


def test_each_reader_has_a_valid_request():
    assert set(READER_REQUESTS) == set(READERS)
    assert all(run(request_)["ok"] for request_ in READER_REQUESTS.values())


@pytest.mark.parametrize("reader, name", UNREAD, ids=map(" ".join, UNREAD))
def test_a_field_its_mode_does_not_read_is_refused(tmp_path, capsys, reader, name):
    # one rule in run(): code, command-line words and a batch line get one record
    request_ = READER_REQUESTS[reader]._replace(**{name: OTHER_VALUES[name]})
    code, out = run_cli(capsys, *_words(request_), "--format", "json")
    line = {"mode": request_.mode, **{field.key or key: getattr(request_, key)
                                      for key, field in FIELDS.items() if getattr(request_, key) != field.default}}
    batch_code, rows = run_batch_lines(tmp_path, [json.dumps(line)])
    assert code == batch_code == EXIT_VALIDATION
    expected = {"schema": "quotcount.result/1", "mode": request_.mode, "ok": False, "error": {
        "type": "ValueError", "message": f"mode {reader} does not read {name}", "exit": EXIT_VALIDATION}}
    for record in (run(request_), last_json(out), rows[0]):
        assert without_stats(record) == expected


def test_a_field_has_one_batch_key(tmp_path):
    line = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "insertions": [["chern", 1, 3]]}'
    code, rows = run_batch_lines(tmp_path, [line])
    assert code == EXIT_VALIDATION and rows[0]["error"] == {
        "type": "ValueError", "message": "unknown batch fields: ['insertions']", "exit": EXIT_VALIDATION}


def test_batch_tevelev_zero_degree_is_a_validation_error(tmp_path):
    code, rows = run_batch_lines(tmp_path, [
        '{"mode": "tevelev", "g": 1, "d": 2, "r": 5, "multidegree": [0]}',
        '{"mode": "closed-form", "variant": "projective", "g": -1, "d": 1, "r": 1, "multidegree": [2]}',
    ])
    assert len(rows) == 3
    for row in rows[:2]:
        assert row["ok"] is False
        assert row["error"]["type"] == "ValueError"
        assert row["error"]["exit"] == EXIT_VALIDATION
    assert rows[-1]["summary"] is True and rows[-1]["validation_errors"] == 2
    assert code == EXIT_VALIDATION


def test_division_by_zero_past_validation_is_internal(monkeypatch):
    from quotcount import twist

    def broken(*args):
        raise ZeroDivisionError("Fraction(1, 0)")

    monkeypatch.setattr(twist, "closed_form_lg24", broken)
    record = run(JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6, m2=0))
    assert record["ok"] is False
    assert record["error"]["type"] == "ZeroDivisionError"
    assert record["error"]["exit"] == EXIT_INTERNAL


small_values = st.one_of(
    st.integers(min_value=-2, max_value=5), st.booleans(), st.none(),
    st.floats(min_value=-2, max_value=5), st.sampled_from(["3", "", "x"]),
)
batch_records = st.dictionaries(
    st.sampled_from(["mode", "g", "d", "r", "n", "multidegree", "ins", "insertions",
                     "path", "variant", "b_pairs", "t", "m1", "m2", "bogus"]),
    st.one_of(
        small_values,
        st.sampled_from(["grassmannian", "hypersurface", "complete-intersection",
                         "closed-form", "duality-check", "b-reduce", "tevelev",
                         "oracle-check", "lg24", "both", "a1:3", "s2:1,a1:1", "a0"]),
        st.lists(small_values, max_size=3),
        st.lists(st.tuples(st.sampled_from(["chern", "segre", "x"]), small_values,
                           small_values), max_size=2),
    ),
)


def without_stats(row):
    return {key: value for key, value in row.items() if key != "stats"}


# a few distinct lines, then a batch drawn from them with repeats; the last
# fixed line names a field that reads like a record's stats
batch_lines = st.lists(st.one_of(batch_records.map(json.dumps), st.just("not json"),
                                 st.just(json.dumps({'"stats": {"seconds": 0.0}': 1}))),
                       min_size=1, max_size=4).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), max_size=8))


@given(batch_lines)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batch_fuzz_gives_one_record_per_line(tmp_path, lines):
    code, rows = run_batch_lines(tmp_path, lines)
    assert len(rows) == len(lines) + 1
    assert rows[-1]["summary"] is True and rows[-1]["records"] == len(lines)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INTERNAL)
    # a repeat is answered with its first occurrence's record, stats aside
    first = {}
    for line, row in zip(lines, rows):
        if line in first:
            assert without_stats(row) == without_stats(first[line])
            assert row["stats"]["reused"] is True and row["stats"]["seconds"] >= 0
        else:
            first[line] = row
            assert "reused" not in row.get("stats", {})
    assert rows[-1]["stats"]["reused_records"] == len(lines) - len(first)


def test_batch_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    assert code == EXIT_OK
    summary = json.loads(buffer.getvalue().strip().splitlines()[-1])
    assert summary["records"] == 0


def test_batch_duality_pairs(tmp_path):
    # insertion degrees fill e = d*n + r*(n-r)*(1-g) in each record
    lines = [
        {"mode": "duality-check", "g": 1, "d": 1, "r": 2, "n": 4, "ins": "a1:4"},
        {"mode": "duality-check", "g": 0, "d": 1, "r": 2, "n": 5, "ins": "a1:7,a2:2"},
        {"mode": "duality-check", "g": 2, "d": 2, "r": 3, "n": 6, "ins": "a3:1"},
    ]
    path = tmp_path / "duality.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    assert code == EXIT_OK
    rows = [json.loads(line) for line in buffer.getvalue().strip().splitlines()]
    assert all(row["duality"]["equal"] for row in rows[:-1])


def test_batch_lagrangian_grid_matches_closed_form(tmp_path):
    from quotcount.twist import closed_form_lg24

    lines = []
    expected = []
    for d in range(1, 5):
        for g in range(0, 3):
            if d <= 2 * g - 2:
                continue
            total = 3 * (d - g + 1)
            for m2 in range(total // 2 + 1):
                m1 = total - 2 * m2
                lines.append({
                    "mode": "hypersurface", "g": g, "d": d, "r": 2, "n": 4,
                    "multidegree": [1], "ins": f"a1:{m1},a2:{m2}", "path": "both",
                })
                expected.append(str(closed_form_lg24(g, d, m1, m2).as_integer()))
    path = tmp_path / "grid.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    assert code == EXIT_OK
    rows = [json.loads(line) for line in buffer.getvalue().strip().splitlines()]
    summary = rows.pop()
    assert summary["path_agreement"]["pass"] is True
    assert summary["ok"] == len(lines)
    assert [row["value"]["exact"] for row in rows] == expected


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "quotcount", "grassmannian", "--g", "1", "--d", "1",
         "--r", "2", "--n", "3", "--ins", "a1:3", "--format", "json", "--workers", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout.strip().splitlines()[-1])["value"]["exact"] == "3"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, language):
    """The lines of the first `language` code block after `heading` in README.md."""
    text = README.read_text()
    text = text[text.index(f"\n{heading}\n"):]
    start = text.index(f"```{language}\n") + len(language) + 4
    return text[start:text.index("```", start)].splitlines()


@pytest.mark.parametrize("line", _readme_block("## CLI", "sh"))
def test_each_readme_command_line_runs(capsys, line):
    program, *argv = shlex.split(line)
    assert program == "quotcount" and main(argv) == EXIT_OK


def test_the_readme_batch_runs(tmp_path):
    lines = _readme_block("### Batches", "json")
    code, rows = run_batch_lines(tmp_path, lines)
    assert len(lines) == rows[-1]["ok"] == 2 and code == EXIT_OK


def test_presets_all_reproduce_expected_values():
    for name in PRESETS:
        record, expected, matched = run_preset(name)
        assert record["ok"], (name, record.get("error"))
        assert matched, (name, expected, record["value"])


def test_preset_cli_list_and_run(capsys):
    code, out = run_cli(capsys, "preset")
    assert code == EXIT_OK
    assert "lg24-g1-d2" in out
    code, out = run_cli(capsys, "preset", "lg24-g1-d2", "--format", "json")
    assert code == EXIT_OK
    record = last_json(out)
    assert record["matched"] is True and record["expected"] == "24"
    code, out = run_cli(capsys, "preset", "p2-elliptic-3pt")
    assert code == EXIT_OK
    assert out == "p2-elliptic-3pt: value=3 expected=3 matched=True\n"


def test_run_request_directly():
    record = run(JobRequest(mode="grassmannian", g=0, d=0, r=2, n=4,
                            insertions=(("chern", 1, 4),)))
    assert record["ok"] and record["value"]["exact"] == "2"



def test_a_job_request_is_a_named_tuple_read_off_fields():
    import pickle

    from quotcount.cli import FIELDS

    assert JobRequest(mode="tevelev")._asdict() == {
        "mode": "tevelev", **{name: field.default for name, field in FIELDS.items()}}
    request_ = PRESETS["lg24-g1-d2"][1]
    assert pickle.loads(pickle.dumps(request_)) == request_ == tuple(request_)
    assert hash(request_._replace(g=1)) == hash(request_)

# a_1^5000000 would be a 40 MB insertion tuple; an exponent of 10^9 would ask
# for gigabytes if a change ever expanded it, so none is used here.
HUGE = (("chern", 1, 5_000_000),)


@pytest.mark.parametrize("request_, error, message", [
    (JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3), "DimensionMismatchError",
     "virtual dimension is 3, but the insertion degree is 5000000"),
    (JobRequest(mode="oracle-check", g=0, d=1, r=2, n=4), "DimensionMismatchError",
     "virtual dimension is 8, but the insertion degree is 5000000"),
    (JobRequest(mode="duality-check", g=1, d=1, r=2, n=3), "DimensionMismatchError",
     "virtual dimension is 3, but the insertion degree is 5000000"),
    (JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,), path="both"),
     "DimensionMismatchError", "twisted virtual dimension is 6, but the insertion degree is 5000000"),
    (JobRequest(mode="complete-intersection", g=0, d=1, r=4, n=5, multidegree=(2, 2)),
     "DimensionMismatchError", "twisted virtual dimension is 3, but the insertion degree is 5000000"),
    (JobRequest(mode="b-reduce", g=1, d=1, r=2, n=3, b_pairs=(1,)), "DimensionMismatchError",
     "virtual dimension minus 1 (the pair count) is 2, but the insertion degree is 5000000"),
    # the refusals a mode runs before its degree check still come first
    (JobRequest(mode="hypersurface", g=2, d=1, r=2, n=4, multidegree=(1,)),
     "RegimeViolationError", "need d*l > 2g-2"),
    (JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1, 1)),
     "ValueError", "a hypersurface has exactly one section degree, got (1, 1)"),
    (JobRequest(mode="grassmannian", g=1, d=1, r=1, n=3, insertions=(("chern", 2, 2_500_000),)),
     "ValueError", "Chern insertion index 2 exceeds rank 1"),
    (JobRequest(mode="duality-check", g=1, d=1, r=3, n=3), "ValueError",
     "duality requires rank < n"),
    (JobRequest(mode="b-reduce", g=1, d=1, r=2, n=3, b_pairs=(2,)), "ValueError",
     "pair indices must lie in [1, g]"),
    # the closed forms read no insertions and refuse them unexpanded
    (JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,)), "ValueError",
     "mode closed-form projective does not read insertions"),
])
def test_a_huge_exponent_is_refused_before_it_is_expanded(request_, error, message):
    tracemalloc.start()
    try:
        record = run(request_._replace(insertions=request_.insertions or HUGE))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert record["ok"] is False and record["error"]["type"] == error
    assert record["error"]["message"].startswith(message)
    assert record["error"]["exit"] == EXIT_VALIDATION


G23, G24 = GrassmannSpec(2, 3, 1, 1), GrassmannSpec(2, 4, 1, 2)


@pytest.mark.parametrize("count, message", [
    (lambda m: vi_engine.vi_integral(G23, m), "virtual dimension is 3"),
    (lambda m: vi_engine.vi_integral_parallel(G23, m, 2), "virtual dimension is 3"),
    (lambda m: vi_engine.vi_integral_orbit_reduced(G23, m), "virtual dimension is 3"),
    (lambda m: vi_engine.duality_check(G23, m), "virtual dimension is 3"),
    (lambda m: qh_oracle.fixed_domain_count_g0(2, 4, 1, m), "genus-0 virtual dimension is 8"),
    (lambda m: twist.hypersurface_integral(ProblemSpec(G24, (1,), m)), "twisted virtual dimension is 6"),
    (lambda m: twist.hypersurface_both_paths(ProblemSpec(G24, (1,), m)), "twisted virtual dimension is 6"),
    (lambda m: twist.complete_intersection_integral(ProblemSpec(GrassmannSpec(4, 5, 0, 1), (2, 2), m)),
     "twisted virtual dimension is 3"),
    (lambda m: twist.reduce_b_classes(BClassWord((1,), m), G23),
     "virtual dimension minus 1 (the pair count) is 2"),
])
@pytest.mark.parametrize("spelling", [
    lambda: Monomial(((chern(1), 5_000_000),)),
    lambda: monomial((chern(1), 5_000_000)),
], ids=["Monomial", "monomial"])
def test_a_huge_monomial_is_refused_by_every_count_before_it_is_expanded(count, message, spelling):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError) as refused:
            count(spelling())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert str(refused.value) == f"{message}, but the insertion degree is 5000000"


@pytest.mark.parametrize("request_, module, name", [
    (JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 3),)),
     vi_engine, "_validate"),
    (JobRequest(mode="oracle-check", g=0, d=1, r=2, n=4, insertions=(("chern", 1, 7),)),
     vi_engine, "_validate"),
    (JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                insertions=(("chern", 1, 4), ("chern", 2, 1)), path="both"), twist, "_check_section"),
    (JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                insertions=(("chern", 1, 5),)), twist, "_check_section"),
    (JobRequest(mode="complete-intersection", g=0, d=1, r=4, n=5, multidegree=(2, 2),
                insertions=(("chern", 1, 3),)), twist, "_check_section"),
    (JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6, m2=0), twist, "_check_section"),
])
def test_each_refusal_runs_once_per_request(monkeypatch, request_, module, name):
    calls = []
    check = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
    run(request_)
    assert len(calls) == 1


def test_a_batch_run_twice_gives_the_same_records(tmp_path):
    lines = [
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:4"}',
        '{"mode": "oracle-check", "g": 0, "d": 1, "r": 2, "n": 4, "ins": "a1:8"}',
        '{"mode": "duality-check", "g": 1, "d": 1, "r": 2, "n": 4, "ins": "a1:4"}',
        '{"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4, "multidegree": [1], '
        '"ins": "a1:4,a2:1", "path": "both"}',
        '{"mode": "complete-intersection", "g": 0, "d": 1, "r": 4, "n": 5, "multidegree": [2, 2], '
        '"ins": "a1:3"}',
        '{"mode": "b-reduce", "g": 1, "d": 1, "r": 2, "n": 3, "b_pairs": [1], "ins": "a1:2"}',
    ]
    runs = [run_batch_lines(tmp_path, lines) for _ in range(2)]
    memo = [rows[-1]["stats"]["engine_memo"] for _, rows in runs]
    # the first pass evaluates each distinct sum once, the second reads them all
    assert memo[0]["misses"] > 0
    assert memo[1] == {"hits": memo[0]["hits"] + memo[0]["misses"], "misses": 0}
    for _, rows in runs:
        for row in rows:
            row.pop("stats", None)
    assert runs[0] == runs[1]


def test_a_bool_after_the_same_int_is_still_refused(tmp_path):
    # JobRequest(g=True) == JobRequest(g=1): the batch keys on the line, not the request
    as_int = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    code, rows = run_batch_lines(tmp_path, [as_int, as_int.replace('"g": 1', '"g": true')])
    assert rows[0]["ok"] is True and rows[0]["value"]["exact"] == "3"
    assert rows[1]["ok"] is False and rows[1]["error"]["type"] == "ValueError"
    assert rows[1]["error"]["exit"] == EXIT_VALIDATION
    assert "reused" not in rows[1]["stats"]
    assert rows[-1]["stats"]["reused_records"] == 0
    assert code == EXIT_VALIDATION


def test_a_repeated_failure_is_the_same_error(tmp_path):
    refused = b'{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:4"}'
    not_utf8 = b'{"mode": "caf\xe9"}'
    path = tmp_path / "failures.jsonl"
    # surrounding ASCII whitespace is no part of the key
    path.write_bytes(b"\n".join([refused, not_utf8, b"not json", b"  " + refused + b"\t",
                                 not_utf8, b"not json "]) + b"\n")
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    rows = encoded_rows(buffer.getvalue())
    assert [row.get("error", {}).get("type") for row in rows[:3]] == [
        "DimensionMismatchError", "UnicodeDecodeError", "JSONDecodeError"]
    for first, again in zip(rows[:3], rows[3:6]):
        assert again["error"] == first["error"] and again["error"]["exit"] == EXIT_VALIDATION
        assert without_stats(again) == without_stats(first)
        # a line that is not a request is timed like any other
        assert set(first["stats"]) >= {"seconds"} and "reused" not in first["stats"]
        assert again["stats"]["reused"] is True and "seconds" in again["stats"]
    summary = rows[-1]
    assert (summary["records"], summary["validation_errors"]) == (6, 6)
    assert summary["stats"]["reused_records"] == 3
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("line", [
    '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
    '{"mode": "tevelev", "g": 1, "d": 2, "r": 5, "multidegree": [2]}',  # keys after stats
    "not json",  # stats.seconds alone
    json.dumps({'"stats": {"seconds": 0.0}': 1}),
], ids=["grassmannian", "tevelev", "not-json", "stats-field"])
def test_a_repeat_splices_its_rounded_seconds_into_the_first_records_text(tmp_path, monkeypatch, line):
    from quotcount import cli

    readings = []
    monkeypatch.setattr(cli.time, "perf_counter", lambda: readings.append(0.0) or 0.0)
    run_batch_lines(tmp_path, [line])  # the clock readings of a first evaluation
    durations = [0.0, 1e-7, 3e-6, 0.5]
    clock = iter(readings + [reading for seconds in durations for reading in (0.0, seconds)])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    code, rows = run_batch_lines(tmp_path, [line] * 5)  # encoded_rows checks every line's bytes
    assert next(clock, None) is None
    first = rows[0]
    assert "reused" not in first["stats"] and rows[-1]["stats"]["reused_records"] == 4
    for row, seconds in zip(rows[1:5], durations):
        assert row["stats"] == {**first["stats"], "reused": True, "seconds": round(seconds, 6)}
        assert without_stats(row) == without_stats(first)


def test_a_batch_record_times_its_whole_line(tmp_path, monkeypatch):
    from quotcount import cli

    clock = [100.0]
    read = cli._request_from_record

    def slow_read(record):
        clock[0] += 0.25
        return read(record)

    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(cli, "_request_from_record", slow_read)
    good = '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}'
    code, rows = run_batch_lines(tmp_path, [good, '{"mode": "nosuchmode"}', good])
    assert code == EXIT_VALIDATION
    # reading the request is inside an evaluated line's span, refused or not;
    # a repeat reads nothing
    assert [row["ok"] for row in rows[:3]] == [True, False, True]
    assert [row["stats"]["seconds"] for row in rows[:3]] == [0.25, 0.25, 0.0]


def test_a_full_record_memo_evaluates_new_lines_without_storing_them(tmp_path, monkeypatch):
    from quotcount import cli

    monkeypatch.setattr(cli, "RECORD_MEMO_SIZE", 2)
    lines = [
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
        '{"mode": "grassmannian", "g": 1, "d": 0, "r": 2, "n": 4}',
        '{"mode": "closed-form", "variant": "lg24", "g": 0, "d": 1, "m1": 6, "m2": 0}',
    ]
    code, rows = run_batch_lines(tmp_path, lines * 2)
    assert [row["value"]["exact"] for row in rows[:-1]] == ["3", "6", "8"] * 2
    assert [row["stats"].get("reused", False) for row in rows[:-1]] == [False] * 3 + [True, True, False]
    assert rows[-1]["stats"]["reused_records"] == 2
    assert code == EXIT_OK


def test_reuse_changes_no_record_and_no_count(tmp_path, monkeypatch):
    from quotcount import cli

    lines = [
        '{"mode": "hypersurface", "g": 1, "d": 2, "r": 2, "n": 4, "multidegree": [1], '
        '"ins": "a1:4,a2:1", "path": "both"}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:4"}',
        "not json",
        '{"mode": "oracle-check", "g": 0, "d": 1, "r": 2, "n": 4, "ins": "a1:8"}',
    ]
    batch = lines + lines[::-1] + lines
    reused = run_batch_lines(tmp_path, batch)
    monkeypatch.setattr(cli, "RECORD_MEMO_SIZE", 0)
    evaluated = run_batch_lines(tmp_path, batch)
    assert reused[0] == evaluated[0] == EXIT_VALIDATION
    assert [without_stats(row) for row in reused[1]] == [without_stats(row) for row in evaluated[1]]
    assert reused[1][-1]["stats"]["reused_records"] == len(batch) - len(lines)
    assert evaluated[1][-1]["stats"]["reused_records"] == 0
    assert reused[1][-1]["path_agreement"] == {"checked": 3, "agreed": 3, "pass": True}


def test_a_line_with_n_1200_does_not_end_its_batch(tmp_path):
    # necklaces of length 1200 once recursed past the interpreter's stack
    # limit, and with two ones once took half a minute to enumerate
    started = time.perf_counter()
    code, rows = run_batch_lines(tmp_path, [
        '{"mode": "grassmannian", "g": 1, "d": 0, "r": 1, "n": 1200}',
        '{"mode": "grassmannian", "g": 1, "d": 0, "r": 2, "n": 1200}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}',
    ])
    elapsed = time.perf_counter() - started
    assert [row["value"]["exact"] for row in rows[:-1]] == ["1200", "719400", "3"]
    assert rows[-1]["records"] == 3 and code == EXIT_OK
    assert elapsed < 2.0, elapsed
