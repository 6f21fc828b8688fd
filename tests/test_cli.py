from __future__ import annotations

import io
import json
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
    PRESETS,
    JobRequest,
    _request_from_args,
    _request_from_record,
    build_parser,
    main,
    parse_insertions,
    run,
    run_batch,
    run_preset,
)
from quotcount.errors import DimensionMismatchError
from quotcount.symfunc import Monomial, chern
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
    with pytest.raises(ValueError):
        parse_insertions("a0:1")


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


def test_workers_do_not_change_output(capsys):
    records = []
    for workers in ("1", "4"):
        code, out = run_cli(
            capsys, "grassmannian", "--g", "0", "--d", "1", "--r", "2", "--n", "4",
            "--ins", "a1:8", "--format", "json", "--workers", workers,
        )
        assert code == EXIT_OK
        record = last_json(out)
        del record["stats"]
        records.append(record)
    assert records[0] == records[1]


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
        "message": "bad insertion 'a1:-1': index >= 1 and exponent >= 0 required"}
    summary = rows[-1]
    assert summary["records"] == 8
    assert summary["ok"] == 1
    assert summary["validation_errors"] == 7
    assert code == EXIT_VALIDATION


def test_batch_survives_unknown_insertion_kind(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text(
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "insertions": [["bogus", 1, 3]]}\n'
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
        '"insertions": [["chern", 2, -4], ["chern", 1, 3]]}',
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "insertions": [["chern", 1, 3.0]]}',
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


def test_run_refuses_unknown_path_and_variant_from_code():
    requests = [
        JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                   insertions=(("chern", 1, 4), ("chern", 2, 1)), path="bogus"),
        JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,), variant="nonsense"),
    ]
    for request, name in zip(requests, ("path", "variant")):
        result = run(request)
        record = result.to_dict()
        assert record["ok"] is False and "value" not in record and "paths" not in record
        assert record["error"]["type"] == "ValueError" and name in record["error"]["message"]
        assert record["error"]["exit"] == EXIT_VALIDATION


def test_run_refuses_mistyped_fields_from_code():
    base = dict(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 3),))
    cases = [
        (dict(workers="2"), "workers"), (dict(workers=None), "workers"), (dict(g="1"), "g"),
        (dict(n=3.0), "n"), (dict(r=True), "r"), (dict(multidegree=2), "multidegree"),
        (dict(insertions=(3,)), "insertions"), (dict(insertions=(("chern", 1, 3.0),)), "exponent"),
    ]
    for change, word in cases:
        record = run(JobRequest(**{**base, **change})).to_dict()
        assert record["ok"] is False and "value" not in record, change
        assert record["error"]["type"] == "ValueError" and word in record["error"]["message"], change
        assert record["error"]["exit"] == EXIT_VALIDATION
    assert run(JobRequest(**base)).value == 3


def test_duality_and_oracle_checks_pass_the_worker_bound_on(capsys, monkeypatch):
    from quotcount import vi_engine

    seen = []
    original = vi_engine.vi_integral

    def spy(spec, insertions, workers=1):
        seen.append(workers)
        return original(spec, insertions, workers)

    monkeypatch.setattr(vi_engine, "vi_integral", spy)
    for mode, g in (("duality-check", 1), ("oracle-check", 0)):
        code, out = run_cli(capsys, mode, "--g", str(g), "--d", "1", "--r", "2", "--n", "3",
                            "--ins", "a1:3" if g else "a1:5", "--workers", "3", "--format", "json")
        record = last_json(out)
        assert code == EXIT_OK and record[mode.split("-")[0]]["equal"] is True
    assert seen == [3, 3, 3]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_pool():
    import subprocess
    import sys

    code = ("import sys, quotcount.cli; print(sorted(set(sys.modules) & "
            "{'dataclasses', 'inspect', 'concurrent.futures'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        from_argv = _request_from_args(build_parser().parse_args(_argv(request)))
        # JSON turns the tuples into lists and None into null
        record = json.loads(json.dumps(request._asdict()))
        ins_record = {key: value for key, value in record.items() if key != "insertions"}
        ins_record["ins"] = _ins_text(request)
        assert from_argv == request, name
        assert _request_from_record(record) == request, name
        assert _request_from_record(ins_record) == request, name


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
    result = run(JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6, m2=0))
    assert result.ok is False
    assert result.error["type"] == "ZeroDivisionError"
    assert result.error["exit"] == EXIT_INTERNAL


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


def test_presets_all_reproduce_expected_values():
    for name in PRESETS:
        result, expected, matched = run_preset(name)
        assert result.ok, (name, result.error)
        assert matched, (name, expected, result.value)


def test_preset_cli_list_and_run(capsys):
    code, out = run_cli(capsys, "preset")
    assert code == EXIT_OK
    assert "lg24-g1-d2" in out
    code, out = run_cli(capsys, "preset", "lg24-g1-d2", "--format", "json")
    assert code == EXIT_OK
    record = last_json(out)
    assert record["matched"] is True and record["expected"] == "24"


def test_unknown_preset(capsys):
    code = main(["preset", "no-such-thing"])
    assert code == EXIT_VALIDATION


def test_run_request_directly():
    result = run(JobRequest(mode="grassmannian", g=0, d=0, r=2, n=4,
                            insertions=(("chern", 1, 4),)))
    assert result.ok and result.value == 2


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
     "ValueError", "hypersurface_integral expects exactly one section degree"),
    (JobRequest(mode="grassmannian", g=1, d=1, r=1, n=3, insertions=(("chern", 2, 2_500_000),)),
     "ValueError", "Chern insertion index 2 exceeds rank 1"),
    (JobRequest(mode="duality-check", g=1, d=1, r=3, n=3), "ValueError",
     "duality requires rank < n"),
    (JobRequest(mode="b-reduce", g=1, d=1, r=2, n=3, b_pairs=(2,)), "ValueError",
     "pair indices must lie in [1, g]"),
    # the closed forms take no insertions and expand none
    (JobRequest(mode="closed-form", g=0, d=1, r=1, multidegree=(2,)), None, None),
])
def test_a_huge_exponent_is_refused_before_it_is_expanded(request_, error, message):
    tracemalloc.start()
    try:
        record = run(request_._replace(insertions=request_.insertions or HUGE)).to_dict()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    if error is None:
        assert record["ok"] is True
    else:
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
def test_a_huge_monomial_is_refused_by_every_count_before_it_is_expanded(count, message):
    huge = Monomial(((chern(1), 5_000_000),))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError) as refused:
            count(huge)
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
    # the first records of the last two lines have no stats to split around
    rows = encoded_rows(buffer.getvalue())
    assert [row.get("error", {}).get("type") for row in rows[:3]] == [
        "DimensionMismatchError", "UnicodeDecodeError", "JSONDecodeError"]
    for first, again in zip(rows[:3], rows[3:6]):
        assert again["error"] == first["error"] and again["error"]["exit"] == EXIT_VALIDATION
        assert without_stats(again) == without_stats(first)
        assert again["stats"]["reused"] is True
    summary = rows[-1]
    assert (summary["records"], summary["validation_errors"]) == (6, 6)
    assert summary["stats"]["reused_records"] == 3
    assert code == EXIT_VALIDATION


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
