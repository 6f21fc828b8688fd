"""Command-line front end: parse a counting job, run it, emit one record.

Insertions are written `a<i>:<exp>` (Chern) and `s<i>:<exp>` (Segre),
comma-separated; multidegrees are comma-separated integers.  Results are
line-delimited records carrying the exact value both as a lossless
string (integer, or `p/q` for a non-integer) and as numerator and
denominator, plus a clearly labeled float approximation.  Exit codes:
0 success, 2 validation error, 3 internal invariant breach.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Callable, Container, NamedTuple, Optional, Sequence

from . import qh_oracle, twist, vi_engine
from .errors import DimensionMismatchError, QuotcountError, RegimeViolationError
from .symfunc import CHERN, SEGRE, Insertion, Monomial
from .twist import BClassWord, ProblemSpec
from .vi_engine import GrassmannSpec, VirtualCount

SCHEMA = "quotcount.result/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

VALIDATION_ERRORS = (DimensionMismatchError, RegimeViolationError, ValueError)

# One encoder for every JSON line: json.dumps with sort_keys builds a new one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _value_fields(value: Fraction) -> dict:
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {
        "exact": str(value),
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "float_approx": approx,
    }


def _error(exc: BaseException, code: int) -> dict:
    return {"type": type(exc).__name__, "message": str(exc), "exit": code}


def parse_insertions(text: str) -> tuple[tuple[str, int, int], ...]:
    """Parse `a1:3,s2:1` into ((kind, index, exponent), ...)."""
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        head, _, exp_text = piece.partition(":")
        if len(head) < 2 or head[0] not in "as":
            raise ValueError(f"bad insertion {piece!r}: expected a<i>[:exp] or s<i>[:exp]")
        kind = CHERN if head[0] == "a" else SEGRE
        try:
            index = int(head[1:])
            exponent = int(exp_text) if exp_text else 1
        except ValueError:
            raise ValueError(f"bad insertion {piece!r}: index and exponent must be integers")
        out.append((kind, index, exponent))
    return tuple(out)


# -- one runner per mode ------------------------------------------------------
# A runner validates what its mode needs, writes the record's dims, its mode's
# report (paths, duality, oracle or tevelev) and stats, and returns the count
# whose value the record reports.  It hands the request's monomial to the
# counting function, which runs the refusals.

def _target(req: JobRequest, monomial: Monomial, record: dict, **extra) -> GrassmannSpec:
    """The request's G(r, n) problem; the record's dims start from it, so
    every engine-backed record carries them, a refused count's too."""
    if req.n is None:
        raise ValueError(f"mode {req.mode} requires --n")
    spec = GrassmannSpec(req.r, req.n, req.g, req.d)
    record["dims"] = {"virtual_dim": spec.virtual_dim, **extra, "insertion_degree": monomial.degree}
    return spec


def _grassmannian(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    return vi_engine.vi_integral(_target(req, monomial, record), monomial, req.workers, record["stats"])


def _section(req: JobRequest, monomial: Monomial, record: dict) -> ProblemSpec:
    base = _target(req, monomial, record)
    if not req.multidegree:
        raise ValueError("a section multidegree is required (--l)")
    problem = ProblemSpec(base, req.multidegree, monomial)
    record["dims"]["twisted_dim"] = problem.twisted_dim
    return problem


def _hypersurface(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    closed, phi, agree = twist.hypersurface_both_paths(
        _section(req, monomial, record), req.workers, record["stats"])
    if req.path != "closed":
        record["paths"] = {
            "closed": str(closed.value),
            "phi_expansion": str(phi.value),
            "agree": agree,
        }
    return phi if req.path == "phi" else closed


def _complete_intersection(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    return twist.complete_intersection_integral(
        _section(req, monomial, record), req.workers, record["stats"])


def _closed_form(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    if req.variant == "lg24":
        if req.m1 is None or req.m2 is None:
            raise ValueError("closed-form lg24 requires --m1 and --m2")
        return twist.closed_form_lg24(req.g, req.d, req.m1, req.m2)
    if not req.multidegree:
        raise ValueError("closed-form projective requires --l")
    return twist.closed_form_projective(req.g, req.d, req.r, req.multidegree)


def _duality_check(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    # the Chern side's target; the engine builds its Segre mirror
    report = vi_engine.duality_check(_target(req, monomial, record), monomial, req.workers, record["stats"])
    record["duality"] = {
        "chern_side": str(report.chern_side.value),
        "segre_side": str(report.segre_side.value),
        "equal": report.equal,
    }
    return report.chern_side


def _b_reduce(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    base = _target(req, monomial, record, pairs=len(req.b_pairs))
    return twist.reduce_b_classes(BClassWord(req.b_pairs, monomial), base, req.workers, record["stats"])


def _tevelev(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    if len(req.multidegree) != 1:
        raise ValueError("tevelev requires a single section degree (--l)")
    report = twist.tevelev_compare(req.g, req.d, req.r, req.multidegree[0], req.t)
    record["tevelev"] = {
        "point_count": str(report.point_count.value),
        "implied_tevelev": str(report.implied_tevelev),
        "tevelev_is_integer": report.tevelev_is_integer,
        "t": report.t,
    }
    return report.point_count


def _oracle_check(req: JobRequest, monomial: Monomial, record: dict) -> VirtualCount:
    if req.g != 0:
        raise ValueError("the combinatorial oracle is a genus-0 check")
    spec = _target(req, monomial, record)
    count = vi_engine.vi_integral(spec, monomial, req.workers, record["stats"])
    oracle_value = qh_oracle.fixed_domain_count_g0(req.r, spec.n, req.d, monomial)
    record["oracle"] = {
        "engine": str(count.value),
        "oracle": str(oracle_value),
        "equal": count.value == oracle_value,
    }
    return count


RUNNERS = {
    "grassmannian": _grassmannian,
    "hypersurface": _hypersurface,
    "complete-intersection": _complete_intersection,
    "closed-form": _closed_form,
    "duality-check": _duality_check,
    "b-reduce": _b_reduce,
    "tevelev": _tevelev,
    "oracle-check": _oracle_check,
}
MODES = tuple(RUNNERS)


# -- request fields -----------------------------------------------------------

class Field(NamedTuple):
    """One JobRequest field: its default, which modes read it and how it is
    spelled on the command line and in a batch."""

    flag: str
    modes: tuple[str, ...]  # the modes that read it; closed-form is named with its variant
    kind: str  # a key of _KINDS
    default: object
    help: str
    key: str = ""  # the batch key, when not the field name
    choices: tuple[str, ...] = ()  # the allowed values of a "choice" field


# What reads a request: its mode, or closed-form and its variant.  The six
# modes whose counts run the engine's root-of-unity sum read n, insertions
# and workers.
_SUM_MODES = ("grassmannian", "hypersurface", "complete-intersection", "duality-check", "b-reduce", "oracle-check")
_PROJECTIVE, _LG24 = "closed-form projective", "closed-form lg24"
READERS = (*_SUM_MODES, _PROJECTIVE, _LG24, "tevelev")

FIELDS = {
    "g": Field("--g", READERS, "int", 0, "domain curve genus"),
    "d": Field("--d", READERS, "int", 0, "map degree"),
    "r": Field("--r", (*_SUM_MODES, _PROJECTIVE, "tevelev"), "int", 1, "rank of the target G(r,n)"),
    "n": Field("--n", _SUM_MODES, "int", None, "ambient dimension of the target G(r,n)"),
    "multidegree": Field("--l", ("hypersurface", "complete-intersection", _PROJECTIVE, "tevelev"), "ints", (),
                         "section degrees, comma separated (e.g. 2 or 2,2)"),
    "insertions": Field("--ins", _SUM_MODES, "insertions", (),
                        "insertions, e.g. a1:3,a2:1 (Chern) or s2:4 (Segre)", "ins"),
    "workers": Field("--workers", _SUM_MODES, "int", 1,
                     "upper bound on the worker processes for the subset sum"),
    "path": Field("--path", ("hypersurface",), "choice", "closed", "hypersurface evaluation path",
                  choices=("closed", "phi", "both")),
    "variant": Field("--variant", (_PROJECTIVE, _LG24), "choice", "projective", "closed-form target",
                     choices=("projective", "lg24")),
    "b_pairs": Field("--pairs", ("b-reduce",), "ints", (),
                     "odd-class pair indices, comma separated (each j pairs j with j+g)"),
    "t": Field("--t", ("tevelev",), "int", None, "number of point conditions (derived when omitted)"),
    "m1": Field("--m1", (_LG24,), "int", None, "first-Chern exponent"),
    "m2": Field("--m2", (_LG24,), "int", None, "second-Chern exponent"),
}

# A counting job: its mode, then one value per FIELDS entry in FIELDS order.
JobRequest = namedtuple("JobRequest", ("mode", *FIELDS), defaults=[f.default for f in FIELDS.values()])


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(",")) if text.strip() else ()


def _strict_int(value: object, name: str) -> None:
    """Refuse bools, floats and strings instead of coercing them."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _strict_insertions(value: object, name: str) -> None:
    for insertion in value:
        if len(insertion) != 3:  # as len() of a non-sequence does; _check_fields names the field
            raise TypeError
        _, index, exponent = insertion
        # one test per insertion; the calls below name the defect it found
        if type(index) is not int or type(exponent) is not int:
            _strict_int(index, "insertion index")
            _strict_int(exponent, "insertion exponent")


def _choice(value: object, name: str) -> None:
    choices = FIELDS[name].choices
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


class Kind(NamedTuple):
    """What the fields of one kind do with a value."""

    check: Callable[[object, str], None]  # run() makes it once per request
    from_text: Callable[[str], object]  # command-line text to value
    from_json: Optional[Callable[[object], object]]  # batch value to the field's shape; None keeps it


# Insertions and choices stay text on the command line (_request_from_record
# parses insertions, run() checks a choice); ints and choices are taken from a
# batch as they are, and run() checks the types.
_KINDS = {
    "int": Kind(_strict_int, int, None),
    "ints": Kind(lambda value, name: [_strict_int(x, name) for x in value], _csv_ints, tuple),
    "insertions": Kind(_strict_insertions, str, lambda value: (
        parse_insertions(value) if isinstance(value, str) else tuple(map(tuple, value)))),
    "choice": Kind(_choice, str, None),
}
# (name, check, default, modes) of each JobRequest field after `mode`, in field order
_FIELD_CHECKS = tuple((name, _KINDS[f.kind].check, f.default, f.modes) for name, f in FIELDS.items())


def _check_fields(req: JobRequest) -> None:
    """Refuse a field whose value is not of its FIELDS kind, or that the
    request's mode (closed-form: with its variant) does not read and that
    differs from its default.  A field left at JobRequest's default (None
    included) is valid as it is."""
    reader = req.mode
    if reader == "closed-form":
        _choice(req.variant, "variant")  # before the variant names the reader
        reader = f"closed-form {req.variant}"
    for (name, check, default, modes), value in zip(_FIELD_CHECKS, req[1:]):
        if value is not default:
            try:
                check(value, name)
            except TypeError:  # not a sequence, or an insertion that is not a triple
                raise ValueError(f"{name} is malformed: {value!r}") from None
            if reader not in modes and value != default:
                raise ValueError(f"mode {reader} does not read {name}")


# batch key -> (field name, shape conversion or None), in FIELDS order
_BATCH_KEYS = {f.key or name: (name, _KINDS[f.kind].from_json) for name, f in FIELDS.items()}
_RECORD_KEYS = frozenset(_BATCH_KEYS) | {"mode"}


def _request_from_record(record: object) -> JobRequest:
    if not isinstance(record, dict):
        raise ValueError(f"a batch line must be a JSON object, got {type(record).__name__}")
    if not _RECORD_KEYS.issuperset(record):
        raise ValueError(f"unknown batch fields: {sorted(set(record) - _RECORD_KEYS)}")
    if "mode" not in record or record["mode"] not in MODES:
        raise ValueError(f"batch record needs a mode from {MODES}")
    values = {}
    for key, (name, convert) in _BATCH_KEYS.items():
        # absent fields keep JobRequest's defaults
        if key in record:
            try:
                values[name] = record[key] if convert is None else convert(record[key])
            except TypeError:  # not iterable, or an insertion that is not
                raise ValueError(f"{name} is malformed: {record[key]!r}") from None
    return JobRequest(mode=record["mode"], **values)


def _read_words(words: Sequence[str], flags: Container[str]) -> tuple[dict[str, str], list[str], str]:
    """({flag: value text}, the other words, the output format) of
    `--flag value` or `--flag=value` words, the last given winning; `flags`
    are the flags taken besides --format.  An unknown flag, a missing value
    or an unknown --format is a ValueError."""
    values, bare, rest = {}, [], iter(words)
    for word in rest:
        flag, eq, text = word.partition("=")
        if not word.startswith("--"):
            bare.append(word)
            continue
        if flag not in flags and flag != "--format":
            raise ValueError(f"unrecognized argument {flag}")
        if not eq:
            text = next(rest, "--")
            if text.startswith("--"):
                raise ValueError(f"{flag} expects a value")
        values[flag] = text
    fmt = values.pop("--format", "text")
    if fmt not in ("json", "text"):
        raise ValueError(f"--format must be json or text, got {fmt!r}")
    return values, bare, fmt


# flag -> (batch key, command-line reader), for every mode alike
_FLAGS = {f.flag: (f.key or name, _KINDS[f.kind].from_text) for name, f in FIELDS.items()}


def _request_from_argv(mode: str, words: Sequence[str]) -> tuple[JobRequest, str]:
    """A mode's words as a batch record, read by `_request_from_record`, and
    the output format.  An unknown flag or a number that is not an integer
    is a ValueError; run() checks the rest, a flag the mode does not read
    included."""
    values, bare, fmt = _read_words(words, _FLAGS)
    if bare:
        raise ValueError(f"unrecognized arguments: {' '.join(bare)}")
    record = {"mode": mode}
    if mode in FIELDS["workers"].modes:
        # One job from the command line may use every CPU; a request built
        # in code or read from a batch defaults to one worker.
        record["workers"] = os.cpu_count() or 1
    for flag, text in values.items():
        key, from_text = _FLAGS[flag]
        try:
            record[key] = from_text(text)
        except ValueError:
            raise ValueError(f"invalid {key} value: {text!r}") from None
    return _request_from_record(record), fmt


def run(req: JobRequest) -> dict:
    """Validate and dispatch a request; its result record, which every writer
    reads, is deterministic for every worker count outside `stats`."""
    record = {"schema": SCHEMA, "mode": req.mode, "ok": True, "stats": {}}
    started = time.perf_counter()
    try:
        if req.mode not in MODES:
            raise ValueError(f"unknown mode {req.mode!r}")
        _check_fields(req)
        if req.workers < 1:
            raise ValueError("workers must be a positive integer")
        # the product of the request's insertions; every mode refuses an
        # unknown kind, an index below 1 or a negative exponent here
        monomial = Monomial((Insertion(kind, i), x) for kind, i, x in req.insertions)
        count = RUNNERS[req.mode](req, monomial, record)
        # str() refuses a count too long to print with ValueError: a record of
        # its own, so the value is built before anything is written
        value = _value_fields(count.value)
        record.update(value=value, is_integer=count.is_integer, advisory={
            "status": count.advisory.status.value, "reason": count.advisory.reason})
    except (*VALIDATION_ERRORS, QuotcountError, ZeroDivisionError) as exc:
        # Any other package error, or an arithmetic fault past validation,
        # is an internal invariant breach, not a bad request.
        code = EXIT_VALIDATION if isinstance(exc, VALIDATION_ERRORS) else EXIT_INTERNAL
        record.update(ok=False, error=_error(exc, code))
    record["stats"]["seconds"] = round(time.perf_counter() - started, 6)
    return record


# -- presets ----------------------------------------------------------------

PRESETS: dict[str, tuple[str, JobRequest, str]] = {
    "p2-elliptic-3pt": (
        "genus-1 degree-1 maps to the projective plane through 3 lines",
        JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3,
                   insertions=((CHERN, 1, 3),)),
        "3",
    ),
    "g24-euler": (
        "genus-1 degree-0 integral over G(2,4): its topological Euler number",
        JobRequest(mode="grassmannian", g=1, d=0, r=2, n=4),
        "6",
    ),
    "g24-lines-8pt": (
        "rational degree-1 maps to G(2,4) through 8 hyperplane cycles, "
        "checked against the quantum-ring oracle",
        JobRequest(mode="oracle-check", g=0, d=1, r=2, n=4,
                   insertions=((CHERN, 1, 8),)),
        "8",
    ),
    "lg24-g1-d2": (
        "genus-1 degree-2 maps to the Lagrangian section of G(2,4), "
        "mixed first/second Chern conditions",
        JobRequest(mode="hypersurface", g=1, d=2, r=2, n=4, multidegree=(1,),
                   insertions=((CHERN, 1, 4), (CHERN, 2, 1)), path="both"),
        "24",
    ),
    "lg24-g0-d1-hyperplanes": (
        "rational degree-1 maps to the Lagrangian section of G(2,4) "
        "through 6 hyperplane cycles",
        JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=6, m2=0),
        "8",
    ),
    "lg24-g0-d1-points": (
        "rational degree-1 maps to the Lagrangian section of G(2,4) "
        "through 3 second-Chern cycles",
        JobRequest(mode="closed-form", variant="lg24", g=0, d=1, m1=0, m2=3),
        "1",
    ),
    "p3-quadric-g0-d2": (
        "rational degree-2 maps into a quadric surface in projective 3-space "
        "through 6 hyperplanes",
        JobRequest(mode="hypersurface", g=0, d=2, r=3, n=4, multidegree=(2,),
                   insertions=((CHERN, 1, 6),), path="both"),
        "32",
    ),
    "p4-ci22-g0-d1": (
        "rational degree-1 maps into a (2,2) complete intersection in "
        "projective 4-space through 3 hyperplanes",
        JobRequest(mode="complete-intersection", g=0, d=1, r=4, n=5,
                   multidegree=(2, 2), insertions=((CHERN, 1, 3),)),
        "64",
    ),
    "p2-duality-g1-d1": (
        "rank-2 versus rank-1 presentations of the projective plane agree",
        JobRequest(mode="duality-check", g=1, d=1, r=2, n=3,
                   insertions=((CHERN, 1, 3),)),
        "3",
    ),
    "breduce-elliptic": (
        "one odd-class pair against two hyperplane conditions on the "
        "elliptic projective-plane problem",
        JobRequest(mode="b-reduce", g=1, d=1, r=2, n=3, b_pairs=(1,),
                   insertions=((CHERN, 1, 2),)),
        "1",
    ),
    "tevelev-p5-quadric": (
        "point-incidence count on a quadric section of projective 5-space "
        "and the fixed-point count it implies",
        JobRequest(mode="tevelev", g=1, d=2, r=5, multidegree=(2,)),
        "16",
    ),
}


def run_preset(name: str) -> tuple[dict, str, bool]:
    _, request, expected = PRESETS[name]
    record = run(request)
    return record, expected, record.get("value", {}).get("exact") == expected


# -- rendering --------------------------------------------------------------

def _render(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(_encode(record))
    elif not record["ok"]:
        print(f"{record['mode']}: ERROR {record['error']['type']}: {record['error']['message']}")
    else:
        advisory = record["advisory"]
        print(f"{record['mode']}: value = {record['value']['exact']}",
              f"  advisory: {advisory['status']} ({advisory['reason']})",
              *(f"  {key}: {_encode(record[key])}" for key in
                ("dims", "paths", "duality", "oracle", "tevelev", "stats") if key in record),
              sep="\n")


def _exit_code(record: dict) -> int:
    return EXIT_OK if record["ok"] else record["error"]["exit"]


# -- batch ------------------------------------------------------------------

def run_batch(path: str, out=None) -> int:
    """One JSON request per line in, one JSON result per line out.

    Record-level failures are reported in their record and do not stop
    the batch; the trailing summary line reports totals, the outcome of
    every evaluation-path agreement check and, under `stats`, the engine
    memo's hits and misses during the batch and the number of reused
    records.  Each line is decoded as UTF-8 in its own record, so a line
    that is not UTF-8 fails alone; CR, LF and CRLF end a line, as in text
    mode.  A line byte-identical to an earlier one (surrounding ASCII
    whitespace aside) is not evaluated again: its record is the first
    one's text, with `stats.reused` true and its own `stats.seconds`
    spliced in; no dict is built and nothing is encoded.  The first
    `RECORD_MEMO_SIZE` distinct lines are remembered.  Returns the worst
    exit code of any record.
    """
    with open(path, "rb") as handle:
        return _run_lines(handle, out if out is not None else sys.stdout)


# Distinct lines whose records one batch remembers (as their text cut
# around `stats.seconds`, see _run_lines); later new lines are evaluated
# and not stored.  The benchmark's batch-mixed file has 1,373.
RECORD_MEMO_SIZE = 4096


def _run_lines(handle, out) -> int:
    """`run_batch` on an open binary file."""
    exits: Counter = Counter()
    agreements = []
    # stripped line bytes -> (pre, post, exit code, path agreement) of the
    # first record: its own text cut around `stats.seconds`, with
    # `"reused": true` in place; a repeat writes its seconds between them.
    # Keyed by bytes, not by the parsed request: JobRequest(g=True) ==
    # JobRequest(g=1), but only the second passes run()'s type checks.
    firsts: dict[bytes, tuple[str, str, int, Optional[bool]]] = {}
    reused = 0
    memo_before = vi_engine._certified_count.cache_info()
    for raw in (line for chunk in handle for line in chunk.splitlines()):
        started = time.perf_counter()
        key = raw.strip()
        first = firsts.get(key)
        if first is not None:
            # Every part of a record is a function of the line except its
            # timing, so a repeat is its seconds spliced into stored text.
            pre, post, code, agree = first
            text = pre + repr(round(time.perf_counter() - started, 6)) + post
            reused += 1
        else:
            mode = None  # the record's mode, once the line names a known one
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                parsed = json.loads(line)
                if isinstance(parsed, dict) and parsed.get("mode") in MODES:
                    mode = parsed["mode"]
                request = _request_from_record(parsed)
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                # UnicodeDecodeError is a ValueError; RecursionError: a line nested too deeply to parse
                record = {"schema": SCHEMA, "mode": mode, "ok": False, "stats": {},
                          "error": _error(exc, EXIT_VALIDATION)}
            else:
                record = run(request)
            # the line's whole span, as a repeat's: decoding and reading included
            record["stats"]["seconds"] = seconds = round(time.perf_counter() - started, 6)
            code, text = _exit_code(record), _encode(record)
            agree = record["paths"]["agree"] if "paths" in record else None
            if len(firsts) < RECORD_MEMO_SIZE:
                # Cut now, not on the first repeat: batch-mixed's median line
                # is a repeat, and a line's first run is slow anyway.  JSON
                # escapes every quote in a string and writes a float as its
                # repr, so this key and value occur once, in `stats`, and
                # with sorted keys a repeat's "reused" goes just before them.
                assert not any("reused" <= k < "seconds" for k in record["stats"]), "reused must precede seconds"
                head, _, post = text.rpartition(f'"seconds": {seconds!r}')
                firsts[key] = (head + '"reused": true, "seconds": ', post, code, agree)
        if agree is not None:
            agreements.append(agree)
        exits[code] += 1
        out.write(text + "\n")
    memo = vi_engine._certified_count.cache_info()
    summary = {
        "schema": SCHEMA,
        "summary": True,
        "records": sum(exits.values()),
        "ok": exits[EXIT_OK],
        "validation_errors": exits[EXIT_VALIDATION],
        "internal_errors": exits[EXIT_INTERNAL],
        "path_agreement": {
            "checked": len(agreements),
            "agreed": sum(agreements),
            "pass": all(agreements),
        },
        "stats": {"engine_memo": {"hits": memo.hits - memo_before.hits,
                                  "misses": memo.misses - memo_before.misses},
                  "reused_records": reused},
    }
    out.write(_encode(summary) + "\n")
    return max(exits, default=EXIT_OK)


# -- command line -------------------------------------------------------------

def _usage() -> str:
    """The help text, read off MODES and FIELDS."""
    lines = ["usage: quotcount MODE [--flag VALUE | --flag=VALUE ...] [--format {json,text}]",
             "       quotcount batch FILE",
             "       quotcount preset [NAME | --all] [--format {json,text}]",
             f"modes: {', '.join(MODES)}",
             "flags, with the modes that read them (--workers defaults to the CPU count):"]
    for f in FIELDS.values():
        value = "{%s}" % ",".join(f.choices) if f.choices else f.flag[2:].upper()
        only = "" if f.modes == READERS else f" ({', '.join(f.modes)} only)"
        lines.append(f"  {f.flag} {value}".ljust(30) + f"  {f.help}{only}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The command line.  It writes a count of any size: CPython's int-to-str
    digit limit is lifted until it returns; run() and run_batch() keep it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit to lift
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv: Optional[Sequence[str]]) -> int:
    words = sys.argv[1:] if argv is None else argv
    if "-h" in words or "--help" in words:
        print(_usage())
        return EXIT_OK
    command, *words = words or [""]
    if command not in (*MODES, "batch", "preset"):
        print(f"{_usage()}\nargument error: the first word must be a mode, batch or preset", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if command == "batch":
            if len(words) != 1:
                raise ValueError("batch takes one FILE")
            handle = open(words[0], "rb")
        elif command == "preset":
            run_all = "--all" in words
            _, names, fmt = _read_words([w for w in words if w != "--all"], ())
            if len(names) + run_all > 1:
                raise ValueError("preset takes one NAME or --all")
            if names and names[0] not in PRESETS:
                raise ValueError(f"unknown preset {names[0]!r}")
        else:
            request, fmt = _request_from_argv(command, words)
    except (ValueError, OSError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if command == "batch":
        with handle:
            return _run_lines(handle, sys.stdout)

    if command == "preset":
        if not names and not run_all:
            for name, (about, _, _) in PRESETS.items():
                print(f"{name}: {about}")
            return EXIT_OK
        worst = EXIT_OK
        for name in PRESETS if run_all else names:
            record, expected, matched = run_preset(name)
            record.update(preset=name, expected=expected, matched=matched)
            if fmt == "json":
                print(_encode(record))
            else:
                shown = record.get("value", {}).get("exact", "error")
                print(f"{name}: value={shown} expected={expected} matched={matched}")
            worst = max(worst, _exit_code(record), EXIT_OK if matched else EXIT_INTERNAL)
        return worst

    record = run(request)
    _render(record, fmt)
    return _exit_code(record)


if __name__ == "__main__":
    sys.exit(main())
