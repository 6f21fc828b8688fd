"""Command-line front end: parse a counting job, run it, emit one record.

Insertions are written `a<i>:<exp>` (Chern) and `s<i>:<exp>` (Segre),
comma-separated; multidegrees are comma-separated integers.  Results are
line-delimited records carrying the exact value both as a lossless
string (integer, or `p/q` for a non-integer) and as numerator and
denominator, plus a clearly labeled float approximation.  Exit codes:
0 success, 2 validation error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import qh_oracle, twist, vi_engine
from .errors import DimensionMismatchError, QuotcountError, RegimeViolationError
from .symfunc import CHERN, SEGRE, Insertion, Monomial
from .twist import BClassWord, ProblemSpec
from .vi_engine import GrassmannSpec, VirtualCount

SCHEMA = "quotcount.result/1"

# Allowed values of the string-valued request fields.
CHOICES = {"path": ("closed", "phi", "both"), "variant": ("projective", "lg24")}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

VALIDATION_ERRORS = (DimensionMismatchError, RegimeViolationError, ValueError)

# One encoder for every JSON line: json.dumps with sort_keys builds a new one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class JobRequest(NamedTuple):
    mode: str
    g: int = 0
    d: int = 0
    r: int = 1
    n: Optional[int] = None
    multidegree: tuple[int, ...] = ()
    insertions: tuple[tuple[str, int, int], ...] = ()
    workers: int = 1
    path: str = "closed"
    variant: str = "projective"
    b_pairs: tuple[int, ...] = ()
    t: Optional[int] = None
    m1: Optional[int] = None
    m2: Optional[int] = None


class JobResult:
    def __init__(self, mode: Optional[str], ok: bool, error: Optional[dict] = None):
        self.mode = mode  # None on a batch line that is not a request
        self.ok, self.error = ok, error
        # run() fills the rest, and builds the value block where a failure is caught
        self.value = self.is_integer = self.advisory = self.value_fields = None
        # blocks is the mode's own report: paths, duality, oracle or tevelev
        self.dims, self.blocks, self.stats = {}, {}, {}

    def to_dict(self) -> dict:
        out: dict = {"schema": SCHEMA, "mode": self.mode, "ok": self.ok}
        if self.value_fields is not None:
            out["value"] = self.value_fields
            out["is_integer"] = self.is_integer
        if self.advisory is not None:
            out["advisory"] = {"status": self.advisory.status.value, "reason": self.advisory.reason}
        if self.dims:
            out["dims"] = self.dims
        out.update(self.blocks)
        if self.stats:
            out["stats"] = self.stats
        if self.error is not None:
            out["error"] = self.error
        return out


def _value_fields(value: Fraction) -> dict:
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {
        "exact": _exact_str(value),
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "float_approx": approx,
    }


def _exact_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
        if index < 1 or exponent < 0:
            raise ValueError(f"bad insertion {piece!r}: index >= 1 and exponent >= 0 required")
        out.append((kind, index, exponent))
    return tuple(out)


# -- one runner per mode ------------------------------------------------------
# A runner validates what its mode needs, fills the result's dims, blocks and
# stats, and returns the count whose value the record reports.  It hands the
# request's monomial to the counting function, which runs the refusals.

def _spec(req: JobRequest) -> GrassmannSpec:
    if req.n is None:
        raise ValueError(f"mode {req.mode} requires --n")
    return GrassmannSpec(req.r, req.n, req.g, req.d)


def _plain_dims(spec: GrassmannSpec, monomial: Monomial, **extra) -> dict:
    return {"virtual_dim": spec.virtual_dim, **extra, "insertion_degree": monomial.degree}


def _engine_count(spec: GrassmannSpec, req: JobRequest, monomial: Monomial,
                  result: JobResult) -> VirtualCount:
    """The engine's plain integral; its work goes to stats."""
    result.stats["subsets"] = spec.subset_count
    count = vi_engine.vi_integral(spec, monomial, req.workers)
    result.stats.update(summands=count.summands, workers=count.workers)
    return count


def _grassmannian(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    spec = _spec(req)
    result.dims = _plain_dims(spec, monomial)
    return _engine_count(spec, req, monomial, result)


def _section(req: JobRequest, monomial: Monomial, result: JobResult) -> ProblemSpec:
    base = _spec(req)
    if not req.multidegree:
        raise ValueError("a section multidegree is required (--l)")
    problem = ProblemSpec(base, req.multidegree, monomial)
    result.dims = _plain_dims(base, monomial, twisted_dim=problem.twisted_dim)
    result.stats["subsets"] = base.subset_count
    return problem


def _hypersurface(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    problem = _section(req, monomial, result)
    if req.path == "closed":
        return twist.hypersurface_integral(problem, req.workers)
    closed, phi, agree = twist.hypersurface_both_paths(problem, req.workers)
    result.blocks["paths"] = {
        "closed": _exact_str(closed.value),
        "phi_expansion": _exact_str(phi.value),
        "agree": agree,
    }
    return phi if req.path == "phi" else closed


def _complete_intersection(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    return twist.complete_intersection_integral(_section(req, monomial, result), req.workers)


def _closed_form(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    if req.variant == "lg24":
        if req.m1 is None or req.m2 is None:
            raise ValueError("closed-form lg24 requires --m1 and --m2")
        return twist.closed_form_lg24(req.g, req.d, req.m1, req.m2)
    if not req.multidegree:
        raise ValueError("closed-form projective requires --l")
    return twist.closed_form_projective(req.g, req.d, req.r, req.multidegree)


def _duality_check(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    spec = _spec(req)
    report = vi_engine.duality_check(spec, monomial, req.workers)
    result.blocks["duality"] = {
        "chern_side": _exact_str(report.chern_side.value),
        "segre_side": _exact_str(report.segre_side.value),
        "equal": report.equal,
    }
    result.stats["subsets"] = spec.subset_count + spec.dual().subset_count
    return report.chern_side


def _b_reduce(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    base = _spec(req)
    count = twist.reduce_b_classes(BClassWord(req.b_pairs, monomial), base, req.workers)
    result.dims = _plain_dims(base, monomial, pairs=len(req.b_pairs))
    return count


def _tevelev(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    if len(req.multidegree) != 1:
        raise ValueError("tevelev requires a single section degree (--l)")
    report = twist.tevelev_compare(req.g, req.d, req.r, req.multidegree[0], req.t)
    result.blocks["tevelev"] = {
        "point_count": _exact_str(report.point_count.value),
        "implied_tevelev": _exact_str(report.implied_tevelev),
        "tevelev_is_integer": report.tevelev_is_integer,
        "t": report.t,
    }
    return report.point_count


def _oracle_check(req: JobRequest, monomial: Monomial, result: JobResult) -> VirtualCount:
    if req.g != 0:
        raise ValueError("the combinatorial oracle is a genus-0 check")
    spec = _spec(req)
    count = _engine_count(spec, req, monomial, result)
    oracle_value = qh_oracle.fixed_domain_count_g0(req.r, spec.n, req.d, monomial)
    result.blocks["oracle"] = {
        "engine": _exact_str(count.value),
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


def run(req: JobRequest) -> JobResult:
    """Validate and dispatch a request; deterministic for every worker count."""
    result = JobResult(mode=req.mode, ok=True)
    started = time.perf_counter()
    try:
        _check_fields(req)
        if req.workers < 1:
            raise ValueError("workers must be a positive integer")
        # the product of the request's insertions; every mode refuses an
        # unknown kind or an index below 1 here
        monomial = Monomial((Insertion(kind, i), x) for kind, i, x in req.insertions)
        if req.mode not in MODES:
            raise ValueError(f"unknown mode {req.mode!r}")
        count = RUNNERS[req.mode](req, monomial, result)
        # str() refuses a count too long to print with ValueError: a record of its own
        result.value_fields = _value_fields(count.value)
        result.value, result.is_integer, result.advisory = (
            count.value, count.is_integer, count.advisory)
    except (*VALIDATION_ERRORS, QuotcountError, ZeroDivisionError) as exc:
        # Any other package error, or an arithmetic fault past validation,
        # is an internal invariant breach, not a bad request.
        result.ok = False
        code = EXIT_VALIDATION if isinstance(exc, VALIDATION_ERRORS) else EXIT_INTERNAL
        result.error = _error(exc, code)
    result.stats["seconds"] = round(time.perf_counter() - started, 6)
    return result


# -- presets ----------------------------------------------------------------

PRESETS: dict[str, tuple[str, JobRequest, Optional[str]]] = {
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


def run_preset(name: str) -> tuple[JobResult, Optional[str], bool]:
    _, request, expected = PRESETS[name]
    result = run(request)
    matched = (
        expected is None
        or (result.value is not None and _exact_str(result.value) == expected)
    )
    return result, expected, matched


# -- rendering --------------------------------------------------------------

def _render(result: JobResult, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(_encode(result.to_dict()) + "\n")
        return
    d = result.to_dict()
    if not result.ok:
        out.write(f"{result.mode}: ERROR {d['error']['type']}: {d['error']['message']}\n")
        return
    lines = [f"{result.mode}: value = {d['value']['exact']}"]
    if result.advisory is not None:
        lines.append(f"  advisory: {result.advisory.status.value} ({result.advisory.reason})")
    for key in ("dims", *result.blocks):
        if d.get(key):
            lines.append(f"  {key}: {_encode(d[key])}")
    lines.append(f"  stats: {_encode(d['stats'])}")
    out.write("\n".join(lines) + "\n")


def _exit_code(result: JobResult) -> int:
    return EXIT_OK if result.ok else result.error.get("exit", EXIT_VALIDATION)


# -- request fields -----------------------------------------------------------

class Field(NamedTuple):
    """How one JobRequest field is spelled on the command line and in a batch."""

    flags: tuple[str, ...]
    modes: tuple[str, ...]  # the subcommands that take it
    kind: str  # "int", "ints", "insertions" or "choice" (one of CHOICES[name])
    help: str
    keys: tuple[str, ...] = ()  # batch spellings, when not just the field name


FIELDS = {
    "g": Field(("--g",), MODES, "int", "domain curve genus"),
    "d": Field(("--d",), MODES, "int", "map degree"),
    "r": Field(("--r",), MODES, "int", "rank of the target G(r,n)"),
    "n": Field(("--n",), MODES, "int", "ambient dimension of the target G(r,n)"),
    "multidegree": Field(("--l", "--multidegree"), MODES, "ints",
                         "section degrees, comma separated (e.g. 2 or 2,2)"),
    "insertions": Field(("--ins",), MODES, "insertions",
                        "insertions, e.g. a1:3,a2:1 (Chern) or s2:4 (Segre)", ("ins", "insertions")),
    "workers": Field(("--workers",), MODES, "int",
                     "upper bound on the worker processes for the subset sum"),
    "path": Field(("--path",), MODES, "choice", "hypersurface evaluation path"),
    "variant": Field(("--variant",), ("closed-form",), "choice", "closed-form target"),
    "b_pairs": Field(("--pairs",), ("b-reduce",), "ints",
                     "odd-class pair indices, comma separated (each j pairs j with j+g)"),
    "t": Field(("--t",), ("tevelev",), "int", "number of point conditions (derived when omitted)"),
    "m1": Field(("--m1",), ("closed-form",), "int", "first-Chern exponent (lg24)"),
    "m2": Field(("--m2",), ("closed-form",), "int", "second-Chern exponent (lg24)"),
}


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(",")) if text.strip() else ()


def _strict_int(value: object, name: str) -> None:
    """Refuse bools, floats and strings instead of coercing them."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _strict_insertions(value: object, name: str) -> None:
    for _, index, exponent in value:
        # one test per insertion; the calls below name the defect it found
        if type(index) is not int or type(exponent) is not int or exponent < 0:
            _strict_int(index, "insertion index")
            _strict_int(exponent, "insertion exponent")
            raise ValueError("insertion exponents must be nonnegative")


def _choice(value: object, name: str) -> None:
    if value not in CHOICES[name]:
        raise ValueError(f"{name} must be one of {CHOICES[name]}, got {value!r}")


# kind -> check of a field's value; run() makes it once per request.
_CHECKS = {
    "int": _strict_int,
    "ints": lambda value, name: [_strict_int(x, name) for x in value],
    "insertions": _strict_insertions,
    "choice": _choice,
}
# (name, check, default) of each JobRequest field after `mode`, in field order
_FIELD_CHECKS = tuple((name, _CHECKS[FIELDS[name].kind], JobRequest._field_defaults[name])
                      for name in JobRequest._fields[1:])


def _check_fields(req: JobRequest) -> None:
    """Refuse a field whose value is not of its FIELDS kind.  A field left at
    JobRequest's default (None included) is valid as it is."""
    for (name, check, default), value in zip(_FIELD_CHECKS, req[1:]):
        if value is not default:
            try:
                check(value, name)
            except TypeError:  # not a sequence, or an insertion that is not a triple
                raise ValueError(f"{name} is malformed: {value!r}") from None


# kind -> command-line text to value; ints and choices come from argparse as is.
_FROM_TEXT = {"ints": _csv_ints, "insertions": parse_insertions}
# kind -> batch JSON value to the field's shape (ints and choices are taken
# as they are); run() checks the types.
_FROM_JSON = {
    "ints": tuple,
    "insertions": lambda value: (
        parse_insertions(value) if isinstance(value, str) else tuple(map(tuple, value))),
}
# batch spelling -> (field name, shape conversion or None), in FIELDS order
_BATCH_KEYS = {key: (name, _FROM_JSON.get(f.kind))
               for name, f in FIELDS.items() for key in f.keys or (name,)}
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
        # The first spelling present wins; absent fields keep JobRequest's defaults.
        if key in record and name not in values:
            values[name] = record[key] if convert is None else convert(record[key])
    return JobRequest(mode=record["mode"], **values)


def _request_from_args(args: argparse.Namespace) -> JobRequest:
    values = {name: _FROM_TEXT.get(FIELDS[name].kind, lambda text: text)(value)
              for name, value in vars(args).items() if name in FIELDS}
    return JobRequest(mode=args.command, **values)


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
    one's text with only `stats` encoded anew, holding `stats.reused`
    true and `stats.seconds` its own time.  The first `RECORD_MEMO_SIZE`
    distinct lines are remembered.  Returns the worst exit code of any
    record.
    """
    with open(path, "rb") as handle:
        return _run_lines(handle, out if out is not None else sys.stdout)


# Distinct lines whose encoded records one batch remembers (as text split
# around its stats); later new lines are evaluated and not stored.  The
# benchmark's batch-mixed file has 1,373.
RECORD_MEMO_SIZE = 4096


def _split_stats(text: str, stats: Optional[dict]) -> tuple[str, dict, str]:
    """(head, stats, tail) with `head + _encode(stats) + tail == text`, the
    record's encoding.  Keys are sorted and JSON escapes every quote in a
    string, so the last `"stats": {...}` is the record's own: the keys after
    it (tevelev, value) hold only program-made numbers and flags.  A record
    without stats is a line that is not a request; its keys sort before."""
    if stats is None:
        return text[:-1] + ', "stats": ', {}, "}"
    head, found, tail = text.rpartition('"stats": ' + _encode(stats))
    assert found, "a record's stats must appear in its encoding"
    return head + '"stats": ', stats, tail


def _run_lines(handle, out) -> int:
    """`run_batch` on an open binary file."""
    exits: Counter = Counter()
    agreements = []
    # stripped line bytes -> (head, stats, tail, exit code, path agreement)
    # of the first record's text.  Keyed by bytes, not by the parsed
    # request: JobRequest(g=True) == JobRequest(g=1), but only the second
    # passes run()'s type checks.
    firsts: dict[bytes, tuple[str, dict, str, int, Optional[bool]]] = {}
    reused = 0
    memo_before = vi_engine._certified_count.cache_info()
    for raw in (line for chunk in handle for line in chunk.splitlines()):
        started = time.perf_counter()
        key = raw.strip()
        first = firsts.get(key)
        if first is not None:
            # Every part of a record is a function of the line except its
            # timing, so only the stats are encoded again.
            head, stats, tail, code, agree = first
            text = head + _encode({**stats, "reused": True,
                                   "seconds": round(time.perf_counter() - started, 6)}) + tail
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
                result = JobResult(mode=mode, ok=False, error=_error(exc, EXIT_VALIDATION))
            else:
                result = run(request)
            record, code = result.to_dict(), _exit_code(result)
            text = _encode(record)
            agree = record["paths"]["agree"] if "paths" in record else None
            if len(firsts) < RECORD_MEMO_SIZE:
                firsts[key] = (*_split_stats(text, record.get("stats")), code, agree)
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


# -- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotcount",
        description="Exact virtual counts of curves in Grassmannians and their "
                    "hypersurface/complete-intersection sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        # An option left out keeps JobRequest's default.
        p = sub.add_parser(mode, help=f"run a {mode} computation",
                           argument_default=argparse.SUPPRESS)
        for name, f in FIELDS.items():
            if mode in f.modes:
                options = {"choices": CHOICES[name]} if f.kind == "choice" else {
                    "type": int if f.kind == "int" else str,
                    "metavar": f.flags[-1].lstrip("-").upper()}
                p.add_argument(*f.flags, dest=name, help=f.help, **options)
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
        # One job from the command line may use every CPU; a request built
        # in code or read from a batch defaults to one worker.
        p.set_defaults(workers=os.cpu_count() or 1)
    batch = sub.add_parser("batch", help="run a JSON-lines file of requests")
    batch.add_argument("file", help="path to the request file")
    preset = sub.add_parser("preset", help="run or list named example computations")
    preset.add_argument("name", nargs="?", help="preset to run (omit to list)")
    preset.add_argument("--all", action="store_true", help="run every preset")
    preset.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "batch":
        try:
            handle = open(args.file, "rb")
        except OSError as exc:
            print(f"argument error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        with handle:
            return _run_lines(handle, sys.stdout)

    if args.command == "preset":
        if args.name is None and not args.all:
            for name, (about, _, _) in PRESETS.items():
                print(f"{name}: {about}")
            return EXIT_OK
        if not args.all and args.name not in PRESETS:
            print(f"unknown preset {args.name!r}", file=sys.stderr)
            return EXIT_VALIDATION
        worst = EXIT_OK
        for name in PRESETS if args.all else [args.name]:
            result, expected, matched = run_preset(name)
            record = {**result.to_dict(), "preset": name, "expected": expected, "matched": matched}
            if args.fmt == "json":
                print(_encode(record))
            else:
                shown = record.get("value", {}).get("exact", "error")
                print(f"{name}: value={shown} expected={expected} matched={matched}")
            worst = max(worst, _exit_code(result), EXIT_OK if matched else EXIT_INTERNAL)
        return worst

    try:
        request = _request_from_args(args)
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    result = run(request)
    _render(result, args.fmt)
    return _exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
