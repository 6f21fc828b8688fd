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
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import qh_oracle, twist, vi_engine
from .errors import (
    DimensionMismatchError,
    NonIntegralError,
    NotRationalError,
    QuotcountError,
    RegimeViolationError,
)
from .symfunc import CHERN, SEGRE, Insertion, weighted_degree
from .twist import BClassWord, ProblemSpec
from .vi_engine import GrassmannSpec, VirtualCount

SCHEMA = "quotcount.result/1"

MODES = (
    "grassmannian",
    "hypersurface",
    "complete-intersection",
    "closed-form",
    "duality-check",
    "b-reduce",
    "tevelev",
    "oracle-check",
)
# Allowed values of the string-valued request fields; the first is the default.
CHOICES = {"path": ("closed", "phi", "both"), "variant": ("projective", "lg24")}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

VALIDATION_ERRORS = (
    DimensionMismatchError,
    RegimeViolationError,
    ValueError,
)
# An arithmetic fault past validation is a breach, not a bad request.
INTERNAL_ERRORS = (NotRationalError, NonIntegralError, ZeroDivisionError)


@dataclass
class JobRequest:
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


@dataclass
class JobResult:
    mode: str
    ok: bool
    value: Optional[Fraction] = None
    is_integer: Optional[bool] = None
    advisory: Optional[vi_engine.Advisory] = None
    dims: dict = field(default_factory=dict)
    paths: Optional[dict] = None
    duality: Optional[dict] = None
    oracle: Optional[dict] = None
    tevelev: Optional[dict] = None
    stats: dict = field(default_factory=dict)
    error: Optional[dict] = None

    def to_dict(self) -> dict:
        out: dict = {"schema": SCHEMA, "mode": self.mode, "ok": self.ok}
        if self.value is not None:
            out["value"] = _value_fields(self.value)
            out["is_integer"] = self.is_integer
        if self.advisory is not None:
            out["advisory"] = {
                "status": self.advisory.status.value,
                "reason": self.advisory.reason,
            }
        if self.dims:
            out["dims"] = self.dims
        if self.paths is not None:
            out["paths"] = self.paths
        if self.duality is not None:
            out["duality"] = self.duality
        if self.oracle is not None:
            out["oracle"] = self.oracle
        if self.tevelev is not None:
            out["tevelev"] = self.tevelev
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


def _expand(triples: Sequence[tuple[str, int, int]]) -> tuple[Insertion, ...]:
    out: list[Insertion] = []
    for kind, index, exponent in triples:
        out.extend([Insertion(kind, index)] * exponent)
    return tuple(out)


def _require_n(req: JobRequest) -> int:
    if req.n is None:
        raise ValueError(f"mode {req.mode} requires --n")
    return req.n


def _count_fields(result: JobResult, count: VirtualCount) -> None:
    result.value = count.value
    result.is_integer = count.is_integer
    result.advisory = count.advisory


def run(req: JobRequest) -> JobResult:
    """Dispatch a parsed request; deterministic for every worker count."""
    result = JobResult(mode=req.mode, ok=True)
    started = time.perf_counter()
    try:
        if req.workers < 1:
            raise ValueError("workers must be a positive integer")
        insertions = _expand(req.insertions)
        if req.mode == "grassmannian":
            spec = GrassmannSpec(req.r, _require_n(req), req.g, req.d)
            result.dims = {
                "virtual_dim": spec.virtual_dim,
                "insertion_degree": weighted_degree(insertions),
            }
            result.stats["subsets"] = spec.subset_count
            count = vi_engine.vi_integral(spec, insertions, req.workers)
            result.stats.update(summands=count.summands, workers=count.workers)
            _count_fields(result, count)

        elif req.mode in ("hypersurface", "complete-intersection"):
            base = GrassmannSpec(req.r, _require_n(req), req.g, req.d)
            if not req.multidegree:
                raise ValueError("a section multidegree is required (--l)")
            problem = ProblemSpec(base, req.multidegree, insertions)
            result.dims = {
                "virtual_dim": base.virtual_dim,
                "twisted_dim": problem.twisted_dim,
                "insertion_degree": weighted_degree(insertions),
            }
            result.stats["subsets"] = base.subset_count
            if req.mode == "hypersurface" and req.path in ("phi", "both"):
                closed, phi, agree = twist.hypersurface_both_paths(problem, req.workers)
                result.paths = {
                    "closed": _exact_str(closed.value),
                    "phi_expansion": _exact_str(phi.value),
                    "agree": agree,
                }
                count = phi if req.path == "phi" else closed
            elif req.mode == "hypersurface":
                count = twist.hypersurface_integral(problem, req.workers)
            else:
                count = twist.complete_intersection_integral(problem, req.workers)
            _count_fields(result, count)

        elif req.mode == "closed-form":
            if req.variant == "lg24":
                if req.m1 is None or req.m2 is None:
                    raise ValueError("closed-form lg24 requires --m1 and --m2")
                count = twist.closed_form_lg24(req.g, req.d, req.m1, req.m2)
            else:
                if not req.multidegree:
                    raise ValueError("closed-form projective requires --l")
                count = twist.closed_form_projective(req.g, req.d, req.r, req.multidegree)
            _count_fields(result, count)

        elif req.mode == "duality-check":
            spec = GrassmannSpec(req.r, _require_n(req), req.g, req.d)
            report = vi_engine.duality_check(spec, insertions)
            result.duality = {
                "chern_side": _exact_str(report.chern_side.value),
                "segre_side": _exact_str(report.segre_side.value),
                "equal": report.equal,
            }
            _count_fields(result, report.chern_side)
            result.stats["subsets"] = spec.subset_count + spec.dual().subset_count

        elif req.mode == "b-reduce":
            base = GrassmannSpec(req.r, _require_n(req), req.g, req.d)
            word = BClassWord(req.b_pairs, insertions)
            count = twist.reduce_b_classes(word, base, req.workers)
            _count_fields(result, count)
            result.dims = {
                "virtual_dim": base.virtual_dim,
                "insertion_degree": weighted_degree(insertions),
                "pairs": len(req.b_pairs),
            }

        elif req.mode == "tevelev":
            if len(req.multidegree) != 1:
                raise ValueError("tevelev requires a single section degree (--l)")
            report = twist.tevelev_compare(req.g, req.d, req.r, req.multidegree[0], req.t)
            result.tevelev = {
                "point_count": _exact_str(report.point_count.value),
                "implied_tevelev": _exact_str(report.implied_tevelev),
                "tevelev_is_integer": report.tevelev_is_integer,
                "t": report.t,
            }
            _count_fields(result, report.point_count)

        elif req.mode == "oracle-check":
            if req.g != 0:
                raise ValueError("the combinatorial oracle is a genus-0 check")
            spec = GrassmannSpec(req.r, _require_n(req), 0, req.d)
            count = vi_engine.vi_integral(spec, insertions)
            oracle_value = qh_oracle.fixed_domain_count_g0(
                req.r, spec.n, req.d, insertions
            )
            result.oracle = {
                "engine": _exact_str(count.value),
                "oracle": str(oracle_value),
                "equal": count.value == oracle_value,
            }
            _count_fields(result, count)

        else:
            raise ValueError(f"unknown mode {req.mode!r}")

    except INTERNAL_ERRORS as exc:
        result.ok = False
        result.error = {"type": type(exc).__name__, "message": str(exc), "exit": EXIT_INTERNAL}
    except VALIDATION_ERRORS as exc:
        result.ok = False
        result.error = {"type": type(exc).__name__, "message": str(exc), "exit": EXIT_VALIDATION}
    except QuotcountError as exc:
        # anything else from the package is an internal invariant breach
        result.ok = False
        result.error = {"type": type(exc).__name__, "message": str(exc), "exit": EXIT_INTERNAL}
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
        out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        return
    d = result.to_dict()
    if not result.ok:
        out.write(f"{result.mode}: ERROR {d['error']['type']}: {d['error']['message']}\n")
        return
    lines = [f"{result.mode}: value = {d['value']['exact']}"]
    if result.advisory is not None:
        lines.append(f"  advisory: {result.advisory.status.value} ({result.advisory.reason})")
    for key in ("dims", "paths", "duality", "oracle", "tevelev"):
        if d.get(key):
            lines.append(f"  {key}: {json.dumps(d[key], sort_keys=True)}")
    lines.append(f"  stats: {json.dumps(d['stats'], sort_keys=True)}")
    out.write("\n".join(lines) + "\n")


def _exit_code(result: JobResult) -> int:
    if result.ok:
        return EXIT_OK
    return result.error.get("exit", EXIT_VALIDATION)


# -- batch ------------------------------------------------------------------

def _strict_int(value: object, name: str) -> int:
    """A JSON integer as is; bools, floats and strings are refused, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _request_from_record(record: dict) -> JobRequest:
    known = {
        "mode", "g", "d", "r", "n", "multidegree", "ins", "insertions",
        "workers", "path", "variant", "b_pairs", "t", "m1", "m2",
    }
    unknown = set(record) - known
    if unknown:
        raise ValueError(f"unknown batch fields: {sorted(unknown)}")
    if "mode" not in record or record["mode"] not in MODES:
        raise ValueError(f"batch record needs a mode from {MODES}")
    ins_field = record.get("ins", record.get("insertions", ""))
    if isinstance(ins_field, str):
        insertions = parse_insertions(ins_field)
    else:
        insertions = tuple(
            (k, _strict_int(i, "insertion index"), _strict_int(e, "insertion exponent"))
            for k, i, e in ins_field
        )
        if any(e < 0 for _, _, e in insertions):
            raise ValueError("insertion exponents must be nonnegative")
    # Absent fields keep JobRequest's defaults; null is allowed where that default is None.
    ints = {name: _strict_int(record[name], name) for name in ("g", "d", "r", "workers") if name in record}
    ints.update((name, _strict_int(record[name], name))
                for name in ("n", "t", "m1", "m2") if record.get(name) is not None)
    strings = {name: record.get(name, allowed[0]) for name, allowed in CHOICES.items()}
    for name, value in strings.items():
        if value not in CHOICES[name]:
            raise ValueError(f"{name} must be one of {CHOICES[name]}, got {value!r}")
    return JobRequest(
        mode=record["mode"],
        multidegree=tuple(_strict_int(x, "multidegree") for x in record.get("multidegree", ())),
        insertions=insertions,
        b_pairs=tuple(_strict_int(x, "b_pairs") for x in record.get("b_pairs", ())),
        **ints,
        **strings,
    )


def run_batch(path: str, out=None) -> int:
    """One JSON request per line in, one JSON result per line out.

    Record-level failures are reported in their record and do not stop
    the batch; the trailing summary line reports totals and the outcome
    of every evaluation-path agreement check.
    """
    out = out if out is not None else sys.stdout
    records = 0
    oks = 0
    validation_errors = 0
    internal_errors = 0
    paths_checked = 0
    paths_agreed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            records += 1
            try:
                request = _request_from_record(json.loads(line))
            except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
                validation_errors += 1
                out.write(json.dumps({
                    "schema": SCHEMA, "mode": None, "ok": False,
                    "error": {"type": type(exc).__name__, "message": str(exc),
                              "exit": EXIT_VALIDATION},
                }, sort_keys=True) + "\n")
                continue
            result = run(request)
            if result.ok:
                oks += 1
            elif result.error and result.error.get("exit") == EXIT_INTERNAL:
                internal_errors += 1
            else:
                validation_errors += 1
            if result.paths is not None:
                paths_checked += 1
                paths_agreed += bool(result.paths["agree"])
            out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    summary = {
        "schema": SCHEMA,
        "summary": True,
        "records": records,
        "ok": oks,
        "validation_errors": validation_errors,
        "internal_errors": internal_errors,
        "path_agreement": {
            "checked": paths_checked,
            "agreed": paths_agreed,
            "pass": paths_agreed == paths_checked,
        },
    }
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    if internal_errors:
        return EXIT_INTERNAL
    if validation_errors:
        return EXIT_VALIDATION
    return EXIT_OK


# -- argument parsing -------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=int, default=0, help="domain curve genus")
    parser.add_argument("--d", type=int, default=0, help="map degree")
    parser.add_argument("--r", type=int, default=1, help="rank of the target G(r,n)")
    parser.add_argument("--n", type=int, help="ambient dimension of the target G(r,n)")
    parser.add_argument("--l", "--multidegree", dest="multidegree", default="",
                        help="section degrees, comma separated (e.g. 2 or 2,2)")
    parser.add_argument("--ins", default="",
                        help="insertions, e.g. a1:3,a2:1 (Chern) or s2:4 (Segre)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="upper bound on the worker processes for the subset sum")
    parser.add_argument("--path", choices=CHOICES["path"], default="closed",
                        help="hypersurface evaluation path")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotcount",
        description="Exact virtual counts of curves in Grassmannians and their "
                    "hypersurface/complete-intersection sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} computation")
        _add_common(p)
        if mode == "closed-form":
            p.add_argument("--variant", choices=CHOICES["variant"], default="projective")
            p.add_argument("--m1", type=int, help="first-Chern exponent (lg24)")
            p.add_argument("--m2", type=int, help="second-Chern exponent (lg24)")
        if mode == "b-reduce":
            p.add_argument("--pairs", default="",
                           help="odd-class pair indices, comma separated (each j pairs j with j+g)")
        if mode == "tevelev":
            p.add_argument("--t", type=int, help="number of point conditions (derived when omitted)")
    batch = sub.add_parser("batch", help="run a JSON-lines file of requests")
    batch.add_argument("file", help="path to the request file")
    preset = sub.add_parser("preset", help="run or list named example computations")
    preset.add_argument("name", nargs="?", help="preset to run (omit to list)")
    preset.add_argument("--all", action="store_true", help="run every preset")
    preset.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    return parser


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(","))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "batch":
        return run_batch(args.file)

    if args.command == "preset":
        names = list(PRESETS) if args.all or args.name is None else [args.name]
        if args.name is None and not args.all:
            for name in names:
                print(f"{name}: {PRESETS[name][0]}")
            return EXIT_OK
        worst = EXIT_OK
        for name in names:
            if name not in PRESETS:
                print(f"unknown preset {name!r}", file=sys.stderr)
                return EXIT_VALIDATION
            result, expected, matched = run_preset(name)
            record = result.to_dict()
            record["preset"] = name
            record["expected"] = expected
            record["matched"] = matched
            if args.fmt == "json":
                print(json.dumps(record, sort_keys=True))
            else:
                shown = record.get("value", {}).get("exact", "error")
                print(f"{name}: value={shown} expected={expected} matched={matched}")
            if not result.ok or not matched:
                worst = max(worst, _exit_code(result), EXIT_INTERNAL if not matched else EXIT_OK)
        return worst

    try:
        request = JobRequest(
            mode=args.command,
            g=args.g,
            d=args.d,
            r=args.r,
            n=args.n,
            multidegree=_csv_ints(args.multidegree),
            insertions=parse_insertions(args.ins),
            workers=args.workers,
            path=args.path,
            variant=getattr(args, "variant", "projective"),
            b_pairs=_csv_ints(getattr(args, "pairs", "")),
            t=getattr(args, "t", None),
            m1=getattr(args, "m1", None),
            m2=getattr(args, "m2", None),
        )
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    result = run(request)
    _render(result, args.fmt)
    return _exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
