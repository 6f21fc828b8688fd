"""Seeded workloads for the quotcount benchmark, their reference values and output checks.

A workload is a list of jobs.  Each job is a request in the batch-record
form the `quotcount` CLI reads, plus `invalid`: None for a request the
program must answer, or the name of the error type the program must refuse
it with.  `render` turns the jobs into the bytes the program is given, so
equal seeds give byte-identical inputs.

Reference values come from routes that are independent of the code path
the CLI takes for that mode: the quantum-Pieri oracle at genus 0, the
orbit-reduced evaluator at higher genus, the projective and LG(2,4) closed
forms for section counts, and the engine for the closed forms.  This
module generates inputs without importing quotcount; the reference and
check functions import it lazily.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

WORKLOADS = ("large-sum", "genus0-sweep", "batch-mixed")
DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")

DIMENSION = "DimensionMismatchError"
REGIME = "RegimeViolationError"

# A trivial first line of every batch file: its record's arrival ends the
# batch process's set-up (interpreter start, imports), and it is not a job.
MARKER = {"mode": "closed-form", "variant": "projective", "g": 0, "d": 1, "r": 1,
          "multidegree": [1]}

# large-sum: (r, n, g, d) of the four one-off calls.
LARGE_SUM_TARGETS = ((5, 20, 1, 1), (4, 18, 1, 1), (4, 16, 2, 4), (4, 14, 3, 6))

# genus0-sweep: (r, n, d) targets, and the (mode, insertion kind) recipe run on each.
GENUS0_TARGETS = (
    (2, 10, 1), (2, 10, 2), (2, 11, 1), (2, 11, 2), (2, 12, 1), (2, 12, 2),
    (3, 9, 1), (3, 10, 1), (3, 11, 1), (4, 9, 1), (4, 10, 1),
)
GENUS0_RECIPE = (
    ("grassmannian", "chern"), ("grassmannian", "segre"), ("grassmannian", "mixed"),
    ("grassmannian", "chern"),
    ("oracle-check", "chern"), ("oracle-check", "segre"), ("oracle-check", "mixed"),
    ("oracle-check", "segre"),
    ("duality-check", "chern"), ("duality-check", "chern"),
)

# batch-mixed: jobs per mode and the share refused on purpose.
BATCH_PER_MODE = 375
BATCH_INVALID_SHARE = 0.1
BATCH_MODES = (
    "grassmannian", "hypersurface", "complete-intersection", "closed-form",
    "duality-check", "b-reduce", "tevelev", "oracle-check",
)


# -- monomials -----------------------------------------------------------------

def _parts(rng: random.Random, degree: int, top: int) -> dict[int, int]:
    """Random exponents {index: exp} with indices in [1, top] and sum index*exp = degree."""
    out: dict[int, int] = {}
    left = degree
    while left:
        i = rng.randint(1, min(top, left))
        out[i] = out.get(i, 0) + 1
        left -= i
    return dict(sorted(out.items()))


def _muls(parts: dict[int, int]) -> int:
    """Cyc products the engine spends on a monomial's factors per summand.

    It raises each prefix value to its exponent by square-and-multiply,
    popcount(x) + bitlength(x) - 1 products, and multiplies it in, one more.
    """
    return sum(1 + (0 if x == 1 else bin(x).count("1") + x.bit_length() - 1)
               for x in parts.values())


def plan(text: str) -> tuple[int, int, int, int]:
    """(largest Chern index, Chern products, largest Segre index, Segre products)."""
    chern = {i: x for kind, i, x in parse_ins(text) if kind == "chern"}
    segre = {i: x for kind, i, x in parse_ins(text) if kind == "segre"}
    return max(chern, default=0), _muls(chern), max(segre, default=0), _muls(segre)


def _ins(chern: dict[int, int], segre: dict[int, int] | None = None) -> str:
    pieces = [f"a{i}:{x}" for i, x in chern.items()]
    pieces += [f"s{i}:{x}" for i, x in (segre or {}).items()]
    return ",".join(pieces)


def _mixed(rng: random.Random, degree: int, r: int, n: int) -> str:
    """A monomial with both Chern (index <= r) and Segre (index <= n - r) factors."""
    cut = rng.randint(1, degree - 1) if degree > 1 else degree
    return _ins(_parts(rng, cut, r), _parts(rng, degree - cut, n - r))


def _monomial(rng: random.Random, kind: str, degree: int, r: int, n: int) -> str:
    if kind == "chern":
        return _ins(_parts(rng, degree, r))
    if kind == "segre":
        return _ins({}, _parts(rng, degree, n - r))
    return _mixed(rng, degree, r, n)


def _steady_monomial(rng: random.Random, slot: str, kind: str, degree: int, r: int, n: int) -> str:
    """A seeded monomial whose multiplication plan is fixed per slot, not per seed.

    The plan is that of a monomial drawn from a seed-independent stream, so
    seeds change the insertions but hardly the work an engine job does.
    """
    target = plan(_monomial(random.Random(f"plan/{slot}"), kind, degree, r, n))
    for _ in range(100_000):
        text = _monomial(rng, kind, degree, r, n)
        if plan(text) == target:
            return text
    raise RuntimeError(f"no monomial with plan {target} for slot {slot}")


def parse_ins(text: str) -> list[tuple[str, int, int]]:
    """`a1:3,s2:1` -> [("chern", 1, 3), ("segre", 2, 1)]."""
    out = []
    for piece in filter(None, text.split(",")):
        head, _, exp = piece.partition(":")
        out.append(("chern" if head[0] == "a" else "segre", int(head[1:]), int(exp)))
    return out


def _vdim(r: int, n: int, g: int, d: int) -> int:
    return d * n + r * (n - r) * (1 - g)


def _off_by_one(text: str) -> str:
    """The same monomial with one more a1 (or s1): its degree misses by one."""
    parsed = parse_ins(text)
    kind = parsed[0][0] if parsed else "chern"
    prefix = "a" if kind == "chern" else "s"
    extra = f"{prefix}1:1"
    return f"{text},{extra}" if text else extra


# -- generators ----------------------------------------------------------------

def _large_sum(rng: random.Random) -> list[dict]:
    jobs = []
    for r, n, g, d in LARGE_SUM_TARGETS:
        ins = _steady_monomial(rng, f"large-sum/{r}/{n}/{g}/{d}", "chern", _vdim(r, n, g, d), r, n)
        jobs.append({"request": {"mode": "grassmannian", "g": g, "d": d, "r": r, "n": n,
                                 "ins": ins}, "invalid": None})
    return jobs


def _genus0(rng: random.Random) -> list[dict]:
    jobs = []
    for r, n, d in GENUS0_TARGETS:
        degree = _vdim(r, n, 0, d)
        for k, (mode, kind) in enumerate(GENUS0_RECIPE):
            ins = _steady_monomial(rng, f"genus0/{r}/{n}/{d}/{k}", kind, degree, r, n)
            request = {"mode": mode, "g": 0, "d": d, "r": r, "n": n, "ins": ins}
            jobs.append({"request": request, "invalid": None})
    rng.shuffle(jobs)
    return jobs


def _small_targets(genera: range, n_range: range, d_range: range):
    """(r, n, g, d) with 1 <= r < n and a positive virtual dimension."""
    for n in n_range:
        for r in range(1, n):
            for g in genera:
                for d in d_range:
                    if _vdim(r, n, g, d) >= 1:
                        yield r, n, g, d


def _projective_cases(two_factor: bool):
    """(g, d, r, multidegree, e) for in-regime sections of G(r, r+1) = P^r."""
    for g in range(3):
        for d in range(max(g, 1), 5):
            for r in range(2, 6):
                if two_factor:
                    degs = [(a, b) for a in range(1, r) for b in range(a, r) if a + b <= r]
                else:
                    degs = [(a,) for a in range(1, r + 1)]
                for ls in degs:
                    if any(d * l <= 2 * g - 2 for l in ls):
                        continue
                    e = _vdim(r, r + 1, g, d) - sum(d * l - g + 1 for l in ls)
                    if e >= 0:
                        yield g, d, r, ls, e


def _lg24_cases():
    for d in range(1, 5):
        for g in range(3):
            if d <= 2 * g - 2:
                continue
            total = 3 * (d - g + 1)
            for m2 in range(total // 2 + 1):
                yield g, d, total - 2 * m2, m2


def _tevelev_cases():
    for g in range(3):
        for d in range(1, 5):
            for r in range(2, 6):
                for l in range(1, r + 1):
                    e_l = d * (r + 1 - l) + (1 - g) * (r - 1)
                    if e_l % (r - 1) == 0 and e_l // (r - 1) >= 1 and d * l > 2 * g - 2:
                        yield g, d, r, l, e_l // (r - 1)


def _b_reduce_cases():
    for r in range(1, 5):
        for g in (1, 2):
            for d in range(1, 4):
                vdim = _vdim(r, r + 1, g, d)
                for pairs in ([(j,) for j in range(1, g + 1)]
                              + [(i, j) for i in range(1, g + 1) for j in range(1, g + 1)]):
                    if vdim - len(pairs) >= 0:
                        yield r, g, d, pairs, vdim - len(pairs)


_BATCH_POOLS = {
    "grassmannian": list(_small_targets(range(3), range(2, 6), range(0, 3))),
    "hypersurface": list(_lg24_cases()),
    "complete-intersection": list(_projective_cases(True)),
    "closed-form": list(_projective_cases(False)) + [("lg24",) + c for c in _lg24_cases()],
    "duality-check": list(_small_targets(range(3), range(3, 6), range(0, 4))),
    "b-reduce": list(_b_reduce_cases()),
    "tevelev": list(_tevelev_cases()),
    "oracle-check": list(_small_targets(range(1), range(3, 6), range(0, 3))),
}


def _batch_job(rng: random.Random, mode: str, refuse: bool) -> dict:
    """One batch-mixed request; with refuse, made invalid in one named way."""
    case = rng.choice(_BATCH_POOLS[mode])
    invalid = None
    if mode in ("grassmannian", "oracle-check", "duality-check"):
        r, n, g, d = case
        kind = "chern" if mode == "duality-check" else rng.choice(("chern", "segre", "mixed"))
        ins = _monomial(rng, kind, _vdim(r, n, g, d), r, n)
        if refuse:
            ins, invalid = _off_by_one(ins), DIMENSION
        request = {"mode": mode, "g": g, "d": d, "r": r, "n": n, "ins": ins}
    elif mode == "hypersurface":
        g, d, m1, m2 = case
        if refuse and rng.random() < 0.5:
            g, d, invalid = 2, rng.choice((1, 2)), REGIME
        elif refuse:
            m1, invalid = m1 + 1, DIMENSION
        request = {"mode": mode, "g": g, "d": d, "r": 2, "n": 4, "multidegree": [1],
                   "ins": _ins({i: x for i, x in ((1, m1), (2, m2)) if x}), "path": "both"}
    elif mode == "complete-intersection":
        g, d, r, ls, e = case
        if refuse and rng.random() < 0.5:
            g, d, ls, invalid = 2, 1, (1, 1), REGIME
        elif refuse:
            e, invalid = e + 1, DIMENSION
        request = {"mode": mode, "g": g, "d": d, "r": r, "n": r + 1, "multidegree": list(ls),
                   "ins": _ins({1: e} if e else {})}
    elif mode == "closed-form":
        if refuse:
            g, d, m1, m2 = rng.choice(_BATCH_POOLS["hypersurface"])
            if rng.random() < 0.5:
                g, d, invalid = 2, rng.choice((1, 2)), REGIME
            else:
                m1, invalid = m1 + 1, DIMENSION
            case = ("lg24", g, d, m1, m2)
        if case[0] == "lg24":
            _, g, d, m1, m2 = case
            request = {"mode": mode, "variant": "lg24", "g": g, "d": d, "m1": m1, "m2": m2}
        else:
            g, d, r, ls, _ = case
            request = {"mode": mode, "variant": "projective", "g": g, "d": d, "r": r,
                       "multidegree": list(ls)}
    elif mode == "b-reduce":
        r, g, d, pairs, e = case
        if refuse:
            e, invalid = e + 1, DIMENSION
        request = {"mode": mode, "g": g, "d": d, "r": r, "n": r + 1, "b_pairs": list(pairs),
                   "ins": _ins({1: e} if e else {})}
    else:  # tevelev
        g, d, r, l, t = case
        if refuse:
            t, invalid = t + 1, DIMENSION
        request = {"mode": mode, "g": g, "d": d, "r": r, "multidegree": [l], "t": t}
    return {"request": request, "invalid": invalid}


def _batch_mixed(rng: random.Random) -> list[dict]:
    modes = [m for m in BATCH_MODES for _ in range(BATCH_PER_MODE)]
    rng.shuffle(modes)
    refused = set(rng.sample(range(len(modes)), round(len(modes) * BATCH_INVALID_SHARE)))
    return [_batch_job(rng, mode, k in refused) for k, mode in enumerate(modes)]


_GENERATORS = {"large-sum": _large_sum, "genus0-sweep": _genus0, "batch-mixed": _batch_mixed}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for this seed: [{"request": ..., "invalid": ...}, ...]."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def render(workload: str, jobs: list[dict]) -> bytes:
    """The bytes the program reads: a batch file, or one record per CLI call."""
    lines = [] if workload == "large-sum" else [MARKER]
    lines += [job["request"] for job in jobs]
    return b"".join(json.dumps(x, sort_keys=True).encode() + b"\n" for x in lines)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_args(request: dict, workers: int) -> list[str]:
    """`quotcount grassmannian ...` arguments for a large-sum request."""
    args = [request["mode"]]
    for key in ("g", "d", "r", "n", "ins"):
        args += [f"--{key}", str(request[key])]
    return args + ["--workers", str(workers), "--format", "json"]


# -- reference values (independent routes) -------------------------------------

def _engine_args(request: dict):
    from quotcount.symfunc import Insertion
    from quotcount.vi_engine import GrassmannSpec

    spec = GrassmannSpec(request["r"], request["n"], request["g"], request["d"])
    insertions = [Insertion(kind, i) for kind, i, x in parse_ins(request["ins"]) for _ in range(x)]
    return spec, insertions


def _oracle(request: dict) -> Fraction:
    from quotcount.qh_oracle import fixed_domain_count_g0

    _, insertions = _engine_args(request)
    return Fraction(fixed_domain_count_g0(request["r"], request["n"], request["d"], insertions))


def _orbit(request: dict) -> Fraction:
    from quotcount.vi_engine import vi_integral_orbit_reduced

    return vi_integral_orbit_reduced(*_engine_args(request)).value


def _grassmann_value(request: dict) -> Fraction:
    return _oracle(request) if request["g"] == 0 else _orbit(request)


def _section_engine(g: int, d: int, r: int, n: int, ls, insertions) -> Fraction:
    from quotcount.twist import ProblemSpec, complete_intersection_integral
    from quotcount.vi_engine import GrassmannSpec

    problem = ProblemSpec(GrassmannSpec(r, n, g, d), tuple(ls), tuple(insertions))
    return complete_intersection_integral(problem).value


def reference_value(request: dict) -> dict:
    """The expected outcome of a valid request, by a route the CLI does not take."""
    from quotcount.symfunc import chern
    from quotcount.twist import closed_form_lg24, closed_form_projective

    mode, g, d = request["mode"], request["g"], request["d"]
    if mode in ("grassmannian", "oracle-check", "duality-check"):
        return {"value": str(_grassmann_value(request))}
    if mode == "hypersurface":
        degrees = dict((i, x) for _, i, x in parse_ins(request["ins"]))
        return {"value": str(closed_form_lg24(g, d, degrees.get(1, 0), degrees.get(2, 0)).value)}
    if mode == "complete-intersection":
        return {"value": str(closed_form_projective(g, d, request["r"], request["multidegree"]).value)}
    if mode == "closed-form" and request["variant"] == "lg24":
        m1, m2 = request["m1"], request["m2"]
        value = _section_engine(g, d, 2, 4, (1,), [chern(1)] * m1 + [chern(2)] * m2)
        return {"value": str(value)}
    if mode == "closed-form":
        r, ls = request["r"], request["multidegree"]
        e = _vdim(r, r + 1, g, d) - sum(d * l - g + 1 for l in ls)
        return {"value": str(_section_engine(g, d, r, r + 1, ls, [chern(1)] * e))}
    if mode == "b-reduce":
        # The plain count on G(r, r+1) with a1^vdim is (r+1)^g; each of s distinct
        # odd-class pairs divides it by n = r+1, and a repeat or s > d gives 0.
        pairs, n = request["b_pairs"], request["n"]
        vanishes = len(set(pairs)) < len(pairs) or len(pairs) > d
        return {"value": "0" if vanishes else str(Fraction(n) ** (g - len(pairs)))}
    if mode == "tevelev":
        r, (l,), t = request["r"], request["multidegree"], request["t"]
        q = _section_engine(g, d, r, r + 1, (l,), [chern(r - 1)] * t) / Fraction(l) ** t
        implied = Fraction(factorial(l), l ** l) ** t * q
        return {"value": str(q), "implied": str(implied)}
    raise ValueError(f"no reference route for mode {mode!r}")


def reference(jobs: list[dict]) -> list[dict]:
    """Expected outcome of every job: {"value": ...} or {"error": <type>}."""
    return [{"error": job["invalid"]} if job["invalid"] else reference_value(job["request"])
            for job in jobs]


def load_reference(workload: str, seed: int, data: bytes) -> list[dict] | None:
    """Stored expectations, when this seed's inputs were stored at generation time."""
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return None
    stored = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
    if stored["inputs_sha256"] != digest(data):
        raise RuntimeError(f"{workload}: generated inputs differ from the stored reference")
    return stored["expected"]


# -- output checks ---------------------------------------------------------------

def check_record(job: dict, expected: dict, record: dict | None) -> bool:
    """True when the program's record for this job is the expected outcome."""
    if record is None:
        return False
    if "error" in expected:
        error = record.get("error") or {}
        return (record.get("ok") is False and error.get("type") == expected["error"]
                and error.get("exit") == 2)
    if record.get("ok") is not True or record.get("is_integer") is not True:
        return False
    value = expected["value"]
    if record.get("value", {}).get("exact") != value:
        return False
    mode = job["request"]["mode"]
    if mode == "hypersurface":
        paths = record.get("paths") or {}
        return paths.get("agree") is True and paths.get("phi_expansion") == value
    if mode == "oracle-check":
        oracle = record.get("oracle") or {}
        return oracle.get("equal") is True and oracle.get("oracle") == value
    if mode == "duality-check":
        duality = record.get("duality") or {}
        return duality.get("equal") is True and duality.get("segre_side") == value
    if mode == "tevelev":
        return (record.get("tevelev") or {}).get("implied_tevelev") == expected["implied"]
    return True


def check_batch(jobs: list[dict], expected: list[dict], lines: list[dict], code: int) -> int:
    """Failed jobs in one batch run: lines are the marker, one record per job, the summary."""
    failed = 0
    for k, (job, exp) in enumerate(zip(jobs, expected)):
        record = lines[k + 1] if k + 1 < len(lines) else None
        if record is not None and record.get("summary"):
            record = None
        failed += not check_record(job, exp, record)
    summary = lines[-1] if lines else {}
    refused = sum(1 for job in jobs if job["invalid"])
    whole = (
        summary.get("summary") is True
        and summary.get("records") == len(jobs) + 1
        and summary.get("validation_errors") == refused
        and code == (2 if refused else 0)
        and len(lines) == len(jobs) + 2
    )
    # A broken batch framing fails every job whose record cannot be trusted.
    return failed if whole else len(jobs)
