"""Exact evaluation of the root-of-unity counting sum on Grassmannian targets.

The virtual number of degree-d maps from a genus-g curve to G(r, n)
meeting prescribed special Schubert cycles is a finite sum: over each of
the C(n, r) subsets I of the n-th roots of unity, multiply the insertion
values (symmetric polynomials of the chosen roots) by the (g-1)-th power
of a weight J, add everything up, and apply a global sign (-1)^(d(r-1)).
The weight is computed division-free as

    J(I) = prod over i in I, k not in I of (zeta_i - zeta_k),

which agrees with the classical n*x^(n-1)-over-differences expression
because n*zeta^(n-1) is the product of the differences of zeta with all
other n-th roots.  At genus 0 the classical expression inverts without
a division:

    1/J(I) = n^(-r) * w^(sum of I) * prod over i != j in I of (w^i - w^j).

`_summand` evaluates a summand in `_packed_ring` (Kronecker substitution):
w -> 2^K maps Z[w]/(w^n - 1) onto the integers modulo 2^(K*n) - 1 as a
ring homomorphism, so a product by a root is a bit rotation, a factor
w^i - w^k is two rotations and a subtraction, and an insertion power is
square-and-multiply with a fold of the high bits onto the low ones.
K is two bits wider than a proven bound on every coefficient of the
integer sum (`_coefficient_bound`: C(n, r) times the l1 norms of the
insertion values and of the weight), so the sum's coefficients decode
exactly as balanced base-2^K digits (`balanced_digits`), once per job
(at genus 0 the packed sum carries n^r times the sum, and n^(-r) is
applied with the trace below).  A decoded coefficient above the bound is
an internal error.
`_Evaluator` keeps the same summand in `Cyc` arithmetic as the reference
for `vi_integral_orbit_reduced`, `j_factor` and the tests.

The sum is folded over the affine group I -> u*I + t (gcd(u, n) = 1)
acting on exponent subsets.  In top degree a rotation (t) leaves each
summand unchanged exactly, and a unit u maps it by the ring automorphism
sigma_u: w -> w^u.  Subsets are therefore visited as binary necklaces
(least rotations, generated in gap form by an FKM walk), necklaces
that a unit maps onto each other are merged, and one summand is evaluated
per affine orbit, weighted by the orbit's size.  The full subset sum
is the average of sigma_u(S) over the units u of Z/n for that weighted
sum S, which at a primitive root zeta is the field trace of S over
phi(n).  So the count is read off the decoded coefficients S_k as

    sign * (sum of S_k * c_n(k)) / (phi(n) * [n^r at genus 0]),

with c_n(k), Ramanujan's sum, the trace of zeta^k (`_ramanujan`); the
certificate is that the denominator divides the integer sum.  A trace
is rational by construction, so NotRationalError cannot fire on this
path, and a wrong summand can come out as a wrong integer.  A process
pool takes the representatives only when each of its processes gets
SUMMANDS_PER_WORKER or more (`pool_size`); each process returns its
packed residue, and the residues add up modulo 2^(K*n) - 1 before the
one decoding, so the result is identical for every worker count.

`vi_integral` is the one place a certified count is memoised.  Every
call checks `workers` and runs `_validate` first, so a refused request
never reaches the memo and a refusal is never stored.  The memo
(`_certified_count`, an lru_cache of MEMO_SIZE entries) is keyed by the
spec, the sorted (index, exponent) pairs of the Chern and of the Segre
insertions, and the process count the call would use; it stores the
certified VirtualCount.  `vi_integral` alone writes the engine's work into
the caller's `stats`, before the lookup (a hit reports what evaluating it
again would): it adds the C(n, r) `subsets` and the `summands` and sets
`workers`.  Every engine-backed count passes its caller's `stats` on, so
the duality check's two sums add up.  On the benchmark's batch-mixed file
(seed 1) it gets 1,021 calls past the batch's record memo, 699 distinct.
"""

from __future__ import annotations

import enum
import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import symfunc
from .cyclotomic import Cyc, extract_rational, one, root_of_unity, zero
from .errors import NonIntegralError, QuotcountError
from .symfunc import SEGRE, Insertion, Monomial, as_monomial, check_degree


class Enumerativity(enum.Enum):
    ENUMERATIVE_IF_WEAKLY_CONVEX = "enumerative-if-weakly-convex"
    VIRTUAL_ONLY = "virtual-only"
    OUT_OF_REGIME = "out-of-regime"


class Advisory(NamedTuple):
    status: Enumerativity
    reason: str


PLAIN_TARGET_ADVISORY = Advisory(
    Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX,
    "Grassmannian target: virtual counts agree with actual map counts for all "
    "sufficiently large d (classical weak convexity of the Grassmannian)",
)

SEGRE_ADVISORY = Advisory(
    Enumerativity.VIRTUAL_ONLY,
    "Segre-type insertions carry no enumerativity guarantee",
)


class VirtualCount(NamedTuple):
    """An exact virtual count: value and advisory, with `is_integer` read
    off the value."""

    value: Fraction
    advisory: Advisory

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def as_integer(self) -> int:
        return int(certified(self.value, self.advisory).value)


def certified(value: Fraction, advisory: Advisory) -> VirtualCount:
    """`value` as a count certified to be an integer; NonIntegralError if it is not."""
    if value.denominator != 1:
        raise NonIntegralError(f"count came out non-integral: {value}")
    return VirtualCount(value, advisory)


class GrassmannSpec(NamedTuple("GrassmannSpec", [("r", int), ("n", int), ("g", int), ("d", int)])):
    """Target G(r, n), domain genus g, map degree d."""

    __slots__ = ()

    def __new__(cls, r: int, n: int, g: int, d: int) -> GrassmannSpec:
        if not 1 <= r <= n:
            raise ValueError("rank must satisfy 1 <= r <= n")
        if g < 0:
            raise ValueError("genus must be nonnegative")
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return super().__new__(cls, r, n, g, d)

    @property
    def virtual_dim(self) -> int:
        """d*n + r*(n-r)*(1-g); negative values flag an unintegrable spec."""
        return self.d * self.n + self.r * (self.n - self.r) * (1 - self.g)

    @property
    def subset_count(self) -> int:
        return comb(self.n, self.r)

    def dual(self) -> GrassmannSpec:
        return GrassmannSpec(self.n - self.r, self.n, self.g, self.d)


class SubsetIndex(NamedTuple("SubsetIndex", [("indices", tuple[int, ...])])):
    """A strictly increasing r-tuple of exponents in [0, n); entry a means w^a."""

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...]) -> SubsetIndex:
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("indices must be strictly increasing")
        if indices and indices[0] < 0:
            raise ValueError("indices must be nonnegative")
        return super().__new__(cls, indices)

    def complement(self, n: int) -> SubsetIndex:
        inside = set(self.indices)
        return SubsetIndex(tuple(a for a in range(n) if a not in inside))


# -- colexicographic subset enumeration ------------------------------------

def iter_colex(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Yield the r-subsets of {0..n-1} in colex order."""
    cur = list(range(r))
    for _ in range(comb(n, r)):
        yield tuple(cur)
        for t in range(r):
            limit = cur[t + 1] if t + 1 < r else n
            if cur[t] + 1 < limit:
                cur[t] += 1
                for j in range(t):
                    cur[j] = j
                break


# -- orbit representatives -------------------------------------------------

def necklaces(n: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """Binary necklaces of length n with r ones, each with its rotation-orbit size.

    Each is the least rotation of a 0/1 string of length n, given as the
    positions of its ones with its number of distinct rotations, in
    ascending string order.  The least string has the greatest gaps
    a[1..r] between its ones (`_least_rotation`), so an FKM walk
    (Fredricksen-Kessler-Maiorana) on an explicit stack visits the gaps in
    descending order, kept to 1..a[1] and summing to n (Ruskey-Sawada,
    fixed density); gaps of period p | r make a string of period n*p/r.

    >>> necklaces(6, 2)
    [((4, 5), 6), ((3, 5), 6), ((2, 5), 3)]
    """
    if not 0 <= r <= n:
        raise ValueError("density must satisfy 0 <= r <= n")
    if r == 0:
        return [((), 1)]
    out: list[tuple[tuple[int, ...], int]] = []
    a = [n] * (r + 1)  # a[1..r] are the gaps; a[0] = n seeds the search
    # (t, p, s, x): a[t] = x ends gaps a[1..t] of period p and sum s.  The
    # next gap copies a[t + 1 - p], keeping p, or is smaller, starting
    # period t + 1; the copy is pushed last, so it is visited first.  No
    # later gap exceeds a[1], which at t + 1 = 1 is the next gap itself.
    stack = [(0, 1, 0, n)]
    while stack:
        t, p, s, x = stack.pop()
        a[t] = x
        if t == r:
            if r % p == 0:
                out.append((tuple(accumulate(a[1:], initial=-1))[1:], n * p // r))
            continue
        t += 1
        b = a[t - p]
        hi = min(b, n - s - (r - t))
        lo = max(1, n - s - (r - t) * a[1]) if t > 1 else -(-n // r)
        stack.extend((t, p if y == b else t, s + y, y) for y in range(lo, hi + 1))
    return out


def _units(n: int) -> list[int]:
    """The residues u in [1, n] prime to n; u = 1 comes first."""
    return [u for u in range(1, n + 1) if gcd(u, n) == 1]


def _least_rotation(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """The necklace of an r-subset of Z/n, as its positions.

    With 0 < 1, the least rotation of a 0/1 string with r >= 1 ones starts
    just after a one, and reading it as the gaps between cyclically
    consecutive ones, a longer first gap is a longer run of leading zeros.
    So the least rotation is the one whose gap sequence is the greatest,
    found in O(r^2) time, whatever n is.
    """
    points = sorted(subset)
    if not points:
        return ()
    r = len(points)
    gaps = [b - a for a, b in zip(points, points[1:])] + [points[0] + n - points[-1]]
    doubled = gaps + gaps
    start = max(range(r), key=lambda i: doubled[i:i + r])
    # the ones of the least rotation sit at the running gap sums, less one
    return tuple(accumulate(doubled[start:start + r], initial=-1))[1:]


@lru_cache(maxsize=64)
def affine_orbits(n: int, r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One r-subset per orbit of I -> u*I + t (gcd(u, n) = 1), with the orbit's size.

    Each orbit is the union of the rotation orbits of the necklaces u*I;
    its representative is the least of those necklaces.  Cached per
    (n, r), so the result is a tuple.
    """
    seen: set[tuple[int, ...]] = set()
    group = _units(n)
    reps = []
    for subset, period in necklaces(n, r):
        if subset in seen:
            continue
        images = {_least_rotation([u * a % n for a in subset], n) for u in group}
        seen.update(images)
        # A unit carries the rotations fixing I onto those fixing u*I, so
        # every image necklace has the representative's period.
        reps.append((subset, period * len(images)))
    return tuple(reps)


# -- summand assembly -------------------------------------------------------

class _Evaluator:
    """Per-process machinery turning a subset into its summand."""

    def __init__(self, spec: GrassmannSpec, cherns, segres):
        self.n, self.r = spec.n, spec.r
        self.gm1 = spec.g - 1
        self.cherns, self.segres = cherns, segres

    def insertion_product(self, tup: list[Cyc]) -> Cyc:
        acc = one(self.n)
        for powers, prefix in ((self.cherns, symfunc.elementary_prefix),
                               (self.segres, symfunc.homogeneous_prefix)):
            if powers:
                # powers are (index, exponent) pairs sorted by index
                values = prefix(tup, powers[-1][0])
                for i, exp in powers:
                    acc = acc * (values[i] if exp == 1 else values[i] ** exp)
        return acc

    def j_factor(self, subset: Sequence[int]) -> Cyc:
        inside = set(subset)
        acc = one(self.n)
        for i in subset:
            for k in range(self.n):
                if k not in inside:
                    acc = acc.times_difference(i, k)
        return acc

    def j_inverse(self, subset: Sequence[int]) -> Cyc:
        """n^(-r) * w^(sum of I) * prod over i != j in I of (w^i - w^j).

        This is 1/J in the field: J = prod over i in I of n*zeta_i^(n-1),
        over the product of the differences of the chosen roots.
        """
        acc = root_of_unity(self.n, sum(subset))
        for i in subset:
            for j in subset:
                if i != j:
                    acc = acc.times_difference(i, j)
        return acc.scale(Fraction(1, self.n ** self.r))

    def summand(self, subset: Sequence[int]) -> Cyc:
        acc = self.insertion_product([root_of_unity(self.n, a) for a in subset])
        if self.gm1 == 0:
            return acc
        if self.gm1 < 0:
            return acc * self.j_inverse(subset)
        j = self.j_factor(subset)
        return acc * (j if self.gm1 == 1 else j ** self.gm1)


def _validate(spec: GrassmannSpec, insertions: Monomial | Iterable[Insertion]) -> Monomial:
    """The insertions as a monomial, after the engine's refusals: a Chern
    index above the rank (the largest one is named), then an insertion
    degree other than the virtual dimension."""
    monomial = as_monomial(insertions)
    cherns = monomial.cherns
    if cherns and cherns[-1][0] > spec.r:
        raise ValueError(f"Chern insertion index {cherns[-1][0]} exceeds rank {spec.r}")
    check_degree(monomial, spec.virtual_dim, "virtual dimension")
    return monomial


def _sign(spec: GrassmannSpec) -> int:
    return -1 if (spec.d * (spec.r - 1)) % 2 else 1


def _finalize(spec: GrassmannSpec, total: Fraction, segres: Sequence[tuple[int, int]]) -> VirtualCount:
    """Sign the subset sum `total` and certify it as an integer: on the engine
    path, that phi(n) * [n^r at genus 0] divides the trace sum.  `segres`
    are the grouped Segre exponents; any at all make the count virtual only."""
    advisory = SEGRE_ADVISORY if segres else PLAIN_TARGET_ADVISORY
    return certified(total * _sign(spec), advisory)


def j_factor(spec: GrassmannSpec, index: SubsetIndex) -> Cyc:
    """J of the chosen roots, as the product of r*(n-r) root differences."""
    if len(index.indices) != spec.r or any(a >= spec.n for a in index.indices):
        raise ValueError("subset does not match the spec")
    return _Evaluator(spec, (), ()).j_factor(index.indices)


def _coefficient_bound(spec: GrassmannSpec, cherns, segres) -> int:
    """A proven bound B on every coefficient of the orbit-weighted sum S.

    The l1 norm ||x|| (the sum of the absolute coefficients) of
    Z[w]/(w^n - 1) satisfies ||xy|| <= ||x|| ||y||, and a coefficient is
    at most the l1 norm.  Per summand: e_i of r roots is a sum of
    C(r, i) roots and h_i one of C(r+i-1, i), so ||e_i|| <= C(r, i) and
    ||h_i|| <= C(r+i-1, i); a root difference has ||w^a - w^b|| = 2, and
    J is a product of r*(n-r) of them, while n^r/J at genus 0 is a root
    times r*(r-1) of them.  The orbit sizes weighting the summands add up
    to C(n, r).  Hence

        B = C(n, r) * prod C(r, i)^x_i * prod C(r+i-1, i)^y_i * 2^m

    over Chern classes a_i^x_i and Segre classes s_i^y_i, with
    m = r*(n-r)*(g-1) for g >= 1 and m = r*(r-1) at genus 0, where the
    packed sum carries n^r * S.
    """
    r, n, g = spec.r, spec.n, spec.g
    bound = comb(n, r)
    for i, x in cherns:
        bound *= comb(r, i) ** x
    for i, y in segres:
        bound *= comb(r + i - 1, i) ** y
    return bound << (r * (r - 1) if g == 0 else r * (n - r) * (g - 1))


def _packed_ring(n: int, width: int):
    """Z[w]/(w^n - 1) packed into the integers modulo M = 2^(width*n) - 1
    by w -> 2^width, as (M, rotate, times): rotate(x, a) = x * w^a, for
    0 <= a < n, turns a width*n-bit word by width*a bits, and times folds
    the high half of a product onto the low one (2^(width*n) = 1 modulo M).
    Nothing divides a word: CPython divides big integers in quadratic time.
    Values stay in [0, M].
    """
    bits = width * n
    m = (1 << bits) - 1

    def rotate(x: int, a: int) -> int:
        s = width * a
        return ((x << s) & m) | (x >> (bits - s))

    def times(x: int, y: int) -> int:
        t = x * y
        t = (t & m) + (t >> bits)
        return t - m if t >= m else t

    return m, rotate, times


def _summand(ring, subset: Sequence[int], n: int, cherns, segres, gm1: int) -> int:
    """The summand of `subset` (times n^r at genus 0, gm1 = g - 1) in `ring`,
    a (modulus, rotate, times) triple such as `_packed_ring`'s."""
    m, rotate, times = ring

    def power(x: int, k: int) -> int:  # square-and-multiply
        out = 1
        while k:
            if k & 1:
                out = times(out, x)
            k >>= 1
            if k:
                x = times(x, x)
        return out

    acc = 1
    # As root w^a joins, e_k += w^a * e_(k-1) top down (the old e_(k-1); e_k is
    # 0 above the roots filled) and h_k += w^a * h_(k-1) bottom up (the new one).
    for powers, elementary in ((cherns, True), (segres, False)):
        if powers:
            top = powers[-1][0]
            values = [1] + [0] * top
            for filled, a in enumerate(subset, 1):
                for k in range(min(filled, top), 0, -1) if elementary else range(1, top + 1):
                    t = values[k] + rotate(values[k - 1], a)
                    values[k] = t - m if t >= m else t
            for i, x in powers:
                acc = times(acc, power(values[i], x))
    if gm1:
        # J is the product over i in I, k not in I of w^i - w^k = w^i * (1 - w^(k-i)),
        # n^r/J is w^(sum of I) times that over i != k in I; the powers of w add
        # up to a turn by len(others) * (sum of I).  A first power is taken on acc.
        inside = set(subset)
        others = subset if gm1 < 0 else [k for k in range(n) if k not in inside]
        x = acc if gm1 < 2 else 1
        for i in subset:
            for k in others:
                if k != i:
                    t = x - rotate(x, (k - i) % n)
                    x = t + m if t < 0 else t
        x = rotate(x, len(others) * sum(subset) % n)
        acc = x if gm1 < 2 else times(acc, power(x, gm1))
    return acc


def _packed_sum(job) -> int:
    """S (times n^r at genus 0) as a residue modulo 2^(K*n) - 1."""
    spec, cherns, segres, reps, width = job
    ring = _packed_ring(spec.n, width)
    total = sum(weight * _summand(ring, subset, spec.n, cherns, segres, spec.g - 1) for subset, weight in reps)
    return _fold(total, width * spec.n)


def _fold(t: int, bits: int) -> int:
    """t >= 0 modulo 2^bits - 1, in [0, 2^bits - 1]: the bits above `bits`
    are added back onto the low ones until none are left."""
    m = (1 << bits) - 1
    while t > m:
        t = (t & m) + (t >> bits)
    return t


def balanced_digits(x: int, width: int, n: int) -> tuple[int, ...]:
    """The integer coefficients of the element of Z[w]/(w^n - 1) packed as x.

    w -> 2^width maps Z[w]/(w^n - 1) onto the integers modulo
    M = 2^(width*n) - 1 as a ring homomorphism.  Given x >= 0, this
    returns the coefficients c_0..c_(n-1), each in
    [-2^(width-1), 2^(width-1)), whose image is x modulo M; they are the
    element's own when every coefficient of that element is smaller than
    2^(width-2) in absolute value.  Adding 2^(width-1) to every digit
    makes them all nonnegative, so after a fold (`_fold`) they are read
    off with shifts and masks.

    >>> balanced_digits(3 - 2 * 16 + 1 * 256, 4, 3)
    (3, -2, 1)
    >>> balanced_digits(2**12 - 2, 4, 3)  # -1 modulo 2^12 - 1
    (-1, 0, 0)
    """
    half = 1 << (width - 1)
    y = _fold(x + sum(half << (width * k) for k in range(n)), width * n)
    mask = (1 << width) - 1
    return tuple(((y >> (width * k)) & mask) - half for k in range(n))


def _folded_total(spec: GrassmannSpec, cherns, segres, workers: int) -> tuple[int, ...]:
    """The coefficients of S (times n^r at genus 0).

    S = sum of orbit size * summand(representative) over the affine orbits
    is evaluated packed (`_packed_sum`), split across `workers` processes
    when there is more than one; the residues add up modulo 2^(K*n) - 1
    and decode once into S, which must respect `_coefficient_bound`.
    """
    n = spec.n
    bound = _coefficient_bound(spec, cherns, segres)
    width = bound.bit_length() + 2
    reps = affine_orbits(n, spec.r)
    jobs = [(spec, cherns, segres, reps[w::workers], width) for w in range(min(workers, len(reps)))]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            packed = sum(pool.map(_packed_sum, jobs))
    else:
        packed = _packed_sum(jobs[0])
    coeffs = balanced_digits(packed, width, n)
    if any(abs(c) > bound for c in coeffs):
        raise QuotcountError(
            f"packed sum of {spec} has a coefficient above its proven bound {bound}"
        )
    return coeffs


@lru_cache(maxsize=64)
def _ramanujan(n: int) -> tuple[int, ...]:
    """Ramanujan's sums c_n(k) for k in [0, n): the traces of zeta^k, zeta a
    primitive n-th root, from c_n(k) = mu(m) * phi(n) / phi(m) with
    m = n / gcd(n, k).  c_n(0) is phi(n).

    >>> _ramanujan(12)
    (4, 0, 2, 0, -2, 0, -4, 0, -2, 0, 2, 0)
    """
    mobius: dict[int, int] = {}
    for m in range(1, n + 1):
        if n % m == 0:  # sum of mu(d) over the divisors d of m is [m == 1]
            mobius[m] = 1 if m == 1 else -sum(v for d, v in mobius.items() if m % d == 0)
    phi = len(_units(n))
    return tuple(mobius[m] * phi // len(_units(m)) for m in (n // gcd(n, k) for k in range(n)))


# On a 2-CPU host (medians of 5 alternating repeats, packed summands) a
# 2-process pool lost at 294 and 870 genus-1 representatives (G(5,24),
# G(6,24)), lost or won by turns from 2,643 to 5,075 (G(6,30), G(7,28),
# G(8,26)) and won from 8,708 on (G(7,30), G(8,28)).
SUMMANDS_PER_WORKER = 4096


def pool_size(workers: int, summands: int, cpus: int) -> int:
    """Processes for a sum of `summands` terms: at most `workers`, `cpus` and
    one per SUMMANDS_PER_WORKER summands, and at least one."""
    return max(1, min(workers, cpus, summands // SUMMANDS_PER_WORKER))


# Entries of `_certified_count`.  The 699 entries batch-mixed leaves hold
# 383 KiB (tracemalloc started after a gc.collect(), freed by cache_clear),
# about 560 bytes each, so a full memo of small counts takes about 2.3 MB.
MEMO_SIZE = 4096


def vi_integral(
    spec: GrassmannSpec, insertions: Monomial | Iterable[Insertion], workers: int = 1,
    stats: Optional[dict] = None,
) -> VirtualCount:
    """The counting sum over all C(n, r) root subsets, on at most `workers`
    processes; `subsets` and `summands` (affine orbits) add up in `stats`, `workers` is set."""
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    monomial = _validate(spec, insertions)
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    summands = len(affine_orbits(spec.n, spec.r))
    used = pool_size(workers, summands, cpus)
    if stats is not None:
        stats.update(subsets=stats.get("subsets", 0) + spec.subset_count,
                     summands=stats.get("summands", 0) + summands, workers=used)
    return _certified_count(spec, monomial.cherns, monomial.segres, used)


@lru_cache(maxsize=MEMO_SIZE)
def _certified_count(spec: GrassmannSpec, cherns, segres, used: int) -> VirtualCount:
    """The certified count of a validated request on `used` processes; an
    exception (a failed certificate, a coefficient above its bound) is
    raised, never stored."""
    coeffs = _folded_total(spec, cherns, segres, used)
    traces = _ramanujan(spec.n)
    scale = traces[0] * (spec.n ** spec.r if spec.g == 0 else 1)  # phi(n) * [n^r at genus 0]
    total = Fraction(sum(map(mul, coeffs, traces)), scale)
    return _finalize(spec, total, segres)


def vi_integral_orbit_reduced(
    spec: GrassmannSpec, insertions: Monomial | Iterable[Insertion],
) -> VirtualCount:
    """Same value as vi_integral, summing one representative per rotation orbit.

    Rotating a subset (add 1 to every exponent mod n) scales the insertion
    product by w^(sum of degrees) and J^(g-1) by w^(r(n-r)(g-1)); in top
    degree the two exponents cancel mod n, so each orbit contributes its
    size times any one summand.
    """
    monomial = _validate(spec, insertions)
    n, r = spec.n, spec.r
    ev = _Evaluator(spec, monomial.cherns, monomial.segres)
    total = zero(n)
    for subset in iter_colex(n, r):
        orbit = {tuple(sorted((a + s) % n for a in subset)) for s in range(n)}
        if min(orbit, key=lambda t: t[::-1]) != subset:
            continue
        total = total + ev.summand(subset).scale(len(orbit))
    return _finalize(spec, extract_rational(total), monomial.segres)


def vi_integral_parallel(
    spec: GrassmannSpec, insertions: Monomial | Iterable[Insertion], workers: int
) -> VirtualCount:
    """vi_integral with a required worker bound (the older name)."""
    return vi_integral(spec, insertions, workers)


class DualityReport(NamedTuple):
    chern_side: VirtualCount
    segre_side: VirtualCount

    @property
    def equal(self) -> bool:
        return self.chern_side.value == self.segre_side.value


def duality_check(
    spec: GrassmannSpec, chern_insertions: Monomial | Iterable[Insertion], workers: int = 1,
    stats: Optional[dict] = None,
) -> DualityReport:
    """Compare the rank-r Chern-insertion count with its rank-(n-r) mirror,
    each summed on at most `workers` processes; the two sums' work adds up in `stats`.

    The mirror problem replaces every Chern(i) by Segre(i) on G(n-r, n);
    the two integrals are equal.  Segre indices may exceed n-r, so no
    extra bound is imposed on the mirror side.  The duality check's
    refusals come before the engine's, which the Chern side runs.
    """
    monomial = as_monomial(chern_insertions)
    if monomial.segres:
        raise ValueError("duality check starts from Chern insertions only")
    if spec.r >= spec.n:
        raise ValueError("duality requires rank < n (the mirror rank must be positive)")
    lhs = vi_integral(spec, monomial, workers, stats)
    mirrored = Monomial((Insertion(SEGRE, i), x) for i, x in monomial.cherns)
    rhs = vi_integral(spec.dual(), mirrored, workers, stats)
    return DualityReport(lhs, rhs)
