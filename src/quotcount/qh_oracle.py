"""Genus-0 cross-check: Pieri products with n-rim-hook reduction.

The degree-d count of rational maps to G(r, n) through special Schubert
cycles at fixed domain points equals a structure coefficient of the small
quantum ring: multiply the unit class by one special class per insertion,
reducing any partition that leaves the r x (n-r) box by removing rim
hooks of size n (one power of q and a sign per hook), and read off the
coefficient of the full box at q^d.  No root of unity enters, so the
oracle shares no arithmetic with the engine.

Conventions, locked by tests rather than assumed: the Chern-type
insertion of index i is the class of the transposed one-row shape (the
column with i boxes), so it multiplies by a vertical i-strip; the
Segre-type insertion multiplies by a horizontal i-strip.  Rim hooks are
removed head-first from the end of the first row with sign
(-1)^(r - height); if the hook does not fit, the term vanishes.  With
these choices every product of effective classes has nonnegative
coefficients, which the count asserts.

How the count is organised:

- One Pieri row per (padded shape, index, kind, n), in one bounded
  table (`_pieri_row`): the strips on the shape, each reduced into the
  box, merged, zero coefficients dropped.  `QClass` products and the
  count both read it, so the module has one Pieri implementation.
- Largest index first.  The ring is commutative, so the count sorts the
  insertions by descending index: the rows with the most strips are then
  built while the class still has few terms.
- Two half-products paired by duality.  The sorted insertions are dealt
  alternately into halves A and B, each multiplied out from the unit.
  The count is the coefficient of sigma_box q^d in A * B, which is
  sum_lambda A_lambda * B_lambda^vee, with lambda^vee the complement of
  lambda in the box.  The reason is the fundamental-class axiom (Bertram,
  "Quantum Schubert calculus", 1997): the sigma_box q^e coefficient of
  sigma_lambda * sigma_mu is a three-point invariant with the unit class,
  so it is delta_(e,0) * delta_(mu,lambda^vee).  The q-powers need no
  bookkeeping: a term's q-power is (its degree - its size) / n, and the
  halves' degrees add up to d*n + r*(n-r), so a paired term has q^d.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import QuotcountError
from .symfunc import CHERN, SEGRE, Insertion, check_degree


class Partition(NamedTuple("Partition", [("parts", tuple[int, ...])])):
    """A weakly decreasing tuple of positive integers (rows of a shape)."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Partition:
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive (trailing zeros are implicit)")
        if any(b > a for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self.parts)


def _strip_zeros(padded: Iterable[int]) -> tuple[int, ...]:
    return tuple(p for p in padded if p)


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")


def _check_index(r: int, kind: str, i: int) -> None:
    if kind == CHERN and not 1 <= i <= r:
        raise ValueError(f"special index must satisfy 1 <= i <= {r}")
    if i < 1:
        raise ValueError("index must be a positive integer")


def _vertical_strips(padded: tuple[int, ...], i: int) -> tuple[tuple[int, ...], ...]:
    # All ways of adding i boxes, no two in the same row.  Depth first on
    # an explicit stack, so that no number of rows is too many: a frame
    # (j, left, prev) sets row j-1 to prev and continues at row j.
    r = len(padded)
    out: list[tuple[int, ...]] = []
    acc = [0] * r
    stack = [(0, i, 10**9)]
    while stack:
        j, left, prev = stack.pop()
        if j:
            acc[j - 1] = prev
        if left > r - j:
            continue
        if j == r:
            out.append(tuple(acc))
            continue
        # pushed in reverse, so a row is kept before it grows
        if left and padded[j] + 1 <= prev:
            stack.append((j + 1, left - 1, padded[j] + 1))
        if padded[j] <= prev:
            stack.append((j + 1, left, padded[j]))
    return tuple(out)


def _horizontal_strips(padded: tuple[int, ...], i: int) -> tuple[tuple[int, ...], ...]:
    # All ways of adding i boxes, no two in the same column:
    # row j may grow up to the length of row j-1 in the old shape.
    # A frame (j, left, new) sets row j-1 to new and continues at row j.
    r = len(padded)
    out: list[tuple[int, ...]] = []
    acc = [0] * r
    stack = [(0, i, 0)]
    while stack:
        j, left, new = stack.pop()
        if j:
            acc[j - 1] = new
        if j == r:
            if left == 0:
                out.append(tuple(acc))
            continue
        low = padded[j]
        prev_old = padded[j - 1] if j else low + i
        # pushed in reverse, so the shortest row comes first
        for new in range(min(prev_old, low + left), low - 1, -1):
            stack.append((j + 1, left - (new - low), new))
    return tuple(out)


def _rim_hook_reduce(padded: tuple[int, ...], r: int, n: int):
    """Bring a shape back into the box, one n-hook at a time.

    Returns (padded_shape, q_added, sign) or None when a hook fails to
    fit (the class vanishes).  Uses first-column hook lengths: removing
    the hook headed at the end of the first row subtracts n from the top
    one; a collision or a negative value kills the term, and the sign is
    (-1)^(r - height) with height = 1 + number of values jumped over.
    """
    cols = n - r
    cur = list(padded)
    q_added = 0
    sign = 1
    while cur[0] > cols:
        betas = [cur[j] + (r - 1 - j) for j in range(r)]
        head = betas[0] - n
        if head < 0 or head in betas[1:]:
            return None
        height = 1 + sum(1 for b in betas[1:] if b > head)
        sign *= -1 if (r - height) % 2 else 1
        betas = sorted(betas[1:] + [head], reverse=True)
        cur = [betas[j] - (r - 1 - j) for j in range(r)]
        q_added += 1
    return tuple(cur), q_added, sign


# Products revisit the same (shape, insertion) pairs many times; the
# table is bounded.
@lru_cache(maxsize=16384)
def _pieri_row(padded: tuple[int, ...], i: int, kind: str, n: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The Pieri product of one shape by the special class (kind, i).

    Returns ((padded shape, q added, coefficient), ...): the vertical
    (Chern) or horizontal (Segre) i-strips on `padded`, each brought
    back into the r x (n-r) box with r = len(padded), merged, zero
    coefficients dropped.
    """
    strips = _vertical_strips if kind == CHERN else _horizontal_strips
    merged: dict[tuple[tuple[int, ...], int], int] = {}
    for grown in strips(padded, i):
        reduced = _rim_hook_reduce(grown, len(padded), n)
        if reduced is not None:
            shape, dq, sign = reduced
            merged[shape, dq] = merged.get((shape, dq), 0) + sign
    return tuple((shape, dq, c) for (shape, dq), c in merged.items() if c)


class QClass:
    """An integer combination of (box partition, q-power) basis elements."""

    def __init__(self, r: int, n: int, terms: dict[tuple[tuple[int, ...], int], int] | None = None):
        self.r, self.n = r, n
        self.terms = {} if terms is None else terms

    @classmethod
    def unit(cls, r: int, n: int) -> QClass:
        _check_rank(r, n)
        return cls(r, n, {((), 0): 1})

    def coefficient(self, partition: Partition, q_power: int) -> int:
        return self.terms.get((partition.parts, q_power), 0)

    def _multiply(self, i: int, kind: str) -> QClass:
        _check_index(self.r, kind, i)
        result: dict[tuple[tuple[int, ...], int], int] = {}
        for (parts, q), coeff in self.terms.items():
            padded = parts + (0,) * (self.r - len(parts))
            for shape, dq, c in _pieri_row(padded, i, kind, self.n):
                key = (_strip_zeros(shape), q + dq)
                result[key] = result.get(key, 0) + c * coeff
        return QClass(self.r, self.n, {k: v for k, v in result.items() if v})


def pieri_multiply(c: QClass, i: int) -> QClass:
    """Multiply by the Chern-type special class of index i (vertical strips)."""
    return c._multiply(i, CHERN)


def pieri_multiply_segre(c: QClass, i: int) -> QClass:
    """Multiply by the Segre-type class of index i (horizontal strips)."""
    return c._multiply(i, SEGRE)


def _half_product(r: int, n: int, insertions: Sequence[Insertion]) -> dict[tuple[int, ...], int]:
    """The insertions multiplied out from the unit, keyed by padded shape alone.

    A term's q-power is (degree so far - size) / n, so the shape fixes it.
    Every intermediate combination of effective classes must have
    nonnegative coefficients; a Segre index past the box reduces with
    signs by design, so it switches the guard off.
    """
    effective = all(ins.kind == CHERN or ins.index <= n - r for ins in insertions)
    terms = {(0,) * r: 1}
    for ins in insertions:
        grown: dict[tuple[int, ...], int] = {}
        for shape, coeff in terms.items():
            for new, _, c in _pieri_row(shape, ins.index, ins.kind, n):
                grown[new] = grown.get(new, 0) + c * coeff
        terms = {k: v for k, v in grown.items() if v}
        if effective and any(v < 0 for v in terms.values()):
            raise QuotcountError(
                "negative structure coefficient: special-class convention broken"
            )
    return terms


def fixed_domain_count_g0(r: int, n: int, d: int, insertions: Iterable[Insertion]) -> int:
    """Degree-d count of rational maps through the given special cycles.

    The coefficient of the full box at q^d in the product of the
    insertions, read off as the pairing of two half-products (module
    docstring).  Valid when the insertion degree equals d*n + r*(n-r).
    """
    insertions = tuple(insertions)
    if d < 0:
        raise ValueError("degree must be nonnegative")
    check_degree(insertions, d * n + r * (n - r), "genus-0 virtual dimension")
    if r == n:
        # Point target: a single constant map, no conditions to impose.
        if d == 0:
            return 1
        raise ValueError("the quantum oracle covers the point target only at d = 0")
    _check_rank(r, n)
    for ins in insertions:
        _check_index(r, ins.kind, ins.index)
    ordered = sorted(insertions, key=lambda ins: ins.index, reverse=True)
    a = _half_product(r, n, ordered[0::2])
    b = _half_product(r, n, ordered[1::2])
    cols = n - r
    return sum(
        coeff * b.get(tuple(cols - p for p in reversed(shape)), 0) for shape, coeff in a.items()
    )
