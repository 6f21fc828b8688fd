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
Segre-type insertion multiplies by a horizontal i-strip.  Row j of a
shape padded to r rows is a bead at b_j = lambda_j + r - 1 - j, and a
strip moves beads up: a vertical i-strip moves i beads one place each,
each onto a free place; a horizontal strip moves each bead j >= 1 at most
to just below the old place of bead j - 1, and the first bead takes the
rest.  Only the first bead can reach n, so the reduction into the box is
one step: the bead lands on b mod n after q = b // n rim hooks of size
n, with sign (-1)^((r-1)q + the number of beads it jumps), and the term
vanishes if it lands on another bead.  This is the same as removing the
hooks head-first from the end of the first row, one at a time, with sign
(-1)^(r - height) each.  With these choices every product of effective
classes has nonnegative coefficients, which the count asserts.

How the count is organised:

- One Pieri row per (padded shape, index, kind, n), in one bounded
  table (`_pieri_row`): one walk over the bead moves of both kinds of
  strip, each reduced into the box in its one step, merged, zero
  coefficients dropped.
- One product, `QClass.times`: a `QClass` is keyed by (padded shape,
  q-power), and multiplying it by a special class adds up the Pieri row
  of each of its terms.  The count multiplies only through it.
- Largest index first.  The ring is commutative, so the count takes the
  insertions by descending index: the rows with the most strips are then
  built while the class still has few terms.
- Two `QClass` halves paired by duality.  The factors, in that order,
  are dealt alternately into halves A and B, each multiplied out from
  the unit.  The count is the coefficient of sigma_box q^d in A * B,
  which is sum A_(lambda, e) * B_(lambda^vee, d - e), with lambda^vee
  the complement of lambda in the box.  The reason is the
  fundamental-class axiom (Bertram, "Quantum Schubert calculus", 1997):
  the sigma_box q^e coefficient of sigma_lambda * sigma_mu is a
  three-point invariant with the unit class, so it is
  delta_(e,0) * delta_(mu,lambda^vee).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Iterable, NamedTuple

from .errors import QuotcountError
from .symfunc import CHERN, Insertion, Monomial, as_monomial, check_degree
from .vi_engine import GrassmannSpec


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


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")


# Products revisit the same (shape, insertion) pairs many times; the
# table is bounded.
@lru_cache(maxsize=16384)
def _pieri_row(padded: tuple[int, ...], i: int, kind: str, n: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The Pieri product of one shape by the special class (kind, i).

    Returns ((padded shape, q added, coefficient), ...): the vertical
    (Chern) or horizontal (Segre) i-strips on `padded`, each brought
    back into the r x (n-r) box with r = len(padded), merged, zero
    coefficients dropped.  The strips are bead moves (module docstring),
    walked from the bottom bead up: each bead ends above the new place of
    the bead below it, and the first bead takes the boxes left.
    """
    r = len(padded)
    steps = range(r - 1, -1, -1)
    beads = list(map(add, padded, steps))
    new = beads[:]
    chern = kind == CHERN
    merged: dict[tuple[tuple[int, ...], int], int] = {}
    # Depth first on an explicit stack, so that no number of rows is too
    # many: a frame (j, left, below) sets bead j+1 to below and moves bead j.
    stack = [(r - 1, i, -1)]
    while stack:
        j, left, below = stack.pop()
        if j < r - 1:
            new[j + 1] = below
        b = beads[j]
        if j:
            # in a vertical strip the j beads above can take only j boxes
            low, top = (max(b, below + 1, b + left - j), b + 1) if chern else (b, beads[j - 1] - 1)
            for place in range(low, min(top, b + left) + 1):
                stack.append((j - 1, left - (place - b), place))
        elif below < b + left and (left <= 1 or not chern):
            q, head = divmod(b + left, n)
            rest = new[1:]
            if head in rest:
                continue
            jumps = sum(1 for x in rest if x > head) if q else 0
            rest.insert(jumps, head)
            key = tuple(map(sub, rest, steps)), q
            merged[key] = merged.get(key, 0) + (-1 if ((r - 1) * q + jumps) % 2 else 1)
    return tuple((shape, dq, c) for (shape, dq), c in merged.items() if c)


class QClass:
    """An integer combination of (padded box shape, q-power) basis elements."""

    def __init__(self, r: int, n: int, terms: dict[tuple[tuple[int, ...], int], int] | None = None):
        self.r, self.n = r, n
        self.terms = {} if terms is None else terms

    @classmethod
    def unit(cls, r: int, n: int) -> QClass:
        _check_rank(r, n)
        return cls(r, n, {((0,) * r, 0): 1})

    def coefficient(self, partition: Partition, q_power: int) -> int:
        """The coefficient of sigma_partition q^q_power; 0 for a shape of
        more than r rows, which no class of G(r, n) has."""
        parts = partition.parts
        if len(parts) > self.r:
            return 0
        return self.terms.get((parts + (0,) * (self.r - len(parts)), q_power), 0)

    def times(self, ins: Insertion) -> QClass:
        """This class times the special class `ins`, one Pieri row per term."""
        if ins.kind == CHERN and ins.index > self.r:
            raise ValueError(f"special index must satisfy 1 <= i <= {self.r}")
        i, kind, n = ins.index, ins.kind, self.n
        grown: dict[tuple[tuple[int, ...], int], int] = {}
        for (shape, q), coeff in self.terms.items():
            for new, dq, c in _pieri_row(shape, i, kind, n):
                key = new, q + dq
                grown[key] = grown.get(key, 0) + c * coeff
        return QClass(self.r, n, {k: v for k, v in grown.items() if v})


def fixed_domain_count_g0(r: int, n: int, d: int, insertions: Monomial | Iterable[Insertion]) -> int:
    """Degree-d count of rational maps through the given special cycles.

    The coefficient of the full box at q^d in the product of the
    insertions, read off as the pairing of two `QClass` halves (module
    docstring).  The insertion degree must equal the `virtual_dim` of
    `GrassmannSpec(r, n, 0, d)`, which refuses the rank and the degree.
    """
    monomial = as_monomial(insertions)
    check_degree(monomial, GrassmannSpec(r, n, 0, d).virtual_dim, "genus-0 virtual dimension")
    if r == n:
        # Point target: a single constant map, no conditions to impose.
        if d == 0:
            return 1
        raise ValueError("the quantum oracle covers the point target only at d = 0")
    # Every product of effective classes has nonnegative coefficients; a
    # Segre index past the box reduces with signs by design.
    effective = all(ins.kind == CHERN or ins.index <= n - r for ins in monomial.present)
    factors = [ins for ins, exp in sorted(monomial, key=lambda pair: pair[0].index, reverse=True)
               for _ in range(exp)]
    halves = [QClass.unit(r, n), QClass.unit(r, n)]
    for dealt, ins in enumerate(factors):
        half = halves[dealt % 2] = halves[dealt % 2].times(ins)
        if effective and any(v < 0 for v in half.terms.values()):
            raise QuotcountError("negative structure coefficient: special-class convention broken")
    a, b = halves
    cols = n - r
    return sum(
        coeff * b.terms.get((tuple(cols - p for p in reversed(shape)), d - q), 0)
        for (shape, q), coeff in a.terms.items()
    )
