"""Elementary and complete homogeneous symmetric polynomials of root tuples.

Incidence conditions enter the counting sums through two families of
symmetric polynomials evaluated at tuples of roots of unity: e_i for
Chern-type insertions and h_i for Segre-type insertions, both read off
one recurrence, `symmetric_prefix`.  The two are exchanged (up to sign of
the arguments) when a rank-r problem is traded for its rank-(n-r) mirror:
e_i of a tuple equals h_i of the negated complementary tuple.

A product of incidence classes is a `Monomial` of (Insertion, exponent)
pairs; `monomial` is its varargs spelling.  Every count takes one, or a
flat iterable that `as_monomial` counts into one, and reads its degree and
exponents from it: no power of an insertion is written out one factor at
a time.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .cyclotomic import Cyc, one, zero
from .errors import DimensionMismatchError

CHERN = "chern"
SEGRE = "segre"


class Insertion(NamedTuple("Insertion", [("kind", str), ("index", int)])):
    """A tagged incidence class: Chern(i) evaluates as e_i, Segre(i) as h_i."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> Insertion:
        if kind not in (CHERN, SEGRE):
            raise ValueError(f"unknown insertion kind {kind!r}")
        if index < 1:
            raise ValueError("insertion index must be a positive integer")
        return super().__new__(cls, kind, index)


def chern(i: int) -> Insertion:
    return Insertion(CHERN, i)


def segre(i: int) -> Insertion:
    return Insertion(SEGRE, i)


def monomial(*pairs: tuple[Insertion, int]) -> Monomial:
    """The product of the (insertion, exponent) pairs, as one `Monomial`."""
    return Monomial(pairs)


class Monomial(tuple):
    """A product of incidence classes: its (Insertion, exponent) pairs, sorted
    (Chern before Segre, then by index), each insertion once with a positive
    exponent.  Pairs of one insertion add up; a zero exponent drops out."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[Insertion, int]]) -> Monomial:
        exponents: dict[Insertion, int] = {}
        for ins, exp in pairs:
            if exp < 0:
                raise ValueError("exponents must be nonnegative")
            if exp:
                exponents[ins] = exponents.get(ins, 0) + exp
        return super().__new__(cls, sorted(exponents.items()))

    @property
    def degree(self) -> int:
        """The weighted degree: sum of index * exponent."""
        return sum(ins.index * exp for ins, exp in self)

    @property
    def present(self) -> tuple[Insertion, ...]:
        """Each insertion of the product once."""
        return tuple(ins for ins, _ in self)

    @property
    def cherns(self) -> tuple[tuple[int, int], ...]:
        """The (index, exponent) pairs of the Chern insertions, by index."""
        return tuple((ins.index, exp) for ins, exp in self if ins.kind == CHERN)

    @property
    def segres(self) -> tuple[tuple[int, int], ...]:
        """The (index, exponent) pairs of the Segre insertions, by index."""
        return tuple((ins.index, exp) for ins, exp in self if ins.kind == SEGRE)

    def times(self, ins: Insertion, exp: int) -> Monomial:
        """This product times ins^exp."""
        return Monomial((*self, (ins, exp)))


def as_monomial(insertions: Monomial | Iterable[Insertion]) -> Monomial:
    """The product of `insertions`: a Monomial as it is, a flat iterable counted."""
    if isinstance(insertions, Monomial):
        return insertions
    return Monomial((ins, 1) for ins in insertions)


def check_degree(insertions: Monomial, expected: int, what: str) -> None:
    """Refuse insertions whose degree is not `expected`, the `what` they must fill."""
    degree = insertions.degree
    if degree != expected:
        raise DimensionMismatchError(f"{what} is {expected}, but the insertion degree is {degree}")


def symmetric_prefix(kind: str, tup: Sequence[Cyc], kmax: int) -> list[Cyc]:
    """[e_0, ..., e_kmax] of the tuple for CHERN, [h_0, ..., h_kmax] for SEGRE.

    One variable z joins at a time: e_k += z * e_(k-1) for k descending (the
    old e_(k-1); e_k is 0 above the variables taken), h_k += z * h_(k-1) for
    k ascending (the new one), so each step is a product by z.
    """
    if not tup:
        raise ValueError("cannot infer the root order from an empty tuple")
    n = tup[0].order
    values = [one(n)] + [zero(n)] * kmax
    for taken, z in enumerate(tup, 1):
        for k in range(min(taken, kmax), 0, -1) if kind == CHERN else range(1, kmax + 1):
            values[k] = values[k] + z * values[k - 1]
    return values


def elementary(i: int, tup: Sequence[Cyc]) -> Cyc:
    """e_i of the tuple; 0 when i exceeds the tuple length (rank vanishing)."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if not tup:
        raise ValueError("cannot infer the root order from an empty tuple")
    if i > len(tup):
        return zero(tup[0].order)
    return symmetric_prefix(CHERN, tup, i)[i]


def complete_homogeneous(i: int, tup: Sequence[Cyc]) -> Cyc:
    """h_i of the tuple, defined for every i >= 0."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return symmetric_prefix(SEGRE, tup, i)[i]
