"""Exact arithmetic in Z[w]/(w^n - 1) for a fixed n-th root of unity w.

Elements are dense length-n vectors of integers; multiplication wraps
exponents modulo n, so no representative ever leaves length n, and a
product by a root c*w^a is a rotation of the coefficients.  The ring has
zero divisors, but the counting formulas never divide in it: their
genus-0 weight n^r/J is a product of root differences, and the caller
divides the finished constant by n^r.  Rationality of a finished sum is
decided by reduction modulo the n-th cyclotomic polynomial (the minimal
polynomial of a primitive root), so the field Q[w]/Phi_n enters only
there.

`Cyc` serves the reference route only: the evaluator
`vi_engine._Evaluator`, the e/h recurrence `symfunc.symmetric_prefix` it
calls, and the reduction modulo Phi_n.  The engine builds no `Cyc`.

>>> w = root_of_unity(4, 1)
>>> (w * w).coeffs
(0, 0, 1, 0)
>>> extract_rational(w**4)
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add, sub
from typing import Iterable, Union

from .errors import NotRationalError, OrderMismatchError


def _integer(c) -> int:
    k = int(c)
    if k != c:
        raise ValueError(f"{c} is not an integer")
    return k


class Cyc:
    """An element of Z[w]/(w^n - 1), coefficient k multiplying w^k."""

    __slots__ = ("order", "_num")

    def __init__(self, order: int, coeffs: Iterable[int]):
        if order < 1:
            raise ValueError("order must be a positive integer")
        num = tuple(map(_integer, coeffs))
        if len(num) != order:
            raise ValueError(f"expected {order} coefficients, got {len(num)}")
        self.order = order
        self._num = num

    # Internal fast constructor: trusts that num is a tuple of n ints.
    @classmethod
    def _make(cls, order: int, num: tuple[int, ...]) -> Cyc:
        self = object.__new__(cls)
        self.order = order
        self._num = num
        return self

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._num

    def _check(self, other: Cyc) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"cannot combine elements of order {self.order} and {other.order}"
            )

    def __add__(self, other: Cyc) -> Cyc:
        self._check(other)
        return Cyc._make(self.order, tuple(map(add, self._num, other._num)))

    def __sub__(self, other: Cyc) -> Cyc:
        self._check(other)
        return Cyc._make(self.order, tuple(map(sub, self._num, other._num)))

    def __neg__(self) -> Cyc:
        return Cyc._make(self.order, tuple(-c for c in self._num))

    def __mul__(self, other: Union[Cyc, int]) -> Cyc:
        if not isinstance(other, Cyc):
            return self.scale(other)
        self._check(other)
        n = self.order
        a, b = self._num, other._num
        # One rotated, scaled copy of the denser side per nonzero c*w^i of
        # the sparser side: a product by a root costs a rotation, not n^2.
        if a.count(0) < b.count(0):
            a, b = b, a
        out = [0] * n
        for i in compress(range(n), a):
            c = a[i]
            term = b[n - i:] + b[:n - i]
            out = list(map(add, out, term if c == 1 else [c * x for x in term]))
        return Cyc._make(n, tuple(out))

    __rmul__ = __mul__

    def scale(self, k: int) -> Cyc:
        k = _integer(k)
        return Cyc._make(self.order, tuple(c * k for c in self._num))

    def __pow__(self, k: int) -> Cyc:
        if k < 0:
            raise ValueError("negative powers are not defined in Z[w]/(w^n - 1)")
        result = one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def rotate(self, t: int) -> Cyc:
        """Multiply by w^t: a cyclic shift of the coefficient vector."""
        n = self.order
        t %= n
        if t == 0:
            return self
        num = self._num
        return Cyc._make(n, num[n - t:] + num[:n - t])

    def times_difference(self, a: int, b: int) -> Cyc:
        """Multiply by w^a - w^b: two rotations and a subtraction."""
        return self.rotate(a) - self.rotate(b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cyc) and self.order == other.order and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.order, self._num))

    def __repr__(self) -> str:
        return f"Cyc({self.order}, {list(self._num)})"


def zero(n: int) -> Cyc:
    return Cyc._make(n, (0,) * n)


def one(n: int) -> Cyc:
    return Cyc._make(n, (1,) + (0,) * (n - 1))


def root_of_unity(n: int, a: int) -> Cyc:
    """The basis element w^(a mod n) of order n.

    >>> root_of_unity(4, 6).coeffs[2]
    1
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    a %= n
    num = [0] * n
    num[a] = 1
    return Cyc._make(n, tuple(num))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic.

    Computed by dividing x^n - 1 by the product of Phi_d over proper
    divisors d of n.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


def _poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Exact division of integer polynomials, divisor monic.
    num_l = list(num)
    dn, dd = len(num_l) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num_l[i + dd]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num_l[i + j] -= c * dj
    assert not any(num_l[:dd]), "division was not exact"
    return tuple(quot)


def extract_rational(x: Cyc) -> Fraction:
    """Reduce x modulo Phi_n; return the constant if the residue is one.

    The counting sums are invariant under every symmetry of the roots,
    hence rational; a non-constant residue means the argument was not a
    completed sum (or there is a bug upstream) and NotRationalError is
    raised.
    """
    phi = cyclotomic_polynomial(x.order)
    deg = len(phi) - 1
    rem = list(x._num)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    if any(rem[1:deg]):
        raise NotRationalError(f"residue modulo Phi_{x.order} has positive degree")
    return Fraction(rem[0])
