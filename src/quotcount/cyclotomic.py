"""Exact arithmetic in Q[w]/(w^n - 1) for a fixed n-th root of unity w.

Elements are dense length-n vectors of rationals; multiplication wraps
exponents modulo n, so no representative ever leaves length n, and a
product by a root c*w^a is a rotation of the coefficients.  The ring has
zero divisors, but the counting formulas never divide in it: their
genus-0 weight is a product of root differences times n^(-r).
Rationality of a finished sum is decided by reduction modulo the n-th
cyclotomic polynomial (the minimal polynomial of a primitive root), so
the smaller field Q[w]/Phi_n enters only there.

Internally a vector of integers plus a single positive denominator is
stored, kept reduced (the gcd of the denominator and all numerators is
1).  Most values are integral, so the common paths stay in pure integer
arithmetic; the `coeffs` property presents the element as the tuple of
Fractions the rest of the package reasons about.

`Cyc` serves the reference route only: the evaluator
`vi_engine._Evaluator`, the `symfunc` prefix tables it calls, and the
reduction modulo Phi_n.  The engine builds no `Cyc`.

>>> w = root_of_unity(4, 1)
>>> (w * w).coeffs
(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))
>>> extract_rational(w**4)
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add, sub
from typing import Iterable, Union

from .errors import NotRationalError, OrderMismatchError

Scalar = Union[int, Fraction]


class Cyc:
    """An element of Q[w]/(w^n - 1), coefficient k multiplying w^k."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: Iterable[Scalar]):
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        num = [int(c * den) for c in coeffs]
        self.order = order
        self._num, self._den = _reduced(num, den)

    # Internal fast constructor: trusts that num/den are already reduced.
    @classmethod
    def _make(cls, order: int, num: tuple[int, ...], den: int) -> Cyc:
        self = object.__new__(cls)
        self.order = order
        self._num = num
        self._den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def _check(self, other: Cyc) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"cannot combine elements of order {self.order} and {other.order}"
            )

    def __add__(self, other: Cyc) -> Cyc:
        self._check(other)
        a, b, da, db = self._num, other._num, self._den, other._den
        if da == 1 and db == 1:
            return Cyc._make(self.order, tuple(map(add, a, b)), 1)
        num = [x * db + y * da for x, y in zip(a, b)]
        return Cyc._make(self.order, *_reduced(num, da * db))

    def __sub__(self, other: Cyc) -> Cyc:
        self._check(other)
        a, b, da, db = self._num, other._num, self._den, other._den
        if da == 1 and db == 1:
            return Cyc._make(self.order, tuple(map(sub, a, b)), 1)
        num = [x * db - y * da for x, y in zip(a, b)]
        return Cyc._make(self.order, *_reduced(num, da * db))

    def __neg__(self) -> Cyc:
        return Cyc._make(self.order, tuple(-c for c in self._num), self._den)

    def __mul__(self, other: Union[Cyc, Scalar]) -> Cyc:
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
        den = self._den * other._den
        if den == 1:
            return Cyc._make(n, tuple(out), 1)
        return Cyc._make(n, *_reduced(out, den))

    __rmul__ = __mul__

    def scale(self, q: Scalar) -> Cyc:
        q = Fraction(q)
        num = [c * q.numerator for c in self._num]
        return Cyc._make(self.order, *_reduced(num, self._den * q.denominator))

    def __pow__(self, k: int) -> Cyc:
        if k < 0:
            raise ValueError("negative powers are not defined in Q[w]/(w^n - 1)")
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
        return Cyc._make(n, num[n - t:] + num[:n - t], self._den)

    def times_difference(self, a: int, b: int) -> Cyc:
        """Multiply by w^a - w^b: two rotations and a subtraction."""
        return self.rotate(a) - self.rotate(b)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cyc)
            and self.order == other.order
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.order, self._num, self._den))

    def __repr__(self) -> str:
        return f"Cyc({self.order}, {[str(c) for c in self.coeffs]})"


def _reduced(num: list[int] | tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Normalize so den > 0 and gcd(den, content(num)) == 1."""
    if den < 0:
        den = -den
        num = [-c for c in num]
    if den != 1:
        g = den
        for c in num:
            if c:
                g = gcd(g, c)
                if g == 1:
                    break
        if g > 1:
            den //= g
            num = [c // g for c in num]
    return tuple(num), den


def zero(n: int) -> Cyc:
    return Cyc._make(n, (0,) * n, 1)


def one(n: int) -> Cyc:
    return Cyc._make(n, (1,) + (0,) * (n - 1), 1)


def rational(n: int, value: Scalar) -> Cyc:
    """Embed a rational number as the constant element of order n."""
    q = Fraction(value)
    return Cyc._make(n, (q.numerator,) + (0,) * (n - 1), q.denominator)


def root_of_unity(n: int, a: int) -> Cyc:
    """The basis element w^(a mod n) of order n.

    >>> root_of_unity(4, 6).coeffs[2]
    Fraction(1, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    a %= n
    num = [0] * n
    num[a] = 1
    return Cyc._make(n, tuple(num), 1)


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


def _phi_residue(x: Cyc) -> list[int]:
    """x._den times the residue of x modulo the monic integer Phi_n, low degree first."""
    phi = cyclotomic_polynomial(x.order)
    deg = len(phi) - 1
    rem = list(x._num)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    return rem[:deg]


def extract_rational(x: Cyc) -> Fraction:
    """Reduce x modulo Phi_n; return the constant if the residue is one.

    The counting sums are invariant under every symmetry of the roots,
    hence rational; a non-constant residue means the argument was not a
    completed sum (or there is a bug upstream) and NotRationalError is
    raised.
    """
    rem = _phi_residue(x)
    if any(rem[1:]):
        raise NotRationalError(f"residue modulo Phi_{x.order} has positive degree")
    return Fraction(rem[0], x._den)


def field_equal(x: Cyc, y: Cyc) -> bool:
    """Equality in the field Q[w]/Phi_n (representatives may differ)."""
    if x.order != y.order:
        raise OrderMismatchError("field comparison requires equal orders")
    return not any(_phi_residue(x - y))
