"""sigma_u and n/(1 - w^m) on `Cyc`: references the tests check the engine's
symmetries and its genus-0 weight against.  The package needs neither: the
engine folds no sigma_u and divides by no root difference.  The integer
embedding and equality in Q[w]/Phi_n serve the tests alone too."""

from __future__ import annotations

from math import gcd

from quotcount.cyclotomic import Cyc, extract_rational, one, root_of_unity
from quotcount.errors import NotRationalError


def galois(x: Cyc, u: int) -> Cyc:
    """sigma_u: w -> w^u, a ring automorphism of Z[w]/(w^n - 1) for u prime
    to n.  Coefficient k moves to position u*k mod n."""
    n = x.order
    if gcd(u, n) != 1:
        raise ValueError(f"sigma_{u} is an automorphism only for u prime to {n}")
    coeffs = [0] * n
    for k, c in enumerate(x.coeffs):
        coeffs[u * k % n] = c
    return Cyc(n, coeffs)


def inv_one_minus_root(n: int, m: int) -> Cyc:
    """n/(1 - w^m) in the field Q[w]/Phi_n: the product of the other factors
    1 - w^k, k in [1, n-1], since the product of all of them is n."""
    m %= n
    if m == 0:
        raise ZeroDivisionError("1 - w^0 = 0 is not invertible")
    acc = one(n)
    for k in range(1, n):
        if k != m:
            acc = acc * (one(n) - root_of_unity(n, k))
    return acc


def rational(n: int, value: int) -> Cyc:
    """Embed an integer as the constant element of order n."""
    return Cyc(n, [value] + [0] * (n - 1))


def field_equal(x: Cyc, y: Cyc) -> bool:
    """Equality in the field Q[w]/Phi_n (representatives may differ): x - y
    reduces to the constant 0 modulo Phi_n."""
    try:
        return extract_rational(x - y) == 0
    except NotRationalError:
        return False
