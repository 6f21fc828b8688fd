from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcount.cyclotomic import (
    Cyc,
    cyclotomic_polynomial,
    extract_rational,
    one,
    root_of_unity,
    zero,
)
from quotcount.errors import NotRationalError, OrderMismatchError

from cyc_helpers import field_equal, galois, inv_one_minus_root, rational


def naive_mul(x: Cyc, y: Cyc) -> Cyc:
    # Independent oracle: schoolbook polynomial product with exponents
    # folded modulo n.
    n = x.order
    out = [0] * n
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[(i + j) % n] += a * b
    return Cyc(n, out)


small_integers = st.integers(min_value=-4, max_value=4)


@st.composite
def cyc_elements(draw, order=None):
    n = order if order is not None else draw(st.integers(min_value=1, max_value=12))
    coeffs = draw(st.lists(small_integers, min_size=n, max_size=n))
    return Cyc(n, coeffs)


@st.composite
def cyc_triples(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return tuple(draw(cyc_elements(order=n)) for _ in range(3))


def test_root_of_unity_identity_case():
    assert root_of_unity(4, 0).coeffs == (1, 0, 0, 0)


def test_root_of_unity_reduces_exponent_mod_n():
    assert root_of_unity(4, 6).coeffs == (0, 0, 1, 0)
    assert root_of_unity(5, -1) == root_of_unity(5, 4)


def test_root_of_unity_order_two_is_minus_one():
    w = root_of_unity(2, 1)
    assert extract_rational(w) == -1
    assert w * w == one(2)


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        root_of_unity(0, 0)
    with pytest.raises(ValueError):
        Cyc(0, [])


def test_mul_is_group_law_on_roots():
    for n in range(1, 13):
        for a in range(n):
            for b in range(n):
                assert root_of_unity(n, a) * root_of_unity(n, b) == root_of_unity(n, a + b)


def test_mismatched_orders_rejected():
    with pytest.raises(OrderMismatchError):
        root_of_unity(3, 1) * root_of_unity(4, 1)
    with pytest.raises(OrderMismatchError):
        root_of_unity(3, 1) + root_of_unity(4, 1)


@given(cyc_elements())
@settings(max_examples=40, deadline=None)
def test_pow_zero_is_one(x):
    assert x**0 == one(x.order)


def test_pow_handles_large_exponents():
    # Boosted insertions raise first-Chern powers into the hundreds.
    assert root_of_unity(7, 3) ** 200 == root_of_unity(7, 600)
    x = one(5) + root_of_unity(5, 2)
    assert x ** 64 == (x ** 32) * (x ** 32)


@given(cyc_elements(), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_mul(x, k):
    expected = one(x.order)
    for _ in range(k):
        expected = naive_mul(expected, x)
    assert x**k == expected


@given(cyc_triples())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(cyc_triples())
@settings(max_examples=50, deadline=None)
def test_mul_matches_naive_polynomial_product(triple):
    x, y, _ = triple
    assert x * y == naive_mul(x, y)


def test_scale_and_neg():
    x = root_of_unity(6, 2) + root_of_unity(6, 5)
    assert x.scale(3) + x.scale(-3) == zero(6)
    assert -x == x.scale(-1)


def test_non_integer_coefficients_are_refused():
    with pytest.raises(ValueError):
        Cyc(3, [Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError):
        one(3).scale(Fraction(1, 2))


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_polynomial_twelve():
    # Independent construction: divide x^12 - 1 by the product of the
    # proper-divisor cyclotomics, here multiplied out by hand.
    # Phi1*Phi2*Phi3*Phi4*Phi6 has degree 8; the quotient is degree 4.
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_back():
    for n in (6, 8, 9, 10, 12):
        acc = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                nxt = [0] * (len(acc) + len(phi) - 1)
                for i, a in enumerate(acc):
                    for j, b in enumerate(phi):
                        nxt[i + j] += a * b
                acc = nxt
        expected = [-1] + [0] * (n - 1) + [1]
        assert acc == expected


def test_extract_rational_constant():
    for n in (1, 2, 5, 9):
        assert extract_rational(rational(n, 5)) == 5


def test_extract_rational_vanishing_geometric_sum():
    for n in range(2, 13):
        total = zero(n)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert extract_rational(total) == 0


def test_extract_rational_omega_plus_omega_cubed():
    # Reduce x^3 + x modulo Phi_4 = x^2 + 1: x^3 + x = x(x^2 + 1), so 0.
    x = root_of_unity(4, 1) + root_of_unity(4, 3)
    assert extract_rational(x) == 0


def test_extract_rational_rejects_irrational():
    with pytest.raises(NotRationalError):
        extract_rational(root_of_unity(3, 1))


@given(small_integers, st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_extract_after_embed_is_identity(q, n):
    assert extract_rational(rational(n, q)) == q


def test_inverse_contract_n2():
    inv = inv_one_minus_root(2, 1)
    product = inv * (one(2) - root_of_unity(2, 1))
    assert extract_rational(product) == 2


def test_inverse_contract_n4_m2():
    inv = inv_one_minus_root(4, 2)
    product = inv * (one(4) - root_of_unity(4, 2))
    assert extract_rational(product) == 4


def test_inverse_contract_n3():
    inv = inv_one_minus_root(3, 1)
    product = inv * (one(3) - root_of_unity(3, 1))
    assert extract_rational(product) == 3
    assert field_equal(product, rational(3, 3))


def test_inverse_contract_all_orders_up_to_twelve():
    for n in range(2, 13):
        for m in range(1, n):
            product = inv_one_minus_root(n, m) * (one(n) - root_of_unity(n, m))
            assert extract_rational(product) == n, (n, m)


def test_inverse_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        inv_one_minus_root(5, 0)
    with pytest.raises(ZeroDivisionError):
        inv_one_minus_root(5, 10)


def test_rotate_matches_root_multiplication():
    x = Cyc(6, [1, 2, 0, 3, 0, -1])
    for t in range(12):
        assert x.rotate(t) == x * root_of_unity(6, t)


@given(cyc_elements(), st.integers(min_value=-30, max_value=30), small_integers)
@settings(max_examples=60, deadline=None)
def test_monomial_product_matches_dense_convolution(x, a, c):
    # c*w^a is one rotation plus a scale.
    monomial = root_of_unity(x.order, a).scale(c)
    assert x * monomial == naive_mul(x, monomial)
    assert monomial * x == naive_mul(x, monomial)


@given(cyc_elements(), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_root_difference_product_matches_dense_convolution(x, a, b):
    n = x.order
    difference = root_of_unity(n, a) - root_of_unity(n, b)
    assert x.times_difference(a, b) == naive_mul(x, difference)
    assert x * difference == naive_mul(x, difference)


@st.composite
def cyc_pairs_with_unit(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    u = draw(st.sampled_from([u for u in range(1, n + 1) if gcd(u, n) == 1]))
    return draw(cyc_elements(order=n)), draw(cyc_elements(order=n)), u


def phi_element(n: int) -> Cyc:
    """Phi_n(w) as an order-n element (zero in the field Q[w]/Phi_n)."""
    coeffs = [0] * n
    for k, c in enumerate(cyclotomic_polynomial(n)):
        coeffs[k % n] += c
    return Cyc(n, coeffs)


@given(cyc_pairs_with_unit())
@settings(max_examples=60, deadline=None)
def test_galois_is_a_ring_automorphism(pair):
    x, y, u = pair
    assert galois(x + y, u) == galois(x, u) + galois(y, u)
    assert galois(x * y, u) == galois(x, u) * galois(y, u)
    assert galois(one(x.order), u) == one(x.order)


@given(cyc_pairs_with_unit())
@settings(max_examples=60, deadline=None)
def test_galois_permutes_coefficients(pair):
    x, _, u = pair
    n = x.order
    image = galois(x, u)
    assert sorted(image.coeffs) == sorted(x.coeffs)
    assert galois(image, pow(u, -1, n)) == x
    for k in range(n):
        assert image.coeffs[u * k % n] == x.coeffs[k]


def test_galois_moves_roots_and_rejects_non_units():
    for n in range(1, 13):
        for u in range(1, n + 1):
            if gcd(u, n) != 1:
                with pytest.raises(ValueError):
                    galois(one(n), u)
                continue
            for k in range(n):
                assert galois(root_of_unity(n, k), u) == root_of_unity(n, u * k)


@given(cyc_pairs_with_unit(), small_integers)
@settings(max_examples=60, deadline=None)
def test_galois_keeps_extract_rational(pair, q):
    x, y, u = pair
    n = x.order
    rational_valued = rational(n, q) + y * phi_element(n)
    assert extract_rational(galois(rational_valued, u)) == q
    try:
        expected = extract_rational(x)
    except NotRationalError:
        with pytest.raises(NotRationalError):
            extract_rational(galois(x, u))
    else:
        assert extract_rational(galois(x, u)) == expected


def test_field_equal_distinguishes():
    assert field_equal(root_of_unity(4, 1) * root_of_unity(4, 1), rational(4, -1))
    assert not field_equal(root_of_unity(4, 1), rational(4, 1))
