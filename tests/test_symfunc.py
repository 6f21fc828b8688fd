from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcount.cyclotomic import Cyc, one, root_of_unity, zero
from quotcount.errors import DimensionMismatchError, RegimeViolationError
from quotcount.qh_oracle import fixed_domain_count_g0
from quotcount.symfunc import (
    Insertion,
    Monomial,
    as_monomial,
    chern,
    complete_homogeneous,
    elementary,
    elementary_prefix,
    homogeneous_prefix,
    monomial,
    segre,
    weighted_degree,
)
from quotcount.twist import (
    BClassWord,
    ProblemSpec,
    complete_intersection_integral,
    hypersurface_both_paths,
    reduce_b_classes,
)
from quotcount.vi_engine import GrassmannSpec, duality_check, vi_integral

from cyc_helpers import field_equal


def brute_elementary(i, tup):
    # Independent oracle: sum of products over all i-subsets.
    n = tup[0].order
    total = zero(n)
    for combo in combinations(tup, i):
        term = one(n)
        for z in combo:
            term = term * z
        total = total + term
    return total


def brute_homogeneous(i, tup):
    # Independent oracle: sum of products over all degree-i multisets.
    n = tup[0].order
    total = zero(n)
    for combo in combinations_with_replacement(tup, i):
        term = one(n)
        for z in combo:
            term = term * z
        total = total + term
    return total


def roots(n, exponents):
    return [root_of_unity(n, a) for a in exponents]


@st.composite
def root_tuples(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    size = draw(st.integers(min_value=1, max_value=min(n, 4)))
    exps = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=size, max_size=size))
    return n, roots(n, exps)


def test_insertion_validation():
    with pytest.raises(ValueError):
        Insertion("chern", 0)
    with pytest.raises(ValueError):
        Insertion("weird", 1)
    assert chern(2).index == 2 and segre(3).kind == "segre"


def test_monomial_and_degree():
    ins = monomial((chern(1), 3), (chern(2), 1))
    assert len(ins) == 4
    assert weighted_degree(ins) == 5
    assert weighted_degree(monomial((segre(4), 2))) == 8
    # the product type: pairs of one insertion add up, zero exponents drop out
    product = Monomial(((segre(2), 1), (chern(2), 1), (segre(5), 0), (chern(1), 3), (chern(2), 1)))
    assert product == ((chern(1), 3), (chern(2), 2), (segre(2), 1))
    assert product.degree == 9 and product.present == (chern(1), chern(2), segre(2))
    assert product.cherns == ((1, 3), (2, 2)) and product.segres == ((2, 1),)
    assert product.times(chern(1), 2) == ((chern(1), 5), (chern(2), 2), (segre(2), 1))
    assert as_monomial(monomial(*product)) == product and as_monomial(product) is product
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        Monomial(((chern(1), -1),))


def _outcome(call, insertions):
    """What a counting call gives: (None, its value), or its refusal's type and message."""
    try:
        return None, call(insertions)
    except (ValueError, DimensionMismatchError, RegimeViolationError) as exc:
        return type(exc), str(exc)


G23, G24 = GrassmannSpec(2, 3, 1, 1), GrassmannSpec(2, 4, 1, 2)


@pytest.mark.parametrize("call, pairs, expected", [
    (lambda ins: vi_integral(G24, ins), ((chern(1), 2), (chern(2), 3)), None),
    (lambda ins: vi_integral(G24, ins), ((chern(1), 2), (segre(3), 2)), None),
    (lambda ins: vi_integral(G24, ins), ((chern(1), 7),), DimensionMismatchError),
    (lambda ins: vi_integral(G24, ins), ((chern(5), 1), (chern(3), 1), (chern(1), 4)), ValueError),
    (lambda ins: duality_check(G24, ins), ((chern(1), 2), (chern(2), 3)), None),
    (lambda ins: duality_check(G24, ins), ((chern(1), 6), (segre(2), 1)), ValueError),
    (lambda ins: duality_check(G24, ins), ((chern(1), 9),), DimensionMismatchError),
    (lambda ins: fixed_domain_count_g0(2, 6, 2, ins), ((segre(4), 2), (chern(1), 8), (chern(2), 2)), None),
    (lambda ins: fixed_domain_count_g0(2, 4, 1, ins), ((chern(3), 2), (chern(1), 2)), ValueError),
    (lambda ins: fixed_domain_count_g0(2, 4, 1, ins), ((chern(1), 7),), DimensionMismatchError),
    (lambda ins: complete_intersection_integral(ProblemSpec(GrassmannSpec(4, 5, 0, 1), (2, 2), ins)),
     ((chern(1), 3),), None),
    (lambda ins: complete_intersection_integral(ProblemSpec(GrassmannSpec(4, 5, 0, 1), (2, 2), ins)),
     ((chern(1), 4),), DimensionMismatchError),
    (lambda ins: complete_intersection_integral(ProblemSpec(GrassmannSpec(2, 4, 2, 1), (1, 1), ins)),
     ((chern(1), 4),), RegimeViolationError),
    (lambda ins: hypersurface_both_paths(ProblemSpec(G24, (1,), ins)), ((chern(1), 4), (chern(2), 1)), None),
    (lambda ins: hypersurface_both_paths(ProblemSpec(G24, (1, 1), ins)), ((chern(1), 4),), ValueError),
    (lambda ins: hypersurface_both_paths(ProblemSpec(G24, (1,), ins)), ((chern(1), 5),),
     DimensionMismatchError),
    (lambda ins: reduce_b_classes(BClassWord((1,), ins), G23), ((chern(1), 2),), None),
    (lambda ins: reduce_b_classes(BClassWord((1,), ins), G23), ((chern(1), 1), (segre(1), 1)), ValueError),
    (lambda ins: reduce_b_classes(BClassWord((2,), ins), G23), ((chern(1), 2),), ValueError),
    (lambda ins: reduce_b_classes(BClassWord((1,), ins), G23), ((chern(1), 3),), DimensionMismatchError),
])
def test_flat_and_monomial_insertions_give_one_outcome(call, pairs, expected):
    flat = _outcome(call, monomial(*pairs))
    assert _outcome(call, Monomial(pairs)) == flat
    assert flat[0] is expected, flat


def test_elementary_zero_is_one():
    tup = roots(5, [0, 2, 3])
    assert elementary(0, tup) == one(5)


def test_elementary_of_conjugate_pair():
    # e_2(w, w^3) with n=4: the product is w^4 = 1.
    tup = roots(4, [1, 3])
    assert elementary(2, tup) == one(4)


def test_elementary_beyond_length_vanishes():
    tup = roots(4, [1, 3])
    assert elementary(3, tup) == zero(4)


def test_elementary_matches_brute_force():
    for n in (3, 5, 6):
        for exps in combinations(range(n), min(3, n - 1)):
            tup = roots(n, exps)
            for i in range(len(tup) + 1):
                assert elementary(i, tup) == brute_elementary(i, tup)


def test_homogeneous_base_cases():
    tup = roots(6, [1, 4])
    assert complete_homogeneous(0, tup) == one(6)
    assert complete_homogeneous(1, tup) == elementary(1, tup)


def test_homogeneous_matches_brute_force():
    for n in (3, 4, 6):
        for exps in combinations(range(n), 2):
            tup = roots(n, exps)
            for i in range(5):
                assert complete_homogeneous(i, tup) == brute_homogeneous(i, tup)


@st.composite
def general_tuples(draw):
    # Dense elements with denominators, not only roots of unity.
    n = draw(st.integers(min_value=1, max_value=6))
    size = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return [Cyc(n, draw(st.lists(coeffs, min_size=n, max_size=n))) for _ in range(size)]


@given(general_tuples())
@settings(max_examples=40, deadline=None)
def test_prefixes_match_brute_force_on_general_elements(tup):
    hs = homogeneous_prefix(tup, 4)
    es = elementary_prefix(tup, 4)
    for i in range(5):
        assert hs[i] == brute_homogeneous(i, tup), i
        assert es[i] == brute_elementary(i, tup), i


@given(root_tuples(), st.permutations(range(4)))
@settings(max_examples=40, deadline=None)
def test_symmetry_under_permutation(pair, perm):
    n, tup = pair
    order = [p for p in perm if p < len(tup)]
    shuffled = [tup[p] for p in order]
    for i in range(len(tup) + 1):
        assert elementary(i, tup) == elementary(i, shuffled)
        assert complete_homogeneous(i, tup) == complete_homogeneous(i, shuffled)


@given(root_tuples())
@settings(max_examples=40, deadline=None)
def test_generating_function_duality(pair):
    # sum_i e_i t^i times sum_j h_j (-t)^j is 1 up to the truncation order.
    n, tup = pair
    kmax = len(tup) + 2
    es = [elementary(i, tup) for i in range(kmax + 1)]
    hs = [complete_homogeneous(i, tup) for i in range(kmax + 1)]
    for degree in range(1, kmax + 1):
        acc = zero(n)
        for k in range(degree + 1):
            term = es[k] * hs[degree - k]
            acc = acc + (term if (degree - k) % 2 == 0 else -term)
        assert acc == zero(n)


def test_duality_identity_on_sixth_roots():
    # e_i of a 2-subset equals h_i of the negated complementary 4-tuple.
    n = 6
    for subset in combinations(range(n), 2):
        inside = set(subset)
        comp = [a for a in range(n) if a not in inside]
        tup = roots(n, subset)
        neg_comp = [-z for z in roots(n, comp)]
        for i in range(0, 3):
            assert field_equal(
                elementary(i, tup), complete_homogeneous(i, neg_comp)
            ), (subset, i)


def test_duality_identity_all_small_orders():
    for n in range(2, 9):
        for r in range(1, n):
            for subset in combinations(range(n), r):
                inside = set(subset)
                comp = [a for a in range(n) if a not in inside]
                tup = roots(n, subset)
                neg_comp = [-z for z in roots(n, comp)] if comp else None
                for i in range(1, r + 1):
                    lhs = elementary(i, tup)
                    if comp:
                        rhs = complete_homogeneous(i, neg_comp)
                        assert field_equal(lhs, rhs), (n, subset, i)
