from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcount import qh_oracle
from quotcount.errors import DimensionMismatchError, QuotcountError
from quotcount.qh_oracle import (
    Partition,
    QClass,
    _pieri_row,
    fixed_domain_count_g0,
)
from quotcount.symfunc import CHERN, SEGRE, chern, monomial, segre
from quotcount.vi_engine import GrassmannSpec, vi_integral


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).size == 4


def test_unit_times_special_class():
    c = QClass.unit(2, 4).times(chern(1))
    assert c.terms == {((1, 0), 0): 1}


def test_classical_pieri_square_in_g24():
    c = QClass.unit(2, 4).times(chern(1)).times(chern(1))
    assert c.terms == {((2, 0), 0): 1, ((1, 1), 0): 1}


def test_rim_hook_appears_at_the_right_step():
    # sigma_1 * sigma_(2,1) = sigma_(2,2) + q * unit in the 2x2 box.
    c = QClass(2, 4, {((2, 1), 0): 1}).times(chern(1))
    assert c.terms == {((2, 2), 0): 1, ((0, 0), 1): 1}


def test_degree_is_conserved_through_reduction():
    # |shape| + n * q is invariant at every step of an iterated product.
    c = QClass.unit(2, 5)
    total = 0
    for _ in range(10):
        c = c.times(chern(1))
        total += 1
        for (parts, q), coeff in c.terms.items():
            assert sum(parts) + 5 * q == total
            assert coeff > 0


def test_hook_that_does_not_fit_kills_the_term():
    # In G(2,4) the one-row shape of length 3 has rim size 3 < 4 and dies.
    c = QClass(2, 4, {((2, 0), 0): 1}).times(segre(1))  # horizontal strip: (3) and (2,1)
    assert c.terms == {((2, 1), 0): 1}


def test_segre_top_reduction_sign():
    # One row of length n reduces to -q for even rank: h_4 = -q in G(2,4).
    assert QClass.unit(2, 4).times(segre(4)).terms == {((0, 0), 1): -1}
    # and to +q for the projective line presentation G(1,2): h_2 = q.
    assert QClass.unit(1, 2).times(segre(2)).terms == {((0,), 1): 1}


def test_eightfold_hyperplane_power_in_g24():
    # Iterating the hand computation: sigma_1^8 = 8 q sigma_(2,2) + 8 q^2.
    c = QClass.unit(2, 4)
    for _ in range(8):
        c = c.times(chern(1))
    assert c.terms[((2, 2), 1)] == 8
    assert c.terms[((0, 0), 2)] == 8


def test_coefficient_pads_the_partition():
    c = QClass.unit(2, 4).times(chern(1)).times(chern(1))
    assert c.coefficient(Partition((2,)), 0) == c.terms[((2, 0), 0)] == 1
    assert c.coefficient(Partition((1, 1)), 0) == 1
    assert c.coefficient(Partition(()), 0) == 0
    # no class of G(2, 4) has three rows
    assert c.coefficient(Partition((1, 1, 1)), 0) == 0


def test_times_refuses_a_chern_index_above_the_rank():
    with pytest.raises(ValueError, match="special index must satisfy 1 <= i <= 2"):
        QClass.unit(2, 4).times(chern(3))
    # a Segre index past the box is a class, reduced with signs
    assert QClass.unit(2, 4).times(segre(3)).terms == {}


def test_fixed_domain_counts_match_engine_anchors():
    assert fixed_domain_count_g0(2, 4, 1, monomial((chern(1), 8))) == 8
    assert fixed_domain_count_g0(2, 4, 0, monomial((chern(1), 4))) == 2
    assert fixed_domain_count_g0(1, 3, 1, monomial((chern(1), 5))) == 1


def test_projective_line_counts():
    # Degree-d maps to projective (n-1)-space through e = dn + (n-1)
    # hyperplane conditions: always exactly one.
    for n in (2, 3, 4):
        for d in (0, 1, 2):
            e = d * n + (n - 1)
            engine = vi_integral(GrassmannSpec(1, n, 0, d), [chern(1)] * e).value
            oracle = fixed_domain_count_g0(1, n, d, [chern(1)] * e)
            assert engine == oracle == 1, (n, d)


def test_point_target_count():
    assert fixed_domain_count_g0(1, 2, 0, [chern(1)]) == 1
    # degenerate box: empty insertions on the full-rank target at d = 0
    assert fixed_domain_count_g0(3, 3, 0, ()) == 1


def test_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        fixed_domain_count_g0(2, 4, 1, monomial((chern(1), 7)))


def test_segre_insertions_cross_check_engine():
    # Bonus duality validation: Segre monomials evaluate identically in
    # the engine and the quantum ring, including indices past the box.
    cases = [
        (2, 4, 1, monomial((segre(2), 4))),
        (2, 4, 1, monomial((segre(4), 1), (segre(1), 4))),
        (2, 4, 0, monomial((segre(2), 2))),
        (2, 5, 1, monomial((segre(3), 2), (segre(1), 5))),
    ]
    for r, n, d, ins in cases:
        engine = vi_integral(GrassmannSpec(r, n, 0, d), ins).value
        oracle = fixed_domain_count_g0(r, n, d, ins)
        assert engine == oracle, (r, n, d, ins)


def test_memoised_oracle_keeps_its_values():
    # Values computed by the oracle before its Pieri rows were memoised;
    # each is checked from a cold row table and again warm.
    cases = [
        (2, 4, 1, monomial((chern(1), 8)), 8),
        (2, 5, 2, monomial((chern(1), 10), (chern(2), 3)), 34),
        (3, 6, 1, monomial((chern(1), 6), (chern(2), 3), (chern(3), 1)), 43),
        (3, 7, 1, monomial((segre(2), 4), (segre(3), 2), (segre(1), 5)), 507),
        (2, 6, 2, monomial((segre(4), 2), (chern(1), 8), (chern(2), 2)), 14),
        (4, 8, 1, monomial((chern(1), 12), (chern(4), 2), (segre(2), 2)), 6040),
    ]
    _pieri_row.cache_clear()
    for _ in range(2):
        for r, n, d, ins, expected in cases:
            assert fixed_domain_count_g0(r, n, d, ins) == expected, (r, n, d)
    info = _pieri_row.cache_info()
    assert info.maxsize is not None and info.hits > 0
    # cached rows are shared, so they must be immutable
    row = _pieri_row((1, 0), 1, CHERN, 4)
    assert isinstance(row, tuple) and set(row) == {((2, 0), 0, 1), ((1, 1), 0, 1)}


@pytest.fixture
def cold_oracle():
    """Empty the oracle's memo tables before and after a test that patches it."""
    def clear():
        for value in vars(qh_oracle).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()

    clear()
    yield
    clear()


def test_oracle_refusals():
    with pytest.raises(ValueError, match="special index must satisfy 1 <= i <= 2"):
        fixed_domain_count_g0(2, 4, 1, [chern(3)] + [chern(1)] * 5)
    # GrassmannSpec refuses the rank before the degree is compared
    for r, n in ((0, 3), (5, 4)):
        with pytest.raises(ValueError, match=r"rank must satisfy 1 <= r <= n"):
            fixed_domain_count_g0(r, n, 0, ())
    with pytest.raises(ValueError):
        fixed_domain_count_g0(3, 3, 1, [chern(1)] * 3)
    with pytest.raises(ValueError):
        fixed_domain_count_g0(2, 4, -1, ())


def test_positivity_guard_fires_on_a_broken_sign(cold_oracle, monkeypatch):
    # Flip the sign of every term that removed a rim hook: sigma_1^4 in
    # G(2,4) has the term 2q, which turns negative, so the effective
    # product must refuse.
    row = qh_oracle._pieri_row.__wrapped__

    def broken(padded, i, kind, n):
        return tuple((shape, dq, -c if dq else c) for shape, dq, c in row(padded, i, kind, n))

    monkeypatch.setattr(qh_oracle, "_pieri_row", broken)
    with pytest.raises(QuotcountError, match="negative structure coefficient"):
        fixed_domain_count_g0(2, 4, 1, [chern(1)] * 8)


def _strips(padded, i, kind):
    """Every shape mu such that mu / padded is a vertical (Chern) or a
    horizontal (Segre) i-strip, by filtering all ways of adding i boxes."""
    r = len(padded)
    for cuts in itertools.combinations(range(i + r - 1), r - 1):
        added = [b - a - 1 for a, b in zip((-1,) + cuts, cuts + (i + r - 1,))]
        mu = tuple(p + a for p, a in zip(padded, added))
        if any(b > a for a, b in zip(mu, mu[1:])):
            continue
        if kind == CHERN and max(added) > 1:
            continue
        if kind == SEGRE and any(m > p for m, p in zip(mu[1:], padded)):
            continue
        yield mu


def _into_box(mu, n):
    """Remove n-rim hooks from the diagram of mu head-first, one at a time,
    until it fits the r x (n-r) box: (shape, hooks removed, sign), or None
    when a hook runs off the diagram or its removal leaves no shape."""
    r = len(mu)
    rows, hooks, sign = list(mu), 0, 1
    while rows[0] > n - r:
        cells = [(0, rows[0] - 1)]  # walk the rim from the end of the first row
        while len(cells) < n:
            j, c = cells[-1]
            if j + 1 < r and rows[j + 1] > c:
                cells.append((j + 1, c))
            elif c:
                cells.append((j, c - 1))
            else:
                return None
        j, c = cells[-1]
        if j + 1 < r and rows[j + 1] > c:
            return None
        for row, col in cells:
            rows[row] = min(rows[row], col)
        hooks += 1
        sign *= (-1) ** (r - (j + 1))
    return tuple(rows), hooks, sign


@st.composite
def pieri_cases(draw):
    n = draw(st.integers(2, 9))
    r = draw(st.integers(1, min(5, n - 1)))
    padded = tuple(sorted((draw(st.integers(0, n - r)) for _ in range(r)), reverse=True))
    kind = draw(st.sampled_from((CHERN, SEGRE)))
    i = draw(st.integers(1, r if kind == CHERN else 2 * n))
    return padded, i, kind, n


@given(pieri_cases())
@settings(max_examples=300, deadline=None)
def test_pieri_row_is_its_definition(case):
    # The row against the strips found by brute force, each brought into
    # the box by removing rim hooks on the diagram, sign (-1)^(r - height).
    padded, i, kind, n = case
    expected: dict = {}
    for mu in _strips(padded, i, kind):
        reduced = _into_box(mu, n)
        if reduced is not None:
            shape, hooks, sign = reduced
            expected[shape, hooks] = expected.get((shape, hooks), 0) + sign
    row = _pieri_row(padded, i, kind, n)
    assert {(shape, q): c for shape, q, c in row} == {k: c for k, c in expected.items() if c}
    assert len(row) == len({(shape, q) for shape, q, _ in row})


@st.composite
def oracle_cases(draw):
    """G(r, n) with n <= 8, d <= 2, and insertions filling the degree in a drawn
    order: Chern indices up to r, Segre indices up to n + 2 (past the box)."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))
    d = draw(st.integers(0, 2))
    left = d * n + r * (n - r)
    insertions = []
    while left:
        kind = draw(st.sampled_from((CHERN, SEGRE)))
        top = min(left, r if kind == CHERN else n + 2)
        i = draw(st.integers(1, top))
        insertions.append(chern(i) if kind == CHERN else segre(i))
        left -= i
    return r, n, d, insertions


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_paired_count_matches_the_sequential_product(case):
    # The count sorts the insertions and pairs two half-products by
    # duality; it must equal the (box, d) coefficient of the product taken
    # one insertion at a time, in the given order, and the engine's sum
    # over roots of unity.
    r, n, d, insertions = case
    c = QClass.unit(r, n)
    for ins in insertions:
        c = c.times(ins)
    box = Partition(((n - r),) * r)
    count = fixed_domain_count_g0(r, n, d, insertions)
    assert count == c.coefficient(box, d)
    assert vi_integral(GrassmannSpec(r, n, 0, d), insertions).value == count


def test_a_thousand_rows_need_no_deep_stack():
    # the Pieri strips of G(1000, 1001) once recursed once per row
    assert fixed_domain_count_g0(1000, 1001, 0, [chern(1)] * 1000) == 1


def test_a_power_is_dealt_one_factor_at_a_time():
    # P^1 through 10001 points at degree 5000: the factors are never listed
    power = monomial((chern(1), 10001))
    tracemalloc.start()
    try:
        count = fixed_domain_count_g0(1, 2, 5000, power)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 32 * 1024, peak
