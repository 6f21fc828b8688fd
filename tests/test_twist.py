from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from quotcount.errors import (
    DimensionMismatchError,
    RegimeViolationError,
)
from quotcount.symfunc import chern, monomial, segre
from quotcount.twist import (
    BClassWord,
    ProblemSpec,
    closed_form_lg24,
    closed_form_projective,
    complete_intersection_integral,
    enumerativity_advisor,
    hypersurface_both_paths,
    hypersurface_integral,
    reduce_b_classes,
    tevelev_compare,
)
from quotcount.vi_engine import Enumerativity, GrassmannSpec


def lagrangian_g24(g, d, m1, m2):
    return ProblemSpec(
        GrassmannSpec(2, 4, g, d), (1,), monomial((chern(1), m1), (chern(2), m2))
    )


def projective(r, g, d, multidegree, e_twisted):
    return ProblemSpec(
        GrassmannSpec(r, r + 1, g, d), tuple(multidegree), monomial((chern(1), e_twisted))
    )


def test_lagrangian_anchor_genus_one_degree_two():
    # m1 + 2*m2 = 3*(d-g+1) = 6 forces (m1, m2) = (4, 1) for the value 24.
    assert hypersurface_integral(lagrangian_g24(1, 2, 4, 1)).value == 24
    # The closed form refuses in a fixed order: a negative input, then the
    # regime d > 2g-2, then the degree m1 + 2*m2 = 3*(d-g+1).  A valid spec
    # is refused alike by the engine-backed hypersurface path.
    for g in range(-1, 3):
        for d in range(-1, 4):
            for m1 in (-1, 0, 3, 6):
                for m2 in (-1, 0, 1, 3):
                    if min(g, d, m1, m2) < 0:
                        expected = ValueError
                    elif d <= 2 * g - 2:
                        expected = RegimeViolationError
                    elif m1 + 2 * m2 != 3 * (d - g + 1):
                        expected = DimensionMismatchError
                    else:
                        continue
                    with pytest.raises(expected):
                        closed_form_lg24(g, d, m1, m2)
                    if expected is not ValueError:
                        with pytest.raises(expected):
                            hypersurface_integral(lagrangian_g24(g, d, m1, m2))


def test_lagrangian_refusal_never_expands_the_monomial():
    # a_1^5000000 would be a 40 MB insertion tuple; the degree is refused
    # from the exponents first, by the one insertion-degree check.
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match="twisted virtual dimension is 6"):
            closed_form_lg24(0, 1, 5_000_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_underweight_monomial_is_rejected():
    # a1*a2 alone has degree 3, not the required 6, so the guard fires.
    with pytest.raises(DimensionMismatchError):
        hypersurface_integral(lagrangian_g24(1, 2, 1, 1))


def test_quadric_surface_rational_conics():
    spec = projective(3, 0, 2, (2,), 6)
    assert hypersurface_integral(spec).value == 32


def test_section_degree_equal_to_n_kills_genus_one_counts():
    # l = n makes the prefactor (n-l)^g vanish; e_l = 4 - (4-1+1) = 0 here.
    spec = ProblemSpec(GrassmannSpec(2, 4, 1, 1), (4,), ())
    assert hypersurface_integral(spec).value == 0


def test_regime_guard():
    with pytest.raises(RegimeViolationError):
        hypersurface_integral(lagrangian_g24(2, 2, 1, 1))


def test_hypersurface_requires_single_degree():
    spec = ProblemSpec(GrassmannSpec(4, 5, 0, 1), (2, 2), monomial((chern(1), 3)))
    with pytest.raises(ValueError):
        hypersurface_integral(spec)


def test_complete_intersection_22_in_p4():
    spec = ProblemSpec(GrassmannSpec(4, 5, 0, 1), (2, 2), monomial((chern(1), 3)))
    assert complete_intersection_integral(spec).value == 64


def test_complete_intersection_with_one_factor_matches_hypersurface():
    for g, d, m1, m2 in ((0, 1, 6, 0), (1, 1, 1, 1), (1, 2, 4, 1), (0, 2, 9, 0)):
        spec = lagrangian_g24(g, d, m1, m2)
        assert (
            complete_intersection_integral(spec).value
            == hypersurface_integral(spec).value
        )


def test_complete_intersection_zero_prefactor_at_total_degree_n():
    # e = 4, each factor removes d*l - g + 1 = 2, leaving degree 0.
    spec = ProblemSpec(GrassmannSpec(2, 4, 1, 1), (2, 2), ())
    assert complete_intersection_integral(spec).value == 0


def test_empty_multidegree_is_the_plain_integral():
    spec = ProblemSpec(GrassmannSpec(2, 3, 1, 1), (), monomial((chern(1), 3)))
    assert complete_intersection_integral(spec).value == 3


def test_phi_expansion_agrees_when_d_at_least_g():
    cases = [
        lagrangian_g24(0, 1, 6, 0),
        lagrangian_g24(1, 1, 1, 1),
        lagrangian_g24(1, 2, 4, 1),
        lagrangian_g24(2, 3, 4, 1),
        projective(3, 0, 2, (2,), 6),
        projective(4, 1, 2, (3,), 4),
        projective(2, 2, 3, (1,), 5),
    ]
    for spec in cases:
        closed = hypersurface_integral(spec)
        both = hypersurface_both_paths(spec)
        assert closed.value == both[1].value, spec
        assert both[2] and both[0].value == closed.value


def test_no_valid_spec_has_d_below_g():
    # In the bundle regime the dimension constraints force d >= g on every
    # proper Grassmannian, so the expansion truncation is never visible:
    # the spec search below must come up empty.
    found = []
    for g in range(6):
        for d in range(g):
            for n in range(2, 7):
                for r in range(1, n):
                    for l in range(1, 8):
                        if d * l <= 2 * g - 2:
                            continue
                        base = GrassmannSpec(r, n, g, d)
                        e_twisted = base.virtual_dim - (d * l - g + 1)
                        if e_twisted >= 0:
                            found.append((g, d, r, n, l))
    assert found == []


def test_lagrangian_full_grid_against_closed_form():
    for d in range(1, 5):
        for g in range(0, 3):
            if d <= 2 * g - 2:
                continue
            total = 3 * (d - g + 1)
            for m2 in range(total // 2 + 1):
                m1 = total - 2 * m2
                spec = lagrangian_g24(g, d, m1, m2)
                value = hypersurface_integral(spec).value
                assert value == closed_form_lg24(g, d, m1, m2).value, (g, d, m1, m2)


def test_closed_form_lg24_instances():
    assert closed_form_lg24(0, 1, 6, 0).value == 8
    assert closed_form_lg24(0, 1, 0, 3).value == 1
    with pytest.raises(DimensionMismatchError):
        closed_form_lg24(0, 1, 1, 1)
    with pytest.raises(RegimeViolationError):
        closed_form_lg24(2, 2, 4, 1)


def test_closed_form_projective_values():
    assert closed_form_projective(0, 2, 3, (2,)).value == 32
    # Linear sections: 1^anything * r^g.
    assert closed_form_projective(2, 3, 4, (1,)).value == 16
    assert closed_form_projective(1, 1, 5, (1,)).value == 5
    assert closed_form_projective(0, 1, 4, (2, 2)).value == 64


def test_closed_form_projective_matches_engine_on_grid():
    for r in range(2, 5):
        for g in range(0, 2):
            for d in range(g, 3):
                for l in range(1, r + 1):
                    if d * l <= 2 * g - 2:
                        continue
                    e_twisted = d * (r + 1 - l) + (1 - g) * (r - 1)
                    if e_twisted < 0:
                        continue
                    spec = projective(r, g, d, (l,), e_twisted)
                    assert (
                        hypersurface_integral(spec).value
                        == closed_form_projective(g, d, r, (l,)).value
                    ), (r, g, d, l)


def test_linear_section_consistency():
    # A hyperplane section of projective r-space is projective (r-1)-space:
    # hyperplane counts there equal the plain counts on the smaller target,
    # and both equal r^g.
    for r, g, d in ((2, 1, 1), (3, 1, 2), (4, 2, 3), (3, 0, 1)):
        e_twisted = d * r + (1 - g) * (r - 1)
        spec = projective(r, g, d, (1,), e_twisted)
        big = hypersurface_integral(spec).value
        small_spec = GrassmannSpec(r - 1, r, g, d)
        from quotcount.vi_engine import vi_integral

        small = vi_integral(small_spec, monomial((chern(1), small_spec.virtual_dim))).value
        assert big == small == r**g, (r, g, d)


def test_b_class_vanishing_clauses():
    base = GrassmannSpec(2, 4, 2, 2)  # e = 8 - 4 = 4
    assert reduce_b_classes(BClassWord((1, 1), monomial((chern(1), 2))), base).value == 0
    assert reduce_b_classes(BClassWord((1, 2), monomial((chern(1), 2))), base).value == 8


def test_b_class_s_exceeding_degree_vanishes():
    base = GrassmannSpec(4, 4, 2, 1)  # point target: e = d*n = 4, d = 1 < s = 2
    word = BClassWord((1, 2), monomial((chern(2), 1)))
    assert reduce_b_classes(word, base).value == 0


def test_b_class_anchor():
    base = GrassmannSpec(2, 3, 1, 1)
    word = BClassWord((1,), monomial((chern(1), 2)))
    assert reduce_b_classes(word, base).value == 1


def test_b_class_guards():
    base = GrassmannSpec(2, 3, 1, 1)
    with pytest.raises(DimensionMismatchError):
        reduce_b_classes(BClassWord((1,), monomial((chern(1), 3))), base)
    with pytest.raises(ValueError):
        reduce_b_classes(BClassWord((2,), monomial((chern(1), 2))), base)
    with pytest.raises(ValueError):
        BClassWord((1,), monomial((segre(1), 2)))


def test_tevelev_linear_case_factor_is_one():
    report = tevelev_compare(1, 2, 3, 1)
    assert report.t == 3
    assert report.point_count.value == report.implied_tevelev


def test_tevelev_quadric_formulas():
    # l=2: Q = 2^(d*l-g+1-t) (r-1)^g, implied = 2^(d*l-g+1-2t) (r-1)^g.
    report = tevelev_compare(1, 2, 5, 2)
    assert report.t == 2
    assert report.point_count.value == Fraction(2) ** (4 - 1 + 1 - 2) * 4
    assert report.implied_tevelev == Fraction(2) ** (4 - 1 + 1 - 4) * 4
    assert report.tevelev_is_integer


def test_tevelev_matches_engine():
    # Q equals the section count with point-class insertions divided by l^t.
    g, d, r, l = 1, 2, 5, 2
    report = tevelev_compare(g, d, r, l)
    t = report.t
    spec = ProblemSpec(
        GrassmannSpec(r, r + 1, g, d), (l,), monomial((chern(r - 1), t))
    )
    engine = hypersurface_integral(spec).value / Fraction(l) ** t
    assert report.point_count.value == engine


def test_tevelev_guards():
    with pytest.raises(DimensionMismatchError):
        tevelev_compare(1, 2, 5, 2, t=3)
    with pytest.raises(DimensionMismatchError):
        tevelev_compare(0, 2, 4, 3)  # e_l = 2*2 + 3 = 7, not divisible by 3


def test_closed_forms_refuse_what_they_would_divide_by():
    # Q has the factor l^(d*l-g+1-t); l = 0 or a negative genus divides by zero.
    for l in (0, -1):
        with pytest.raises(ValueError):
            tevelev_compare(1, 2, 5, l)
    with pytest.raises(ValueError):
        tevelev_compare(-3, 2, 5, 6)
    with pytest.raises(ValueError):
        closed_form_projective(-1, 1, 1, (2,))
    with pytest.raises(ValueError):
        closed_form_lg24(-1, 1, 6, 0)


def test_closed_form_projective_refuses_rank_below_one():
    # P^r needs r >= 1; without the check r = -3 gave -3 and r = 0 gave 1.
    for args in ((1, 1, -3, (1,)), (0, 1, 0, (1,))):
        with pytest.raises(ValueError):
            closed_form_projective(*args)


def test_closed_form_advisory_statuses_follow_the_codimension_rule():
    # Out of regime if some d*l <= 2g-2; otherwise enumerative if sum(l) < r
    # for one degree (sum(l) <= r for several or none), else virtual only.
    def rule(g, d, r, multidegree):
        if any(d * l <= 2 * g - 2 for l in multidegree):
            return Enumerativity.OUT_OF_REGIME
        total = sum(multidegree)
        if (total < r) if len(multidegree) == 1 else (total <= r):
            return Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX
        return Enumerativity.VIRTUAL_ONLY

    degrees = [(), (1,), (2,), (3,), (5,), (1, 1), (1, 2), (2, 2), (1, 3)]
    tevelev_cases = 0
    for g in range(4):
        for d in range(6):
            for r in range(1, 7):
                for multidegree in degrees:
                    count = closed_form_projective(g, d, r, multidegree)
                    assert count.advisory.status is rule(g, d, r, multidegree), (g, d, r, multidegree)
                for l in range(1, r + 1):
                    try:
                        report = tevelev_compare(g, d, r, l)
                    except (ValueError, DimensionMismatchError):
                        continue
                    tevelev_cases += 1
                    assert report.point_count.advisory.status is rule(g, d, r, (l,)), (g, d, r, l)
    assert tevelev_cases > 50


def test_advisor_bounds():
    base = GrassmannSpec(2, 5, 1, 2)
    # hypersurface: strict bound i < n - l.
    at_bound = ProblemSpec(base, (1,), monomial((chern(1), 2), (chern(2), 2)))
    # twisted dim: e = 10, minus (2 - 1 + 1) = 8 ... build degree-8 monomials.
    at_bound = ProblemSpec(base, (1,), monomial((chern(2), 4)))
    advisory = enumerativity_advisor(at_bound)
    assert advisory.status is Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX

    # an insertion of index exactly n - l is only virtual for one section
    spiky = ProblemSpec(GrassmannSpec(4, 5, 1, 1), (1,), monomial((chern(4), 1)))
    assert enumerativity_advisor(spiky).status is Enumerativity.VIRTUAL_ONLY

    # the complete-intersection bound is non-strict
    ci = ProblemSpec(GrassmannSpec(4, 6, 1, 1), (1, 1), monomial((chern(4), 1)))
    assert enumerativity_advisor(ci).status is Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX

    plain = ProblemSpec(GrassmannSpec(2, 4, 1, 1), (), monomial((chern(1), 8)))
    assert enumerativity_advisor(plain).status is Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX

    out = ProblemSpec(GrassmannSpec(2, 4, 2, 1), (1,), monomial((chern(1), 4)))
    assert enumerativity_advisor(out).status is Enumerativity.OUT_OF_REGIME


def test_advisor_in_results():
    count = hypersurface_integral(lagrangian_g24(1, 2, 4, 1))
    assert count.advisory.status is Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX
