from __future__ import annotations

import os
import random
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotcount import vi_engine
from quotcount.cyclotomic import (
    Cyc,
    extract_rational,
    one,
    root_of_unity,
    zero,
)
from quotcount.errors import DimensionMismatchError, NonIntegralError, QuotcountError
from quotcount.symfunc import as_monomial, chern, monomial, segre
from quotcount.vi_engine import (
    SUMMANDS_PER_WORKER,
    Enumerativity,
    GrassmannSpec,
    SubsetIndex,
    _coefficient_bound,
    _Evaluator,
    _folded_total,
    _packed_ring,
    _ramanujan,
    _sign,
    _summand,
    _validate,
    affine_orbits,
    balanced_digits,
    duality_check,
    iter_colex,
    j_factor,
    necklaces,
    pool_size,
    vi_integral,
    vi_integral_orbit_reduced,
    vi_integral_parallel,
)

from cyc_helpers import field_equal, galois, inv_one_minus_root, rational


def hyperplanes(k):
    return tuple([chern(1)] * k)


def grouped(ins):
    """The Chern and the Segre (index, exponent) pairs of the insertions."""
    product = as_monomial(ins)
    return product.cherns, product.segres


# -- colex enumeration -------------------------------------------------------

def test_colex_order_matches_reversed_lex():
    for n, r in ((5, 2), (6, 3), (7, 1), (4, 4)):
        expected = sorted(combinations(range(n), r), key=lambda t: t[::-1])
        assert list(iter_colex(n, r)) == expected
    assert list(iter_colex(3, 0)) == [()]


# -- necklaces and affine orbits -------------------------------------------

def rotation_class(subset, n):
    return frozenset(tuple(sorted((a + t) % n for a in subset)) for t in range(n))


def string(subset, n):
    return tuple(int(k in subset) for k in range(n))


def test_necklace_orbit_sizes_cover_every_subset():
    for n in range(1, 13):
        for r in range(n + 1):
            found = necklaces(n, r)
            # affine_orbits keeps the first necklace of each orbit, the least
            strings = [string(subset, n) for subset, _ in found]
            assert strings == sorted(strings), (n, r)
            assert sum(size for _, size in found) == comb(n, r), (n, r)
            classes = [rotation_class(subset, n) for subset, _ in found]
            assert len(set(classes)) == len(classes), (n, r)
            for (subset, size), cls in zip(found, classes):
                assert len(subset) == r and size == len(cls), (n, r, subset)


def test_affine_orbits_partition_the_subsets():
    for n in range(1, 13):
        group = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        for r in range(n + 1):
            reps = affine_orbits(n, r)
            assert sum(size for _, size in reps) == comb(n, r), (n, r)
            orbits = [
                frozenset().union(*(rotation_class([u * a % n for a in subset], n) for u in group))
                for subset, _ in reps
            ]
            assert [len(o) for o in orbits] == [size for _, size in reps], (n, r)
            assert len(frozenset().union(*orbits)) == comb(n, r), (n, r)


def test_affine_orbits_are_the_least_strings_of_their_orbits():
    # brute force: every image of every subset under x -> u*x + t, and the
    # representative is the image whose 0/1 string is lexicographically least
    for n in range(1, 13):
        group = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        for r in range(n + 1):
            orbits = {}
            for subset in combinations(range(n), r):
                images = {tuple(sorted((u * a + t) % n for a in subset))
                          for u in group for t in range(n)}
                orbits[min(images, key=lambda s: string(s, n))] = len(images)
            expected = sorted(orbits.items(), key=lambda rep: string(rep[0], n))
            assert list(affine_orbits(n, r)) == expected, (n, r)


def test_necklaces_of_a_long_string_need_no_deep_stack():
    assert necklaces(1200, 1) == [((1199,), 1200)]
    assert affine_orbits(1200, 1) == (((1199,), 1200),)
    for n, r, count in ((1200, 2, 600), (200, 3, 6567)):
        found = necklaces(n, r)
        assert len(found) == count and sum(size for _, size in found) == comb(n, r)


def plain_total(spec, ins):
    ev = _Evaluator(spec, *grouped(ins))
    total = ev.summand(next(iter_colex(spec.n, spec.r))).scale(0)
    for subset in iter_colex(spec.n, spec.r):
        total = total + ev.summand(subset)
    return total


def galois_average(spec, ins, workers):
    """The engine's decoded S averaged over sigma_u for the units u of Z/n:
    the full subset sum as a ring element (n^r times it at genus 0, as
    `plain_total` has it), with the number of summands the engine reports
    for the request."""
    coeffs = _folded_total(spec, *grouped(ins), workers)
    n = spec.n
    weighted = Cyc(n, coeffs)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    total = zero(n)
    for u in units:
        total = total + galois(weighted, u)
    average = [divmod(c, len(units)) for c in total.coeffs]
    assert not any(rest for _, rest in average), average
    stats = {}
    vi_integral(spec, ins, stats=stats)
    return Cyc(n, [c for c, _ in average]), stats["summands"]


def test_folded_total_equals_plain_subset_sum_in_the_ring():
    from quotcount.twist import ProblemSpec, _boost

    cases = [
        (GrassmannSpec(2, 6, 0, 1), hyperplanes(14)),
        (GrassmannSpec(3, 7, 0, 1), monomial((chern(1), 4), (chern(3), 5))),
        (GrassmannSpec(2, 5, 1, 1), monomial((segre(3), 1), (segre(2), 1))),
        (GrassmannSpec(3, 6, 0, 0), monomial((segre(1), 3), (segre(3), 2))),
        (GrassmannSpec(3, 8, 1, 1), monomial((chern(1), 2), (segre(2), 3))),
        (GrassmannSpec(2, 9, 2, 2), monomial((chern(2), 1), (chern(1), 2))),
        (GrassmannSpec(4, 12, 2, 3), monomial((chern(4), 1))),
    ]
    # duality: the Segre mirror of a Chern problem
    duality_spec, duality_ins = GrassmannSpec(3, 8, 1, 1), monomial((chern(2), 4))
    cases.append((duality_spec.dual(), monomial((segre(2), 4))))
    # a hypersurface: the boosted plain problem twist hands to the engine
    cases.append(_boost(ProblemSpec(GrassmannSpec(2, 6, 1, 2), (2,), monomial((chern(1), 6), (chern(2), 1)))))
    for spec, ins in cases:
        ins = _validate(spec, ins)
        for workers in (1, 2):
            folded, summands = galois_average(spec, ins, workers)
            assert folded == plain_total(spec, ins), (spec, workers)
            assert summands == len(affine_orbits(spec.n, spec.r))
    assert duality_check(duality_spec, duality_ins).equal


@st.composite
def packed_cases(draw):
    """A valid (spec, insertions) with 1 <= r <= n <= 10 and g <= 3: random
    Chern, Segre (indices up to n + 2) or mixed factors, padded with
    hyperplanes to the virtual dimension."""
    n = draw(st.integers(min_value=1, max_value=10))
    r = draw(st.integers(min_value=1, max_value=n))
    g = draw(st.integers(min_value=0, max_value=3))
    kinds = draw(st.sampled_from(["chern", "segre", "mixed"]))
    factors = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if kinds == "segre" or (kinds == "mixed" and draw(st.booleans())):
            factors.append(segre(draw(st.integers(min_value=1, max_value=n + 2))))
        else:
            factors.append(chern(draw(st.integers(min_value=1, max_value=r))))
    base = r * (n - r) * (1 - g)
    degree = sum(ins.index for ins in factors)
    pad = (base - degree) % n
    while degree + pad < base:
        pad += n
    d = (degree + pad - base) // n
    return GrassmannSpec(r, n, g, d), tuple(factors) + hyperplanes(pad)


PACKED_EDGES = [
    (GrassmannSpec(1, 1, 0, 3), hyperplanes(3)),  # n = 1
    (GrassmannSpec(1, 1, 2, 0), ()),
    (GrassmannSpec(3, 3, 0, 1), monomial((chern(3), 1))),  # r = n
    (GrassmannSpec(4, 4, 2, 1), monomial((segre(2), 2))),
    (GrassmannSpec(2, 5, 1, 0), ()),  # empty insertions
    (GrassmannSpec(3, 6, 1, 0), ()),
]


def _with_edges(test):
    for case in PACKED_EDGES:
        test = example(case=case)(test)
    return test


@settings(max_examples=40, deadline=None)
@_with_edges
@given(case=packed_cases())
def test_packed_sum_equals_the_evaluator_subset_sum(case):
    spec, ins = case
    ins = _validate(spec, ins)
    folded, _ = galois_average(spec, ins, 1)
    plain = plain_total(spec, ins)
    assert folded == plain
    scale = spec.n ** spec.r if spec.g == 0 else 1
    assert vi_integral(spec, ins).value == _sign(spec) * extract_rational(plain) / scale


@settings(max_examples=40, deadline=None)
@_with_edges
@given(case=packed_cases())
def test_coefficient_bound_holds_on_the_exact_sum(case):
    spec, ins = case
    ins = _validate(spec, ins)
    coeffs = plain_total(spec, ins).coeffs
    assert max(abs(c) for c in coeffs) <= _coefficient_bound(spec, *grouped(ins))


def test_a_coefficient_above_the_bound_is_an_internal_error(monkeypatch, tmp_path):
    import io
    import json

    from quotcount.cli import EXIT_INTERNAL, run_batch

    # The true largest coefficient of this sum is 240; its proven bound is 960.
    spec, ins = GrassmannSpec(2, 6, 1, 1), hyperplanes(6)
    assert _coefficient_bound(spec, *grouped(ins)) == 960
    monkeypatch.setattr(vi_engine, "_coefficient_bound", lambda *args: 100)
    with pytest.raises(QuotcountError):
        vi_integral(spec, ins)
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 6, "ins": "a1:6"}\n'
        '{"mode": "grassmannian", "g": 1, "d": 1, "r": 2, "n": 3, "ins": "a1:3"}\n'
    )
    buffer = io.StringIO()
    code = run_batch(str(path), out=buffer)
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert rows[0]["error"]["exit"] == EXIT_INTERNAL
    assert rows[1]["ok"] is True and rows[1]["value"]["exact"] == "3"
    assert rows[2]["internal_errors"] == 1 and code == EXIT_INTERNAL


def test_ramanujan_sums_are_the_traces_of_the_roots():
    for n in range(1, 31):
        units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        for k in range(n):
            trace = zero(n)
            for u in units:
                trace = trace + root_of_unity(n, u * k)
            assert _ramanujan(n)[k] == extract_rational(trace), (n, k)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_balanced_digits_decodes_every_packing(width, n, data):
    # Coefficients below 2^(width-2) in absolute value, packed as
    # sum c_k * 2^(width*k) modulo M = 2^(width*n) - 1, decode back from a
    # nonnegative representative of that residue, whether below M or above it.
    limit = (1 << (width - 2)) - 1
    coeffs = tuple(data.draw(st.lists(st.integers(-limit, limit), min_size=n, max_size=n)))
    m = (1 << (width * n)) - 1
    packed = sum(c << (width * k) for k, c in enumerate(coeffs)) % m
    copies = data.draw(st.sampled_from([0, 1, 2, 7, 1 << 20]))
    assert balanced_digits(packed + copies * m, width, n) == coeffs


@pytest.mark.parametrize("spec, ins, value", [
    # Both counts are 55; c_5(1) = -1 moves the trace by -1 over phi(5) * [5^2].
    (GrassmannSpec(2, 5, 0, 1), hyperplanes(11), "5501/100"),
    (GrassmannSpec(2, 5, 1, 1), hyperplanes(5), "221/4"),
])
def test_the_certificate_refuses_a_wrong_sum(monkeypatch, spec, ins, value):
    from quotcount.cli import EXIT_INTERNAL, JobRequest, run

    decode = vi_engine.balanced_digits

    def off_by_one(*args):
        coeffs = list(decode(*args))
        coeffs[1] += 1  # one more w than the true sum has
        return tuple(coeffs)

    monkeypatch.setattr(vi_engine, "balanced_digits", off_by_one)
    with pytest.raises(NonIntegralError, match=f"non-integral: {value}$"):
        vi_integral(spec, ins)
    record = run(JobRequest(mode="grassmannian", g=spec.g, d=spec.d, r=spec.r, n=spec.n,
                            insertions=(("chern", 1, len(ins)),)))
    assert record["ok"] is False
    assert record["error"]["type"] == "NonIntegralError"
    assert record["error"]["exit"] == EXIT_INTERNAL


# -- the count memo ------------------------------------------------------------

memo = vi_engine._certified_count


@settings(max_examples=40, deadline=None)
@_with_edges
@given(case=packed_cases())
def test_a_memoised_count_is_the_recomputed_count(case):
    spec, ins = case
    memo.cache_clear()
    first = vi_integral(spec, ins)
    hit_stats = {}
    hit = vi_integral(spec, ins, stats=hit_stats)
    assert hit is first and memo.cache_info().hits == 1
    memo.cache_clear()
    again_stats = {}
    again = vi_integral(spec, ins, stats=again_stats)
    assert hit == again and hit_stats == again_stats
    assert again_stats == {"subsets": spec.subset_count, "summands": len(affine_orbits(spec.n, spec.r)),
                           "workers": 1}


def test_a_refusal_is_never_stored_and_never_read():
    spec, ins = GrassmannSpec(2, 4, 0, 1), monomial((chern(2), 4))
    accepted = vi_integral(spec, ins)
    assert accepted == vi_integral_orbit_reduced(spec, ins)
    # the same exponents, refused for the workers, the degree and the rank
    with pytest.raises(ValueError, match="workers"):
        vi_integral(spec, ins, 0)
    with pytest.raises(DimensionMismatchError):
        vi_integral(GrassmannSpec(2, 4, 0, 2), ins)
    with pytest.raises(ValueError, match="exceeds rank"):
        vi_integral(GrassmannSpec(1, 4, 0, 5), ins)
    assert memo.cache_info().currsize == 1
    assert vi_integral(spec, ins) is accepted


def test_chern_and_segre_exponents_of_one_index_are_different_keys():
    spec = GrassmannSpec(2, 6, 1, 1)  # a_2^3 counts 3, s_2^3 counts 45
    cherns, segres = monomial((chern(2), 3)), monomial((segre(2), 3))
    by_chern, by_segre = vi_integral(spec, cherns), vi_integral(spec, segres)
    assert memo.cache_info().misses == 2
    assert by_chern == vi_integral_orbit_reduced(spec, cherns)
    assert by_segre == vi_integral_orbit_reduced(spec, segres)
    assert by_chern.value != by_segre.value and by_chern.advisory != by_segre.advisory


def test_affine_orbits_are_cached_as_a_bounded_tuple():
    reps = affine_orbits(12, 4)
    assert isinstance(reps, tuple)
    assert affine_orbits(12, 4) is reps
    assert isinstance(affine_orbits.cache_info().maxsize, int)


def test_summands_reported_per_affine_orbit():
    # G(5,20): 15504 subsets, 776 rotation orbits, 120 affine orbits.
    assert len(necklaces(20, 5)) == 776
    assert len(affine_orbits(20, 5)) == 120
    stats = {}
    vi_integral(GrassmannSpec(2, 4, 0, 1), hyperplanes(8), stats=stats)
    assert stats["summands"] == len(affine_orbits(4, 2)) == 2


def test_the_engine_writes_its_statistics_on_a_miss_and_a_hit_alike():
    spec, ins = GrassmannSpec(2, 6, 1, 1), hyperplanes(6)
    expected = {"subsets": 15, "summands": len(affine_orbits(6, 2)), "workers": 1}
    memo.cache_clear()
    for hits in (0, 1):
        stats = {}
        count = vi_integral(spec, ins, stats=stats)
        assert memo.cache_info().hits == hits and stats == expected
    assert vi_integral(spec, ins) == count
    # a request _validate refuses, for its degree or its rank, writes nothing
    for refused, error in ((spec, DimensionMismatchError), (GrassmannSpec(1, 6, 1, 2), ValueError)):
        stats = {}
        with pytest.raises(error):
            vi_integral(refused, monomial((chern(2), 6)), stats=stats)
        assert stats == {}


# -- spec and subset types ---------------------------------------------------

def test_virtual_dimension():
    assert GrassmannSpec(2, 3, 1, 1).virtual_dim == 3
    assert GrassmannSpec(2, 4, 0, 1).virtual_dim == 8
    assert GrassmannSpec(2, 4, 3, 0).virtual_dim == -8


def test_spec_validation():
    with pytest.raises(ValueError):
        GrassmannSpec(0, 3, 0, 0)
    with pytest.raises(ValueError):
        GrassmannSpec(4, 3, 0, 0)
    with pytest.raises(ValueError):
        GrassmannSpec(1, 3, -1, 0)


def test_subset_index_validation():
    with pytest.raises(ValueError):
        SubsetIndex((2, 2))
    with pytest.raises(ValueError):
        SubsetIndex((3, 1))
    assert SubsetIndex((0, 2)).complement(4) == SubsetIndex((1, 3))


# -- J factor ----------------------------------------------------------------

def test_j_factor_full_rank_is_empty_product():
    spec = GrassmannSpec(3, 3, 1, 0)
    assert j_factor(spec, SubsetIndex((0, 1, 2))) == one(3)


def test_j_factor_smallest_case_equals_derivative_form():
    # n=2, r=1, I={0}: zeta_0 - zeta_1 = 2 = n * zeta_0^(n-1),
    # an equality of root values, i.e. in the field.
    spec = GrassmannSpec(1, 2, 1, 0)
    assert field_equal(j_factor(spec, SubsetIndex((0,))), one(2).scale(2))


def test_j_factor_equals_literal_formula():
    # Compare the division-free product with n*x^(n-1) over pair
    # differences, the latter assembled from certified inverses.
    n, r = 4, 2
    spec = GrassmannSpec(r, n, 1, 0)
    for subset in combinations(range(n), r):
        division_free = j_factor(spec, SubsetIndex(subset))
        literal = one(n)
        for i in subset:
            literal = literal * root_of_unity(n, i * (n - 1)).scale(n)
        for i in subset:
            for j in subset:
                if i != j:
                    # (zeta_i - zeta_j)^(-1) = -w^(n-j) * (1 - w^(i-j))^(-1)
                    inv = -(inv_one_minus_root(n, i - j).rotate((n - j) % n))
                    literal = literal * inv
        # each certified inverse carries a factor n, r*(r-1) of them in all
        assert field_equal(division_free.scale(n ** (r * (r - 1))), literal), subset


# -- the counting sum --------------------------------------------------------

def test_three_lines_through_elliptic_plane_curves():
    spec = GrassmannSpec(2, 3, 1, 1)
    assert vi_integral(spec, hyperplanes(3)).value == 3


def test_classical_degree_of_g24():
    assert vi_integral(GrassmannSpec(2, 4, 0, 0), hyperplanes(4)).value == 2


def test_classical_g24_mixed_monomials():
    spec = GrassmannSpec(2, 4, 0, 0)
    assert vi_integral(spec, monomial((chern(2), 2))).value == 1
    assert vi_integral(spec, monomial((chern(1), 2), (chern(2), 1))).value == 1


def test_classical_degrees_of_small_grassmannians():
    assert vi_integral(GrassmannSpec(2, 5, 0, 0), hyperplanes(6)).value == 5
    assert vi_integral(GrassmannSpec(3, 6, 0, 0), hyperplanes(9)).value == 42


def test_classical_column_convention_value():
    # On G(2,5) the square-shape self-intersection is 1 (the row-shape
    # convention would give 2): pins the meaning of the degree-2 insertion.
    assert vi_integral(GrassmannSpec(2, 5, 0, 0), monomial((chern(2), 3))).value == 1


def test_quantum_eight_conditions_on_g24():
    assert vi_integral(GrassmannSpec(2, 4, 0, 1), hyperplanes(8)).value == 8


def test_genus_two_power_law():
    # Plain projective-plane counts equal (r+1)^g independent of d.
    assert vi_integral(GrassmannSpec(2, 3, 2, 3), hyperplanes(7)).value == 9
    assert vi_integral(GrassmannSpec(2, 3, 2, 4), hyperplanes(10)).value == 9


def test_genus_one_degree_zero_is_euler_number():
    # At genus 1 and degree 0 the empty integral computes the Euler
    # number of the target, which is the number of cells: C(n, r).
    from math import comb

    for n in range(2, 7):
        for r in range(1, n):
            assert vi_integral(GrassmannSpec(r, n, 1, 0), ()).value == comb(n, r), (r, n)


def test_genus_one_projective_counts_are_target_dimension_plus_one():
    # On projective (n-1)-space the genus-1 count through dn hyperplane
    # conditions is n, for every positive degree.
    for n in range(2, 6):
        for d in (1, 2):
            spec = GrassmannSpec(1, n, 1, d)
            assert vi_integral(spec, hyperplanes(d * n)).value == n, (n, d)


def test_cyc_values_survive_pickling():
    # Worker processes ship partial sums back as pickles.
    import pickle

    ev = _Evaluator(GrassmannSpec(2, 5, 0, 1), *grouped(hyperplanes(11)))
    value = ev.summand((1, 3))
    assert pickle.loads(pickle.dumps(value)) == value


def test_dimension_guard():
    spec = GrassmannSpec(2, 3, 1, 1)
    with pytest.raises(DimensionMismatchError):
        vi_integral(spec, hyperplanes(4))
    with pytest.raises(DimensionMismatchError):
        vi_integral(GrassmannSpec(2, 4, 3, 0), ())


def test_chern_index_bound():
    with pytest.raises(ValueError):
        vi_integral(GrassmannSpec(2, 4, 1, 1), monomial((chern(3), 1), (chern(1), 1)))


def test_insertion_order_is_irrelevant():
    spec = GrassmannSpec(2, 4, 1, 2)
    pairs = monomial((chern(1), 4), (chern(2), 2))
    shuffled = [ins for ins, x in pairs for _ in range(x)]
    random.Random(7).shuffle(shuffled)
    assert vi_integral(spec, pairs).value == vi_integral(spec, shuffled).value


def test_summand_rotation_invariance():
    # Adding 1 mod n to every exponent leaves each summand unchanged
    # exactly (not just in the field) in top degree, and a unit u maps it
    # by sigma_u exactly: the two identities the orbit fold relies on.
    for spec, ins in (
        (GrassmannSpec(2, 5, 1, 1), hyperplanes(5)),
        (GrassmannSpec(2, 4, 0, 1), hyperplanes(8)),
        (GrassmannSpec(2, 4, 2, 1), monomial((chern(2), 2))),
        (GrassmannSpec(2, 4, 1, 1), monomial((segre(2), 2))),
        (GrassmannSpec(2, 5, 0, 0), monomial((segre(3), 2))),
        (GrassmannSpec(3, 7, 0, 1), monomial((segre(2), 5), (segre(3), 3))),
        (GrassmannSpec(3, 8, 0, 1), monomial((chern(1), 3), (segre(2), 4), (chern(3), 3), (segre(3), 1))),
        (GrassmannSpec(4, 9, 0, 0), monomial((chern(2), 4), (segre(3), 4))),
        (GrassmannSpec(2, 9, 0, 2), monomial((chern(1), 22), (segre(5), 2))),
        (GrassmannSpec(3, 9, 2, 3), monomial((chern(1), 3), (segre(3), 2))),
    ):
        n = spec.n
        ev = _Evaluator(spec, *grouped(ins))
        units = [u for u in range(2, n) if gcd(u, n) == 1]
        for subset in iter_colex(n, spec.r):
            value = ev.summand(subset)
            rotated = tuple(sorted((a + 1) % n for a in subset))
            assert ev.summand(rotated) == value, (spec, subset)
            for u in units:
                image = tuple(sorted(u * a % n for a in subset))
                assert ev.summand(image) == galois(value, u), (spec, subset, u)


@pytest.mark.parametrize("spec, ins", [
    (GrassmannSpec(2, 5, 0, 1), hyperplanes(11)),
    (GrassmannSpec(3, 7, 0, 1), monomial((segre(2), 5), (segre(3), 3))),
    (GrassmannSpec(3, 8, 0, 1), monomial((chern(1), 3), (segre(2), 4), (chern(3), 3), (segre(3), 1))),
    (GrassmannSpec(2, 6, 1, 1), monomial((chern(1), 4), (chern(2), 1))),
    (GrassmannSpec(2, 4, 1, 1), monomial((segre(2), 2))),
    (GrassmannSpec(3, 8, 1, 1), monomial((chern(1), 2), (segre(2), 3))),
    (GrassmannSpec(2, 8, 2, 2), monomial((chern(2), 1), (chern(1), 2))),
    (GrassmannSpec(3, 7, 2, 3), monomial((chern(1), 3), (segre(3), 2))),
    (GrassmannSpec(2, 6, 3, 4), monomial((segre(2), 2), (chern(1), 4))),
    (GrassmannSpec(3, 6, 3, 5), monomial((chern(3), 1), (segre(4), 2), (chern(1), 1))),
])
def test_each_packed_summand_decodes_to_the_reference_summand(spec, ins):
    # Errors that cancel in the folded total show here: for every subset I,
    # the engine's summand decodes to the evaluator's (both n^r times it at genus 0),
    # I + 1 decodes to the same digits and u*I to sigma_u of them.
    cherns, segres = grouped(_validate(spec, ins))
    n = spec.n
    width = _coefficient_bound(spec, cherns, segres).bit_length() + 2
    ring = _packed_ring(n, width)
    reference = _Evaluator(spec, cherns, segres)

    def digits(subset):
        return balanced_digits(_summand(ring, subset, n, cherns, segres, spec.g - 1), width, n)

    units = [u for u in range(2, n) if gcd(u, n) == 1]
    for subset in iter_colex(n, spec.r):
        decoded = digits(subset)
        assert decoded == reference.summand(subset).coeffs, (spec, subset)
        assert digits(tuple(sorted((a + 1) % n for a in subset))) == decoded, (spec, subset)
        for u in units:
            image = digits(tuple(sorted(u * a % n for a in subset)))
            assert image == galois(Cyc(n, decoded), u).coeffs, (spec, subset, u)


def test_the_reference_route_and_the_engine_summand_share_no_code():
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(vi_engine))
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}

    def names(name):
        nodes = list(ast.walk(defs[name]))
        return ({node.id for node in nodes if isinstance(node, ast.Name)}
                | {node.attr for node in nodes if isinstance(node, ast.Attribute)})

    for reference in ("_Evaluator", "vi_integral_orbit_reduced"):
        assert not names(reference) & {"_summand", "_packed_ring"}, reference
    for engine in ("_summand", "_packed_ring", "_packed_sum"):
        assert not names(engine) & {"_Evaluator", "Cyc"}, engine


def test_genus0_weight_inverts_j_in_the_field():
    for n in range(2, 9):
        for r in range(1, n + 1):
            ev = _Evaluator(GrassmannSpec(r, n, 0, 0), (), ())
            for subset in combinations(range(n), r):
                product = ev.j_inverse(subset) * ev.j_factor(subset)
                assert field_equal(product, rational(n, n ** r)), (n, subset)


def test_genus0_engine_matches_quantum_pieri_oracle():
    from quotcount.qh_oracle import fixed_domain_count_g0

    rng = random.Random(20250601)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 9)
        r = rng.randint(1, n - 1)
        d = rng.randint(0, 2)
        left = d * n + r * (n - r)
        if left > 24:
            continue
        ins = []
        while left:
            i = rng.randint(1, min(left, 6))
            kind = segre if i > r or rng.random() < 0.5 else chern
            ins.append(kind(i))
            left -= i
        engine = vi_integral(GrassmannSpec(r, n, 0, d), ins).value
        assert engine == fixed_domain_count_g0(r, n, d, ins), (r, n, d, ins)
        checked += 1


def test_orbit_bookkeeping_on_g24():
    # The 6 2-subsets of the 4th roots fall into orbits of sizes 4 and 2.
    orbits = set()
    for subset in combinations(range(4), 2):
        orbit = frozenset(tuple(sorted((a + s) % 4 for a in subset)) for s in range(4))
        orbits.add(orbit)
    assert sorted(len(o) for o in orbits) == [2, 4]
    spec = GrassmannSpec(2, 4, 0, 1)
    assert vi_integral_orbit_reduced(spec, hyperplanes(8)).value == 8


def test_orbit_reduction_agrees_exhaustively():
    cases = [
        (GrassmannSpec(2, 3, 1, 1), hyperplanes(3)),
        (GrassmannSpec(2, 4, 0, 0), monomial((chern(2), 2))),
        (GrassmannSpec(2, 5, 1, 1), hyperplanes(5)),
        (GrassmannSpec(3, 6, 0, 0), hyperplanes(9)),
        (GrassmannSpec(2, 6, 2, 2), monomial((chern(1), 2), (chern(2), 1))),
        (GrassmannSpec(1, 7, 1, 1), hyperplanes(7)),
        (GrassmannSpec(4, 8, 1, 1), monomial((chern(2), 4))),
        # genus 0 with Segre and mixed insertions, where the reference divides
        # by n^r; the counts are 55, 3, 12847, 342 and 1341
        (GrassmannSpec(2, 5, 0, 1), monomial((segre(1), 11))),
        (GrassmannSpec(2, 5, 0, 1), monomial((segre(3), 2), (segre(1), 5))),
        (GrassmannSpec(3, 7, 0, 1), monomial((segre(2), 4), (segre(1), 11))),
        (GrassmannSpec(3, 6, 0, 1), monomial((chern(2), 3), (segre(1), 5), (chern(1), 4))),
        (GrassmannSpec(2, 7, 0, 2), monomial((chern(2), 4), (segre(1), 16))),
    ]
    for spec, ins in cases:
        assert (
            vi_integral_orbit_reduced(spec, ins).value
            == vi_integral(spec, ins).value
        ), spec


def test_parallel_agrees_with_serial():
    spec = GrassmannSpec(2, 6, 1, 1)
    ins = hyperplanes(6)
    serial = vi_integral(spec, ins).value
    assert vi_integral_parallel(spec, ins, 1).value == serial
    assert vi_integral_parallel(spec, ins, 8).value == serial


def test_parallel_anchor_with_four_workers():
    assert vi_integral_parallel(GrassmannSpec(2, 3, 1, 1), hyperplanes(3), 4).value == 3


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=6, deadline=None)
def test_parallel_matches_serial_on_random_specs(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    g = data.draw(st.integers(min_value=0, max_value=2))
    d = data.draw(st.integers(min_value=0, max_value=2))
    spec = GrassmannSpec(r, n, g, d)
    e = spec.virtual_dim
    if e < 0 or e > 24:
        return
    ins = []
    left = e
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    while left:
        i = rng.randint(1, min(r, left))
        ins.append(chern(i))
        left -= i
    reference = vi_integral_orbit_reduced(spec, ins).value
    for workers in (1, 2, 3):
        assert vi_integral_parallel(spec, ins, workers).value == reference, workers
    # These sums are too small for the policy to start a pool; drive one directly.
    # Equal decoded sums S give equal galois_average values, and more.
    serial = _folded_total(spec, *grouped(ins), 1)
    for workers in (2, 3):
        assert _folded_total(spec, *grouped(ins), workers) == serial, workers


def test_pool_size_policy_at_its_boundaries():
    k = SUMMANDS_PER_WORKER
    assert pool_size(8, 0, 8) == 1
    assert pool_size(8, k - 1, 8) == 1  # below the threshold
    assert pool_size(8, 2 * k - 1, 8) == 1
    assert pool_size(8, 2 * k, 8) == 2  # at it
    assert pool_size(8, 5 * k + 3, 8) == 5  # above it
    assert pool_size(8, 100 * k, 3) == 3  # capped by the CPUs
    assert pool_size(4, 100 * k, 8) == 4  # capped by the request
    assert pool_size(1, 100 * k, 8) == 1


def test_small_sum_with_many_workers_starts_no_process(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    stats = {}
    count = vi_integral(GrassmannSpec(5, 20, 1, 1), hyperplanes(20), 8, stats)
    assert count.value == 275923203690000
    assert stats == {"subsets": 15504, "summands": 120, "workers": 1}


def test_engine_caps_workers_at_the_cpus_it_may_use(monkeypatch):
    # A lower threshold than the engine's, so this small sum gets a pool.
    SUMMANDS_PER_WORKER = 128
    monkeypatch.setattr(vi_engine, "SUMMANDS_PER_WORKER", SUMMANDS_PER_WORKER)
    spec, ins = GrassmannSpec(5, 24, 1, 1), hyperplanes(24)
    assert len(affine_orbits(24, 5)) // SUMMANDS_PER_WORKER == 2

    def used(workers):
        stats = {}
        count = vi_integral(spec, ins, workers, stats)
        return stats["workers"], count.value

    serial = used(1)
    assert serial[0] == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert used(8) == (2, serial[1])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert used(8)[0] == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert used(8)[0] == 1


def test_engine_refuses_fewer_than_one_worker():
    spec, ins = GrassmannSpec(2, 3, 1, 1), hyperplanes(3)
    for workers in (0, -5):
        with pytest.raises(ValueError):
            vi_integral(spec, ins, workers)
        with pytest.raises(ValueError):
            vi_integral_parallel(spec, ins, workers)


def test_duality_self_dual_projective_line():
    report = duality_check(GrassmannSpec(1, 2, 0, 1), hyperplanes(3))
    assert report.equal
    assert report.chern_side.value == report.segre_side.value == 1


def test_duality_plane_anchor():
    report = duality_check(GrassmannSpec(2, 3, 1, 1), hyperplanes(3))
    assert report.equal
    assert report.chern_side.value == 3


def test_duality_g24_random_monomial():
    report = duality_check(
        GrassmannSpec(2, 4, 1, 2), monomial((chern(1), 2), (chern(2), 3))
    )
    assert report.equal


def test_advisories():
    plain = vi_integral(GrassmannSpec(2, 3, 1, 1), hyperplanes(3))
    assert plain.advisory.status is Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX
    with_segre = vi_integral(GrassmannSpec(2, 4, 1, 1), monomial((segre(2), 2)))
    assert with_segre.advisory.status is Enumerativity.VIRTUAL_ONLY


def test_counts_certify_integrality():
    count = vi_integral(GrassmannSpec(2, 4, 0, 1), hyperplanes(8))
    assert count.is_integer and count.as_integer() == 8
