"""The package's value types: checked construction, immutability, hashing by
value and pickling (a process pool ships specs and insertions as pickles);
and the refusals and branches of the helpers that build and read them."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from quotcount.cli import JobRequest, parse_insertions, run
from quotcount.cyclotomic import Cyc, root_of_unity
from quotcount.qh_oracle import Partition, QClass
from quotcount.symfunc import CHERN, Insertion, chern, complete_homogeneous, elementary, segre, symmetric_prefix
from quotcount.twist import BClassWord, ProblemSpec, TevelevComparison
from quotcount.vi_engine import (
    PLAIN_TARGET_ADVISORY,
    SEGRE_ADVISORY,
    DualityReport,
    GrassmannSpec,
    SubsetIndex,
    VirtualCount,
    j_factor,
    necklaces,
)

SPEC = GrassmannSpec(2, 4, 1, 1)
COUNT = VirtualCount(Fraction(3), PLAIN_TARGET_ADVISORY)
RECORDS = [
    chern(2),
    Partition((2, 1)),
    PLAIN_TARGET_ADVISORY,
    COUNT,
    SPEC,
    SubsetIndex((0, 2)),
    DualityReport(COUNT, COUNT),
    ProblemSpec(SPEC, (2,), (chern(1),)),
    BClassWord((1,), (chern(1),)),
    TevelevComparison(COUNT, Fraction(3, 2), 1),
    JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 3),)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_frozen_hash_by_value_and_pickle(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    # the tuple's own equality and hash: a record compares all of its fields
    assert type(record).__eq__ is tuple.__eq__ and type(record).__hash__ is tuple.__hash__
    rebuilt = type(record)(*record)
    assert rebuilt == record and hash(rebuilt) == hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize("build, message", [
    (lambda: Insertion(kind="pontryagin", index=1), "unknown insertion kind"),
    (lambda: Insertion(kind="chern", index=0), "positive"),
    (lambda: Partition(parts=(1, 2)), "weakly decreasing"),
    (lambda: GrassmannSpec(r=5, n=4, g=0, d=0), "rank"),
    (lambda: GrassmannSpec(2, 4, g=-1, d=0), "genus"),
    (lambda: GrassmannSpec(2, 4, 0, d=-1), "degree"),
    (lambda: SubsetIndex(indices=(-1, 2)), "nonnegative"),
    (lambda: ProblemSpec(SPEC, multidegree=(0,), insertions=()), "multidegree"),
    (lambda: BClassWord(pair_indices=(0,), monomial=()), "pair indices"),
    (lambda: BClassWord((1,), monomial=(segre(1),)), "Chern"),
])
def test_constructors_check_keyword_arguments_too(build, message):
    with pytest.raises(ValueError, match=message):
        build()


W = root_of_unity(3, 1)


@pytest.mark.parametrize("call, expected", [
    (lambda: necklaces(3, 4), ValueError("density must satisfy 0 <= r <= n")),
    (lambda: j_factor(SPEC, SubsetIndex((0, 5))), ValueError("subset does not match the spec")),
    (lambda: QClass.unit(2, 2), ValueError("need 1 <= r < n")),
    (lambda: Cyc(3, (1, 2)), ValueError("expected 3 coefficients, got 2")),
    (lambda: W ** -1, ValueError("negative powers are not defined in Z[w]/(w^n - 1)")),
    (lambda: root_of_unity(0, 1), ValueError("order must be a positive integer")),
    (lambda: symmetric_prefix(CHERN, (), 1), ValueError("cannot infer the root order from an empty tuple")),
    (lambda: elementary(1, ()), ValueError("cannot infer the root order from an empty tuple")),
    (lambda: elementary(-1, (W,)), ValueError("index must be nonnegative")),
    (lambda: complete_homogeneous(-1, (W,)), ValueError("index must be nonnegative")),
    (lambda: parse_insertions("a1:2,,a2:1"), ((CHERN, 1, 2), (CHERN, 2, 1))),  # the empty piece is skipped
    (lambda: W * 2, W.scale(2)),
], ids=["necklace-density", "j-factor-subset", "qclass-rank", "cyc-length", "negative-power", "zero-order",
        "prefix-empty", "elementary-empty", "elementary-negative", "complete-negative", "empty-insertion",
        "times-int"])
def test_a_helper_refuses_or_answers_exactly(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        assert call() == expected


def test_virtual_count_compares_value_flag_and_advisory_only():
    same = VirtualCount(Fraction(3), PLAIN_TARGET_ADVISORY)
    assert COUNT == same and not COUNT != same and hash(COUNT) == hash(same)
    assert {COUNT, same} == {same}
    assert COUNT != VirtualCount(Fraction(4), PLAIN_TARGET_ADVISORY)
    assert COUNT != VirtualCount(Fraction(3), SEGRE_ADVISORY)


def test_a_count_reads_its_integrality_flag_off_its_value():
    assert VirtualCount._fields == ("value", "advisory")
    assert COUNT.is_integer
    half = VirtualCount(Fraction(9, 2), PLAIN_TARGET_ADVISORY)
    assert not half.is_integer and not pickle.loads(pickle.dumps(half)).is_integer
    with pytest.raises(AttributeError):
        COUNT.is_integer = False


def test_a_tevelev_comparison_reads_its_integrality_flag_off_its_value():
    assert TevelevComparison._fields == ("point_count", "implied_tevelev", "t")
    assert TevelevComparison(COUNT, Fraction(4), 1).tevelev_is_integer
    half = TevelevComparison(COUNT, Fraction(3, 2), 1)
    assert not half.tevelev_is_integer and not pickle.loads(pickle.dumps(half)).tevelev_is_integer
    with pytest.raises(AttributeError):
        half.tevelev_is_integer = True


def test_a_duality_report_reads_equal_off_its_two_sides():
    assert DualityReport._fields == ("chern_side", "segre_side")
    assert DualityReport(COUNT, VirtualCount(Fraction(3), SEGRE_ADVISORY)).equal
    apart = DualityReport(COUNT, VirtualCount(Fraction(4), SEGRE_ADVISORY))
    assert not apart.equal and not pickle.loads(pickle.dumps(apart)).equal
    with pytest.raises(TypeError):
        DualityReport(COUNT, apart.segre_side, True)
    with pytest.raises(AttributeError):
        apart.equal = True


def test_mutable_results_do_not_share_their_defaults():
    request = JobRequest(mode="grassmannian", g=1, d=1, r=2, n=3, insertions=(("chern", 1, 3),))
    first, second = run(request), run(request)
    stats, dims = dict(second["stats"]), dict(second["dims"])
    first["stats"]["seconds"] = -1.0
    first["stats"]["subsets"] = 0
    first["dims"]["virtual_dim"] = 0
    first["oracle"] = {}
    assert (second["stats"], second["dims"]) == (stats, dims)
    assert "oracle" not in second and second["value"]["exact"] == "3"
    a, b = QClass(2, 4), QClass(2, 4)
    a.terms[((), 0)] = 1
    assert b.terms == {}
