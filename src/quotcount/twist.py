"""Counts of maps into hypersurface and complete-intersection sections.

Cutting the Grassmannian target by sections of powers of the Pluecker
line bundle multiplies the plain count by an explicit rational prefactor
and boosts the first Chern insertion:

    count on the degree-l section
        = (n - l)^g * l^(d*l - g + 1) / n^g
          * plain count with d*l - g + 1 extra Chern(1) insertions,

valid when d*l > 2g - 2 (below that the section data does not push
forward to a bundle and the spec is refused).  A multidegree (l_1..l_u)
contributes one such factor per degree.  An alternate evaluation path
expands the same top class through the odd-cohomology square phi instead
of closing the binomial sum; the two agree whenever d >= g, and with the
dimension constraints in force every in-regime problem on a proper
Grassmannian in fact has d >= g, so the truncation is never visible.
Every section count, on either path and for any multidegree, is read off
one body, `_section_count`: the section's checks, one engine run, and
the closed count certified by `vi_engine.certified`, the engine's own
certificate.

Closed forms for projective targets and for the Lagrangian section of
G(2, 4), and the fixed-point-count comparison, compute their values as
pure arithmetic (no engine call).  Each states its target as a
ProblemSpec, so its genus, degree, rank and multidegree are checked as
that spec is built, and its advisory comes from the one enumerativity
advisor.  The projective form refuses a negative twisted dimension; the
Lagrangian form also runs the regime and insertion-degree checks of the
engine-backed section counts.  These values and the phi path's are
reported as they are, uncertified: a count's `is_integer` is read off
its value.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatchError, RegimeViolationError
from .symfunc import Insertion, Monomial, as_monomial, check_degree, chern
from .vi_engine import (
    Advisory,
    Enumerativity,
    GrassmannSpec,
    PLAIN_TARGET_ADVISORY,
    SEGRE_ADVISORY,
    VirtualCount,
    _validate,
    certified,
    vi_integral,
)

LARGE_D_NOTE = (
    "conditional on weak convexity of the section and on d being sufficiently "
    "large; neither hypothesis can be checked numerically"
)


class ProblemSpec(NamedTuple("ProblemSpec", [
    ("base", GrassmannSpec), ("multidegree", tuple[int, ...]), ("insertions", Monomial),
])):
    """A counting problem: base target, section multidegree, insertions (a
    flat iterable is kept as its monomial)."""

    __slots__ = ()

    def __new__(cls, base: GrassmannSpec, multidegree: tuple[int, ...],
                insertions: Monomial | Iterable[Insertion]) -> ProblemSpec:
        if any(l < 1 for l in multidegree):
            raise ValueError("multidegree entries must be positive integers")
        return super().__new__(cls, base, multidegree, as_monomial(insertions))

    @property
    def twisted_dim(self) -> int:
        b = self.base
        return b.virtual_dim - sum(b.d * l - b.g + 1 for l in self.multidegree)

    @property
    def in_regime(self) -> bool:
        b = self.base
        return all(b.d * l > 2 * b.g - 2 for l in self.multidegree)


def _check_section(spec: ProblemSpec) -> None:
    """A section count's preconditions: the regime, then the insertion degree."""
    if not spec.in_regime:
        b = spec.base
        raise RegimeViolationError(
            f"need d*l > 2g-2 for every section degree (d={b.d}, g={b.g}, "
            f"multidegree={spec.multidegree})"
        )
    check_degree(spec.insertions, spec.twisted_dim, "twisted virtual dimension")


def _boost(spec: ProblemSpec) -> tuple[GrassmannSpec, Monomial]:
    """The base target with one extra Chern(1) per unit of dimension the sections cut."""
    b = spec.base
    return b, spec.insertions.times(chern(1), b.virtual_dim - spec.twisted_dim)


def _closed_scalar(spec: ProblemSpec) -> Fraction:
    """prod l^(d*l-g+1) * ((n - sum l)/n)^g, the closed-form prefactor."""
    b = spec.base
    scalar = Fraction(b.n - sum(spec.multidegree), b.n) ** b.g
    for l in spec.multidegree:
        scalar *= Fraction(l) ** (b.d * l - b.g + 1)
    return scalar


def _phi_scalar(spec: ProblemSpec) -> Fraction:
    """l^(d*l-g+1) * sum over s <= min(d, g) of C(g, s) (-l/n)^s.

    This closes to ((n-l)/n)^g exactly when d >= g.
    """
    b = spec.base
    (l,) = spec.multidegree
    return Fraction(l) ** (b.d * l - b.g + 1) * sum(
        comb(b.g, s) * Fraction(-l, b.n) ** s for s in range(min(b.d, b.g) + 1)
    )


def _section_count(spec: ProblemSpec, workers: int, stats: Optional[dict]) -> tuple[VirtualCount, Fraction]:
    """The certified closed count on the sections, with the boosted plain
    count it scales: `_check_section`, then one engine run, which writes `stats`."""
    _check_section(spec)
    raw = vi_integral(*_boost(spec), workers, stats).value
    return certified(raw * _closed_scalar(spec), enumerativity_advisor(spec)), raw


def hypersurface_integral(spec: ProblemSpec, workers: int = 1) -> VirtualCount:
    """Count on a single degree-l section: prefactor times boosted plain count."""
    return hypersurface_both_paths(spec, workers)[0]


def complete_intersection_integral(spec: ProblemSpec, workers: int = 1,
                                   stats: Optional[dict] = None) -> VirtualCount:
    """Count on a multidegree section; with one factor this is the hypersurface case."""
    return _section_count(spec, workers, stats)[0]


def hypersurface_both_paths(spec: ProblemSpec, workers: int = 1,
                            stats: Optional[dict] = None) -> tuple[VirtualCount, VirtualCount, bool]:
    """Closed and expansion paths off a single engine run, plus agreement.

    A single section degree is refused first, before the section's own checks.
    """
    if len(spec.multidegree) != 1:
        raise ValueError(f"a hypersurface has exactly one section degree, got {spec.multidegree}")
    closed, raw = _section_count(spec, workers, stats)
    phi = VirtualCount(raw * _phi_scalar(spec), closed.advisory)
    return closed, phi, closed.value == phi.value


class BClassWord(NamedTuple("BClassWord", [
    ("pair_indices", tuple[int, ...]), ("monomial", Monomial),
])):
    """s odd-class pairs (each pair is the j and j+g first-Chern components)
    followed by a trailing Chern monomial (a flat iterable is kept as its
    monomial)."""

    __slots__ = ()

    def __new__(cls, pair_indices: tuple[int, ...],
                monomial: Monomial | Iterable[Insertion]) -> BClassWord:
        if any(j < 1 for j in pair_indices):
            raise ValueError("pair indices must be positive")
        monomial = as_monomial(monomial)
        if monomial.segres:
            raise ValueError("the trailing monomial must consist of Chern insertions")
        return super().__new__(cls, pair_indices, monomial)


B_WORD_ADVISORY = Advisory(
    Enumerativity.VIRTUAL_ONLY,
    "odd-cohomology insertions carry no enumerativity statement",
)


def reduce_b_classes(word: BClassWord, base: GrassmannSpec, workers: int = 1,
                     stats: Optional[dict] = None) -> VirtualCount:
    """Trade s odd-class pairs for a_1^s / n^s inside a plain integral.

    After the engine's refusals, vanishes when a pair index repeats or s > d.
    """
    s = len(word.pair_indices)
    if any(j > base.g for j in word.pair_indices):
        raise ValueError("pair indices must lie in [1, g]")
    check_degree(word.monomial, base.virtual_dim - s, f"virtual dimension minus {s} (the pair count)")
    boosted = word.monomial.times(chern(1), s)
    if len(set(word.pair_indices)) < s or s > base.d:
        _validate(base, boosted)
        return VirtualCount(Fraction(0), B_WORD_ADVISORY)
    raw = vi_integral(base, boosted, workers, stats).value
    return certified(raw / Fraction(base.n) ** s, B_WORD_ADVISORY)


def _projective(g: int, d: int, r: int, multidegree: Sequence[int]) -> ProblemSpec:
    """A section of G(r, r+1) = P^r cut by hyperplane conditions, for the checks
    and the advisory of its closed forms."""
    return ProblemSpec(GrassmannSpec(r, r + 1, g, d), tuple(multidegree), (chern(1),))


def closed_form_projective(g: int, d: int, r: int, multidegree: Sequence[int]) -> VirtualCount:
    """prod l_i^(d*l_i-g+1) * (r+1-sum l_i)^g, the projective-target count.

    Pure arithmetic; nonzero only when sum of degrees is at most r.
    """
    spec = _projective(g, d, r, multidegree)
    if spec.twisted_dim < 0:
        raise DimensionMismatchError(f"twisted virtual dimension is {spec.twisted_dim}, below zero")
    return VirtualCount(_closed_scalar(spec) * (r + 1) ** g, enumerativity_advisor(spec))


def closed_form_lg24(g: int, d: int, m1: int, m2: int) -> VirtualCount:
    """2^(2d-m2-g+1) * 3^g for the Lagrangian section of G(2, 4).

    The spec is the degree-1 section of G(2, 4) with a_1^m1 a_2^m2, so it
    requires d > 2g - 2 and m1 + 2*m2 = 3*(d - g + 1), its twisted dimension.
    """
    insertions = Monomial(((chern(1), m1), (chern(2), m2)))  # a negative exponent is refused first
    spec = ProblemSpec(GrassmannSpec(2, 4, g, d), (1,), insertions)
    _check_section(spec)
    value = Fraction(2) ** (2 * d - m2 - g + 1) * 3**g
    return VirtualCount(value, enumerativity_advisor(spec))


class TevelevComparison(NamedTuple):
    """Q, the fixed-point count it implies and t; the flag is read off the implied count."""

    point_count: VirtualCount
    implied_tevelev: Fraction
    t: int

    @property
    def tevelev_is_integer(self) -> bool:
        return self.implied_tevelev.denominator == 1


def tevelev_compare(g: int, d: int, r: int, l: int, t: Optional[int] = None) -> TevelevComparison:
    """Point-incidence count Q on a degree-l section of projective r-space,
    and the fixed-point map count it implies via the (l!/l^l)^t factor.

    Q = l^(d*l-g+1-t) * (r+1-l)^g with t = e_l/(r-1) conditions; the implied
    count is expected integral when 3 <= l <= r/2 + 1 and g + t >= 2.
    """
    spec = _projective(g, d, r, (l,))
    if r < 2:
        raise ValueError("point conditions need r >= 2")
    e_l = spec.twisted_dim
    quotient, remainder = divmod(e_l, r - 1)
    if remainder != 0 or quotient < 1:
        raise DimensionMismatchError(
            f"t = e_l/(r-1) = {e_l}/{r - 1} is not a positive integer"
        )
    if t is None:
        t = quotient
    elif t != quotient:
        raise DimensionMismatchError(f"t={t} inconsistent with e_l/(r-1)={quotient}")
    q_value = _closed_scalar(spec) * (r + 1) ** g / Fraction(l) ** t
    q_count = VirtualCount(q_value, enumerativity_advisor(spec))
    implied = Fraction(factorial(l), l**l) ** t * q_value
    return TevelevComparison(q_count, implied, t)


def enumerativity_advisor(spec: ProblemSpec) -> Advisory:
    """Label the spec by the codimension bounds under which the virtual
    count is an actual count of maps (for large d, on a weakly convex
    section); the advisor states the conditions, it cannot verify them."""
    if not spec.in_regime:
        return Advisory(
            Enumerativity.OUT_OF_REGIME,
            "d*l <= 2g-2 for some section degree; outside the bundle regime",
        )
    if spec.insertions.segres:
        return SEGRE_ADVISORY
    if not spec.multidegree:
        return PLAIN_TARGET_ADVISORY
    n = spec.base.n
    total = sum(spec.multidegree)
    if len(spec.multidegree) == 1:
        ok = all(ins.index < n - total for ins in spec.insertions.present)
        bound = f"i < n - l = {n - total}"
    else:
        ok = all(ins.index <= n - total for ins in spec.insertions.present)
        bound = f"i <= n - sum(l) = {n - total}"
    if ok:
        return Advisory(Enumerativity.ENUMERATIVE_IF_WEAKLY_CONVEX, LARGE_D_NOTE)
    return Advisory(
        Enumerativity.VIRTUAL_ONLY,
        f"some insertion violates the codimension bound {bound}",
    )
