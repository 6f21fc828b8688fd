"""Exact virtual counts of curves in Grassmannians and their sections.

The package evaluates top intersections over the compactified space of
degree-d maps from a genus-g curve to G(r, n) as finite sums over
subsets of n-th roots of unity, in exact integer and rational arithmetic
(each count is a field trace, so NotRationalError cannot fire on the
engine path), and layers on top the prefactor calculus for hypersurface
and complete-intersection targets, closed-form specializations, a
genus-0 quantum-ring oracle, and a CLI.
"""

from .cyclotomic import (
    Cyc,
    cyclotomic_polynomial,
    extract_rational,
    root_of_unity,
)
from .errors import (
    DimensionMismatchError,
    NonIntegralError,
    NotRationalError,
    OrderMismatchError,
    QuotcountError,
    RegimeViolationError,
)
from .qh_oracle import Partition, QClass, fixed_domain_count_g0
from .symfunc import (
    Insertion,
    Monomial,
    chern,
    complete_homogeneous,
    elementary,
    monomial,
    segre,
)
from .twist import (
    BClassWord,
    ProblemSpec,
    TevelevComparison,
    closed_form_lg24,
    closed_form_projective,
    complete_intersection_integral,
    enumerativity_advisor,
    hypersurface_both_paths,
    hypersurface_integral,
    reduce_b_classes,
    tevelev_compare,
)
from .vi_engine import (
    Advisory,
    DualityReport,
    Enumerativity,
    GrassmannSpec,
    SubsetIndex,
    VirtualCount,
    duality_check,
    j_factor,
    vi_integral,
    vi_integral_orbit_reduced,
    vi_integral_parallel,
)

__version__ = "0.1.0"
