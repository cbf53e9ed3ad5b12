"""Exact combinatorics of Brill-Noether loci on chains.

Four coordinated models of the same locus:

* ``tableaux`` — the rectangular standard Young tableaux indexing components;
* ``elliptic`` — limit linear series on a chain of elliptic curves;
* ``effective`` — the effective-series variant and conversions;
* ``tropical`` — divisors on a metric chain of loops, exact rationals only;
* ``oracle`` — a brute-force chip-firing verifier on integer subdivisions.

All arithmetic is exact (integers and ``fractions.Fraction``); every
randomized construction is seeded and reproducible.
"""

from .effective import (
    ConcentrationDescription,
    ConcentrationEntry,
    EffectiveSeries,
    NotRefinedError,
    check_effective,
    describe_concentration,
    effective_to_eh,
    effective_vanishing_from_tableau,
    eh_to_effective,
)
from .elliptic import (
    BundleClass,
    EHSeries,
    SeriesFamily,
    UniqueSeries,
    VanishingSequence,
    check_eh_series,
    check_vanishing_pair,
    component_intersection,
    bundle_from_tableau,
    eh_series_from_tableau,
    propagate_vanishing,
    vanishing_from_tableau,
)
from .oracle import (
    ChipConfig,
    DiscreteGraph,
    OracleTooLargeError,
    bn_rank,
    chips_from_divisor,
    dhar_reduce,
    is_winnable,
    subdivide_chain,
)
from .tableaux import (
    BNParams,
    Tableau,
    count_components,
    enumerate_tableaux,
    hook_count,
    validate_tableau,
)
from .tropical import (
    AmbiguousSpecialPointError,
    ChainGeometry,
    Interior,
    Node,
    RankDeficiencyError,
    ReducedChain,
    SamplingError,
    TropicalDivisor,
    TropicalTooLargeError,
    TropVanishingTable,
    check_genericity,
    divisor_from_tableau,
    is_equivalent_to_effective,
    point_on_loop,
    rank_at_least,
    reduce_to_q0,
    solve_special_point,
    tropical_rank,
    tropical_vanishing_table,
)

__version__ = "0.1.0"
