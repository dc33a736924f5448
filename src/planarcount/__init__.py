"""Exact distribution of the largest planar matching and largest planar
subgraph of random r-regular bipartite multigraphs.

The same quantity is computed by three independent methods -- direct
enumeration of multigraphs, counting pairs of bounded-column standard Young
tableaux with a block condition, and signed sums of restricted lattice walks
-- together with the bijections and sign-reversing involutions that connect
them, and an exact rational power-series check of Gessel's identity.
"""

from .graphs import (
    MatchingProfile,
    Multigraph,
    canonical_lift,
    count_bounded_lis,
    count_bounded_matching,
    count_bounded_subgraph,
    enumerate_multigraphs,
    largest_planar_matching_size,
    largest_planar_subgraph_size,
    lifted_multigraphs,
    planar_matching_profile,
    project_configuration,
    sample_configuration,
)
from .series import RationalSeries, bessel_series, series_determinant
from .tableaux import (
    YoungTableau,
    blocks_strictly_below,
    blocks_weakly_above,
    column_word,
    count_tableau_pairs,
    enumerate_tableaux,
    iter_block_tableaux,
    pair_walk,
    rsk,
    rsk_inverse,
    tableau_from_column_word,
)
from .verify import (
    METHODS,
    VerificationReport,
    audit_bijections,
    audit_involution,
    count_graphs,
    verify_gessel_identity,
    verify_matching_identity,
    verify_subgraph_identity,
    verify_walk_scaling,
)
from .walks import (
    BudgetExceeded,
    QuasiConfiguration,
    Walk,
    count_all_walks_signed,
    crossing_pairing,
    endpoint,
    in_restricted_family,
    in_reversed_family,
    is_profile_walk,
    iter_profile_walks,
    iter_region_walks,
    iter_restricted_family,
    iter_restricted_walks,
    iter_toeplitz,
    nonprofile_involution,
    occurrence_profile,
    offregion_involution,
    profile_violations,
    profile_walk,
    region_halves,
    restricted_halves,
    reverse_negative_half,
    signed_walk_sum,
    stays_in_dominance_region,
    toeplitz_point,
    translated_exit,
    walk_steps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
