"""Hamiltonian cycles on finite abelian groups, classified by the sets of
consecutive-vertex sums and differences along the cycle.

The package constructs extremal cycles, enumerates and counts exactly,
evaluates expected distinct-label counts in exact rational arithmetic,
and verifies every structural claim it relies on at desk scale.
"""

from .constructions import (
    BUILDERS,
    ConstructionError,
    elementary_abelian8_cycle,
    fewest_diffs_cycle,
    fewest_sums_cycle_even,
    fewest_sums_cycle_odd,
    rainbow_sum_cycle_odd,
    rainbow_sum_path,
    zigzag_diff_path,
)
from .expectation import (
    McEstimate,
    asymptotic_residual,
    count_constrained_cycles,
    count_cycles_with_diff,
    diff_free_subset_count,
    expected_distinct_diffs,
    expected_distinct_sums,
    monte_carlo_estimate,
    sum_free_subset_count,
)
from .groups import (
    Element,
    EvenDecomposition,
    GroupParseError,
    GroupSpec,
    abelian_groups,
    abelian_groups_in_range,
    decompose_even,
    group,
    invariant_factors_of,
    parse_group,
    span,
)
from .search import (
    CayleyGraph,
    ExtremalReport,
    MinConnectionResult,
    SearchBudgetExceeded,
    SearchResult,
    build_cayley,
    classify_small_connection_set,
    enumerate_cycles,
    extremal_scan,
    find_rainbow_diff_cycle_nonzero,
    find_rainbow_diff_path,
    find_rainbow_sum_cycle,
    is_connected_cayley,
    is_hamiltonian_cayley,
    minimum_connection_size,
)
from .trails import (
    LabelSet,
    Trail,
    canonical_cycle_key,
    diff_labels,
    is_rainbow_diff_cycle,
    is_rainbow_diff_path,
    is_rainbow_sum_cycle,
    is_rainbow_sum_path,
    sum_labels,
    trail_from_json_dict,
    trail_to_json_dict,
)
from .verify import VerificationRecord, verify_group, verify_orders

__version__ = "0.1.0"
