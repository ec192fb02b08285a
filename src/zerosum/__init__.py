"""Zero-sum subsequence workbench over finite abelian groups.

Detection, exact counting, and constructive extraction of zero-sum
subsequences of prescribed lengths; extremal sequence builders; and
brute-force determination of the modified zero-sum constants with
closed-form cross-checks.
"""

from .constructions import (
    ExtremalReport,
    build_cyclic_extremal,
    build_power2_extremal,
    build_square_extremal,
    validate_extremal,
)
from .engine import (
    count_zero_sum_subseqs,
    find_zero_sum_subseq,
    has_zero_sum_in_lengths,
    has_zero_sum_of_length,
)
from .extractors import (
    BlockDecomposition,
    PreconditionError,
    cyclic_block_decomposition,
    extract_cyclic_block,
    extract_cyclic_nt,
    extract_cyclic_nt_rounds,
    extract_square_3n,
    extract_square_block,
    extract_square_n,
    factor_smallest_prime,
)
from .groups import (
    Element,
    Group,
    GroupParseError,
    make_group,
    min_nondivisor,
    parse_group,
)
from .search import (
    BudgetExceeded,
    ConstantReport,
    PropertyReport,
    SearchBudget,
    SearchStats,
    brute_force_modified_constant,
    check_all_have_witness,
    check_lemma_3n,
    check_lemma_por2p,
    conjecture_value,
    enumerate_multisets,
    formula_modified_cyclic,
    formula_modified_square,
    reports_to_csv,
    verify_theorem,
)
from .sequences import (
    Sequence,
    SequenceParseError,
    Witness,
    parse_elements,
    parse_sequence,
    sequence_from_jsonable,
    sequence_to_jsonable,
    serialize_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BudgetExceeded",
    "ConstantReport",
    "Element",
    "ExtremalReport",
    "Group",
    "GroupParseError",
    "PreconditionError",
    "PropertyReport",
    "SearchBudget",
    "SearchStats",
    "Sequence",
    "SequenceParseError",
    "Witness",
    "brute_force_modified_constant",
    "build_cyclic_extremal",
    "build_power2_extremal",
    "build_square_extremal",
    "check_all_have_witness",
    "check_lemma_3n",
    "check_lemma_por2p",
    "conjecture_value",
    "count_zero_sum_subseqs",
    "cyclic_block_decomposition",
    "enumerate_multisets",
    "extract_cyclic_block",
    "extract_cyclic_nt",
    "extract_cyclic_nt_rounds",
    "extract_square_3n",
    "extract_square_block",
    "extract_square_n",
    "factor_smallest_prime",
    "find_zero_sum_subseq",
    "formula_modified_cyclic",
    "formula_modified_square",
    "has_zero_sum_in_lengths",
    "has_zero_sum_of_length",
    "make_group",
    "min_nondivisor",
    "parse_elements",
    "parse_group",
    "parse_sequence",
    "reports_to_csv",
    "sequence_from_jsonable",
    "sequence_to_jsonable",
    "serialize_sequence",
    "validate_extremal",
    "verify_theorem",
]
