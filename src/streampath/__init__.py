"""Multi-pass streaming path covers, (1,2)-cost tours, and heavy tours.

The engines replay an edge stream a bounded number of times while keeping
only about ``64 * n * ceil(1/epsilon)`` machine words, and every run returns
its pass count and peak word usage next to the answer.  Exact oracles for
small instances live alongside so the approximation bounds can be checked
rather than trusted.
"""

from .graph import (
    ContractionMap,
    CoverCheck,
    Edge,
    Graph,
    Matching,
    PathCover,
    Tour,
    components_contraction,
    contract_edges,
    matching_contraction,
    validate_path_cover,
)
from .matching import (
    ApproxParams,
    OracleLimitError,
    oracle_max_matching,
    oracle_max_weight_matching,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from .pathcover import (
    MpcResult,
    iterative_path_cover,
    two_phase_path_cover,
)
from .prng import SplitMix64
from .stream import (
    BudgetExceededError,
    EdgeStreamSource,
    FileEdgeSource,
    InMemoryEdgeSource,
    RunRecord,
    StreamFormatError,
    StreamReport,
    StreamSession,
    default_words_budget,
    load_edge_list,
    open_session,
    save_edge_list,
)
from .tsp import (
    ContractBound,
    MaxTspInstance,
    MaxTspResult,
    Tsp12Identity,
    Tsp12Instance,
    Tsp12Result,
    approx_max_tsp,
    approx_tsp12,
    contract_bound_check,
    extract_matching_from_cycle,
    extract_matching_from_path_or_cycle,
    hamiltonian_order,
    oracle_max_tsp,
    oracle_path_cover,
    oracle_tsp12,
    tsp12_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "BudgetExceededError",
    "ContractBound",
    "ContractionMap",
    "CoverCheck",
    "Edge",
    "EdgeStreamSource",
    "FileEdgeSource",
    "Graph",
    "InMemoryEdgeSource",
    "Matching",
    "MaxTspInstance",
    "MaxTspResult",
    "MpcResult",
    "OracleLimitError",
    "PathCover",
    "RunRecord",
    "SplitMix64",
    "StreamFormatError",
    "StreamReport",
    "StreamSession",
    "Tour",
    "Tsp12Identity",
    "Tsp12Instance",
    "Tsp12Result",
    "approx_max_tsp",
    "approx_tsp12",
    "components_contraction",
    "contract_bound_check",
    "contract_edges",
    "default_words_budget",
    "extract_matching_from_cycle",
    "extract_matching_from_path_or_cycle",
    "hamiltonian_order",
    "iterative_path_cover",
    "load_edge_list",
    "matching_contraction",
    "open_session",
    "oracle_max_matching",
    "oracle_max_weight_matching",
    "oracle_max_tsp",
    "oracle_path_cover",
    "oracle_tsp12",
    "save_edge_list",
    "streaming_max_matching",
    "streaming_max_weight_matching",
    "tsp12_identity_check",
    "two_phase_path_cover",
    "validate_path_cover",
    "__version__",
]
