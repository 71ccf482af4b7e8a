"""Decision and witness toolkit for issue-by-issue vote aggregation.

Given a finite set of feasible voting patterns, the package decides
whether non-dictatorial aggregation is possible, whether it is possible
uniformly on every two-element value restriction, whether the domain is
totally blocked, and whether the induced conservative multi-sorted CSP is
tractable; every positive decision carries an explicit, verified witness.
"""

from .aggregators import (
    FOUR_OPS,
    AggregatorTuple,
    ClosureResult,
    OperationTable,
    RestrictionClass,
    diamond,
    eval_named,
    is_closed,
    is_dictatorial,
    is_locally_monomorphic,
    is_uniformly_nondictatorial,
    parse_aggregator,
    projection_aggregator,
    restriction_class,
    serialize_aggregator,
    superpose,
)
from .blockedness import (
    BlockednessGraph,
    Mipe,
    SubBox,
    binary_from_partition,
    build_graph,
    enumerate_mipes,
    feasible_in_box,
    graph_to_dot,
    is_multiply_constrained,
    is_totally_blocked,
)
from .classify import (
    AnalysisOptions,
    AnalysisReport,
    analyze,
    boolean_classification,
    classify_mcsp,
    is_possibility_domain,
    is_upd,
    serialize_report,
)
from .domain import (
    Domain,
    ValidationReport,
    build_domain,
    parse_domain,
    product_domain,
    serialize_domain,
    two_element_subsets,
    validate,
)
from .errors import (
    AgoradError,
    CapacityError,
    ParseError,
    PartitionUnavailableError,
    SignatureError,
    VerificationError,
)
from .search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchOutcome,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)

__version__ = "0.1.0"
