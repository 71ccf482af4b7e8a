"""Top-level decisions assembled from the searches, plus the text report.

Every decision here is three-valued: yes, no, or unknown. Unknown appears
only when a budget ran out mid-search; a negative is asserted only after
a search exhausted its space (or the graph settled the question), so the
report never claims more than was actually proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .aggregators import (
    AggregatorTuple,
    _majority_law,
    _minority_law,
    is_locally_monomorphic,
    serialize_aggregator,
)
from .blockedness import BlockednessGraph, build_graph, is_multiply_constrained
from .domain import Domain, require_valid
from .errors import CapacityError, VerificationError
from .search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchOutcome,
    _binary_from_graph,
    find_binary_nondictatorial,
    find_majority,
    find_minority,
    find_uniform,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

TRACTABLE = "TRACTABLE"
NP_COMPLETE = "NP_COMPLETE"
MCSP_UNKNOWN = "UNKNOWN"
_MCSP_LABEL = {YES: TRACTABLE, NO: NP_COMPLETE, UNKNOWN: MCSP_UNKNOWN}


@dataclass(frozen=True)
class AnalysisOptions:
    budget: SearchBudget = field(default_factory=SearchBudget)
    diagnostics: bool = False


@dataclass(frozen=True)
class PossibilityDecision:
    status: str  # yes | no | unknown
    witness_kind: str | None  # binary | majority | minority
    witness: AggregatorTuple | None
    outcomes: tuple[tuple[str, str], ...]  # (kind, search status) in run order


@dataclass(frozen=True)
class UpdDecision:
    status: str
    witness: AggregatorTuple | None


@dataclass(frozen=True)
class BooleanClassification:
    affine: bool
    bijunctive: bool
    possibility: str  # yes | no, decided as affine or binary witness


@dataclass(frozen=True)
class AnalysisReport:
    issue_count: int
    alphabet_sizes: tuple[int, ...]
    projection_sizes: tuple[int, ...]
    feasible_count: int
    possibility: str
    witness_kind: str | None
    witness: AggregatorTuple | None
    totally_blocked: str
    affine: str | None  # Boolean domains only
    bijunctive: str | None
    upd: str
    upd_witness: AggregatorTuple | None
    mcsp: str
    multiply_constrained: str | None  # diagnostics only
    witness_locally_monomorphic: str | None  # diagnostics only
    graph: BlockednessGraph = field(repr=False)  # never serialized; for --dot


def is_possibility_domain(
    d: Domain, budget: SearchBudget | None = None
) -> PossibilityDecision:
    """Non-dictatorial aggregation of some arity: binary, majority, minority.

    The three searches run cheapest first and stop at the first witness;
    a no is returned only when all three exhausted their spaces.
    """
    require_valid(d)
    budget = budget or SearchBudget()
    return _decide_possibility(d, budget, find_binary_nondictatorial(d, budget))


def _decide_possibility(
    d: Domain, budget: SearchBudget, binary: SearchOutcome
) -> PossibilityDecision:
    """The possibility decision, given the binary search's outcome on ``d``."""
    outcomes: list[tuple[str, str]] = [("binary", binary.status)]
    if binary.status == FOUND:
        return PossibilityDecision(YES, "binary", binary.witness, tuple(outcomes))
    saw_budget = binary.status == BUDGET_EXCEEDED
    for kind, find in (("majority", find_majority), ("minority", find_minority)):
        outcome = find(d, budget)
        outcomes.append((kind, outcome.status))
        if outcome.status == FOUND:
            return PossibilityDecision(YES, kind, outcome.witness, tuple(outcomes))
        if outcome.status == BUDGET_EXCEEDED:
            saw_budget = True
    status = UNKNOWN if saw_budget else NO
    return PossibilityDecision(status, None, None, tuple(outcomes))


def boolean_classification(
    d: Domain, budget: SearchBudget | None = None
) -> BooleanClassification:
    """Closure flags for two-valued domains plus the dichotomy decision.

    Affine means closed under the componentwise odd-one-out of any three
    rows, bijunctive closed under componentwise majority. The possibility
    decision is affine-or-binary-witness and must (and does, as verified
    by the report invariants) agree with the general three-search route.
    """
    require_valid(d)
    if any(len(p) != 2 for p in d.projections):
        raise ValueError("boolean classification needs two-valued projections")
    binary = find_binary_nondictatorial(d, budget)
    return _classify_boolean(d, binary.status == FOUND)


def _classify_boolean(d: Domain, binary_found: bool) -> BooleanClassification:
    """Closure scan of a two-valued ``d``; the binary verdict comes from the
    graph route, which never runs out of budget."""
    feasible_set = d.feasible_set

    def closed(law) -> bool:
        return all(
            tuple(map(law, zip(x, y, z))) in feasible_set
            for x, y, z in combinations(d.feasible, 3)
        )

    affine = closed(_minority_law)
    return BooleanClassification(
        affine=affine,
        bijunctive=closed(_majority_law),
        possibility=YES if affine or binary_found else NO,
    )


def is_upd(d: Domain, budget: SearchBudget | None = None) -> UpdDecision:
    """Uniform possibility: a witness avoiding projections on every pair.

    Decided by the direct table search ``find_uniform``; the fold of
    per-pair witnesses, ``fold_diamond_cover``, is the independent route
    the acceptance suite compares it with.
    """
    require_valid(d)
    outcome = find_uniform(d, budget)
    if outcome.status == FOUND:
        return UpdDecision(YES, outcome.witness)
    if outcome.status == EXHAUSTED:
        return UpdDecision(NO, None)
    return UpdDecision(UNKNOWN, None)


def classify_mcsp(d: Domain, budget: SearchBudget | None = None) -> str:
    """Tractability label of the conservative multi-sorted CSP over X."""
    return _MCSP_LABEL[is_upd(d, budget).status]


def analyze(d: Domain, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Run every decision, assert their mutual consistency, return the report.

    The blockedness graph is built once; it settles total blockedness, the
    binary search and the Boolean dichotomy, and rides along for --dot. A
    valid domain takes at least two values on every issue, where a uniform
    witness restricts to no projection and so is non-dictatorial: a
    possibility of no settles upd as no without the uniform search.
    """
    options = options or AnalysisOptions()
    require_valid(d)
    budget = options.budget

    graph = build_graph(d)
    binary = _binary_from_graph(d, graph)
    possibility = _decide_possibility(d, budget, binary)
    if possibility.status == NO:
        upd = UpdDecision(NO, None)
    else:
        upd = is_upd(d, budget)

    is_boolean = all(len(p) == 2 for p in d.projections)
    boolean = _classify_boolean(d, binary.status == FOUND) if is_boolean else None
    if boolean is not None and possibility.status not in (UNKNOWN, boolean.possibility):
        raise VerificationError(
            "dichotomy decision disagrees with the three-search route"
        )

    multiply_constrained = None
    witness_monomorphic = None
    if options.diagnostics:
        try:
            multiply_constrained = YES if is_multiply_constrained(d) else NO
        except CapacityError:
            multiply_constrained = UNKNOWN
        if possibility.witness is not None:
            witness_monomorphic = (
                YES if is_locally_monomorphic(d, possibility.witness) else NO
            )

    return AnalysisReport(
        issue_count=d.issue_count,
        alphabet_sizes=tuple(len(a) for a in d.alphabets),
        projection_sizes=tuple(len(p) for p in d.projections),
        feasible_count=len(d.feasible),
        possibility=possibility.status,
        witness_kind=possibility.witness_kind,
        witness=possibility.witness,
        totally_blocked=YES if graph.is_strongly_connected else NO,
        affine=(YES if boolean.affine else NO) if boolean else None,
        bijunctive=(YES if boolean.bijunctive else NO) if boolean else None,
        upd=upd.status,
        upd_witness=upd.witness,
        mcsp=_MCSP_LABEL[upd.status],
        multiply_constrained=multiply_constrained,
        witness_locally_monomorphic=witness_monomorphic,
        graph=graph,
    )


def serialize_report(report: AnalysisReport) -> str:
    """Canonical key = value lines, fixed key order, optional keys dropped."""
    values = {
        "issues": str(report.issue_count),
        "alphabet_sizes": " ".join(str(s) for s in report.alphabet_sizes),
        "projection_sizes": " ".join(str(s) for s in report.projection_sizes),
        "feasible": str(report.feasible_count),
        "possibility": report.possibility,
        "witness_kind": report.witness_kind or "none",
        "totally_blocked": report.totally_blocked,
        "affine": report.affine,
        "bijunctive": report.bijunctive,
        "upd": report.upd,
        "mcsp": report.mcsp,
        "multiply_constrained": report.multiply_constrained,
        "witness_locally_monomorphic": report.witness_locally_monomorphic,
    }
    lines = [f"{key} = {value}" for key, value in values.items() if value is not None]
    return "\n".join(lines) + "\n"


def report_witness_blocks(d: Domain, report: AnalysisReport) -> str:
    """Witness attachments for the report, deterministic order."""
    blocks = []
    if report.witness is not None:
        blocks.append(
            f"witness possibility {report.witness_kind}:\n"
            + serialize_aggregator(d, report.witness)
        )
    if report.upd_witness is not None:
        blocks.append(
            "witness upd:\n" + serialize_aggregator(d, report.upd_witness)
        )
    return "".join(blocks)
