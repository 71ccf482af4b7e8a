"""Witness searches: backtracking over operation tables.

All searches, and ``mcsp.solve``, share one engine core that solves a
multi-sorted conservative CSP over X: cells taking values of their issue,
and scopes of one cell per issue that must read a feasible row. In a
table search the instance is the selection table of ``aggregators``:
the table cells, and a scope per selection of feasible rows, so a leaf is
closed by construction (wrappers still re-verify it, once, with
``aggregators.verify_witness``, which scans the same table). Every
search plan comes from one planner, ``_plan_by_law``: a law on argument
tuples preassigns the cells a witness kind forces (equal-argument cells,
the majority or minority law), pins override it where a component search
fixes a two-element restriction, and the other cells become decision
variables with their supportive value choices, three cells to a variable
where the uniform identity ties them. A component search pins only MAJ
and XOR3: the pair graph settles AND3 and OR3 without a search
(``blockedness.commutative_from_graph``). The brute-force oracles that
cross-examine these searches live outside the package, in
``tests/oracles.py``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .aggregators import (
    AggregatorTuple,
    OperationTable,
    _cyclic_composition,
    _majority_law,
    _minority_law,
    _propagation_tables,
    aggregator_from_callable,
    eval_named,
    is_dictatorial,
    verify_witness,
)
from .blockedness import (
    BlockednessGraph,
    binary_from_partition,
    build_graph,
    commutative_from_graph,
)
from .domain import Domain, require_valid, two_element_subsets

FOUND = "FOUND"
EXHAUSTED = "EXHAUSTED"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"

_TIME_CHECK_MASK = 0x7FF  # consult the clock every 2048 nodes


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    max_millis: int = 30_000

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_millis <= 0:
            raise ValueError("budget values must be positive")


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    prunes: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # FOUND | EXHAUSTED | BUDGET_EXCEEDED
    witness: AggregatorTuple | None = None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class _Var:
    """One decision: a set of tied cells receiving one value."""

    cells: tuple  # (0-based issue, cell index) in plans, flat cells in the core
    choices: tuple[int, ...]


def _deadline(budget: SearchBudget) -> float:
    return time.monotonic() + budget.max_millis / 1000.0


def _search_instance(
    d: Domain,
    instance,
    preassigned,
    variables,
    budget: SearchBudget,
    deadline: float,
    *,
    accept=None,
    order_by_tightness: bool = False,
):
    """Depth-first search over an X-instance; returns (status, leaf, stats).

    ``instance`` is (issue_of, watchers, scopes): cell c takes a code of
    issue ``issue_of[c]``, a scope holds one cell per issue whose values
    must form a feasible row, and ``watchers[c]`` lists the scopes holding
    c. A scope's bitmask of the feasible rows still compatible with its
    assigned cells hitting zero kills the branch. Every cell is preassigned,
    as a (cell, value) pair, or in a variable. Variables and choices are
    tried in the given order, so identical inputs give identical outcomes.
    ``accept`` may reject a leaf (the list of cell values) to keep searching.

    When a mask drops to at most four rows, every coordinate those rows
    agree on is forced onto its cell, cascading. Forced values are implied
    by the assignment, so propagation only cuts subtrees holding no leaf and
    never changes which leaf comes first. The deadline is read between
    preassigned cells, after their propagation, then every 2048 nodes.
    """
    issue_of, watchers, scopes = instance
    rows = d.feasible
    value_masks: list[dict[int, int]] = [{} for _ in range(d.issue_count)]
    for r, row in enumerate(rows):
        for jj, code in enumerate(row):
            value_masks[jj][code] = value_masks[jj].get(code, 0) | (1 << r)
    masks = [(1 << len(rows)) - 1] * len(scopes)
    values = [-1] * len(issue_of)
    # the trail holds flat (key, old) pairs: key ti >= 0 restores masks[ti]
    # to old, ~cell clears a cell. The search never undoes below its first
    # decision, so nothing is recorded until the root propagation is done.
    trail: list[int] = []
    record = deque(maxlen=0).extend  # discards; trail.extend after the root
    pending: list[int] = []  # scopes whose mask dropped to <= 4 rows
    nodes = 0
    prunes = 0

    def set_cell(cell: int, value: int) -> bool:
        current = values[cell]
        if current != -1:
            return current == value
        values[cell] = value
        record((~cell, 0))
        gain = value_masks[issue_of[cell]].get(value, 0)
        for ti in watchers[cell]:
            old = masks[ti]
            new = old & gain
            if new != old:
                record((ti, old))
                masks[ti] = new
                if not new:
                    return False
                if new.bit_count() <= 4:
                    pending.append(ti)
        return True

    def propagate() -> bool:
        while pending:
            ti = pending.pop()
            mask = masks[ti]
            if mask == 0 or mask.bit_count() > 4:
                continue  # stale entry from an undone branch
            viable = None
            for jj, cell in enumerate(scopes[ti]):
                if values[cell] != -1:
                    continue
                if viable is None:
                    viable = []
                    remaining = mask
                    while remaining:
                        bit = remaining & -remaining
                        viable.append(rows[bit.bit_length() - 1])
                        remaining ^= bit
                value = viable[0][jj]
                if all(row[jj] == value for row in viable):
                    if not set_cell(cell, value):
                        return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            old = trail.pop()
            key = trail.pop()
            if key >= 0:
                masks[key] = old
            else:
                values[~key] = -1

    def stop(status):
        return status, None, SearchStats(nodes, prunes)

    for cell, value in preassigned:
        if time.monotonic() > deadline:
            return stop(BUDGET_EXCEEDED)
        if not set_cell(cell, value):
            return EXHAUSTED, None, SearchStats(0, 1)
    if not propagate():
        return EXHAUSTED, None, SearchStats(0, 1)
    if time.monotonic() > deadline:
        return stop(BUDGET_EXCEEDED)
    record = trail.extend

    if order_by_tightness:
        # fail-first: variables entangled with the tightest scopes go
        # first; the key is fixed after the preassignment propagation, so
        # the order stays a deterministic function of the instance
        def tightness(var: _Var) -> int:
            return min(
                (masks[ti].bit_count() for cell in var.cells for ti in watchers[cell]),
                default=1 << 30,
            )

        variables = sorted(variables, key=tightness)

    var_count = len(variables)
    next_choice = [0] * (var_count + 1)
    marks = [0] * (var_count + 1)
    vi = 0
    while True:
        if vi < var_count:
            var = variables[vi]
            # cells already fixed by propagation narrow the variable to one value
            choices = var.choices
            for cell in var.cells:
                if values[cell] != -1:
                    choices = (values[cell],) if values[cell] in choices else ()
        elif accept is None or accept(values):
            return FOUND, values, SearchStats(nodes, prunes)
        else:
            choices = ()  # a rejected leaf
        ci = next_choice[vi]
        if ci >= len(choices):
            if vi == 0:
                return stop(EXHAUSTED)
            vi -= 1
            undo(marks[vi])
            next_choice[vi] += 1
            continue
        # a refused node is not counted, so stats.nodes never exceeds the budget
        if nodes == budget.max_nodes or (
            nodes & _TIME_CHECK_MASK == _TIME_CHECK_MASK and time.monotonic() > deadline
        ):
            return stop(BUDGET_EXCEEDED)
        nodes += 1
        marks[vi] = len(trail)
        pending.clear()
        value = choices[ci]
        if all(set_cell(cell, value) for cell in var.cells) and propagate():
            vi += 1
            next_choice[vi] = 0
        else:
            prunes += 1
            undo(marks[vi])
            next_choice[vi] += 1


def run_table_search(
    d: Domain,
    arity: int,
    preassigned,
    variables,
    *,
    budget: SearchBudget | None = None,
    accept=None,
    order_by_tightness: bool = False,
) -> SearchOutcome:
    """Search the plan's tables of one arity; the first accepted leaf wins.

    ``preassigned`` holds (issue, cell, value) triples, issues 0-based.
    ``accept`` may reject a complete candidate to keep searching (used to
    filter out dictatorial solutions). The deadline starts before the
    propagation tables are built.
    """
    budget = budget or SearchBudget()
    deadline = _deadline(budget)
    offsets, instance = _propagation_tables(d, arity)

    def snapshot(values) -> AggregatorTuple:
        comps = tuple(
            OperationTable(
                issue=jj + 1,
                arity=arity,
                values=d.projections[jj],
                table=tuple(values[offsets[jj] : offsets[jj + 1]]),
            )
            for jj in range(d.issue_count)
        )
        return AggregatorTuple(arity=arity, components=comps)

    status, values, stats = _search_instance(
        d,
        instance,
        [(offsets[jj] + idx, value) for jj, idx, value in preassigned],
        [
            _Var(tuple(offsets[jj] + idx for jj, idx in var.cells), var.choices)
            for var in variables
        ],
        budget,
        deadline,
        accept=None if accept is None else (lambda values: accept(snapshot(values))),
        order_by_tightness=order_by_tightness,
    )
    return SearchOutcome(status, snapshot(values) if status == FOUND else None, stats)


def _plan_by_law(d: Domain, arity: int, law, *, tie: bool = False, pins=None):
    """The plan of every table search: ``law(args)`` forces a cell or frees it.

    ``pins`` maps (0-based issue, argument tuple) to a value that replaces
    the law at that cell. With ``tie``, the three free cells of a ternary
    table with one odd argument (solo,dup,dup), (dup,solo,dup),
    (dup,dup,solo) of each ordered pair (solo, dup) share one variable:
    the identity f(x,y,y) = f(y,x,y) = f(y,y,x) of a uniform witness.
    Every other free cell is a variable of its own. Variables are listed
    at their first cell, with that cell's arguments as choices.
    """
    pins = pins or {}
    preassigned = []
    free = {}  # variable key -> (cells, choices), in first-cell order
    for jj in range(d.issue_count):
        for idx, args in enumerate(product(d.projections[jj], repeat=arity)):
            forced = pins[jj, args] if (jj, args) in pins else law(args)
            if forced is not None:
                preassigned.append((jj, idx, forced))
                continue
            choices = tuple(dict.fromkeys(args))
            # the sorted arguments of a one-odd-argument cell name (solo, dup)
            key = (jj, tuple(sorted(args))) if tie and len(choices) == 2 else (jj, idx)
            free.setdefault(key, ([], choices))[0].append((jj, idx))
    variables = [_Var(tuple(cells), choices) for cells, choices in free.values()]
    return preassigned, variables


def _free_law(args):
    first = args[0]
    if all(a == first for a in args):
        return first
    return None


def _plan_component(d: Domain, j: int, pair, op: str):
    """Free ternary plan with issue j pinned to a named op on ``pair``.

    Variables follow issue order by distance from the pinned issue
    (nearest first, lower index breaking ties), so conflicts radiating
    from the pin surface before unrelated issues get enumerated. The
    order is a fixed function of the query, keeping the search
    deterministic.
    """
    labeling = tuple(sorted(pair))
    pins = {
        (j - 1, args): eval_named(op.lower(), labeling, *args)
        for args in product(labeling, repeat=3)
    }
    preassigned, variables = _plan_by_law(d, 3, _free_law, pins=pins)
    # a stable sort: _plan_by_law lists issues in ascending order
    variables.sort(key=lambda var: abs(var.cells[0][0] - (j - 1)))
    return preassigned, variables


def _find_ternary(d: Domain, budget, kind: str, law, *, tie: bool = False):
    """Plan by ``law``, search, and verify a found witness as ``kind``."""
    require_valid(d)
    preassigned, variables = _plan_by_law(d, 3, law, tie=tie)
    outcome = run_table_search(d, 3, preassigned, variables, budget=budget)
    if outcome.status == FOUND:
        verify_witness(d, outcome.witness, kind)
    return outcome


def find_majority(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness whose every component obeys the majority law."""
    return _find_ternary(d, budget, "majority", _majority_law)


def find_minority(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness whose every component returns the odd value out."""
    return _find_ternary(d, budget, "minority", _minority_law)


def find_uniform(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness satisfying f(x,y,y) = f(y,x,y) = f(y,y,x) throughout.

    A found witness is commutative on every two-element subset, hence in
    the four-op set everywhere, which ``verify_witness`` re-checks with
    closure; exhaustion refutes uniform possibility.
    """
    return _find_ternary(d, budget, "uniform", _free_law, tie=True)


def find_binary_nondictatorial(
    d: Domain, budget: SearchBudget | None = None, *, direct: bool = False
) -> SearchOutcome:
    """Binary non-dictatorial witness.

    Default route: build the blockedness graph; a strongly connected graph
    settles exhaustion outright, otherwise the partition construction
    hands over a verified witness. The direct route backtracks over
    binary tables with a dictatorship filter and exists as a cross-check.
    """
    require_valid(d)
    if direct:
        preassigned, variables = _plan_by_law(d, 2, _free_law)
        outcome = run_table_search(
            d,
            2,
            preassigned,
            variables,
            budget=budget,
            accept=lambda cand: is_dictatorial(d, cand) is None,
        )
        if outcome.status == FOUND:
            verify_witness(d, outcome.witness, "binary")
        return outcome
    return _binary_from_graph(d, build_graph(d))


def _binary_from_graph(d: Domain, graph: BlockednessGraph) -> SearchOutcome:
    """Graph route on ``d``'s own graph: strong connectivity settles
    exhaustion, otherwise the partition construction gives the witness."""
    if graph.is_strongly_connected:
        return SearchOutcome(EXHAUSTED, None, SearchStats())
    return SearchOutcome(FOUND, binary_from_partition(d, graph), SearchStats())


_PIN_ORDER = ("MAJ", "XOR3")


def find_component_nonprojection(
    d: Domain, j: int, pair, budget: SearchBudget | None = None
) -> SearchOutcome:
    """Ternary witness whose component j restricts to a named op on ``pair``.

    The pair graph settles the AND3 and OR3 pins, and the MAJ and XOR3
    pins are searched (``_component``). Exhausting every pin means no
    aggregator of any arity has a non-projection restriction there.
    """
    require_valid(d)
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("pair must hold two distinct values")
    if any(v not in d.projection(j) for v in pair):
        raise ValueError(f"{pair!r} is not inside the projection of issue {j}")
    return _component(d, build_graph(d), j, pair, budget or SearchBudget())


def _component(
    d: Domain, graph: BlockednessGraph, j: int, pair, budget: SearchBudget
) -> SearchOutcome:
    """AND3 or OR3 as g(g(x, y), z) for the g of ``commutative_from_graph``;
    without one, the MAJ and then the XOR3 pin search, fail-first, under
    one deadline and one node budget."""
    g = commutative_from_graph(d, graph, j, pair)
    if g is not None:
        tag = "AND3" if g.component(j).apply(pair) == min(pair) else "OR3"
        gk = g.component
        witness = aggregator_from_callable(
            d, 3, lambda k, x, y, z: gk(k).apply((gk(k).apply((x, y)), z))
        )
        verify_witness(d, witness, "component", (j, pair, tag))
        return SearchOutcome(FOUND, witness, SearchStats())
    deadline = _deadline(budget)
    nodes = prunes = 0
    for op in _PIN_ORDER:
        millis = int((deadline - time.monotonic()) * 1000)
        if nodes >= budget.max_nodes or millis <= 0:
            return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, prunes))
        left = SearchBudget(max_nodes=budget.max_nodes - nodes, max_millis=millis)
        plan = _plan_component(d, j, pair, op)
        outcome = run_table_search(d, 3, *plan, budget=left, order_by_tightness=True)
        nodes += outcome.stats.nodes
        prunes += outcome.stats.prunes
        if outcome.status == FOUND:
            verify_witness(d, outcome.witness, "component", (j, pair, op))
        if outcome.status != EXHAUSTED:
            return SearchOutcome(outcome.status, outcome.witness, SearchStats(nodes, prunes))
    return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes))


def fold_diamond_cover(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Targeted witnesses for every (issue, pair), folded into one.

    Collects a component witness per two-element subset of every
    projection, from one pair graph, then left-folds them with the cyclic
    composition, which preserves each witness's commutative restriction.
    Each witness was verified, so the fold verifies only the composite, as
    a uniform witness: closed, and in the four-op set on every pair.
    """
    require_valid(d)
    graph = build_graph(d)
    witnesses = []
    nodes = 0
    prunes = 0
    for j in range(1, d.issue_count + 1):
        for pair in two_element_subsets(d, j):
            outcome = _component(d, graph, j, pair, budget or SearchBudget())
            nodes += outcome.stats.nodes
            prunes += outcome.stats.prunes
            if outcome.status != FOUND:
                return SearchOutcome(
                    outcome.status, None, SearchStats(nodes, prunes)
                )
            witnesses.append(outcome.witness)
    composite = witnesses[0]
    for nxt in witnesses[1:]:
        composite = _cyclic_composition(d, composite, nxt)
    verify_witness(d, composite, "uniform")
    return SearchOutcome(FOUND, composite, SearchStats(nodes, prunes))
