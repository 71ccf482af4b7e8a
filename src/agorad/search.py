"""Witness searches: backtracking over operation tables.

The searches share one engine. A search plan preassigns the cells a
witness kind forces (equal-argument cells, the majority or minority law,
a pinned two-element restriction) and leaves the rest as decision
variables with their supportive value choices. The engine walks variables
in canonical order and forward-checks closure: for every selection of
feasible rows it tracks, as a bitmask, which feasible rows are still
compatible with the image coordinates assigned so far. A mask hitting
zero kills the branch, and a leaf is reached only when every image row
lands inside the feasible set, so leaves are closed by construction
(wrappers still re-verify with is_closed). The brute-force oracles that
cross-examine these searches live in ``agorad.oracles``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .aggregators import (
    FOUR_OPS,
    AggregatorTuple,
    OperationTable,
    _cyclic_composition,
    eval_named,
    is_closed,
    is_dictatorial,
    is_uniformly_nondictatorial,
    restriction_class,
)
from .blockedness import BlockednessGraph, binary_from_partition, build_graph
from .domain import MAX_FEASIBLE, Domain, require_valid, two_element_subsets
from .errors import CapacityError, VerificationError

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

    cells: tuple[tuple[int, int], ...]  # (0-based issue, cell index)
    choices: tuple[int, ...]


@lru_cache(maxsize=4)
def _propagation_tables(d: Domain, arity: int):
    """Watch lists for the engine: which row selections read which cell.

    Returns (watchers, cells_of, value_masks, selection_count) where
    watchers[jj][cell] lists row-selection indices whose image coordinate
    at issue jj is produced by that cell, cells_of[ti] holds the cell per
    issue of selection ti, and value_masks[jj][code] is the bitmask of
    feasible rows whose jj-th coordinate equals code.

    Refuses, before allocating, more row selections than a ternary search
    on a domain at the parse guard's row limit needs.
    """
    rows = d.feasible
    n_rows = len(rows)
    if n_rows**arity > MAX_FEASIBLE**3:
        raise CapacityError(
            f"{n_rows}^{arity} row selections exceed the table-build guard "
            f"of {MAX_FEASIBLE**3}"
        )
    m = d.issue_count
    pos_per_issue = []
    for jj in range(m):
        proj = d.projections[jj]
        pos_per_issue.append({v: i for i, v in enumerate(proj)})
    value_masks = []
    for jj in range(m):
        masks: dict[int, int] = {}
        for r, row in enumerate(rows):
            masks[row[jj]] = masks.get(row[jj], 0) | (1 << r)
        value_masks.append(masks)
    watchers = [
        [[] for _ in range(len(d.projections[jj]) ** arity)] for jj in range(m)
    ]
    cells_of = []
    pcols = [[pos_per_issue[jj][row[jj]] for row in rows] for jj in range(m)]
    ks = [len(d.projections[jj]) for jj in range(m)]
    for ti, selection in enumerate(product(range(n_rows), repeat=arity)):
        per_issue_cells = []
        for jj in range(m):
            k = ks[jj]
            pcol = pcols[jj]
            idx = 0
            for r in selection:
                idx = idx * k + pcol[r]
            watchers[jj][idx].append(ti)
            per_issue_cells.append(idx)
        cells_of.append(tuple(per_issue_cells))
    frozen = tuple(tuple(tuple(w) for w in per_issue) for per_issue in watchers)
    return frozen, tuple(cells_of), tuple(value_masks), n_rows**arity


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
    """Depth-first search over the plan's variables, first accepted leaf wins.

    Variables are tried in the given order, choices in their given order,
    so identical inputs always produce identical outcomes. ``accept`` may
    reject a complete candidate to keep searching (used to filter out
    dictatorial solutions).

    Propagation has one forcing rule: assigning a cell intersects the
    viable-row mask of every selection reading it, and when a mask drops
    to at most four rows, every coordinate those rows agree on is forced
    onto the cell producing it, cascading (a single viable row forces all
    of its coordinates). Forced values never involve a choice, so they
    cannot perturb which leaf is reached first.

    The deadline starts before the propagation tables are built and is
    read once after the preassignment propagation, then every 2048 nodes.
    """
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.max_millis / 1000.0
    watchers, cells_of, value_masks, selection_count = _propagation_tables(d, arity)
    rows = d.feasible
    m = d.issue_count
    full_mask = (1 << len(rows)) - 1
    masks = [full_mask] * selection_count
    tables = [[-1] * (len(d.projections[jj]) ** arity) for jj in range(m)]
    # trail entries: (0, ti, old_mask) restores a mask, (1, jj, cell) clears a cell
    trail: list[tuple[int, int, int]] = []
    pending: list[int] = []  # selections whose mask dropped to <= 4 rows
    nodes = 0
    prunes = 0

    def set_cell(jj: int, cell: int, value: int) -> bool:
        current = tables[jj][cell]
        if current != -1:
            return current == value
        tables[jj][cell] = value
        trail.append((1, jj, cell))
        gain = value_masks[jj].get(value, 0)
        for ti in watchers[jj][cell]:
            old = masks[ti]
            new = old & gain
            if new != old:
                trail.append((0, ti, old))
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
            viable = []
            remaining = mask
            while remaining:
                bit = remaining & -remaining
                viable.append(rows[bit.bit_length() - 1])
                remaining ^= bit
            first = viable[0]
            for jj2, cell2 in enumerate(cells_of[ti]):
                if tables[jj2][cell2] != -1:
                    continue
                value2 = first[jj2]
                if all(row[jj2] == value2 for row in viable[1:]):
                    if not set_cell(jj2, cell2, value2):
                        return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            kind, a, b = trail.pop()
            if kind == 0:
                masks[a] = b
            else:
                tables[a][b] = -1

    pending.clear()
    for jj, cell, value in preassigned:
        if not set_cell(jj, cell, value):
            return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes + 1))
    if not propagate():
        return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes + 1))
    if time.monotonic() > deadline:
        return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, prunes))

    if order_by_tightness:
        # fail-first: variables entangled with the tightest selections go
        # first; the key is fixed after the preassignment propagation, so
        # the order stays a deterministic function of the plan
        def tightness(var: _Var) -> int:
            best = 1 << 30
            for jj, cell in var.cells:
                for ti in watchers[jj][cell]:
                    count = masks[ti].bit_count()
                    if count < best:
                        best = count
            return best

        variables = sorted(variables, key=tightness)

    def snapshot() -> AggregatorTuple:
        comps = tuple(
            OperationTable(
                issue=jj + 1,
                arity=arity,
                values=d.projections[jj],
                table=tuple(tables[jj]),
            )
            for jj in range(m)
        )
        return AggregatorTuple(arity=arity, components=comps)

    var_count = len(variables)
    next_choice = [0] * (var_count + 1)
    marks = [0] * (var_count + 1)
    vi = 0
    while True:
        if vi == var_count:
            candidate = snapshot()
            if accept is None or accept(candidate):
                return SearchOutcome(FOUND, candidate, SearchStats(nodes, prunes))
            if vi == 0:
                return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes))
            vi -= 1
            undo(marks[vi])
            next_choice[vi] += 1
            continue
        var = variables[vi]
        # cells already fixed by propagation narrow the variable to one value
        forced = -1
        dead = False
        for jj, cell in var.cells:
            current = tables[jj][cell]
            if current != -1:
                if forced == -1:
                    forced = current
                elif forced != current:
                    dead = True
                    break
        if not dead and forced != -1 and forced not in var.choices:
            dead = True
        choices = var.choices if forced == -1 else (forced,)
        ci = next_choice[vi]
        if dead or ci >= len(choices):
            if vi == 0:
                return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes))
            vi -= 1
            undo(marks[vi])
            next_choice[vi] += 1
            continue
        # a refused node is not counted, so stats.nodes never exceeds the budget
        if nodes == budget.max_nodes or (
            nodes & _TIME_CHECK_MASK == _TIME_CHECK_MASK and time.monotonic() > deadline
        ):
            return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, prunes))
        nodes += 1
        marks[vi] = len(trail)
        pending.clear()
        value = choices[ci]
        ok = True
        for jj, cell in var.cells:
            if not set_cell(jj, cell, value):
                ok = False
                break
        if ok:
            ok = propagate()
        if ok:
            vi += 1
            next_choice[vi] = 0
        else:
            prunes += 1
            undo(marks[vi])
            next_choice[vi] += 1


def _dedup(args):
    seen = []
    for a in args:
        if a not in seen:
            seen.append(a)
    return tuple(seen)


def _plan_by_law(d: Domain, arity: int, law):
    """Plan where ``law(args)`` either forces a cell or leaves it free."""
    preassigned = []
    variables = []
    for jj in range(d.issue_count):
        for idx, args in enumerate(product(d.projections[jj], repeat=arity)):
            forced = law(args)
            if forced is not None:
                preassigned.append((jj, idx, forced))
            else:
                variables.append(_Var(cells=((jj, idx),), choices=_dedup(args)))
    return preassigned, variables


def _majority_law(args):
    x, y, z = args
    if x == y or x == z:
        return x
    if y == z:
        return y
    return None


def _minority_law(args):
    x, y, z = args
    if x == y:
        return z
    if y == z:
        return x
    if x == z:
        return y
    return None


def _free_law(args):
    first = args[0]
    if all(a == first for a in args):
        return first
    return None


def _plan_uniform(d: Domain):
    """Ternary plan tying the three one-odd-argument cells per value pair.

    For each ordered pair (solo, dup) the cells (solo,dup,dup),
    (dup,solo,dup), (dup,dup,solo) share a single two-way decision, which
    encodes the commutativity identity the uniform witness must satisfy.
    Equal-argument cells are forced, pairwise-distinct cells stay free.
    """
    preassigned = []
    variables = []
    for jj in range(d.issue_count):
        values = d.projections[jj]
        k = len(values)
        pos = {v: i for i, v in enumerate(values)}

        def enc(a, b, c):
            return (pos[a] * k + pos[b]) * k + pos[c]

        for v in values:
            preassigned.append((jj, enc(v, v, v), v))
        for solo in values:
            for dup in values:
                if solo == dup:
                    continue
                cells = sorted(
                    (enc(solo, dup, dup), enc(dup, solo, dup), enc(dup, dup, solo))
                )
                variables.append(
                    _Var(
                        cells=tuple((jj, c) for c in cells),
                        choices=(min(solo, dup), max(solo, dup)),
                    )
                )
        if k >= 3:
            for idx, args in enumerate(product(values, repeat=3)):
                if len(set(args)) == 3:
                    variables.append(_Var(cells=((jj, idx),), choices=args))
    variables.sort(key=lambda var: var.cells[0])
    return preassigned, variables


def _plan_component(d: Domain, j: int, pair, op: str):
    """Free ternary plan with issue j pinned to a named op on ``pair``.

    Variables follow issue order by distance from the pinned issue
    (nearest first, lower index breaking ties), so conflicts radiating
    from the pin surface before unrelated issues get enumerated. The
    order is a fixed function of the query, keeping the search
    deterministic.
    """
    zero, one = (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])
    jj0 = j - 1
    values0 = d.projections[jj0]
    k0 = len(values0)
    pos0 = {v: i for i, v in enumerate(values0)}
    pins = {}
    for args in product((zero, one), repeat=3):
        idx = (pos0[args[0]] * k0 + pos0[args[1]]) * k0 + pos0[args[2]]
        pins[(jj0, idx)] = eval_named(op.lower(), (zero, one), *args)
    preassigned, variables = _plan_by_law(d, 3, _free_law)
    preassigned = [(jj, idx, v) for (jj, idx), v in pins.items()] + [
        cell for cell in preassigned if cell[:2] not in pins
    ]
    variables = [var for var in variables if var.cells[0] not in pins]
    # a stable sort: _plan_by_law lists issues in ascending order
    variables.sort(key=lambda var: abs(var.cells[0][0] - jj0))
    return preassigned, variables


def _verify_found(d: Domain, witness: AggregatorTuple, kind: str) -> None:
    check = is_closed(d, witness)
    if not check.ok:
        raise VerificationError(f"{kind} witness is not closed")
    if kind in ("majority", "minority"):
        expected = "MAJ" if kind == "majority" else "XOR3"
        for j in range(1, d.issue_count + 1):
            for pair in two_element_subsets(d, j):
                if restriction_class(witness.component(j), pair).tag != expected:
                    raise VerificationError(
                        f"{kind} witness misclassifies at issue {j}, pair {pair}"
                    )
    if kind == "uniform":
        for j in range(1, d.issue_count + 1):
            comp = witness.component(j)
            for x in d.projection(j):
                for y in d.projection(j):
                    a = comp.apply((x, y, y))
                    if a != comp.apply((y, x, y)) or a != comp.apply((y, y, x)):
                        raise VerificationError(
                            f"uniform witness breaks the identity at issue {j}"
                        )
            for pair in two_element_subsets(d, j):
                if restriction_class(comp, pair).tag not in FOUR_OPS:
                    raise VerificationError(
                        f"uniform witness leaves the four-op set at issue {j}"
                    )
    if kind == "binary" and is_dictatorial(d, witness) is not None:
        raise VerificationError("binary witness is dictatorial")


def find_majority(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness whose every component obeys the majority law."""
    require_valid(d)
    preassigned, variables = _plan_by_law(d, 3, _majority_law)
    outcome = run_table_search(d, 3, preassigned, variables, budget=budget)
    if outcome.status == FOUND:
        _verify_found(d, outcome.witness, "majority")
    return outcome


def find_minority(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness whose every component returns the odd value out."""
    require_valid(d)
    preassigned, variables = _plan_by_law(d, 3, _minority_law)
    outcome = run_table_search(d, 3, preassigned, variables, budget=budget)
    if outcome.status == FOUND:
        _verify_found(d, outcome.witness, "minority")
    return outcome


def find_uniform(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Ternary witness satisfying f(x,y,y) = f(y,x,y) = f(y,y,x) throughout.

    A found witness is commutative on every two-element subset, hence
    classifies into the four-op set everywhere and is uniformly
    non-dictatorial; exhaustion refutes uniform possibility.
    """
    require_valid(d)
    preassigned, variables = _plan_uniform(d)
    outcome = run_table_search(d, 3, preassigned, variables, budget=budget)
    if outcome.status == FOUND:
        _verify_found(d, outcome.witness, "uniform")
    return outcome


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
            _verify_found(d, outcome.witness, "binary")
        return outcome
    return _binary_from_graph(d, build_graph(d))


def _binary_from_graph(d: Domain, graph: BlockednessGraph) -> SearchOutcome:
    """Graph route on ``d``'s own graph: strong connectivity settles
    exhaustion, otherwise the partition construction gives the witness."""
    if graph.is_strongly_connected:
        return SearchOutcome(EXHAUSTED, None, SearchStats())
    return SearchOutcome(FOUND, binary_from_partition(d, graph), SearchStats())


_PIN_ORDER = ("MAJ", "XOR3", "AND3", "OR3")

# node allowance for the cheap first pass over all four pins; a fixed
# constant, so probing never perturbs determinism
_PROBE_NODES = 5000


def find_component_nonprojection(
    d: Domain, j: int, pair, budget: SearchBudget | None = None
) -> SearchOutcome:
    """Ternary witness whose component j restricts to a named op on ``pair``.

    Pins the restriction successively to MAJ, XOR3, AND3, OR3. A probe
    pass gives every pin a small node allowance first, so a cheaply
    satisfiable pin is found before an unsatisfiable earlier pin burns the
    budget on its exhaustion proof; unresolved pins then rerun with the
    full remainder. Exhausting all four pins means no aggregator of any
    arity has a non-projection restriction there.
    """
    require_valid(d)
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("pair must hold two distinct values")
    if any(v not in d.projection(j) for v in pair):
        raise ValueError(f"{pair!r} is not inside the projection of issue {j}")
    budget = budget or SearchBudget()
    nodes = 0
    prunes = 0

    def finish(op, outcome):
        witness = outcome.witness
        check = is_closed(d, witness)
        if not check.ok:
            raise VerificationError("component witness is not closed")
        got = restriction_class(witness.component(j), pair).tag
        if got != op:
            raise VerificationError(
                f"component witness pinned to {op} classifies as {got}"
            )
        return SearchOutcome(FOUND, witness, SearchStats(nodes, prunes))

    # (pin, probing); the loop appends each pin its probe left unresolved
    schedule = [(op, True) for op in _PIN_ORDER]
    for op, probing in schedule:
        if nodes >= budget.max_nodes:
            return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, prunes))
        allowance = budget.max_nodes - nodes
        if probing:
            allowance = min(_PROBE_NODES, allowance)
        preassigned, variables = _plan_component(d, j, pair, op)
        outcome = run_table_search(
            d,
            3,
            preassigned,
            variables,
            budget=SearchBudget(max_nodes=allowance, max_millis=budget.max_millis),
            order_by_tightness=True,
        )
        nodes += outcome.stats.nodes
        prunes += outcome.stats.prunes
        if outcome.status == FOUND:
            return finish(op, outcome)
        if outcome.status == BUDGET_EXCEEDED:
            if not probing:
                return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, prunes))
            schedule.append((op, False))
    return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, prunes))


def fold_diamond_cover(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Targeted witnesses for every (issue, pair), folded into one.

    Collects a component witness per two-element subset of every
    projection, then left-folds them with the cyclic composition, which
    preserves each witness's commutative restriction. Each witness was
    verified by its search, so the fold checks closure once, on the
    composite, which must also classify into the four-op set everywhere.
    """
    require_valid(d)
    witnesses = []
    nodes = 0
    prunes = 0
    for j in range(1, d.issue_count + 1):
        for pair in two_element_subsets(d, j):
            outcome = find_component_nonprojection(d, j, pair, budget)
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
    if not is_closed(d, composite).ok:
        raise VerificationError("folded witness escaped the feasible set")
    uniformity = is_uniformly_nondictatorial(d, composite)
    if not uniformity.ok:
        raise VerificationError("folded witness has a projection restriction")
    for j in range(1, d.issue_count + 1):
        for pair in two_element_subsets(d, j):
            if restriction_class(composite.component(j), pair).tag not in FOUR_OPS:
                raise VerificationError("folded witness leaves the four-op set")
    return SearchOutcome(FOUND, composite, SearchStats(nodes, prunes))
