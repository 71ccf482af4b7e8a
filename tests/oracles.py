"""Brute-force oracles that cross-examine the searches.

They share nothing with the table-search engine: they enumerate whole
per-issue supportive tables and test closure with a plain loop over row
selections. Their verdicts are definitive within their capacity bounds.
This module lives beside the tests, outside the package: the tests and
``scripts/random_audit.py`` import it; the package never does.
"""

from __future__ import annotations

import time
from itertools import product

from agorad.aggregators import AggregatorTuple, OperationTable
from agorad.domain import Domain, require_valid
from agorad.errors import CapacityError
from agorad.search import BUDGET_EXCEEDED, EXHAUSTED, FOUND, SearchBudget, SearchOutcome
from agorad.search import _TIME_CHECK_MASK, SearchStats


def _supportive_tables(values, arity: int):
    """All supportive tables on ``values``, canonical order, as tuples."""
    cell_choices = [
        tuple(dict.fromkeys(args)) for args in product(values, repeat=arity)
    ]
    return [tuple(t) for t in product(*cell_choices)]


def _oracle_candidate_count(d: Domain, arity: int) -> int:
    total = 1
    for jj in range(d.issue_count):
        per_issue = 1
        for args in product(d.projections[jj], repeat=arity):
            per_issue *= len(set(args))
        total *= per_issue
    return total


def _oracle_scan(d: Domain, arity: int, budget: SearchBudget, collect_all: bool):
    """Plain enumeration of closed tuples: every candidate is tested against
    every row selection, with nothing carried over between candidates.

    Rows are packed into mixed-radix integers so the closure test is a few
    multiply-adds and a set lookup per selection. The deadline starts here
    and is read every 2048 candidates, the engine's cadence for nodes.
    """
    deadline = time.monotonic() + budget.max_millis / 1000.0
    require_valid(d)
    count = _oracle_candidate_count(d, arity)
    if count > budget.max_nodes:
        raise CapacityError(
            f"oracle would enumerate {count} candidates, budget is {budget.max_nodes}"
        )
    rows = d.feasible
    n_rows = len(rows)
    m = d.issue_count
    per_issue_tables = [
        _supportive_tables(d.projections[jj], arity) for jj in range(m)
    ]
    pos = [{v: i for i, v in enumerate(d.projections[jj])} for jj in range(m)]
    ks = [len(d.projections[jj]) for jj in range(m)]
    selections = list(product(range(n_rows), repeat=arity))
    cell_of = []
    for jj in range(m):
        k = ks[jj]
        pcol = [pos[jj][row[jj]] for row in rows]
        per_sel = []
        for sel in selections:
            idx = 0
            for r in sel:
                idx = idx * k + pcol[r]
            per_sel.append(idx)
        cell_of.append(per_sel)
    bases = [len(a) for a in d.alphabets]
    feasible_codes = set()
    for row in rows:
        code = 0
        for jj in range(m):
            code = code * bases[jj] + row[jj]
        feasible_codes.add(code)
    proj_tables = []
    for dictator in range(1, arity + 1):
        per = []
        for jj in range(m):
            values = d.projections[jj]
            table = tuple(
                args[dictator - 1] for args in product(values, repeat=arity)
            )
            per.append(table)
        proj_tables.append(tuple(per))

    def emit(combo) -> AggregatorTuple:
        return AggregatorTuple(
            arity=arity,
            components=tuple(
                OperationTable(
                    issue=jj + 1,
                    arity=arity,
                    values=d.projections[jj],
                    table=combo[jj],
                )
                for jj in range(m)
            ),
        )

    def is_trivial(combo) -> bool:
        return any(
            all(combo[jj] == proj[jj] for jj in range(m)) for proj in proj_tables
        )

    found: list[AggregatorTuple] = []
    nodes = 0
    sel_range = range(len(selections))
    jj_range = range(m)
    for combo in product(*per_issue_tables):
        if nodes & _TIME_CHECK_MASK == _TIME_CHECK_MASK and time.monotonic() > deadline:
            return SearchOutcome(BUDGET_EXCEEDED, None, SearchStats(nodes, 0)), found
        nodes += 1
        closed = True
        for si in sel_range:
            code = 0
            for jj in jj_range:
                code = code * bases[jj] + combo[jj][cell_of[jj][si]]
            if code not in feasible_codes:
                closed = False
                break
        if not closed:
            continue
        if collect_all:
            found.append(emit(combo))
        elif not is_trivial(combo):
            return SearchOutcome(FOUND, emit(combo), SearchStats(nodes, 0)), found
    return SearchOutcome(EXHAUSTED, None, SearchStats(nodes, 0)), found


def bruteforce_binary(d: Domain, budget: SearchBudget | None = None) -> SearchOutcome:
    """Exhaustive binary oracle: first non-dictatorial closed tuple, if any."""
    outcome, _ = _oracle_scan(d, 2, budget or SearchBudget(), collect_all=False)
    return outcome


def bruteforce_ternary_nontrivial(
    d: Domain, budget: SearchBudget | None = None
) -> SearchOutcome:
    """Exhaustive ternary oracle; practical only at Boolean scale."""
    outcome, _ = _oracle_scan(d, 3, budget or SearchBudget(), collect_all=False)
    return outcome


def all_binary_aggregators(
    d: Domain, budget: SearchBudget | None = None
) -> tuple[AggregatorTuple, ...]:
    """Every closed binary tuple, dictatorial ones included, or CapacityError
    when the time budget runs out first."""
    outcome, found = _oracle_scan(d, 2, budget or SearchBudget(), collect_all=True)
    if outcome.status == BUDGET_EXCEEDED:
        raise CapacityError("oracle ran out of time before listing every tuple")
    return tuple(found)
