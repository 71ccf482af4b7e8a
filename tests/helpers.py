"""Shared test utilities: naive oracles, random domain samplers, a call
counter, a fake clock, the definition-level blockedness graph and its
partition table, and a definition-level witness judgement with the
single-cell flips it is compared on.

The naive functions here deliberately re-derive results from definitions
with the dumbest possible loops so the package's optimized routines have
something independent to agree with.
"""

import sys
from itertools import combinations, product

from agorad import search
from agorad.aggregators import AggregatorTuple, OperationTable, verify_witness
from agorad.blockedness import Mipe, SubBox
from agorad.domain import (
    Domain,
    build_domain,
    product_domain,
    two_element_subsets,
    validate,
)
from agorad.errors import CapacityError, VerificationError
from agorad.search import (
    FOUND,
    SearchBudget,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)

TOKENS = ("a", "b", "c", "d", "e")


def random_domain(rng, *, max_issues=3, max_alphabet=3, max_rows=10):
    """Non-degenerate random domain, sizes bounded for desk-scale suites."""
    while True:
        m = rng.randint(1, max_issues)
        sizes = [rng.randint(2, max_alphabet) for _ in range(m)]
        alphabets = [TOKENS[:s] for s in sizes]
        universe = list(product(*alphabets))
        k = rng.randint(2, min(max_rows, len(universe)))
        rows = rng.sample(universe, k)
        d = build_domain(alphabets, rows)
        if validate(d).ok:
            return d


def random_boolean_domain(rng, *, max_issues=3):
    while True:
        m = rng.randint(1, max_issues)
        alphabets = [("0", "1")] * m
        universe = list(product(*alphabets))
        k = rng.randint(2, len(universe))
        rows = rng.sample(universe, k)
        d = build_domain(alphabets, rows)
        if validate(d).ok:
            return d


def past_guard_domain(rng, issues=6, tokens=4, rows=64):
    """``rows`` rows sampled from the product of ``issues`` alphabets of
    ``tokens`` tokens, redrawn until valid. At the defaults (and at 7/4/64
    or 8/5/64) the draw passes the parse guards and fails the work guard
    of ``build_graph``."""
    alphabets = [TOKENS[:tokens]] * issues
    universe = list(product(*alphabets))
    while True:
        d = build_domain(alphabets, rng.sample(universe, rows))
        if validate(d).ok:
            return d


def past_guard_product(rng, issues=3, tokens=4, rows=8):
    """The product of two ``past_guard_domain`` factors: 6/4/64 at the
    defaults, past the work guard of ``build_graph`` and never totally
    blocked."""
    left = past_guard_domain(rng, issues, tokens, rows)
    return product_domain(left, past_guard_domain(rng, issues, tokens, rows))


def _refuse_graph(d):
    raise CapacityError("graph refused: the table search decides")


def searched_binary(d: Domain, budget=None):
    """``find_binary_nondictatorial`` on its table-search route: the graph's
    work guard is made to refuse every domain for the one call."""
    build_graph = search.build_graph
    search.build_graph = _refuse_graph
    try:
        return find_binary_nondictatorial(d, budget)
    finally:
        search.build_graph = build_graph


def count_calls(monkeypatch, original) -> list:
    """Record the positional arguments of every call to a package function.

    Patches every module attribute of the package bound to ``original``,
    so calls from one module into another are counted too.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "agorad" or name.startswith("agorad."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class FakeClock:
    """Stands in for the ``time`` module of ``agorad.search`` or of the
    test-side ``oracles``.

    ``monotonic()`` returns the given readings one by one, then repeats the
    last; ``now`` may also be set, or advanced, by the test itself.
    """

    def __init__(self, *readings):
        self.readings = list(readings)
        self.now = 0.0

    def monotonic(self) -> float:
        if self.readings:
            self.now = self.readings.pop(0)
        return self.now


def naive_is_closed(d: Domain, agg):
    """Definition-level closure check: (ok, first escaping selection or None).

    An independent loop over row selections in product order, with each
    table read through a dict keyed by argument tuple, so it shares no
    indexing with the package implementation.
    """
    lookups = [
        dict(zip(product(comp.values, repeat=agg.arity), comp.table))
        for comp in agg.components
    ]
    for selection in product(d.feasible, repeat=agg.arity):
        image = tuple(
            lookup[tuple(row[j] for row in selection)]
            for j, lookup in enumerate(lookups)
        )
        if image not in d.feasible_set:
            return False, selection
    return True, None


def naive_mipes(d: Domain, cells, min_support: int):
    """Yield the MIPEs of the sub-box ``cells`` with support of at least
    ``min_support`` (>= 1) issues, by the definition: infeasible inside the
    box, and every single coordinate can be replaced by another value of
    its cell to give an assignment some row inside the box extends.

    Supports come by size, then lexicographically, assignments in product
    order of the cells.
    """
    m = d.issue_count
    box = SubBox(cells=tuple(tuple(c) for c in cells))
    in_box = [
        row for row in d.feasible if all(row[jj] in cells[jj] for jj in range(m))
    ]

    def extends(support, assignment):
        return any(
            all(row[jj] == v for jj, v in zip(support, assignment)) for row in in_box
        )

    for size in range(min_support, m + 1):
        for support in combinations(range(m), size):
            for assignment in product(*(cells[jj] for jj in support)):
                if extends(support, assignment):
                    continue
                minimal = True
                for i, jj in enumerate(support):
                    fixed = [
                        (jj2, v)
                        for k2, (jj2, v) in enumerate(zip(support, assignment))
                        if k2 != i
                    ]
                    if not any(
                        alt != assignment[i]
                        and any(
                            row[jj] == alt and all(row[jj2] == v for jj2, v in fixed)
                            for row in in_box
                        )
                        for alt in cells[jj]
                    ):
                        minimal = False
                        break
                if minimal:
                    yield Mipe(
                        box=box,
                        support=tuple(jj + 1 for jj in support),
                        assignment=assignment,
                    )


def sub_boxes(d: Domain):
    """Every sub-box of ``d``: each cell a non-empty subset of a projection."""
    return product(
        *(
            [c for size in range(1, len(p) + 1) for c in combinations(p, size)]
            for p in d.projections
        )
    )


def naive_multiply_constrained(d: Domain) -> bool:
    """Definition-level scan over every sub-box for a length->=3 minimal
    infeasible partial evaluation."""
    if d.issue_count < 3:
        return False
    return any(
        next(naive_mipes(d, cells, 3), None) is not None for cells in sub_boxes(d)
    )


def definition_graph(d: Domain):
    """Vertices, edges, first witnesses and SCCs from ``naive_mipes``.

    Boxes in product order of the per-issue pairs, edges wired as in
    ``build_graph``, SCCs as mutual reachability; also the number of boxes
    that contain no feasible row.
    """
    m = d.issue_count
    edge_witness = {}
    empty = 0
    for cells in product(*(two_element_subsets(d, j) for j in range(1, m + 1))):
        if not any(all(row[jj] in cells[jj] for jj in range(m)) for row in d.feasible):
            empty += 1
        for mipe in naive_mipes(d, cells, 1):
            values = dict(zip(mipe.support, mipe.assignment))
            for k in mipe.support:
                for l in mipe.support:
                    if k != l:
                        (u2,) = set(cells[k - 1]) - {values[k]}
                        (v,) = set(cells[l - 1]) - {values[l]}
                        src, dst = (k, values[k], u2), (l, v, values[l])
                        edge_witness.setdefault((src, dst), mipe)
    vertices = tuple(
        (j, u, v)
        for j in range(1, m + 1)
        for u in d.projection(j)
        for v in d.projection(j)
        if u != v
    )
    reach = {v: {v} for v in vertices}
    for src, dst in edge_witness:
        reach[src].add(dst)
    changed = True
    while changed:
        changed = False
        for v in vertices:
            grown = set().union(*(reach[w] for w in reach[v]))
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    sccs = sorted({tuple(sorted(w for w in reach[v] if v in reach[w])) for v in vertices})
    edges = tuple(sorted(edge_witness))
    witnesses = tuple(edge_witness[e] for e in edges)
    return vertices, edges, witnesses, tuple(sccs), empty


def source_classes(d: Domain) -> list:
    """The classes of ``definition_graph`` that no edge enters from outside,
    as sets, least vertex first."""
    _, edges, _, sccs, _ = definition_graph(d)
    sources = [
        set(c) for c in sccs if not any(dst in c and src not in c for src, dst in edges)
    ]
    return sorted(sources, key=min)


def naive_partition_binary(d: Domain) -> AggregatorTuple:
    """The binary table projected from the source class with the least
    vertex: its pairs onto their second value, every other pair onto its
    first, equal arguments passing through. Only for graphs that are not
    strongly connected."""
    second = source_classes(d)[0]
    return AggregatorTuple(
        arity=2,
        components=tuple(
            OperationTable(
                issue=j,
                arity=2,
                values=d.projection(j),
                table=tuple(
                    v if (j, u, v) in second else u
                    for u, v in product(d.projection(j), repeat=2)
                ),
            )
            for j in range(1, d.issue_count + 1)
        ),
    )


def boolean_table(tag: str):
    """Reference truth tables of the four named ops on {0, 1}."""

    def maj(x, y, z):
        return x if x == y or x == z else y

    def xor3(x, y, z):
        return x ^ y ^ z

    def and3(x, y, z):
        return x & y & z

    def or3(x, y, z):
        return x | y | z

    return {"MAJ": maj, "XOR3": xor3, "AND3": and3, "OR3": or3}[tag]


def naive_witness_ok(d: Domain, agg, kind: str, pin=None) -> bool:
    """Definition-level judgement of a ``kind`` witness, as
    ``verify_witness`` takes its arguments: closure by a plain loop over row
    selections, then the kind's law cell by cell on two-element subsets.

    A binary witness is no projection; a majority or minority witness
    computes the Boolean MAJ or XOR3 on every pair (smaller value as 0); a
    uniform witness obeys f(x,y,y) = f(y,x,y) = f(y,y,x) on every pair; a
    component witness, ``pin`` = (j, pair, op), computes op on that pair.
    """
    if not naive_is_closed(d, agg)[0]:
        return False
    m = d.issue_count
    if kind == "binary":
        return not any(
            all(
                agg.component(j).apply(args) == args[i]
                for j in range(1, m + 1)
                for args in product(d.projection(j), repeat=2)
            )
            for i in range(2)
        )
    if kind == "component":
        j, pair, op = pin
        cases = [(j, tuple(sorted(pair)), op)]
    else:
        op = {"majority": "MAJ", "minority": "XOR3", "uniform": None}[kind]
        cases = [
            (j, pair, op)
            for j in range(1, m + 1)
            for pair in combinations(d.projection(j), 2)
        ]
    for j, (zero, one), op in cases:
        f = agg.component(j)
        if op is None:
            for x, y in ((zero, one), (one, zero)):
                a = f.apply((x, y, y))
                if a != f.apply((y, x, y)) or a != f.apply((y, y, x)):
                    return False
            continue
        law = boolean_table(op)
        for args in product((zero, one), repeat=3):
            bit = law(*(int(a == one) for a in args))
            if f.apply(args) != (one if bit else zero):
                return False
    return True


def single_cell_flips(agg):
    """Every tuple that differs from ``agg`` in exactly one table cell, the
    cell taking another of its arguments (so the tables stay supportive)."""
    for jj, comp in enumerate(agg.components):
        for idx, out in enumerate(comp.table):
            for alt in dict.fromkeys(comp.cell_args(idx)):
                if alt == out:
                    continue
                table = comp.table[:idx] + (alt,) + comp.table[idx + 1 :]
                comps = list(agg.components)
                comps[jj] = OperationTable(comp.issue, comp.arity, comp.values, table)
                yield AggregatorTuple(agg.arity, tuple(comps))


def verify_raises(d: Domain, agg, kind: str, pin=None) -> bool:
    try:
        verify_witness(d, agg, kind, pin)
    except VerificationError:
        return True
    return False


def flip_disagreements(d: Domain, agg, kind: str, pin=None) -> list:
    """The single-cell flips of a witness on which ``verify_witness`` and
    ``naive_witness_ok`` disagree, and the witness itself if either rejects
    it; empty when both accept the witness and judge every flip alike."""
    bad = [agg] if verify_raises(d, agg, kind, pin) else []
    if not naive_witness_ok(d, agg, kind, pin):
        bad.append(agg)
    return bad + [
        flipped
        for flipped in single_cell_flips(agg)
        if verify_raises(d, flipped, kind, pin)
        == naive_witness_ok(d, flipped, kind, pin)
    ]


PIN_OPS = ("MAJ", "XOR3", "AND3", "OR3")


def found_witnesses(d: Domain):
    """(kind, witness, pin) for each witness the searches find on ``d`` in
    20 000 nodes: both binary routes (the pair graph and the forced table
    search), majority, minority, uniform, the fold, and the component
    search on every (issue, pair); the pin's op is read off the witness
    with ``naive_witness_ok``."""
    budget = SearchBudget(max_nodes=20_000)
    found = []
    for kind, outcome in (
        ("binary", find_binary_nondictatorial(d, budget)),
        ("binary", searched_binary(d, budget)),
        ("majority", find_majority(d, budget)),
        ("minority", find_minority(d, budget)),
        ("uniform", find_uniform(d, budget)),
        ("uniform", fold_diamond_cover(d, budget)),
    ):
        if outcome.status == FOUND:
            found.append((kind, outcome.witness, None))
    for j in range(1, d.issue_count + 1):
        for pair in combinations(d.projection(j), 2):
            outcome = find_component_nonprojection(d, j, pair, budget)
            if outcome.status == FOUND:
                w = outcome.witness
                op = next(
                    op
                    for op in PIN_OPS
                    if naive_witness_ok(d, w, "component", (j, pair, op))
                )
                found.append(("component", w, (j, pair, op)))
    return found
