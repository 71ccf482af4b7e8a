"""Total blockedness: the entailment graph over value pairs and its SCCs.

A sub-box restricts each issue to a subset of its projection values; a
2-sub-box picks exactly two values per issue. A minimal infeasible partial
evaluation (MIPE) within a box is a partial assignment that no feasible
row inside the box extends, yet becomes extendable whenever any single
coordinate is replaced by another value of its cell.

The graph has one vertex per ordered pair of distinct projection values
per issue. A MIPE on a 2-sub-box wires a directed edge between every two
of its support issues: fixing the source pair's first value forces the
target pair's first value, which is exactly the propagation the edge
records. The domain is totally blocked when this graph is strongly
connected; otherwise any source component of the condensation yields a
binary non-dictatorial aggregator by projecting one side of the partition
onto first arguments and the other onto second arguments.

The graph is built on bitmasks. Inside a 2-sub-box a feasible row is an
m-bit mask, one bit per issue (issue j owns bit m - j), set where the row
takes the cell's second value. A box with no row is counted for a single
EmptyBoxWarning; a box with one row has only single-issue MIPEs, which
wire no edge, and is skipped. Otherwise the projection P_K = {r & K} is
built once per support mask K, and an assignment a on K is a MIPE when a
is not in P_K but every restriction to K - {i} is in P_{K - {i}}. On a
2-sub-box this subset-minimality equals the flip-minimality above: each
cell has one other value, so a row agreeing with a off issue i agrees at
i as well (impossible, a is infeasible) or is exactly the flip at i.
``enumerate_mipes`` and the sub-box scan of ``is_multiply_constrained``
keep the direct, definition-level enumeration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .aggregators import (
    AggregatorTuple,
    OperationTable,
    is_closed,
    is_dictatorial,
)
from .domain import Domain, require_valid, two_element_subsets
from .errors import CapacityError, PartitionUnavailableError, VerificationError

# Vertex = (issue 1-based, first value code, second value code)
Vertex = tuple[int, int, int]

# build_graph and is_multiply_constrained enumerate boxes times partial
# evaluations; past this estimate they refuse instead of crawling.
MAX_ENUMERATION_WORK = 50_000_000


class EmptyBoxWarning(UserWarning):
    """A 2-sub-box contains no feasible row at all."""


@dataclass(frozen=True)
class SubBox:
    """Per-issue non-empty value subsets, codes ascending."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def is_two_box(self) -> bool:
        return all(len(c) == 2 for c in self.cells)


@dataclass(frozen=True)
class Mipe:
    box: SubBox
    support: tuple[int, ...]  # 1-based issues, ascending
    assignment: tuple[int, ...]  # codes, aligned with support


@dataclass(frozen=True)
class BlockednessGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex], ...]
    witnesses: tuple[Mipe, ...]  # aligned with edges
    sccs: tuple[tuple[Vertex, ...], ...]  # each sorted; list sorted by least vertex

    @cached_property
    def edge_witness(self) -> dict[tuple[Vertex, Vertex], Mipe]:
        return dict(zip(self.edges, self.witnesses))

    @cached_property
    def scc_of(self) -> dict[Vertex, int]:
        return {v: i for i, comp in enumerate(self.sccs) for v in comp}

    @cached_property
    def condensation_edges(self) -> frozenset[tuple[int, int]]:
        scc_of = self.scc_of
        return frozenset(
            (scc_of[a], scc_of[b]) for a, b in self.edges if scc_of[a] != scc_of[b]
        )

    @property
    def is_strongly_connected(self) -> bool:
        return len(self.sccs) == 1


def _check_box(d: Domain, box: SubBox) -> None:
    if len(box.cells) != d.issue_count:
        raise ValueError("box arity differs from the domain")
    for jj, cell in enumerate(box.cells):
        if not cell:
            raise ValueError(f"box cell {jj + 1} is empty")
        if any(v not in d.projections[jj] for v in cell):
            raise ValueError(f"box cell {jj + 1} leaves the projection")


def feasible_in_box(d: Domain, box: SubBox, support, assignment) -> bool:
    """Is some feasible row inside the box an extension of the assignment?"""
    _check_box(d, box)
    support = tuple(support)
    assignment = tuple(assignment)
    if len(support) != len(assignment):
        raise ValueError("support and assignment lengths differ")
    if len(set(support)) != len(support):
        raise ValueError("support repeats an issue")
    for j, value in zip(support, assignment):
        d._check_issue(j)
        if value not in box.cells[j - 1]:
            raise ValueError(f"assignment at issue {j} is outside the box")
    cell_sets = [frozenset(c) for c in box.cells]
    pins = {j - 1: v for j, v in zip(support, assignment)}
    for row in d.feasible:
        if all(row[jj] in cell_sets[jj] for jj in range(d.issue_count)) and all(
            row[jj] == v for jj, v in pins.items()
        ):
            return True
    return False


def _rows_in_box(d: Domain, cell_sets) -> list[tuple[int, ...]]:
    m = d.issue_count
    return [
        row for row in d.feasible if all(row[jj] in cell_sets[jj] for jj in range(m))
    ]


def _mipes_over(d: Domain, box: SubBox, rows, min_support: int):
    """Yield MIPEs on ``box`` over the prefiltered feasible rows inside it.

    Enumerates supports by increasing size then lexicographically and
    assignments lexicographically, so callers see a canonical order.
    """
    m = d.issue_count
    for size in range(max(1, min_support), m + 1):
        for support in combinations(range(1, m + 1), size):
            jjs = [j - 1 for j in support]
            for assignment in product(*(box.cells[jj] for jj in jjs)):
                if any(
                    all(row[jj] == v for jj, v in zip(jjs, assignment))
                    for row in rows
                ):
                    continue  # feasible, not a MIPE
                minimal = True
                for i, jj in enumerate(jjs):
                    restorable = False
                    for alt in box.cells[jj]:
                        if alt == assignment[i]:
                            continue
                        if any(
                            row[jj] == alt
                            and all(
                                row[jj2] == v2
                                for k2, (jj2, v2) in enumerate(zip(jjs, assignment))
                                if k2 != i
                            )
                            for row in rows
                        ):
                            restorable = True
                            break
                    if not restorable:
                        minimal = False
                        break
                if minimal:
                    yield Mipe(box=box, support=support, assignment=assignment)


def enumerate_mipes(d: Domain, box: SubBox) -> list[Mipe]:
    """All MIPEs of a 2-sub-box, in canonical order.

    A box containing no feasible row has no MIPEs: the empty partial
    evaluation is infeasible but no single flip can restore it, and the
    same holds for every extension. Such boxes are reported with an
    EmptyBoxWarning.
    """
    _check_box(d, box)
    if not box.is_two_box:
        raise ValueError("expected a 2-sub-box")
    cell_sets = [frozenset(c) for c in box.cells]
    rows = _rows_in_box(d, cell_sets)
    if not rows:
        warnings.warn(
            f"2-sub-box {box.cells} contains no feasible row",
            EmptyBoxWarning,
            stacklevel=2,
        )
        return []
    return list(_mipes_over(d, box, rows, min_support=1))


def _two_boxes(d: Domain):
    pair_lists = [two_element_subsets(d, j) for j in range(1, d.issue_count + 1)]
    for cells in product(*pair_lists):
        yield SubBox(cells=tuple(cells))


def _graph_vertices(d: Domain) -> tuple[Vertex, ...]:
    out = []
    for j in range(1, d.issue_count + 1):
        proj = d.projections[j - 1]
        out.extend((j, u, v) for u in proj for v in proj if u != v)
    return tuple(out)


def _strongly_connected_components(vertices, adjacency):
    """Iterative single-pass lowlink SCC computation, deterministic order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comps: list = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            succs = adjacency.get(v, ())
            descended = False
            while i < len(succs):
                w = succs[i]
                i += 1
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    comps.sort(key=lambda c: c[0])
    return tuple(comps)


def _guard_two_box_work(d: Domain) -> None:
    boxes = 1
    for j in range(1, d.issue_count + 1):
        k = len(d.projections[j - 1])
        boxes *= k * (k - 1) // 2
    work = boxes * (4 ** d.issue_count)
    if work > MAX_ENUMERATION_WORK:
        raise CapacityError(
            f"graph enumeration estimate {work} exceeds {MAX_ENUMERATION_WORK}"
        )


@lru_cache(maxsize=None)
def _edge_supports(m: int):
    """Supports of at least two issues, as (issues, mask, masks less one issue).

    Issue j owns bit m - j, so the first issue is the most significant bit
    and numeric order of assignment masks is lexicographic order of codes.
    Supports come by size, then lexicographically.
    """
    out = []
    for size in range(2, m + 1):
        for support in combinations(range(1, m + 1), size):
            bits = [1 << (m - j) for j in support]
            mask = sum(bits)
            out.append((support, mask, tuple(mask ^ b for b in bits)))
    return tuple(out)


def _row_masks(d: Domain, box: SubBox) -> set[int]:
    """Feasible rows inside the box, one bit per issue set on its second value."""
    m = d.issue_count
    cells = box.cells
    masks = set()
    for row in d.feasible:
        mask = 0
        for jj in range(m):
            value = row[jj]
            lo, hi = cells[jj]
            if value == hi:
                mask |= 1 << (m - 1 - jj)
            elif value != lo:
                break
        else:
            masks.add(mask)
    return masks


def _projection_mipes(box: SubBox, masks: set[int], m: int):
    """Yield the MIPEs of support size >= 2 on a 2-sub-box, canonical order.

    ``masks`` holds the box's feasible rows (see ``_row_masks``); with
    P_K = {r & K} the projection onto support mask K, an assignment a on K
    is a MIPE iff a is absent from P_K and a & ~i lies in P_{K - i} for
    every bit i of K.
    """
    full = (1 << m) - 1
    projections = [()] * (full + 1)
    projections[full] = masks
    for mask in range(full - 1, -1, -1):
        wider = projections[mask | ((mask + 1) & ~mask)]  # add the lowest free bit
        projections[mask] = {r & mask for r in wider}
    cells = box.cells
    for support, mask, narrower in _edge_supports(m):
        present = projections[mask]
        if len(present) == 1 << len(support):
            continue
        first_bit = mask ^ narrower[0]
        found = []
        for p in projections[narrower[0]]:  # every a with a & ~first_bit present
            for a in (p, p | first_bit):
                if a not in present and all(
                    (a & k) in projections[k] for k in narrower[1:]
                ):
                    found.append(a)
        for a in sorted(found):
            yield Mipe(
                box=box,
                support=support,
                assignment=tuple(
                    cells[j - 1][(a >> (m - j)) & 1] for j in support
                ),
            )


def build_graph(d: Domain) -> BlockednessGraph:
    """Enumerate MIPEs over every 2-sub-box and assemble the edge set.

    Each box is worked on bitmasks, as the module docstring sets out: a
    row inside the box is an m-bit mask, set where it takes the cell's
    second value; a box with no row counts towards one EmptyBoxWarning and
    a box with one row (single-issue MIPEs only, no edge) is skipped; the
    MIPEs are the assignments missing from P_K = {r & K} whose every
    restriction to K - {i} is in P_{K - {i}}, which on a 2-sub-box is the
    definition's flip-minimality.

    One witness is kept per directed edge: the first MIPE found in the
    canonical box/support/assignment order, which makes the graph and its
    DOT rendering byte-reproducible.
    """
    require_valid(d)
    _guard_two_box_work(d)
    m = d.issue_count
    edge_witness: dict[tuple[Vertex, Vertex], Mipe] = {}
    empty_boxes = 0
    for box in _two_boxes(d):
        masks = _row_masks(d, box)
        if not masks:
            empty_boxes += 1
            continue
        if len(masks) == 1:
            continue  # only single-issue MIPEs, which wire no edge
        for mipe in _projection_mipes(box, masks, m):
            values = dict(zip(mipe.support, mipe.assignment))
            for k in mipe.support:
                for l in mipe.support:
                    if k == l:
                        continue
                    bk = box.cells[k - 1]
                    bl = box.cells[l - 1]
                    u = values[k]
                    u2 = bk[0] if bk[1] == u else bk[1]
                    v2 = values[l]
                    v = bl[0] if bl[1] == v2 else bl[1]
                    edge_witness.setdefault(((k, u, u2), (l, v, v2)), mipe)
    if empty_boxes:
        warnings.warn(
            f"{empty_boxes} 2-sub-box(es) contain no feasible row",
            EmptyBoxWarning,
            stacklevel=2,
        )
    vertices = _graph_vertices(d)
    edges = tuple(sorted(edge_witness))
    witnesses = tuple(edge_witness[e] for e in edges)
    adjacency: dict[Vertex, list[Vertex]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    sccs = _strongly_connected_components(
        vertices, {v: tuple(succs) for v, succs in adjacency.items()}
    )
    return BlockednessGraph(
        vertices=vertices, edges=edges, witnesses=witnesses, sccs=sccs
    )


def is_totally_blocked(d: Domain) -> tuple[bool, BlockednessGraph]:
    """Strong connectivity of the graph, plus the graph for inspection."""
    graph = build_graph(d)
    return graph.is_strongly_connected, graph


def binary_from_partition(d: Domain, graph: BlockednessGraph) -> AggregatorTuple:
    """Binary non-dictatorial aggregator from an edge-free vertex partition.

    Picks as the second part a source component of the condensation (no
    incoming edges from outside, hence no edge from the rest into it); the
    source containing the least vertex is used for determinism. Pairs in
    the first part project onto their first value, pairs in the second
    onto their second, equal arguments pass through.
    """
    if graph.is_strongly_connected:
        raise PartitionUnavailableError(
            "graph is strongly connected, no partition exists"
        )
    targets = {b for _, b in graph.condensation_edges}
    sources = [i for i in range(len(graph.sccs)) if i not in targets]
    chosen = min(sources, key=lambda i: graph.sccs[i][0])
    second_part = set(graph.sccs[chosen])
    comps = []
    for j in range(1, d.issue_count + 1):
        values = d.projection(j)
        table = []
        for u in values:
            for v in values:
                if u == v:
                    table.append(u)
                else:
                    table.append(v if (j, u, v) in second_part else u)
        comps.append(
            OperationTable(issue=j, arity=2, values=values, table=tuple(table))
        )
    result = AggregatorTuple(arity=2, components=tuple(comps))
    check = is_closed(d, result)
    if not check.ok:
        raise VerificationError("partition aggregator escaped the feasible set")
    if is_dictatorial(d, result) is not None:
        raise VerificationError("partition aggregator came out dictatorial")
    return result


def is_multiply_constrained(d: Domain) -> bool:
    """Does any sub-box admit a MIPE with support of size at least 3?

    Scans every sub-box (all non-empty per-issue value subsets), not just
    2-sub-boxes, so the guard is stricter than the graph's.
    """
    require_valid(d)
    m = d.issue_count
    if m < 3:
        return False
    boxes = 1
    for j in range(1, m + 1):
        boxes *= (1 << len(d.projections[j - 1])) - 1
    if boxes * (4**m) > MAX_ENUMERATION_WORK:
        raise CapacityError("sub-box enumeration exceeds the desk-scale guard")
    subset_lists = []
    for j in range(1, m + 1):
        proj = d.projections[j - 1]
        subsets = []
        for size in range(1, len(proj) + 1):
            subsets.extend(combinations(proj, size))
        subset_lists.append(subsets)
    for cells in product(*subset_lists):
        box = SubBox(cells=tuple(cells))
        cell_sets = [frozenset(c) for c in cells]
        rows = _rows_in_box(d, cell_sets)
        if not rows:
            continue
        for _ in _mipes_over(d, box, rows, min_support=3):
            return True
    return False


def graph_to_dot(d: Domain, graph: BlockednessGraph) -> str:
    """Stable DOT rendering: all vertices, then all edges, canonical order."""
    lines = ["digraph blockedness {"]
    for j, u, v in graph.vertices:
        lines.append(f'  "{j}:{d.token(j, u)}{d.token(j, v)}";')
    for (src, dst), mipe in zip(graph.edges, graph.witnesses):
        sj, su, sv = src
        tj, tu, tv = dst
        support = ",".join(str(j) for j in mipe.support)
        assign = ",".join(
            d.token(j, value) for j, value in zip(mipe.support, mipe.assignment)
        )
        lines.append(
            f'  "{sj}:{d.token(sj, su)}{d.token(sj, sv)}" -> '
            f'"{tj}:{d.token(tj, tu)}{d.token(tj, tv)}" '
            f'[witness="K={support};x={assign}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
