"""Total blockedness: the pair graph and its classes of mutual reachability.

A sub-box restricts each issue to a subset of its projection values; a
2-sub-box picks exactly two values per issue. A minimal infeasible partial
evaluation (MIPE) within a box is a partial assignment that no feasible
row inside the box extends, yet becomes extendable whenever any single
coordinate is replaced by another value of its cell.

The graph has one vertex per ordered pair of distinct projection values
per issue. A MIPE on a 2-sub-box wires a directed edge between every two
of its support issues: fixing the source pair's first value forces the
target pair's first value, which is exactly the propagation the edge
records. The domain is totally blocked when the graph is strongly
connected, every vertex reaching every other. Otherwise some class of
mutually reachable vertices is entered by no edge from outside; projecting
it onto second arguments and the rest onto first arguments yields a binary
non-dictatorial aggregator. The classes (``BlockednessGraph.sccs``) follow
the sorted vertex order: each class sorted, the classes by least vertex.

MIPEs are found on bitmasks, by one enumerator for every box. Inside a
box a feasible row is a mask with one field per issue, issue 1 in the
most significant one; the field is max(1, bit_length(|cell| - 1)) bits
wide and holds the position of the row's value in its cell, so on a
2-sub-box each field is one bit, set on the cell's second value. The
projection P_K = {r & K} is built once per issue set K, and an
assignment a on K is a MIPE when a is not in P_K but every restriction
to K - {i} is in P_{K - {i}}. This subset-minimality is the
flip-minimality above: a row that agrees with a off issue i cannot agree
at i as well (a is infeasible), so it holds another value of the cell.
``build_graph`` counts 2-sub-boxes with no row for a single
EmptyBoxWarning and skips those with one row, which have only
single-issue MIPEs and wire no edge; ``is_multiply_constrained`` skips
sub-boxes with fewer than three rows, since a MIPE on K needs |K|
distinct rows, one per restoring flip. The definition-level scan is kept
as the reference in ``tests/helpers.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import prod

from .aggregators import AggregatorTuple, aggregator_from_callable, verify_witness
from .domain import Domain, require_valid, two_element_subsets
from .errors import CapacityError, PartitionUnavailableError

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
        if len(set(cell)) != len(cell):
            raise ValueError(f"box cell {jj + 1} repeats a value")


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
    masks = _row_masks(d, box)
    if not masks:
        warnings.warn(
            f"2-sub-box {box.cells} contains no feasible row",
            EmptyBoxWarning,
            stacklevel=2,
        )
        return []
    return list(_projection_mipes(box, masks, 1))


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


def _strongly_connected_components(vertices, edges):
    """Classes of mutual reachability, by a bitset transitive closure.

    Bit i of ``reach[k]`` is set when vertex i is reachable from vertex k.
    ``vertices`` is sorted, so each class comes out sorted and the classes
    ordered by least vertex.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    reach = [1 << i for i in range(n)]
    for src, dst in edges:
        reach[index[src]] |= 1 << index[dst]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    classes = (
        tuple(vertices[j] for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
        for i in range(n)
    )
    return tuple(dict.fromkeys(classes))


def _guard_work(d: Domain, boxes_per_issue, what: str) -> None:
    """Refuse when the boxes times 4^m partial evaluations pass the bound."""
    boxes = prod(boxes_per_issue(len(p)) for p in d.projections)
    work = boxes * 4**d.issue_count
    if work > MAX_ENUMERATION_WORK:
        raise CapacityError(
            f"{what} enumeration estimate {work} exceeds {MAX_ENUMERATION_WORK}"
        )


@lru_cache(maxsize=None)
def _fields(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shift and all-ones mask of each issue's field, by the cell sizes.

    The first issue is the most significant, so numeric order of masks is
    lexicographic order of the positions.
    """
    widths = [max(1, (k - 1).bit_length()) for k in sizes]
    shifts = tuple(sum(widths[jj + 1 :]) for jj in range(len(widths)))
    return shifts, tuple((1 << w) - 1 for w in widths)


@lru_cache(maxsize=256)  # bounded: an --allow-large alphabet makes each entry large
def _placed(size: int, cell: tuple[int, ...], shift: int) -> tuple:
    """Per code of an alphabet of ``size``: its position in the cell, shifted
    into its field, or None off the cell."""
    placed = [None] * size
    for pos, value in enumerate(cell):
        placed[value] = pos << shift
    return tuple(placed)


@lru_cache(maxsize=None)
def _layout(sizes: tuple[int, ...], min_support: int):
    """Field mask per issue set, and the supports of ``min_support`` or more
    issues by size, then lexicographically.

    An issue set is an m-bit index, issue j on bit m - j. Each support is
    (issues, index, number of assignments, the first issue's positions in
    place, the index of the support less its first issue, (index, field
    mask) of the support less each other issue, (0-based issue, shift,
    all-ones mask) per issue to read an assignment back).
    """
    m = len(sizes)
    shifts, lows = _fields(sizes)
    field_masks = tuple(
        sum(lows[jj] << shifts[jj] for jj in range(m) if index >> (m - 1 - jj) & 1)
        for index in range(1 << m)
    )
    supports = []
    for size in range(min_support, m + 1):
        for support in combinations(range(m), size):
            bits = [1 << (m - 1 - jj) for jj in support]
            index = sum(bits)
            first = support[0]
            supports.append((
                tuple(jj + 1 for jj in support),
                index,
                prod(sizes[jj] for jj in support),
                tuple(pos << shifts[first] for pos in range(sizes[first])),
                index ^ bits[0],
                tuple((index ^ b, field_masks[index ^ b]) for b in bits[1:]),
                tuple((jj, shifts[jj], lows[jj]) for jj in support),
            ))
    return field_masks, tuple(supports)


def _row_masks(d: Domain, box: SubBox) -> set[int]:
    """Feasible rows inside the box, each field the position in its cell."""
    cells = box.cells
    shifts, _ = _fields(tuple(map(len, cells)))
    placed = list(map(_placed, map(len, d.alphabets), cells, shifts))
    issues = range(len(cells))
    masks = set()
    for row in d.feasible:
        mask = 0
        for jj in issues:
            bits = placed[jj][row[jj]]
            if bits is None:
                break
            mask |= bits
        else:
            masks.add(mask)
    return masks


def _projection_mipes(box: SubBox, masks: set[int], min_support: int):
    """Yield the MIPEs of support size >= ``min_support`` on a box, canonical
    order: supports by size then lexicographically, assignments in product
    order of the cells.

    ``masks`` holds the box's feasible rows (see ``_row_masks``); with
    P_K = {r & K} the projection onto the fields of issue set K, an
    assignment a on K is a MIPE iff a is absent from P_K and a restricted
    to K - {i} lies in P_{K - i} for every issue i of K.
    """
    cells = box.cells
    field_masks, supports = _layout(tuple(map(len, cells)), min_support)
    full = len(field_masks) - 1
    projections = [()] * (full + 1)
    projections[full] = masks
    for index in range(full - 1, -1, -1):
        wider = projections[index | ((index + 1) & ~index)]  # add the lowest free bit
        keep = field_masks[index]
        projections[index] = {r & keep for r in wider}
    for support, index, total, extensions, rest, narrower, reads in supports:
        present = projections[index]
        if len(present) == total:
            continue
        found = []
        for p in projections[rest]:  # every a whose restriction to rest is present
            for e in extensions:
                a = p | e
                if a not in present and all(
                    (a & keep) in projections[k] for k, keep in narrower
                ):
                    found.append(a)
        for a in sorted(found):
            yield Mipe(
                box=box,
                support=support,
                assignment=tuple(
                    cells[jj][(a >> shift) & low] for jj, shift, low in reads
                ),
            )


def build_graph(d: Domain) -> BlockednessGraph:
    """Enumerate MIPEs over every 2-sub-box and assemble the edge set.

    Each box is worked on bitmasks, as the module docstring sets out: a
    box with no row counts towards one EmptyBoxWarning and a box with one
    row (single-issue MIPEs only, no edge) is skipped.

    One witness is kept per directed edge: the first MIPE found in the
    canonical box/support/assignment order, which makes the graph and its
    DOT rendering byte-reproducible.
    """
    require_valid(d)
    _guard_work(d, lambda k: k * (k - 1) // 2, "graph")
    edge_witness: dict[tuple[Vertex, Vertex], Mipe] = {}
    empty_boxes = 0
    for box in _two_boxes(d):
        masks = _row_masks(d, box)
        if not masks:
            empty_boxes += 1
            continue
        if len(masks) == 1:
            continue  # only single-issue MIPEs, which wire no edge
        for mipe in _projection_mipes(box, masks, 2):
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
    sccs = _strongly_connected_components(vertices, edges)
    return BlockednessGraph(
        vertices=vertices, edges=edges, witnesses=witnesses, sccs=sccs
    )


def is_totally_blocked(d: Domain) -> tuple[bool, BlockednessGraph]:
    """Strong connectivity of the graph, plus the graph for inspection."""
    graph = build_graph(d)
    return graph.is_strongly_connected, graph


def binary_from_partition(d: Domain, graph: BlockednessGraph) -> AggregatorTuple:
    """Binary non-dictatorial aggregator from an edge-free vertex partition.

    The second part is a class of mutually reachable vertices that no edge
    enters from outside, so no edge runs from the rest into it; of those
    classes the first in ``graph.sccs``, the one holding the least vertex,
    is taken. Pairs in the first part project onto their first value,
    pairs in the second onto their second; equal arguments pass through,
    as (j, u, u) is never a vertex.
    """
    if graph.is_strongly_connected:
        raise PartitionUnavailableError(
            "graph is strongly connected, no partition exists"
        )
    class_of = {v: c for c, members in enumerate(graph.sccs) for v in members}
    entered = {class_of[b] for a, b in graph.edges if class_of[a] != class_of[b]}
    second_part = set(next(m for c, m in enumerate(graph.sccs) if c not in entered))
    result = _partition_aggregator(d, second_part)
    verify_witness(d, result, "binary")
    return result


def _partition_aggregator(d: Domain, second_part) -> AggregatorTuple:
    """Pairs in ``second_part`` project onto their second value, all other
    pairs onto their first; closed when no edge enters ``second_part``."""
    return aggregator_from_callable(
        d, 2, lambda j, u, v: v if (j, u, v) in second_part else u
    )


def commutative_from_graph(
    d: Domain, graph: BlockednessGraph, j: int, pair
) -> AggregatorTuple | None:
    """A binary aggregator commutative on ``pair`` at issue j, or None when
    no aggregator restricts there to AND3 or OR3.

    Let s = (j, u, v) and t = (j, v, u). If t does not reach s, let S be the
    vertices t does not reach: an edge entering S from outside would make t
    reach its head, so the partition construction with second part S is
    closed, and maps (u, v) and (v, u) alike to v. Conversely, for a closed
    h let f(x, y) = h(x, y, ..., y) and S_f the vertices (k, x, y) with
    f_k(x, y) = y. No edge a -> b enters S_f: its MIPE, with the flips at
    a's and b's issue restored by feasible rows p and q, would be the
    restriction of the feasible f(q, p). So every class lies inside S_f or
    outside it; when s and t share one, f_j is a projection on the pair,
    which rules out AND3 and OR3, whose f is AND or OR.
    """
    successors = {}
    for a, b in graph.edges:
        successors.setdefault(a, []).append(b)
    u, v = sorted(pair)
    for s, t in (((j, u, v), (j, v, u)), ((j, v, u), (j, u, v))):
        reached, stack = {t}, [t]
        while stack:
            heads = set(successors.get(stack.pop(), ())) - reached
            reached |= heads
            stack.extend(heads)
        if s not in reached:
            return _partition_aggregator(d, set(graph.vertices) - reached)
    return None


def is_multiply_constrained(d: Domain) -> bool:
    """Does any sub-box admit a MIPE with support of size at least 3?

    Scans every sub-box (all non-empty per-issue value subsets), not just
    2-sub-boxes, so the guard is stricter than the graph's.
    """
    require_valid(d)
    m = d.issue_count
    if m < 3:
        return False
    _guard_work(d, lambda k: (1 << k) - 1, "sub-box")
    subset_lists = [
        [c for size in range(1, len(p) + 1) for c in combinations(p, size)]
        for p in d.projections
    ]
    for cells in product(*subset_lists):
        box = SubBox(cells=cells)
        masks = _row_masks(d, box)
        if len(masks) >= 3 and any(_projection_mipes(box, masks, 3)):
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
