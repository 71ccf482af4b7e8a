import random
import warnings
from itertools import product
from math import prod

import pytest

from agorad.aggregators import is_closed, is_dictatorial, serialize_aggregator
from agorad.blockedness import (
    EmptyBoxWarning,
    SubBox,
    binary_from_partition,
    build_graph,
    enumerate_mipes,
    feasible_in_box,
    _projection_mipes,
    _row_masks,
    graph_to_dot,
    is_multiply_constrained,
    is_totally_blocked,
)
from agorad.domain import build_domain, two_element_subsets, validate
from agorad.errors import PartitionUnavailableError
from agorad.fixtures import fixture_domain
from agorad.search import EXHAUSTED

from helpers import (
    definition_graph,
    naive_mipes,
    naive_multiply_constrained,
    naive_partition_binary,
    random_boolean_domain,
    random_domain,
    source_classes,
    sub_boxes,
)
from oracles import all_binary_aggregators, bruteforce_binary

FULL_W_BOX = SubBox(cells=((0, 1), (0, 1), (0, 1)))


class TestFeasibleInBox:
    def test_single_pin_extends(self, w):
        assert feasible_in_box(w, FULL_W_BOX, (1,), (1,))

    def test_two_ones_infeasible(self, w):
        assert not feasible_in_box(w, FULL_W_BOX, (1, 2), (1, 1))

    def test_empty_support_iff_box_intersects(self, w):
        assert feasible_in_box(w, FULL_W_BOX, (), ())

    def test_assignment_outside_box_rejected(self, w):
        box = SubBox(cells=((0,), (0, 1), (0, 1)))
        with pytest.raises(ValueError):
            feasible_in_box(w, box, (1,), (1,))

    def test_cell_repeating_a_value_rejected(self, w):
        box = SubBox(cells=((0, 0), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="repeats a value"):
            feasible_in_box(w, box, (1,), (0,))


class TestEnumerateMipes:
    def test_w_double_one_is_minimal_infeasible(self, w):
        mipes = enumerate_mipes(w, FULL_W_BOX)
        keyed = {(m.support, m.assignment) for m in mipes}
        assert ((1, 2), (1, 1)) in keyed
        assert ((1, 2, 3), (0, 0, 0)) in keyed
        # one-sided pins are all feasible, never minimal-infeasible
        assert not any(len(m.support) == 1 for m in mipes)

    def test_full_product_has_none(self):
        d = build_domain(
            [("0", "1"), ("0", "1")],
            [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
        )
        assert enumerate_mipes(d, SubBox(cells=((0, 1), (0, 1)))) == []

    def test_invariants_hold_for_every_mipe(self, w, example2, example3):
        for d in (w, example2, example3):
            graph = build_graph(d)
            for (src, dst), mipe in zip(graph.edges, graph.witnesses):
                support = mipe.support
                assignment = mipe.assignment
                # infeasible within the box
                assert not feasible_in_box(d, mipe.box, support, assignment)
                # minimal: every coordinate flips to a feasible evaluation
                for i, j in enumerate(support):
                    cell = mipe.box.cells[j - 1]
                    alternatives = [b for b in cell if b != assignment[i]]
                    assert any(
                        feasible_in_box(
                            d,
                            mipe.box,
                            support,
                            assignment[:i] + (b,) + assignment[i + 1 :],
                        )
                        for b in alternatives
                    )

    def test_empty_box_warns_and_yields_nothing(self):
        # diagonal pattern: the box ({a,b},{y,z},{p,r}) misses every row
        d = build_domain(
            [("a", "b", "c"), ("x", "y", "z"), ("p", "q", "r")],
            [("a", "x", "p"), ("b", "y", "q"), ("c", "z", "r")],
        )
        box = SubBox(cells=((0, 1), (1, 2), (0, 2)))
        with pytest.warns(EmptyBoxWarning):
            assert enumerate_mipes(d, box) == []

    def test_rejects_non_two_box(self, w):
        with pytest.raises(ValueError):
            enumerate_mipes(w, SubBox(cells=((0,), (0, 1), (0, 1))))

    def test_rejects_cell_repeating_a_value(self, w):
        # two entries, but one value: not a 2-sub-box
        with pytest.raises(ValueError, match="repeats a value"):
            enumerate_mipes(w, SubBox(cells=((0, 0), (0, 1), (0, 1))))


class TestBuildGraph:
    def test_w_graph_shape(self, w):
        graph = build_graph(w)
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 12
        assert graph.is_strongly_connected

    def test_vertex_count_formula(self, w, example2, example3, yz_product):
        for d in (w, example2, example3, yz_product):
            graph = build_graph(d)
            expected = sum(
                len(p) * (len(p) - 1) for p in d.projections
            )
            assert len(graph.vertices) == expected

    def test_product_has_no_cross_edges(self, yz_product):
        graph = build_graph(yz_product)
        for (sj, _, _), (tj, _, _) in graph.edges:
            assert (sj <= 3) == (tj <= 3)
        assert not graph.is_strongly_connected

    def test_single_issue_domain_edgeless(self):
        d = build_domain([("a", "b", "c")], [("a",), ("b",), ("c",)])
        graph = build_graph(d)
        assert graph.edges == ()
        assert len(graph.vertices) == 6
        assert not graph.is_strongly_connected


class TestTotallyBlocked:
    def test_w_blocked(self, w):
        blocked, _ = is_totally_blocked(w)
        assert blocked

    def test_example2_not_blocked(self, example2):
        blocked, _ = is_totally_blocked(example2)
        assert not blocked

    def test_product_not_blocked(self, yz_product):
        blocked, _ = is_totally_blocked(yz_product)
        assert not blocked


class TestBinaryFromPartition:
    def test_product_witness_verifies(self, yz_product):
        _, graph = is_totally_blocked(yz_product)
        witness = binary_from_partition(yz_product, graph)
        assert is_closed(yz_product, witness).ok
        assert is_dictatorial(yz_product, witness) is None

    def test_two_tuple_domain(self):
        d = build_domain([("0", "1"), ("0", "1")], [("0", "0"), ("1", "1")])
        blocked, graph = is_totally_blocked(d)
        assert not blocked
        witness = binary_from_partition(d, graph)
        assert is_closed(d, witness).ok
        assert is_dictatorial(d, witness) is None

    def test_blocked_domain_rejected(self, w):
        _, graph = is_totally_blocked(w)
        with pytest.raises(PartitionUnavailableError):
            binary_from_partition(w, graph)


def assert_partition_matches_definition(d):
    graph = build_graph(d)
    assert not graph.is_strongly_connected
    assert serialize_aggregator(d, binary_from_partition(d, graph)) == (
        serialize_aggregator(d, naive_partition_binary(d))
    )


class TestPartitionSourceClass:
    """Of the classes no edge enters, ``binary_from_partition`` projects the
    one with the least vertex onto second arguments."""

    @pytest.mark.parametrize(
        "name, sources",
        [("example2", 2), ("example3", 4), ("wxw", 2), ("y-horn", 3), ("yz-product", 4)]
        + [(f"full-boolean-{m}", 2 * m) for m in range(1, 6)],
    )
    def test_unblocked_fixtures(self, name, sources):
        d = fixture_domain(name)
        assert len(source_classes(d)) == sources
        assert_partition_matches_definition(d)

    def test_random_domains(self):
        rng = random.Random(4407)
        checked = 0
        while checked < 30:
            d = random_domain(rng, max_issues=4, max_alphabet=3, max_rows=16)
            if not build_graph(d).is_strongly_connected:
                assert_partition_matches_definition(d)
                checked += 1


class TestMultiplyConstrained:
    def test_w_multiply_constrained(self, w):
        assert is_multiply_constrained(w)

    def test_full_product_is_not(self):
        d = build_domain(
            [("0", "1")] * 3,
            [tuple(f"{b}" for b in (i % 2, (i // 2) % 2, i // 4)) for i in range(8)],
        )
        assert not is_multiply_constrained(d)

    def test_example3_matches_definition_scan(self, example3):
        assert is_multiply_constrained(example3) == naive_multiply_constrained(
            example3
        )

    def test_random_domains_match_definition_scan(self):
        rng = random.Random(20250808)
        for _ in range(25):
            d = random_domain(rng, max_rows=8)
            assert is_multiply_constrained(d) == naive_multiply_constrained(d)


class TestClaimEdgeImplication:
    def test_every_edge_constrains_every_binary_aggregator(
        self, w, example2, example3
    ):
        # along any edge (u,u')_k -> (v,v')_l, an aggregator choosing the
        # first value at the source must choose the first at the target
        for d in (w, example2, example3):
            graph = build_graph(d)
            aggs = all_binary_aggregators(d)
            for (k, u, u2), (l, v, v2) in graph.edges:
                for agg in aggs:
                    if agg.component(k).apply((u, u2)) == u:
                        assert agg.component(l).apply((v, v2)) == v


class TestBlockedIffNoBinaryWitness:
    def test_fixtures(self, w, example2, example3, wxw, y_horn, z_affine, yz_product):
        for d in (w, example2, example3, wxw, y_horn, z_affine, yz_product):
            blocked, _ = is_totally_blocked(d)
            assert blocked == (bruteforce_binary(d).status == EXHAUSTED)

    def test_small_random_domains(self):
        rng = random.Random(999)
        for _ in range(40):
            d = random_domain(rng)
            blocked, _ = is_totally_blocked(d)
            assert blocked == (bruteforce_binary(d).status == EXHAUSTED)


class TestDot:
    def test_w_dot_stable(self, w):
        graph = build_graph(w)
        dot = graph_to_dot(w, graph)
        assert dot == graph_to_dot(w, build_graph(w))
        assert dot.startswith("digraph blockedness {")
        assert '"1:01" -> "2:10" [witness="K=1,2,3;x=0,0,0"];' in dot
        assert '"1:10" -> "2:01" [witness="K=1,2;x=1,1"];' in dot


def assert_graph_matches_definition(d):
    vertices, edges, witnesses, sccs, empty = definition_graph(d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EmptyBoxWarning)
        graph = build_graph(d)
    assert graph.vertices == vertices
    assert graph.edges == edges
    assert [(w.box, w.support, w.assignment) for w in graph.witnesses] == [
        (w.box, w.support, w.assignment) for w in witnesses
    ]
    assert graph.sccs == sccs
    messages = [str(w.message) for w in caught if w.category is EmptyBoxWarning]
    assert messages == (
        [f"{empty} 2-sub-box(es) contain no feasible row"] if empty else []
    )


class TestGraphMatchesDefinition:
    @pytest.mark.parametrize(
        "name",
        ["w", "example2", "example3", "wxw", "y-horn", "z-affine", "yz-product"]
        + [f"full-boolean-{m}" for m in range(1, 6)],
    )
    def test_fixtures(self, name):
        assert_graph_matches_definition(fixture_domain(name))

    def test_random_boolean_domains(self):
        rng = random.Random(4401)
        for _ in range(25):
            assert_graph_matches_definition(random_boolean_domain(rng, max_issues=5))

    def test_random_general_domains(self):
        rng = random.Random(4402)
        for _ in range(25):
            assert_graph_matches_definition(
                random_domain(rng, max_issues=3, max_alphabet=4, max_rows=12)
            )

    def test_random_four_issue_domains(self):
        rng = random.Random(4403)
        checked = 0
        while checked < 12:
            d = random_domain(rng, max_issues=4, max_alphabet=3, max_rows=20)
            if d.issue_count == 4:
                assert_graph_matches_definition(d)
                checked += 1

    def test_empty_boxes_counted_in_one_warning(self):
        # diagonal pattern: most boxes miss every row
        d = build_domain(
            [("a", "b", "c"), ("x", "y", "z"), ("p", "q", "r")],
            [("a", "x", "p"), ("b", "y", "q"), ("c", "z", "r")],
        )
        assert definition_graph(d)[4] > 0
        assert_graph_matches_definition(d)


FIXTURES = ["w", "example2", "example3", "wxw", "y-horn", "z-affine", "yz-product"] + [
    f"full-boolean-{m}" for m in range(1, 6)
]


class TestSharedEnumeratorMatchesDefinition:
    """One enumerator serves the graph, ``enumerate_mipes`` and the
    multiply-constrained scan; each is pinned to the definition-level
    ``naive_mipes``."""

    def test_enumerate_mipes_on_every_two_box(self):
        rng = random.Random(4404)
        domains = [fixture_domain(name) for name in FIXTURES] + [
            random_domain(rng, max_issues=4, max_alphabet=3, max_rows=16)
            for _ in range(12)
        ]
        for d in domains:
            for cells in product(
                *(two_element_subsets(d, j) for j in range(1, d.issue_count + 1))
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EmptyBoxWarning)
                    got = enumerate_mipes(d, SubBox(cells=cells))
                assert got == list(naive_mipes(d, cells, 1)), cells

    def test_every_sub_box_with_cells_of_one_to_four_values(self):
        # fields of one and two bits, a cell of three values leaving one
        # field pattern unused, and singleton cells
        rng = random.Random(4405)
        checked = 0
        while checked < 4:
            d = random_domain(rng, max_issues=4, max_alphabet=4, max_rows=16)
            sizes = [len(p) for p in d.projections]
            boxes = prod((1 << k) - 1 for k in sizes)
            if d.issue_count < 3 or 4 not in sizes or boxes > 1000:
                continue
            for cells in sub_boxes(d):
                box = SubBox(cells=cells)
                masks = _row_masks(d, box)
                got = list(_projection_mipes(box, masks, 1)) if masks else []
                assert got == list(naive_mipes(d, cells, 1)), cells
            checked += 1

    def test_multiply_constrained_on_the_diagnostics_shape(self):
        # 4 issues, 3 tokens, 16-24 rows: random draws are multiply
        # constrained, products of two 2-issue factors are not
        rng = random.Random(4406)
        abc = ("a", "b", "c")
        pairs = list(product(abc, abc))
        domains = []
        while len(domains) < 6:
            if len(domains) < 3:
                rows = rng.sample(list(product(abc, repeat=4)), rng.randint(16, 24))
            else:
                first, second = (rng.sample(pairs, rng.randint(4, 5)) for _ in range(2))
                rows = [x + y for x in first for y in second]
            d = build_domain([abc] * 4, rows)
            if validate(d).ok and len(d.feasible) <= 24:
                domains.append(d)
        verdicts = [is_multiply_constrained(d) for d in domains]
        assert verdicts == [naive_multiply_constrained(d) for d in domains]
        assert verdicts == [True] * 3 + [False] * 3
