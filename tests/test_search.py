import gc
import random
import tracemalloc
import weakref
from itertools import product

import pytest

from agorad import aggregators, search
from agorad.aggregators import (
    FOUR_OPS,
    diamond,
    eval_named,
    is_closed,
    is_dictatorial,
    is_locally_monomorphic,
    is_uniformly_nondictatorial,
    projection_aggregator,
    restriction_class,
    serialize_aggregator,
    verify_witness,
)
from agorad.blockedness import (
    binary_from_partition,
    build_graph,
    commutative_from_graph,
)
from agorad.domain import build_domain, two_element_subsets
from agorad.errors import CapacityError
from agorad.fixtures import fixture_domain
from agorad.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchStats,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)

import oracles
from helpers import (
    FakeClock,
    count_calls,
    naive_witness_ok,
    random_boolean_domain,
    random_domain,
    searched_binary,
)
from oracles import (
    all_binary_aggregators,
    bruteforce_binary,
    bruteforce_ternary_nontrivial,
)


def check_item4(d, agg):
    for j in range(1, d.issue_count + 1):
        comp = agg.component(j)
        for x in d.projection(j):
            for y in d.projection(j):
                a = comp.apply((x, y, y))
                if a != comp.apply((y, x, y)) or a != comp.apply((y, y, x)):
                    return False
    return True


def check_four_ops_everywhere(d, agg):
    return all(
        restriction_class(agg.component(j), pair).tag in FOUR_OPS
        for j in range(1, d.issue_count + 1)
        for pair in two_element_subsets(d, j)
    )


class TestFindBinary:
    """The pair graph decides within its work guard and a binary table
    search past it; ``searched_binary`` forces the search route."""

    def test_w_exhausted(self, w):
        assert find_binary_nondictatorial(w).status == EXHAUSTED

    def test_product_found_and_verified(self, yz_product):
        outcome = find_binary_nondictatorial(yz_product)
        assert outcome.status == FOUND
        assert is_closed(yz_product, outcome.witness).ok
        assert is_dictatorial(yz_product, outcome.witness) is None

    def test_example2_found_both_routes(self, example2):
        graph_route = find_binary_nondictatorial(example2)
        searched = searched_binary(example2)
        assert graph_route.status == FOUND
        assert searched.status == FOUND
        assert is_closed(example2, searched.witness).ok

    def test_route_agreement_on_fixtures(
        self, w, example2, example3, wxw, y_horn, z_affine, yz_product
    ):
        for d in (w, example2, example3, wxw, y_horn, z_affine, yz_product):
            graph_route = find_binary_nondictatorial(d)
            assert graph_route.status == searched_binary(d).status

    def test_graph_route_within_guard(self):
        # the bytes of every answer the graph decided before the search
        # route existed: EXHAUSTED when blocked, else the partition witness
        for name in FIXTURE_NAMES:
            d = fixture_domain(name)
            graph = build_graph(d)
            outcome = find_binary_nondictatorial(d)
            if graph.is_strongly_connected:
                assert outcome.status == EXHAUSTED
            else:
                assert outcome.witness == binary_from_partition(d, graph)

    def test_route_agreement_randomized(self):
        rng = random.Random(31415)
        for _ in range(40):
            d = random_domain(rng)
            assert (
                find_binary_nondictatorial(d).status == searched_binary(d).status
            )


class TestFindMajority:
    def test_example2_found_with_all_verifications(self, example2):
        outcome = find_majority(example2)
        assert outcome.status == FOUND
        witness = outcome.witness
        assert is_closed(example2, witness).ok
        assert is_dictatorial(example2, witness) is None
        assert is_locally_monomorphic(example2, witness)
        for j in range(1, 4):
            for pair in two_element_subsets(example2, j):
                assert restriction_class(witness.component(j), pair).tag == "MAJ"

    def test_full_boolean_product_forced_candidate(self):
        d = fixture_domain("full-boolean-3")
        outcome = find_majority(d)
        assert outcome.status == FOUND
        assert outcome.stats.nodes == 0  # every cell forced by the law

    def test_w_exhausted(self, w):
        assert find_majority(w).status == EXHAUSTED


class TestFindMinority:
    def test_example3_found_with_all_verifications(self, example3):
        outcome = find_minority(example3)
        assert outcome.status == FOUND
        witness = outcome.witness
        assert is_closed(example3, witness).ok
        assert is_dictatorial(example3, witness) is None
        assert is_locally_monomorphic(example3, witness)
        for j in range(1, 4):
            for pair in two_element_subsets(example3, j):
                assert restriction_class(witness.component(j), pair).tag == "XOR3"

    def test_affine_fixture_found(self, z_affine):
        assert find_minority(z_affine).status == FOUND

    def test_w_exhausted(self, w):
        assert find_minority(w).status == EXHAUSTED


class TestFindUniform:
    def test_product_found(self, yz_product):
        outcome = find_uniform(yz_product)
        assert outcome.status == FOUND
        assert check_item4(yz_product, outcome.witness)
        assert check_four_ops_everywhere(yz_product, outcome.witness)
        assert is_uniformly_nondictatorial(yz_product, outcome.witness).ok

    def test_wxw_exhausted(self, wxw):
        assert find_uniform(wxw).status == EXHAUSTED

    def test_example3_found(self, example3):
        outcome = find_uniform(example3)
        assert outcome.status == FOUND
        assert check_item4(example3, outcome.witness)

    def test_full_product_found(self):
        d = fixture_domain("full-boolean-2")
        assert find_uniform(d).status == FOUND


class TestFindComponent:
    def test_yz_y_side(self, yz_product):
        outcome = find_component_nonprojection(yz_product, 1, (0, 1))
        assert outcome.status == FOUND
        tag = restriction_class(outcome.witness.component(1), (0, 1)).tag
        assert tag in FOUR_OPS
        assert is_closed(yz_product, outcome.witness).ok

    def test_yz_z_side(self, yz_product):
        outcome = find_component_nonprojection(yz_product, 4, (0, 1))
        assert outcome.status == FOUND
        tag = restriction_class(outcome.witness.component(4), (0, 1)).tag
        assert tag in FOUR_OPS

    def test_wxw_exhausted_everywhere(self, wxw):
        assert find_component_nonprojection(wxw, 1, (0, 1)).status == EXHAUSTED

    def test_bad_pair_rejected(self, w):
        with pytest.raises(ValueError):
            find_component_nonprojection(w, 1, (0, 0))
        with pytest.raises(ValueError):
            find_component_nonprojection(w, 1, (0, 7))


class TestFoldDiamondCover:
    def test_product_composite_verified(self, yz_product):
        outcome = fold_diamond_cover(yz_product)
        assert outcome.status == FOUND
        assert is_uniformly_nondictatorial(yz_product, outcome.witness).ok
        assert check_four_ops_everywhere(yz_product, outcome.witness)

    def test_minority_domain(self, example3):
        outcome = fold_diamond_cover(example3)
        assert outcome.status == FOUND
        assert check_four_ops_everywhere(example3, outcome.witness)

    def test_w_exhausted(self, w):
        assert fold_diamond_cover(w).status == EXHAUSTED

    def test_closure_checked_once_per_witness_plus_composite(
        self, yz_product, monkeypatch
    ):
        calls = count_calls(monkeypatch, aggregators.is_closed)
        outcome = fold_diamond_cover(yz_product)
        assert outcome.status == FOUND
        witnesses = sum(
            len(two_element_subsets(yz_product, j))
            for j in range(1, yz_product.issue_count + 1)
        )
        assert len(calls) <= witnesses + 1
        assert calls[-1][1] is outcome.witness

    def test_composite_equals_public_diamond_fold(self, yz_product):
        witnesses = [
            find_component_nonprojection(yz_product, j, pair).witness
            for j in range(1, yz_product.issue_count + 1)
            for pair in two_element_subsets(yz_product, j)
        ]
        expected = witnesses[0]
        for nxt in witnesses[1:]:
            expected = diamond(yz_product, expected, nxt)
        assert fold_diamond_cover(yz_product).witness == expected


class TestBruteForceOracles:
    def test_w_binary_and_ternary_exhausted(self, w):
        assert bruteforce_binary(w).status == EXHAUSTED
        assert bruteforce_ternary_nontrivial(w).status == EXHAUSTED

    def test_wxw_aggregators_have_product_projection_form(self, wxw):
        aggs = all_binary_aggregators(wxw)
        assert len(aggs) == 4
        for agg in aggs:
            first = {is_dictatorial_on_block(agg, j) for j in (1, 2, 3)}
            second = {is_dictatorial_on_block(agg, j) for j in (4, 5, 6)}
            assert len(first) == 1 and len(second) == 1
            assert first <= {1, 2} and second <= {1, 2}

    def test_ternary_capacity_guard(self, wxw):
        with pytest.raises(CapacityError):
            bruteforce_ternary_nontrivial(wxw)

    def test_found_witnesses_replayed_by_oracle(self, example2, example3):
        for d in (example2, example3):
            assert bruteforce_binary(d).status == FOUND

    def test_oracle_reads_the_clock_every_2048_candidates(self, monkeypatch, w):
        # none of w's 262 144 ternary candidates is closed and non-trivial;
        # the deadline passes at the clock's second reading in the scan
        monkeypatch.setattr(oracles, "time", FakeClock(0.0, 0.5, 10.0))
        outcome = bruteforce_ternary_nontrivial(w, SearchBudget(max_millis=1000))
        assert outcome.status == BUDGET_EXCEEDED
        assert outcome.stats.nodes == 4095

    def test_listing_out_of_time_raises(self, monkeypatch, wxw):
        # 4 096 binary candidates: the scan stops at the first reading
        monkeypatch.setattr(oracles, "time", FakeClock(0.0, 10.0))
        with pytest.raises(CapacityError, match="out of time"):
            all_binary_aggregators(wxw, SearchBudget(max_millis=1000))


def is_dictatorial_on_block(agg, j):
    comp = agg.component(j)
    if comp.table == (0, 0, 1, 1):
        return 1
    if comp.table == (0, 1, 0, 1):
        return 2
    return None


class TestTernaryOracleMatchesDisjunction:
    def test_randomized_equivalence(self):
        rng = random.Random(271828)
        for _ in range(40):
            d = random_boolean_domain(rng)
            disjunction = (
                find_binary_nondictatorial(d).status == FOUND
                or find_majority(d).status == FOUND
                or find_minority(d).status == FOUND
            )
            oracle = bruteforce_ternary_nontrivial(d).status == FOUND
            assert disjunction == oracle


class TestUniformRouteAgreement:
    def test_fixture_statuses(
        self, w, example2, example3, wxw, y_horn, z_affine, yz_product
    ):
        for d in (w, example2, example3, wxw, y_horn, z_affine, yz_product):
            assert find_uniform(d).status == fold_diamond_cover(d).status

    def test_randomized_statuses(self):
        rng = random.Random(161803)
        for _ in range(25):
            d = random_domain(rng)
            u = find_uniform(d)
            f = fold_diamond_cover(d)
            assert u.status == f.status
            if u.status == FOUND:
                assert check_item4(d, u.witness)
                assert check_item4(d, f.witness)
                assert check_four_ops_everywhere(d, u.witness)
                assert check_four_ops_everywhere(d, f.witness)


class TestUniformSurvivesProducts:
    def test_product_of_uniform_fixtures(self, y_horn, z_affine, yz_product):
        assert find_uniform(y_horn).status == FOUND
        assert find_uniform(z_affine).status == FOUND
        assert find_uniform(yz_product).status == FOUND


class TestBudgets:
    def test_tiny_node_budget_yields_budget_exceeded(self, yz_product):
        budget = SearchBudget(max_nodes=1, max_millis=30_000)
        assert find_uniform(yz_product, budget).status == BUDGET_EXCEEDED

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)

    def test_table_build_and_propagation_honour_time_budget(self):
        # 0 search nodes: all the time goes into setting the search up
        d = fixture_domain("full-boolean-5")
        assert not d._selection_tables
        outcome = find_majority(d, SearchBudget(max_millis=1))
        assert outcome.status == BUDGET_EXCEEDED
        assert outcome.stats.nodes == 0

    def test_preassignment_reads_the_clock(self, monkeypatch):
        # the majority law forces every cell of a Boolean domain, so the
        # whole search is the preassignment; the deadline passes at the
        # third reading of the clock
        d = fixture_domain("full-boolean-4")
        monkeypatch.setattr(search, "time", FakeClock(0.0, 0.0, 10.0))
        outcome = find_majority(d, SearchBudget(max_millis=1000))
        assert outcome.status == BUDGET_EXCEEDED
        assert outcome.stats.nodes == 0

    def test_component_search_has_one_deadline(self, monkeypatch, w):
        # the graph leaves every pair of w in one class, so the MAJ and then
        # the XOR3 pin are searched, and both exhaust; when each pin search
        # takes 1 s of the call's 1 s the XOR3 pin finds no time left, when
        # each takes 0.4 s the XOR3 pin gets the remaining 0.6 s
        real = search.run_table_search
        for seconds, millis, status in (
            (1.0, [1000], BUDGET_EXCEEDED),
            (0.4, [1000, 600], EXHAUSTED),
        ):
            clock = FakeClock()
            monkeypatch.setattr(search, "time", clock)
            seen = []

            def timed(*args, budget, **kwargs):
                seen.append(budget.max_millis)
                outcome = real(*args, budget=budget, **kwargs)
                clock.now += seconds
                return outcome

            monkeypatch.setattr(search, "run_table_search", timed)
            budget = SearchBudget(max_millis=1000)
            outcome = find_component_nonprojection(w, 1, (0, 1), budget)
            assert outcome.status == status
            assert seen == millis

    def test_table_build_capacity_guard(self):
        rows = list(product("01", repeat=7))[:65]
        d = build_domain([("0", "1")] * 7, rows, allow_large=True)
        with pytest.raises(CapacityError, match="table-build guard"):
            find_majority(d)
        assert searched_binary(d).status == FOUND


FIXTURE_NAMES = (
    "w", "example2", "example3", "wxw", "y-horn", "z-affine", "yz-product"
) + tuple(f"full-boolean-{m}" for m in range(1, 7))

# (arity, the planner's law, the law stated here on argument tuples)
LAWS = {
    "majority": (
        3,
        search._majority_law,
        lambda args: next((v for v in args if args.count(v) >= 2), None),
    ),
    "minority": (
        3,
        search._minority_law,
        lambda args: next((v for v in args if args.count(v) % 2), None)
        if len(set(args)) < 3
        else None,
    ),
    "free binary": (
        2,
        search._free_law,
        lambda args: args[0] if len(set(args)) == 1 else None,
    ),
}


def planned_cells(d, arity, plan):
    """Each planned cell with its decoded arguments; every cell exactly once.

    Yields ('forced', jj, args, value) per preassigned cell and ('choice',
    jj, [args per tied cell], choices) per variable.
    """
    preassigned, variables = plan
    tables = projection_aggregator(d, arity, 1).components
    seen = []
    for jj, idx, value in preassigned:
        seen.append((jj, idx))
        yield "forced", jj, tables[jj].cell_args(idx), value
    for var in variables:
        seen.extend(var.cells)
        jj = var.cells[0][0]
        assert all(cell[0] == jj for cell in var.cells)
        args = [tables[jj].cell_args(idx) for _, idx in var.cells]
        yield "choice", jj, args, var.choices
    assert sorted(seen) == [
        (jj, idx) for jj, table in enumerate(tables) for idx in range(len(table.table))
    ]


def assert_strictly_increasing(keys):
    assert all(a < b for a, b in zip(keys, keys[1:]))


class TestPlanLayout:
    """Plans decoded with OperationTable.cell_args match their laws, and
    list their variables in the order the search tries them."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_law_plans(self, name, law_name):
        d = fixture_domain(name)
        arity, engine_law, law = LAWS[law_name]
        plan = search._plan_by_law(d, arity, engine_law)
        for kind, _, args, value in planned_cells(d, arity, plan):
            if kind == "forced":
                assert value == law(args) is not None
            else:
                (cell_args,) = args
                assert law(cell_args) is None
                assert value == tuple(dict.fromkeys(cell_args))
        assert_strictly_increasing([var.cells[0] for var in plan[1]])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_uniform_plan(self, name):
        d = fixture_domain(name)
        plan = search._plan_by_law(d, 3, search._free_law, tie=True)
        for kind, _, args, value in planned_cells(d, 3, plan):
            if kind == "forced":
                assert len(set(args)) == 1 and value == args[0]
            elif len(args) == 1:
                assert len(set(args[0])) == 3 and value == args[0]
            else:
                first = args[0]
                solo = next(v for v in first if first.count(v) == 1)
                dup = next(v for v in first if first.count(v) == 2)
                assert sorted(args) == sorted(
                    {(solo, dup, dup), (dup, solo, dup), (dup, dup, solo)}
                )
                assert value == (min(solo, dup), max(solo, dup))
        for var in plan[1]:
            assert_strictly_increasing(var.cells)
        assert_strictly_increasing([var.cells[0] for var in plan[1]])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_component_plans(self, name):
        d = fixture_domain(name)
        free = LAWS["free binary"][2]
        for j in range(1, d.issue_count + 1):
            for pair in two_element_subsets(d, j):
                for op in search._PIN_ORDER:
                    plan = search._plan_component(d, j, pair, op)
                    pinned = 0
                    for kind, jj, args, value in planned_cells(d, 3, plan):
                        if kind == "choice":
                            (cell_args,) = args
                            assert not (jj == j - 1 and set(cell_args) <= set(pair))
                            assert free(cell_args) is None
                            assert value == tuple(dict.fromkeys(cell_args))
                        elif jj == j - 1 and set(args) <= set(pair):
                            pinned += 1
                            assert value == eval_named(op.lower(), pair, *args)
                        else:
                            assert value == free(args) is not None
                    assert pinned == 8
                    firsts = [var.cells[0] for var in plan[1]]
                    assert_strictly_increasing(
                        [(abs(jj - (j - 1)), (jj, idx)) for jj, idx in firsts]
                    )


class TestComponentRerunPass:
    """Node budgets of the component search, on pairs the graph settles and
    on pairs it leaves to the MAJ and XOR3 pin searches (the z-affine side
    of yz-product, and w)."""

    @staticmethod
    def cases(*domains):
        return [
            (d, j, pair)
            for d in domains
            for j in range(1, d.issue_count + 1)
            for pair in two_element_subsets(d, j)
        ]

    def test_reported_nodes_within_budget(self, yz_product, example3, w):
        for case in self.cases(yz_product, example3, w):
            for max_nodes in (1, 2, 7):
                budget = SearchBudget(max_nodes=max_nodes)
                outcome = find_component_nonprojection(*case, budget)
                assert outcome.stats.nodes <= max_nodes


@pytest.fixture(scope="module")
def pair_queries():
    """(domain, graph, issue, pair, the values to which some closed binary
    tuple maps both (u, v) and (v, u)) for every (issue, pair) of the small
    fixtures and 150 seeded draws."""
    rng = random.Random(11)
    names = FIXTURE_NAMES[:10]  # up to full-boolean-3
    domains = [fixture_domain(n) for n in names]
    domains += [random_domain(rng) for _ in range(150)]
    queries = []
    for d in domains:
        graph = build_graph(d)
        aggs = all_binary_aggregators(d)
        for j in range(1, d.issue_count + 1):
            for u, v in two_element_subsets(d, j):
                meets = {
                    agg.component(j).apply((u, v))
                    for agg in aggs
                    if agg.component(j).apply((u, v)) == agg.component(j).apply((v, u))
                }
                queries.append((d, graph, j, (u, v), meets))
    return queries


class TestComponentPinsFromGraph:
    """The AND3 and OR3 pins read off the classes of the pair graph, against
    the binary oracle, the definition-level check and the ternary pin
    searches the graph read replaced."""

    def test_class_criterion_matches_binary_oracle(self, pair_queries):
        for d, graph, j, (u, v), meets in pair_queries:
            class_of = {x: c for c, members in enumerate(graph.sccs) for x in members}
            split = class_of[j, u, v] != class_of[j, v, u]
            assert split == bool(meets)
            assert (commutative_from_graph(d, graph, j, (u, v)) is not None) == split

    def test_lifted_witnesses_pass_definition_check(self, pair_queries):
        lifted = 0
        for d, graph, j, pair, meets in pair_queries:
            if not meets:
                continue
            outcome = search._component(d, graph, j, pair, SearchBudget())
            assert outcome.status == FOUND
            assert outcome.stats == SearchStats()
            assert any(
                naive_witness_ok(d, outcome.witness, "component", (j, pair, tag))
                for tag in ("AND3", "OR3")
            )
            lifted += 1
        assert lifted > 400

    def test_ternary_pins_agree_where_they_decide(self, pair_queries):
        # AND3 on (u, v), u < v, reduces to a binary tuple mapping both
        # orders to u, OR3 to one mapping both to v
        decided = 0
        for d, _, j, (u, v), meets in pair_queries:
            for tag, meet in (("AND3", u), ("OR3", v)):
                outcome = search.run_table_search(
                    d,
                    3,
                    *search._plan_component(d, j, (u, v), tag),
                    budget=SearchBudget(max_nodes=2000),
                    order_by_tightness=True,
                )
                if outcome.status != BUDGET_EXCEEDED:
                    decided += 1
                    assert (outcome.status == FOUND) == (meet in meets)
        assert decided > 1000


class TestDeterminism:
    def test_repeated_searches_identical(self, example2, yz_product):
        for d, run in (
            (example2, find_majority),
            (yz_product, find_uniform),
            (yz_product, fold_diamond_cover),
        ):
            first = run(d)
            second = run(d)
            assert first.status == second.status
            assert serialize_aggregator(d, first.witness) == serialize_aggregator(
                d, second.witness
            )


class _Table(list):
    """A selection table held in a list, which takes weak references."""


class TestSelectionTableLifetime:
    def test_built_once_per_domain_and_freed_with_it(self, monkeypatch):
        # tuples take no weak references, so each built table is wrapped
        build = aggregators._build_selection_table
        monkeypatch.setattr(
            aggregators,
            "_build_selection_table",
            lambda d, arity: _Table(build(d, arity)),
        )
        builds = count_calls(monkeypatch, aggregators._build_selection_table)
        d = fixture_domain("example2")
        outcome = find_uniform(d)
        assert outcome.status == FOUND
        verify_witness(d, outcome.witness, "uniform")
        assert [arity for _, arity in builds] == [3]
        table = weakref.ref(d._selection_tables[3])
        builds.clear()  # the recorded arguments hold the domain
        del d
        gc.collect()
        assert table() is None

    def test_majority_peak_memory(self):
        # all of this search is the table build and the root propagation
        d = fixture_domain("full-boolean-5")
        tracemalloc.start()
        try:
            outcome = find_majority(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome.status == FOUND
        assert outcome.stats.nodes == 0
        assert peak < 10_000_000


# (status, nodes, prunes) of find_majority, find_minority, find_uniform and
# find_component_nonprojection on issue 1 and its first pair; a change to
# the search order or to propagation moves them
PINNED_STATS = {
    "w": [(EXHAUSTED, 0, 1), (EXHAUSTED, 0, 1), (EXHAUSTED, 2, 2), (EXHAUSTED, 0, 2)],
    "example2": [(FOUND, 18, 0), (EXHAUSTED, 0, 1), (FOUND, 57, 2), (FOUND, 0, 0)],
    "example3": [(FOUND, 8, 2), (FOUND, 6, 0), (FOUND, 16, 0), (FOUND, 0, 0)],
    "y-horn": [(EXHAUSTED, 0, 1), (EXHAUSTED, 0, 1), (FOUND, 6, 0), (FOUND, 0, 0)],
    "z-affine": [(EXHAUSTED, 0, 1), (FOUND, 0, 0), (FOUND, 7, 1), (FOUND, 12, 1)],
    "wxw": [(EXHAUSTED, 0, 1), (EXHAUSTED, 0, 1), (EXHAUSTED, 2, 2), (EXHAUSTED, 0, 2)],
    "yz-product": [
        (EXHAUSTED, 0, 1), (EXHAUSTED, 0, 1), (FOUND, 13, 1), (FOUND, 0, 0)
    ],
    "full-boolean-1": [(FOUND, 0, 0), (FOUND, 0, 0), (FOUND, 2, 0), (FOUND, 0, 0)],
    "full-boolean-2": [(FOUND, 0, 0), (FOUND, 0, 0), (FOUND, 4, 0), (FOUND, 0, 0)],
    "full-boolean-3": [(FOUND, 0, 0), (FOUND, 0, 0), (FOUND, 6, 0), (FOUND, 0, 0)],
    "full-boolean-4": [(FOUND, 0, 0), (FOUND, 0, 0), (FOUND, 8, 0), (FOUND, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_search_stats_pinned(name):
    d = fixture_domain(name)
    outcomes = [run(d) for run in (find_majority, find_minority, find_uniform)]
    outcomes.append(find_component_nonprojection(d, 1, two_element_subsets(d, 1)[0]))
    assert [(o.status, o.stats) for o in outcomes] == [
        (status, SearchStats(nodes, prunes))
        for status, nodes, prunes in PINNED_STATS[name]
    ]
