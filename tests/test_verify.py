"""verify_witness is the one witness verifier: every search and construction
checks its witness through it once, and it rejects exactly the witnesses a
definition-level judgement rejects."""

from dataclasses import replace

import pytest

from agorad import aggregators, blockedness, search
from agorad.aggregators import aggregator_from_callable
from agorad.blockedness import binary_from_partition, build_graph
from agorad.domain import two_element_subsets
from agorad.errors import VerificationError
from agorad.fixtures import fixture_domain
from agorad.search import (
    FOUND,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)

from helpers import (
    count_calls,
    flip_disagreements,
    found_witnesses,
    naive_is_closed,
    naive_witness_ok,
    searched_binary,
    single_cell_flips,
)

# every fixture small enough for a full flip scan; the full Boolean cubes
# close under every table, so only the per-kind laws can reject their flips
FLIP_FIXTURES = (
    "example2",
    "example3",
    "wxw",
    "y-horn",
    "z-affine",
    "full-boolean-1",
    "full-boolean-2",
    "full-boolean-3",
)


class TestFlipsMatchDefinition:
    @pytest.mark.parametrize("name", FLIP_FIXTURES)
    def test_every_single_cell_flip(self, name):
        d = fixture_domain(name)
        found = found_witnesses(d)
        assert found
        for kind, witness, pin in found:
            assert flip_disagreements(d, witness, kind, pin) == []

    def test_fixtures_cover_every_kind(self):
        found = found_witnesses(fixture_domain("full-boolean-2"))
        kinds = {kind for kind, _, _ in found}
        assert kinds == {"binary", "majority", "minority", "uniform", "component"}


def breaking_flip(d, agg, kind, pin, criterion):
    """The first single-cell flip that escapes the feasible set ("closure"),
    or that stays closed but breaks the kind's law ("law")."""
    for flipped in single_cell_flips(agg):
        if not naive_is_closed(d, flipped)[0]:
            if criterion == "closure":
                return flipped
        elif criterion == "law" and not naive_witness_ok(d, flipped, kind, pin):
            return flipped
    raise AssertionError(f"no {criterion}-breaking flip of the {kind} witness")


# a domain with closure-breaking flips, and a cube where only laws can break
CRITERIA = {"closure": "example3", "law": "full-boolean-2"}

PRODUCERS = {
    "majority": ("majority", find_majority),
    "minority": ("minority", find_minority),
    "uniform": ("uniform", find_uniform),
    "direct binary": ("binary", searched_binary),
    "component": ("component", lambda d: find_component_nonprojection(d, 1, (0, 1))),
    "fold pins": ("component", fold_diamond_cover),
}


# the messages of verify_witness, so no other check can pass these tests
REJECTED = r"witness (is not closed|is dictatorial|restricts to)"


class TestProducersRejectFlippedWitnesses:
    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_table_search_witness(self, monkeypatch, producer, criterion):
        d = fixture_domain(CRITERIA[criterion])
        kind, find = PRODUCERS[producer]
        pins = []
        plan_component = search._plan_component

        def recorded_plan(d, j, pair, op):
            pins.append((j, tuple(pair), op))
            return plan_component(d, j, pair, op)

        read_graph = search.commutative_from_graph

        def recorded_read(d, graph, j, pair):
            pins.append((j, tuple(pair), None))  # the op is read off the lift
            return read_graph(d, graph, j, pair)

        run_table_search = search.run_table_search
        flipped = []

        def flipping_search(*args, **kwargs):
            outcome = run_table_search(*args, **kwargs)
            if outcome.status != FOUND:
                return outcome
            pin = pins[-1] if kind == "component" else None
            flipped.append(breaking_flip(d, outcome.witness, kind, pin, criterion))
            return replace(outcome, witness=flipped[-1])

        lift = search.aggregator_from_callable

        def flipping_lift(*args):
            # the AND3 or OR3 witness lifted from a graph-settled pair
            built = lift(*args)
            j, pair, _ = pins[-1]
            pin = next(
                (j, pair, op)
                for op in ("AND3", "OR3")
                if naive_witness_ok(d, built, "component", (j, pair, op))
            )
            flipped.append(breaking_flip(d, built, kind, pin, criterion))
            return flipped[-1]

        monkeypatch.setattr(search, "_plan_component", recorded_plan)
        monkeypatch.setattr(search, "commutative_from_graph", recorded_read)
        monkeypatch.setattr(search, "run_table_search", flipping_search)
        monkeypatch.setattr(search, "aggregator_from_callable", flipping_lift)
        with pytest.raises(VerificationError, match=REJECTED):
            find(d)
        assert len(flipped) == 1

    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    def test_fold_composite(self, monkeypatch, criterion):
        d = fixture_domain(CRITERIA[criterion])
        issues = range(1, d.issue_count + 1)
        pairs = sum(len(two_element_subsets(d, j)) for j in issues)
        compose = search._cyclic_composition
        composites = []

        def flipping_composition(d, f, g):
            composites.append(compose(d, f, g))
            if len(composites) < pairs - 1:
                return composites[-1]
            return breaking_flip(d, composites[-1], "uniform", None, criterion)

        monkeypatch.setattr(search, "_cyclic_composition", flipping_composition)
        with pytest.raises(VerificationError, match=REJECTED):
            fold_diamond_cover(d)
        assert len(composites) == pairs - 1

    @pytest.mark.parametrize("criterion", sorted(CRITERIA))
    def test_partition_table(self, monkeypatch, criterion):
        d = fixture_domain(CRITERIA[criterion])
        graph = build_graph(d)
        assert not graph.is_strongly_connected

        def flipped_tuple(*args):
            built = aggregator_from_callable(*args)
            return breaking_flip(d, built, "binary", None, criterion)

        monkeypatch.setattr(blockedness, "aggregator_from_callable", flipped_tuple)
        with pytest.raises(VerificationError, match=REJECTED):
            binary_from_partition(d, graph)


VERIFIED = {
    "binary": find_binary_nondictatorial,
    "direct binary": searched_binary,
    "majority": find_majority,
    "minority": find_minority,
    "uniform": find_uniform,
    "component": lambda d: find_component_nonprojection(d, 2, (0, 1)),
    "fold": fold_diamond_cover,
}


class TestVerifiedOnce:
    @pytest.mark.parametrize("name", sorted(VERIFIED))
    def test_returned_witness_verified_once(self, monkeypatch, name):
        d = fixture_domain("full-boolean-2")
        calls = count_calls(monkeypatch, aggregators.verify_witness)
        outcome = VERIFIED[name](d)
        assert outcome.status == FOUND
        assert sum(call[1] is outcome.witness for call in calls) == 1
        assert calls[-1][1] is outcome.witness
        if name == "fold":
            pairs = sum(len(two_element_subsets(d, j)) for j in (1, 2))
            assert len(calls) == pairs + 1
        else:
            assert len(calls) == 1
