import random

import pytest

from agorad import search
from agorad.classify import (
    NP_COMPLETE,
    TRACTABLE,
    AnalysisOptions,
    analyze,
    boolean_classification,
    classify_mcsp,
    is_possibility_domain,
    is_upd,
    serialize_report,
)
from agorad.fixtures import fixture_domain
from agorad.errors import CapacityError
from agorad.search import FOUND, SearchBudget, find_uniform, fold_diamond_cover

from helpers import random_boolean_domain, random_domain
from oracles import bruteforce_ternary_nontrivial


class TestPossibility:
    def test_w_impossible(self, w):
        decision = is_possibility_domain(w)
        assert decision.status == "no"
        assert decision.witness is None
        assert [status for _, status in decision.outcomes] == [
            "EXHAUSTED",
            "EXHAUSTED",
            "EXHAUSTED",
        ]

    def test_wxw_possible_via_binary(self, wxw):
        decision = is_possibility_domain(wxw)
        assert decision.status == "yes"
        assert decision.witness_kind == "binary"

    def test_example3_possible(self, example3):
        assert is_possibility_domain(example3).status == "yes"

    def test_z_affine_minority_kind(self, z_affine):
        # totally blocked but affine: the only witness kind left is minority
        decision = is_possibility_domain(z_affine)
        assert decision.status == "yes"
        assert decision.witness_kind == "minority"


class TestBooleanClassification:
    def test_y_horn_flags(self, y_horn):
        flags = boolean_classification(y_horn)
        assert not flags.affine and not flags.bijunctive
        assert flags.possibility == "yes"  # Horn closure gives a binary witness

    def test_z_affine_flags(self, z_affine):
        flags = boolean_classification(z_affine)
        assert flags.affine and not flags.bijunctive
        assert flags.possibility == "yes"

    def test_w_flags(self, w):
        flags = boolean_classification(w)
        assert not flags.affine and not flags.bijunctive
        assert flags.possibility == "no"

    def test_search_route_out_of_budget(self, monkeypatch, y_horn, z_affine):
        # past the graph's work guard the binary question is searched, and a
        # search out of budget leaves a non-affine domain unknown, never no
        def refuse(d):
            raise CapacityError("graph refused")

        monkeypatch.setattr(search, "build_graph", refuse)
        starved = SearchBudget(max_nodes=1)
        assert boolean_classification(y_horn, starved).possibility == "unknown"
        assert boolean_classification(z_affine, starved).possibility == "yes"
        assert boolean_classification(y_horn).possibility == "yes"

    def test_non_boolean_rejected(self, example2):
        with pytest.raises(ValueError):
            boolean_classification(example2)

    def test_dichotomy_agrees_with_searches(self):
        rng = random.Random(5551212)
        for _ in range(30):
            d = random_boolean_domain(rng)
            flags = boolean_classification(d)
            assert flags.possibility == is_possibility_domain(d).status


class TestUpd:
    def test_product(self, yz_product):
        assert is_upd(yz_product).status == "yes"

    def test_wxw(self, wxw):
        assert is_upd(wxw).status == "no"

    def test_full_product(self):
        assert is_upd(fixture_domain("full-boolean-2")).status == "yes"

    def test_validated_route(self, example3, wxw):
        for d, expected in ((example3, "yes"), (wxw, "no")):
            assert is_upd(d).status == expected
            assert find_uniform(d).status == fold_diamond_cover(d).status


class TestMcspLabel:
    def test_labels(self, w, wxw, yz_product):
        assert classify_mcsp(yz_product) == TRACTABLE
        assert classify_mcsp(w) == NP_COMPLETE
        assert classify_mcsp(wxw) == NP_COMPLETE


class TestAnalyze:
    def test_w_report(self, w):
        report = analyze(w, AnalysisOptions(diagnostics=True))
        assert report.possibility == "no"
        assert report.totally_blocked == "yes"
        assert report.affine == "no"
        assert report.bijunctive == "no"
        assert report.upd == "no"
        assert report.mcsp == NP_COMPLETE
        assert report.multiply_constrained == "yes"

    def test_yz_report(self, yz_product):
        report = analyze(yz_product)
        assert report.possibility == "yes"
        assert report.totally_blocked == "no"
        assert report.upd == "yes"
        assert report.mcsp == TRACTABLE

    def test_full_boolean_report(self):
        report = analyze(fixture_domain("full-boolean-2"))
        assert report.possibility == "yes"
        assert report.upd == "yes"
        assert report.mcsp == TRACTABLE

    def test_serialized_key_order(self, w):
        text = serialize_report(analyze(w))
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == [
            "issues",
            "alphabet_sizes",
            "projection_sizes",
            "feasible",
            "possibility",
            "witness_kind",
            "totally_blocked",
            "affine",
            "bijunctive",
            "upd",
            "mcsp",
        ]

    def test_non_boolean_report_drops_flags(self, example2):
        text = serialize_report(analyze(example2))
        assert "affine" not in text
        assert "bijunctive" not in text

    def test_reports_byte_identical_across_runs(self, w, example3, yz_product):
        for d in (w, example3, yz_product):
            assert serialize_report(analyze(d)) == serialize_report(analyze(d))

    def test_internal_invariants_on_random_domains(self):
        # analyze asserts the decision invariants; it must never raise here
        rng = random.Random(8675309)
        for _ in range(25):
            analyze(random_domain(rng, max_rows=8))


class TestUnknownPropagation:
    def test_budget_starved_upd_marks_mcsp_unknown(self, yz_product):
        from agorad.search import SearchBudget

        options = AnalysisOptions(budget=SearchBudget(max_nodes=1, max_millis=60_000))
        report = analyze(yz_product, options)
        # the graph route still settles binary questions without a search
        assert report.possibility == "yes"
        assert report.upd == "unknown"
        assert report.mcsp == "UNKNOWN"


class TestPossibilityMatchesTernaryOracle:
    def test_boolean_spot_check(self):
        rng = random.Random(24601)
        for _ in range(30):
            d = random_boolean_domain(rng)
            possible = is_possibility_domain(d).status == "yes"
            assert possible == (bruteforce_ternary_nontrivial(d).status == FOUND)
