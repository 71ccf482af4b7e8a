"""analyze against the standalone public routes, and one graph per analysis.

analyze derives total blockedness, the binary witness and the Boolean
dichotomy from a single blockedness graph and skips the uniform search
when possibility is no; the standalone functions each build what they
need themselves, so they serve as the reference here.
"""

import random

import pytest

from agorad import blockedness
from agorad.blockedness import is_totally_blocked
from agorad.classify import (
    NO,
    YES,
    AnalysisOptions,
    analyze,
    boolean_classification,
    is_possibility_domain,
    is_upd,
)
from agorad.fixtures import fixture_domain, fixture_text
from agorad.search import SearchBudget

from helpers import count_calls, random_boolean_domain, random_domain
from test_cli import run_cli

FIXTURES = (
    "w",
    "example2",
    "example3",
    "wxw",
    "y-horn",
    "z-affine",
    "yz-product",
    "full-boolean-1",
    "full-boolean-2",
    "full-boolean-3",
    "full-boolean-4",
    "full-boolean-5",
)

# node-bounded so every route is deterministic and a slow uniform draw
# stops at the same place in analyze and in is_upd
BUDGET = SearchBudget(max_nodes=20_000, max_millis=600_000)


def _random_draws():
    rng = random.Random(20100101)
    draws = [random_boolean_domain(rng, max_issues=4) for _ in range(15)]
    draws += [random_domain(rng) for _ in range(15)]
    return draws


def _flag(value: bool) -> str:
    return YES if value else NO


@pytest.mark.parametrize(
    "d",
    [fixture_domain(name) for name in FIXTURES] + _random_draws(),
    ids=list(FIXTURES) + [f"random-{i}" for i in range(30)],
)
def test_analyze_agrees_with_standalone_routes(d):
    report = analyze(d, AnalysisOptions(budget=BUDGET))

    assert report.totally_blocked == _flag(is_totally_blocked(d)[0])

    possibility = is_possibility_domain(d, BUDGET)
    assert report.possibility == possibility.status
    assert report.witness_kind == possibility.witness_kind
    assert report.witness == possibility.witness

    if all(len(p) == 2 for p in d.projections):
        flags = boolean_classification(d, BUDGET)
        assert report.affine == _flag(flags.affine)
        assert report.bijunctive == _flag(flags.bijunctive)
    else:
        assert report.affine is None and report.bijunctive is None

    upd = is_upd(d, BUDGET)
    if report.possibility == NO:
        assert report.upd == NO and report.upd_witness is None
        assert upd.status != YES
    else:
        assert report.upd == upd.status
        assert report.upd_witness == upd.witness


@pytest.mark.parametrize("name", FIXTURES)
def test_dot_section_equals_graph_command(tmp_path, name):
    path = tmp_path / f"{name}.dom"
    path.write_text(fixture_text(name))
    _, analyzed = run_cli("analyze", str(path), "--dot")
    code, graph = run_cli("graph", str(path))
    assert code == 0
    assert analyzed.split("graph:\n", 1)[1] == graph


@pytest.fixture()
def graph_builds(monkeypatch):
    """Count build_graph calls through every module attribute bound to it."""
    return count_calls(monkeypatch, blockedness.build_graph)


@pytest.mark.parametrize("name", ["example2", "yz-product"])
def test_analyze_builds_one_graph(graph_builds, name):
    analyze(fixture_domain(name))
    assert len(graph_builds) == 1


def test_cli_analyze_with_dot_builds_one_graph(graph_builds, tmp_path):
    path = tmp_path / "yz.dom"
    path.write_text(fixture_text("yz-product"))
    code, _ = run_cli(
        "analyze", str(path), "--witnesses", "--dot", "--diagnostics"
    )
    assert code == 0
    assert len(graph_builds) == 1
