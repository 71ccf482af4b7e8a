"""The scripts run end to end against the package as it stands."""

import importlib.util
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from agorad import classify, cli
from agorad.search import EXHAUSTED, FOUND, SearchOutcome

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_random_audit_agrees():
    result = run_script("random_audit.py", "--count", "10", "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all agree" in result.stdout


def test_analyze_fixtures_runs():
    result = run_script("analyze_fixtures.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "# yz-product" in result.stdout


def test_cli_snapshot_independent_of_hash_seed():
    argv = ("cli_snapshot.py", "--fixtures", "w,example3", "--draws", "3")
    outputs = []
    for seed in ("0", "1"):
        result = run_script(*argv, env={**os.environ, "PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    # 7 commands per fixture, one per (issue, pair) of the 8, 2 per draw,
    # and witness --kind binary on the two draws past the graph's guard
    assert outputs[0].count("$ agorad ") == 2 * 7 + 8 + 3 * 2 + 2
    assert (
        "$ agorad witness example3.dom --kind uniform\nexit 0\n"
        "--- stdout\naggregator arity 3\n" in outputs[0]
    )


@pytest.fixture(scope="module")
def random_audit():
    spec = importlib.util.spec_from_file_location(
        "random_audit", ROOT / "scripts" / "random_audit.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checker_draws(random_audit):
    """Two draws of each of the checker audit's four shapes."""
    shapes = random_audit.checker_shapes(random.Random(1))
    return [next(shapes) for _ in range(8)]


def test_checker_audit_accepts_every_decided_output(random_audit):
    unknown = []
    for d in checker_draws(random_audit):
        assert random_audit.checker_problems(d, unknown) == []
    assert len(unknown) < 8 * 5


def _none_instead_of_found(find):
    def flipped(*args):
        outcome = find(*args)
        return SearchOutcome(EXHAUSTED) if outcome.status == FOUND else outcome

    return flipped


def _blockedness_flipped(analyze):
    def flipped(*args):
        report = analyze(*args)
        blocked = "no" if report.totally_blocked == "yes" else "yes"
        return replace(report, totally_blocked=blocked)

    return flipped


FLIPS = {
    "analyze": (classify, "analyze", _blockedness_flipped),
    "binary": (cli, "find_binary_nondictatorial", _none_instead_of_found),
    "majority": (cli, "find_majority", _none_instead_of_found),
    "minority": (cli, "find_minority", _none_instead_of_found),
    "uniform": (cli, "find_uniform", _none_instead_of_found),
}


@pytest.mark.parametrize("flip", sorted(FLIPS))
def test_checker_audit_rejects_a_flipped_verdict(monkeypatch, random_audit, flip):
    module, name, wrap = FLIPS[flip]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    unknown = []
    assert any(
        random_audit.checker_problems(d, unknown) for d in checker_draws(random_audit)
    )
