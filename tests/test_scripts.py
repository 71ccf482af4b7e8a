"""The scripts run end to end against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

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
    # 8 commands per fixture, one per (issue, pair) of the 8, 2 per draw
    assert outputs[0].count("$ agorad ") == 2 * 8 + 8 + 3 * 2
    assert (
        "$ agorad witness example3.dom --kind uniform\nexit 0\n"
        "--- stdout\naggregator arity 3\n" in outputs[0]
    )
