"""The scripts run end to end against the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_random_audit_agrees():
    result = run_script("random_audit.py", "--count", "10", "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all agree" in result.stdout


def test_analyze_fixtures_runs():
    result = run_script("analyze_fixtures.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "# yz-product" in result.stdout
