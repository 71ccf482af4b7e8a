"""The CLI's stderr is byte-deterministic: a package warning prints as one
``warning: <message>`` line, with no source path, and stdout is unchanged.

The commands run in a fresh interpreter, because the test configuration
ignores the package's warnings in process.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agorad.cli import main
from agorad.fixtures import fixture_text

ROOT = Path(__file__).resolve().parents[1]

EMPTY_BOX = b"warning: 1 2-sub-box(es) contain no feasible row\n"


def run_in_process(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "agorad", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze",),
        ("graph",),
        ("witness", "--kind", "binary"),
        ("witness", "--kind", "component", "--issue", "1", "--pair", "a,b"),
    ],
    ids=["analyze", "graph", "witness-binary", "witness-component"],
)
def test_empty_box_warning_line(tmp_path, argv):
    path = tmp_path / "example2.dom"
    path.write_text(fixture_text("example2"))
    result = run_fresh(argv[0], str(path), *argv[1:])
    code, out = run_in_process(argv[0], str(path), *argv[1:])
    assert result.returncode == code == 0
    assert result.stderr == EMPTY_BOX
    assert result.stdout == out.encode()


def test_duplicate_tuple_warning_precedes_the_error(tmp_path):
    path = tmp_path / "dup.dom"
    path.write_text(fixture_text("w") + "tuple: 0 0 1\n")
    result = run_fresh("analyze", str(path), "--budget-nodes", "0")
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == (
        b"warning: dropped 1 duplicate feasible tuple(s)\n"
        b"error: budget values must be positive\n"
    )
