#!/usr/bin/env python3
"""Print argv, exit code, stdout and stderr of a fixed list of CLI commands.

The commands run in-process against this checkout's ``src/``:

  on the built-in fixtures    analyze --witnesses --dot --diagnostics,
  up to full-boolean-5        graph (DOT and text), witness --kind binary,
                              majority, minority, uniform, and component
                              on every (issue, pair)
  on --draws seeded draws     analyze --witnesses --dot --budget-nodes 20000
                              and witness --kind uniform --budget-nodes 2000
                              (helpers.random_domain, seed 1: up to 4
                              issues, 3 tokens, 20 rows)
  on two 6/4/64 draws past    witness --kind binary, which the binary table
  the graph's work guard      search decides (helpers.past_guard_domain,
                              seed 7, and helpers.past_guard_product,
                              seed 3)

Domain files are written to a temporary directory and named relative to
it, so the output is a function of the code alone. Running the script in
two checkouts and diffing the outputs checks that a change keeps every
byte of CLI output:

    python scripts/cli_snapshot.py --draws 100 > after.txt
"""

import argparse
import contextlib
import io
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from agorad.cli import main as cli_main  # noqa: E402
from agorad.domain import serialize_domain, two_element_subsets  # noqa: E402
from agorad.fixtures import fixture_domain  # noqa: E402

from helpers import past_guard_domain, past_guard_product, random_domain  # noqa: E402

# full-boolean-6 is left out: its searches alone take about 19 s
FIXTURES = ("w", "example2", "example3", "wxw", "y-horn", "z-affine", "yz-product")
FIXTURES += tuple(f"full-boolean-{m}" for m in range(1, 6))


def fixture_commands(path: str, d):
    yield ["analyze", path, "--witnesses", "--dot", "--diagnostics"]
    yield ["graph", path]
    yield ["graph", path, "--format", "text"]
    yield ["witness", path, "--kind", "binary"]
    for kind in ("majority", "minority", "uniform"):
        yield ["witness", path, "--kind", kind]
    component = ["witness", path, "--kind", "component"]
    for j in range(1, d.issue_count + 1):
        for u, v in two_element_subsets(d, j):
            pair = f"{d.token(j, u)},{d.token(j, v)}"
            yield [*component, "--issue", str(j), "--pair", pair]


def draw_commands(path: str):
    yield ["analyze", path, "--witnesses", "--dot", "--budget-nodes", "20000"]
    yield ["witness", path, "--kind", "uniform", "--budget-nodes", "2000"]


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return (
        f"$ agorad {shlex.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument(
        "--fixtures", default=",".join(FIXTURES), help="comma-separated fixture names"
    )
    args = parser.parse_args()
    names = args.fixtures.split(",")
    fixtures = {f"{name}.dom": fixture_domain(name) for name in names}
    rng = random.Random(1)
    draws = {
        f"draw-{index:04d}.dom": random_domain(
            rng, max_issues=4, max_alphabet=3, max_rows=20
        )
        for index in range(args.draws)
    }
    commands = [
        argv for path, d in fixtures.items() for argv in fixture_commands(path, d)
    ]
    commands += [argv for path in draws for argv in draw_commands(path)]
    past_guard = {
        "past-guard-random.dom": past_guard_domain(random.Random(7)),
        "past-guard-product.dom": past_guard_product(random.Random(3)),
    }
    commands += [["witness", path, "--kind", "binary"] for path in past_guard]
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for path, d in {**fixtures, **draws, **past_guard}.items():
            Path(path).write_text(serialize_domain(d))
        for argv in commands:
            sys.stdout.write(run(argv))
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
