"""The benchmark's own test: the checker accepts real outputs and rejects
outputs with one flipped witness cell or one flipped verdict.

    python3 -m pytest perfbench/test_checker.py     # or
    python3 perfbench/test_checker.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import checker
import workloads

PKG = workloads.import_package()


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = PKG.cli.main(list(argv))
    return code, buf.getvalue()


def output_for(name, *argv):
    text = PKG.fixtures.fixture_text(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.dom"
        path.write_text(text)
        code, out = run(argv[0], str(path), *argv[1:])
    assert code == 0
    return checker.read_domain(text), out


def single_cell_flips(witness_text: str):
    """Every witness text that differs in the output of one cell."""
    lines = witness_text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if "->" in fields:
            args, value = fields[:-2], fields[-1]
            for other in sorted(set(args) - {value}):
                flipped = lines[:i] + [" ".join(args + ["->", other])] + lines[i + 1 :]
                yield "\n".join(flipped) + "\n"


def test_accepts_real_outputs():
    for name in ("w", "example2", "example3", "y-horn", "z-affine"):
        dom, out = output_for(name, "analyze", "--witnesses")
        assert checker.check_analyze(dom, out) == [], name
    fixtures = {"wxw": ("w", "w"), "yz-product": ("y-horn", "z-affine")}
    for name, parts in fixtures.items():
        dom, out = output_for(name, "analyze", "--witnesses")
        factors = [checker.read_domain(PKG.fixtures.fixture_text(p)) for p in parts]
        assert checker.check_analyze(dom, out, factors) == [], name
    dom, out = output_for("example2", "witness", "--kind", "uniform")
    assert checker.check_uniform(dom, out) == []


def test_rejects_a_flipped_witness_cell():
    # every single-cell flip of a uniform witness: the checker must reject
    # exactly the flips the package's own closure and uniformity checks reject
    name = "example2"
    dom, out = output_for(name, "witness", "--kind", "uniform")
    d = PKG.fixtures.fixture_domain(name)
    rejected = 0
    for flipped in single_cell_flips(out):
        agg = PKG.parse_aggregator(flipped, d)
        valid = PKG.is_closed(d, agg).ok and PKG.is_uniformly_nondictatorial(d, agg).ok
        assert (checker.check_uniform(dom, flipped) == []) == valid, flipped
        rejected += not valid
    assert rejected > 0
    dom, out = output_for("example3", "witness", "--kind", "minority")
    # the first flip breaks the minority law on a cell with a repeated argument
    witness = checker.read_witness(next(single_cell_flips(out)).splitlines())
    assert checker.witness_problems(dom, witness, "minority")


def test_rejects_a_flipped_verdict():
    dom, out = output_for("w", "analyze", "--witnesses")
    assert "totally_blocked = yes" in out
    assert checker.check_analyze(dom, out.replace("totally_blocked = yes", "totally_blocked = no"))
    dom, out = output_for("y-horn", "analyze", "--witnesses")
    assert "bijunctive = no" in out
    assert checker.check_analyze(dom, out.replace("bijunctive = no", "bijunctive = yes"))


def test_rejects_a_flipped_solve_answer():
    dom = checker.read_domain(PKG.fixtures.fixture_text("w"))
    instance = (
        "domain w.dom\nvar a sort 1\nvar b sort 2\nvar c sort 3\n"
        "constraint X: a b c\nconstraint subset 1 {0}: a\nconstraint subset 2 {0}: b\n"
    )
    assert checker.check_solve(dom, instance, "SAT\na = 0\nb = 0\nc = 1\n") == []
    assert checker.check_solve(dom, instance, "SAT\na = 0\nb = 0\nc = 0\n")
    assert checker.check_solve(dom, instance, "UNSAT\n")
    unsat = instance + "constraint subset 3 {0}: c\n"
    assert checker.check_solve(dom, unsat, "UNSAT\n") == []


def test_blockedness_scan_matches_known_fixtures():
    blocked = {"w": True, "z-affine": True, "example2": False, "wxw": False}
    for name, want in blocked.items():
        assert checker.totally_blocked(checker.read_domain(PKG.fixtures.fixture_text(name))) is want


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
