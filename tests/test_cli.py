import contextlib
import io
import random
from itertools import product

import pytest

from agorad.aggregators import parse_aggregator, verify_witness
from agorad.cli import main
from agorad.domain import build_domain, serialize_domain
from agorad.fixtures import fixture_text

from helpers import past_guard_domain, past_guard_product


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture()
def w_file(tmp_path):
    path = tmp_path / "w.dom"
    path.write_text(fixture_text("w"))
    return path


class TestAnalyze:
    def test_w_report(self, w_file):
        code, out = run_cli("analyze", str(w_file))
        assert code == 0
        assert "possibility = no" in out
        assert "totally_blocked = yes" in out
        assert "mcsp = NP_COMPLETE" in out

    def test_witness_attachment(self, tmp_path):
        path = tmp_path / "e3.dom"
        path.write_text(fixture_text("example3"))
        code, out = run_cli("analyze", str(path), "--witnesses")
        assert code == 0
        assert "witness possibility binary:" in out
        assert "witness upd:" in out
        assert "aggregator arity" in out

    def test_dot_attachment(self, w_file):
        code, out = run_cli("analyze", str(w_file), "--dot")
        assert code == 0
        assert "digraph blockedness {" in out

    def test_diagnostics_flag(self, w_file):
        code, out = run_cli("analyze", str(w_file), "--diagnostics")
        assert code == 0
        assert "multiply_constrained = yes" in out

    def test_stdin_roundtrip(self, monkeypatch, tmp_path):
        # `fixtures X | analyze -` matches `analyze <file>` byte for byte
        for name in ("w", "example3", "z-affine"):
            path = tmp_path / f"{name}.dom"
            text = fixture_text(name)
            path.write_text(text)
            _, from_file = run_cli("analyze", str(path))
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            _, from_stdin = run_cli("analyze", "-")
            assert from_file == from_stdin


class TestWitness:
    def test_minority_witness_emitted(self, tmp_path):
        path = tmp_path / "e3.dom"
        path.write_text(fixture_text("example3"))
        code, out = run_cli("witness", str(path), "--kind", "minority")
        assert code == 0
        assert out.startswith("aggregator arity 3\ncomponent 1:\n")

    def test_exhausted_prints_none(self, w_file):
        code, out = run_cli("witness", str(w_file), "--kind", "majority")
        assert code == 0
        assert out == "NONE\n"

    def test_budget_exceeded_prints_unknown(self, tmp_path):
        path = tmp_path / "yz.dom"
        path.write_text(fixture_text("yz-product"))
        code, out = run_cli(
            "witness", str(path), "--kind", "uniform", "--budget-nodes", "1"
        )
        assert code == 1
        assert out == "UNKNOWN\n"

    def test_component_kind(self, tmp_path):
        path = tmp_path / "yz.dom"
        path.write_text(fixture_text("yz-product"))
        code, out = run_cli(
            "witness", str(path), "--kind", "component", "--issue", "4", "--pair", "0,1"
        )
        assert code == 0
        assert out.startswith("aggregator arity 3")

    def test_direct_binary(self, w_file):
        # the input picks the binary route; there is no option to pick it
        with pytest.raises(SystemExit) as refused:
            run_cli("witness", str(w_file), "--kind", "binary", "--direct")
        assert refused.value.code == 2

    @pytest.mark.parametrize(
        "draw, seed", [(past_guard_domain, 7), (past_guard_product, 3)]
    )
    def test_binary_past_the_graph_guard(self, tmp_path, capsys, draw, seed):
        # the graph refuses these domains; the binary table search decides:
        # the random draw is totally blocked, a product of valid factors never
        d = draw(random.Random(seed))
        path = tmp_path / "large.dom"
        path.write_text(serialize_domain(d))
        assert run_cli("graph", str(path)) == (3, "")
        assert "graph enumeration estimate" in capsys.readouterr().err
        code, out = run_cli("witness", str(path), "--kind", "binary")
        assert code == 0
        assert capsys.readouterr().err == ""
        if draw is past_guard_domain:
            assert out == "NONE\n"
        else:
            verify_witness(d, parse_aggregator(out, d), "binary")


class TestGraph:
    def test_dot_output(self, w_file):
        code, out = run_cli("graph", str(w_file))
        assert code == 0
        assert out.startswith("digraph blockedness {")
        assert out.rstrip().endswith("}")

    def test_text_format(self, w_file):
        code, out = run_cli("graph", str(w_file), "--format", "text")
        assert code == 0
        assert "1:10 -> 2:01" in out


class TestClassify:
    def test_w(self, w_file):
        code, out = run_cli("classify", str(w_file))
        assert code == 0
        assert out == "NP_COMPLETE\n"

    def test_product(self, tmp_path):
        path = tmp_path / "yz.dom"
        path.write_text(fixture_text("yz-product"))
        code, out = run_cli("classify", str(path))
        assert code == 0
        assert out == "TRACTABLE\n"


class TestSolve:
    def test_instance_file(self, tmp_path, w_file):
        inst = tmp_path / "one.csp"
        inst.write_text(
            "domain w.dom\n"
            "var v1 sort 1\nvar v2 sort 2\nvar v3 sort 3\n"
            "constraint X: v1 v2 v3\n"
            "constraint subset 1 {1}: v1\n"
        )
        code, out = run_cli("solve", str(inst))
        assert code == 0
        assert out == "SAT\nv1 = 1\nv2 = 0\nv3 = 0\n"

    def test_unsat(self, tmp_path, w_file):
        inst = tmp_path / "two.csp"
        inst.write_text(
            "domain w.dom\n"
            "var v1 sort 1\nvar v2 sort 2\nvar v3 sort 3\n"
            "constraint X: v1 v2 v3\n"
            "constraint subset 1 {1}: v1\n"
            "constraint subset 2 {1}: v2\n"
        )
        code, out = run_cli("solve", str(inst))
        assert code == 0
        assert out == "UNSAT\n"


class TestBudgetFlags:
    def test_zero_nodes_rejected(self, w_file):
        code, out = run_cli(
            "witness", str(w_file), "--kind", "binary", "--budget-nodes", "0"
        )
        assert code == 2
        assert out == ""
        for nodes in ("0", "-3"):
            assert run_cli("graph", str(w_file), "--budget-nodes", nodes) == (2, "")

    def test_zero_millis_rejected(self, tmp_path, w_file):
        inst = tmp_path / "one.csp"
        inst.write_text(
            "domain w.dom\n"
            "var v1 sort 1\nvar v2 sort 2\nvar v3 sort 3\n"
            "constraint X: v1 v2 v3\n"
        )
        code, out = run_cli("solve", str(inst), "--budget-ms", "0")
        assert code == 2
        assert out == ""
        assert run_cli("graph", str(w_file), "--budget-ms", "0") == (2, "")


class TestBudgetEnv:
    def test_time_budget_default_from_env(self, monkeypatch, tmp_path):
        path = tmp_path / "yz.dom"
        path.write_text(fixture_text("yz-product"))
        monkeypatch.setenv("AGORAD_BUDGET_MS", "600000")
        code, _ = run_cli("classify", str(path))
        assert code == 0

    def test_non_integer_env_budget_names_the_variable(self, monkeypatch, capsys, w_file):
        monkeypatch.setenv("AGORAD_BUDGET_MS", "abc")
        for command in ("analyze", "graph"):
            code, out = run_cli(command, str(w_file))
            assert code == 2
            assert out == ""
            assert capsys.readouterr().err == (
                "error: AGORAD_BUDGET_MS must be an integer, got 'abc'\n"
            )

    @pytest.mark.parametrize(
        "command, value", [("analyze", "0"), ("classify", "-5"), ("graph", "-1")]
    )
    def test_non_positive_env_budget_names_the_variable(
        self, monkeypatch, capsys, w_file, command, value
    ):
        monkeypatch.setenv("AGORAD_BUDGET_MS", value)
        code, out = run_cli(command, str(w_file))
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == (
            f"error: AGORAD_BUDGET_MS must be positive, got '{value}'\n"
        )


class TestFixtures:
    def test_oversized_full_boolean_rejected(self):
        code, _ = run_cli("fixtures", "full-boolean-7")
        assert code == 2

    def test_known_names_emit_parseable_text(self):
        from agorad.domain import parse_domain

        for name in ("w", "example2", "example3", "wxw", "y-horn", "z-affine",
                     "yz-product", "full-boolean-3"):
            code, out = run_cli("fixtures", name)
            assert code == 0
            parse_domain(out)

    def test_w_tuple_count(self):
        _, out = run_cli("fixtures", "w")
        assert out.count("tuple:") == 3

    def test_z_affine_tuple_count(self):
        _, out = run_cli("fixtures", "z-affine")
        assert out.count("tuple:") == 4

    def test_wxw_tuple_count(self):
        _, out = run_cli("fixtures", "wxw")
        assert out.count("tuple:") == 9
        assert "issues 6" in out


class TestExitCodes:
    def test_unknown_decision_exits_one(self, tmp_path):
        path = tmp_path / "yz.dom"
        path.write_text(fixture_text("yz-product"))
        code, out = run_cli("analyze", str(path), "--budget-nodes", "1")
        assert code == 1
        assert "upd = unknown" in out
        assert "mcsp = UNKNOWN" in out

    def test_impossibility_settles_upd_without_budget(self, w_file):
        code, out = run_cli("analyze", str(w_file), "--budget-nodes", "1")
        assert code == 0
        assert "possibility = no" in out
        assert "upd = no" in out
        assert "mcsp = NP_COMPLETE" in out

    def test_unknown_fixture(self):
        code, _ = run_cli("fixtures", "no-such")
        assert code == 2

    def test_missing_file(self, tmp_path):
        code, _ = run_cli("analyze", str(tmp_path / "absent.dom"))
        assert code == 2

    def test_capacity(self, tmp_path):
        lines = ["issues 9"]
        lines += [f"alphabet {j}: 0 1" for j in range(1, 10)]
        lines += ["tuple: " + " ".join("0" for _ in range(9)),
                  "tuple: " + " ".join("1" for _ in range(9))]
        path = tmp_path / "big.dom"
        path.write_text("\n".join(lines) + "\n")
        code, _ = run_cli("analyze", str(path))
        assert code == 3

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text("issues x\n")
        code, _ = run_cli("analyze", str(path))
        assert code == 2


class TestTableBuildGuard:
    def test_allow_large_domain_over_the_guard_exits_three(self, tmp_path, capsys):
        rows = list(product("01", repeat=7))[:65]
        d = build_domain([("0", "1")] * 7, rows, allow_large=True)
        path = tmp_path / "large.dom"
        path.write_text(serialize_domain(d))
        code, out = run_cli(
            "witness", str(path), "--kind", "majority", "--allow-large"
        )
        assert code == 3
        assert out == ""
        assert "table-build guard" in capsys.readouterr().err
