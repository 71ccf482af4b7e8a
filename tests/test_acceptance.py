"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria combine exact reproduction of the worked examples with randomized
equivalence suites for the decision procedures. Runtime ceilings are part
of the criteria and asserted.
"""

import contextlib
import io
import random
import time
from itertools import permutations, product

from agorad.aggregators import (
    FOUR_OPS,
    OperationTable,
    is_closed,
    is_dictatorial,
    is_locally_monomorphic,
    restriction_class,
)
from agorad.classify import NP_COMPLETE, TRACTABLE, analyze, classify_mcsp
from agorad.cli import main as cli_main
from agorad.domain import two_element_subsets
from agorad.fixtures import fixture_domain, fixture_text
from agorad.mcsp import SAT, UNSAT, solve, verify_assignment
from agorad.search import (
    EXHAUSTED,
    FOUND,
    find_binary_nondictatorial,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)
from agorad.blockedness import is_totally_blocked

from helpers import random_boolean_domain, random_domain
from oracles import (
    all_binary_aggregators,
    bruteforce_binary,
    bruteforce_ternary_nontrivial,
)
from test_mcsp import exhaustive_solve, random_instance
from test_search import check_four_ops_everywhere, check_item4


ALL_FIXTURES = ("w", "example2", "example3", "wxw", "y-horn", "z-affine", "yz-product")


class _Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(number, timer, message):
    print(f"ACCEPTANCE {number} PASS ({timer.elapsed:.2f}s / limit {timer.limit}s): {message}")
    assert timer.elapsed < timer.limit, f"criterion {number} exceeded its time limit"


def test_criterion_01_w_full_report():
    with _Timer(1.0) as timer:
        report = analyze(fixture_domain("w"))
        assert report.possibility == "no"
        assert report.totally_blocked == "yes"
        assert report.affine == "no"
        assert report.bijunctive == "no"
        assert report.upd == "no"
        assert report.mcsp == NP_COMPLETE
    _report(1, timer, "W analysis matches on all six decisions")


def test_criterion_02_example2_majority_witness():
    with _Timer(5.0) as timer:
        d = fixture_domain("example2")
        outcome = find_majority(d)
        assert outcome.status == FOUND
        witness = outcome.witness
        assert is_closed(d, witness).ok
        assert is_dictatorial(d, witness) is None
        assert is_locally_monomorphic(d, witness)
        for j in range(1, 4):
            for pair in two_element_subsets(d, j):
                assert restriction_class(witness.component(j), pair).tag == "MAJ"
    _report(2, timer, "majority witness found and fully verified")


def test_criterion_03_example3_minority_witness():
    with _Timer(5.0) as timer:
        d = fixture_domain("example3")
        outcome = find_minority(d)
        assert outcome.status == FOUND
        witness = outcome.witness
        assert is_closed(d, witness).ok
        assert is_dictatorial(d, witness) is None
        assert is_locally_monomorphic(d, witness)
        for j in range(1, 4):
            for pair in two_element_subsets(d, j):
                assert restriction_class(witness.component(j), pair).tag == "XOR3"
    _report(3, timer, "minority witness found and fully verified")


def test_criterion_04_wxw_binary_form():
    with _Timer(60.0) as timer:
        d = fixture_domain("wxw")
        report = analyze(d)
        assert report.possibility == "yes"
        assert report.witness_kind == "binary"
        assert report.upd == "no"
        aggs = all_binary_aggregators(d)
        pr1 = (0, 0, 1, 1)
        pr2 = (0, 1, 0, 1)
        assert len(aggs) == 4
        for agg in aggs:
            first_block = {agg.component(j).table for j in (1, 2, 3)}
            second_block = {agg.component(j).table for j in (4, 5, 6)}
            assert len(first_block) == 1 and first_block <= {pr1, pr2}
            assert len(second_block) == 1 and second_block <= {pr1, pr2}
    _report(4, timer, "every binary aggregator of the product has projection-block form")


def test_criterion_05_uniform_factors_and_product():
    with _Timer(30.0) as timer:
        y = fixture_domain("y-horn")
        z = fixture_domain("z-affine")
        yz = fixture_domain("yz-product")
        assert find_uniform(y).status == FOUND
        assert find_uniform(z).status == FOUND
        assert find_uniform(yz).status == FOUND
        assert classify_mcsp(yz) == TRACTABLE
    _report(5, timer, "factors and product uniformly possible, product tractable")


def test_criterion_06_blockedness_equivalence_suite():
    with _Timer(600.0) as timer:
        domains = [fixture_domain(name) for name in ALL_FIXTURES]
        rng = random.Random(640001)
        while len(domains) < 7 + 200:
            domains.append(random_domain(rng, max_issues=3, max_alphabet=3, max_rows=10))
        mismatches = 0
        for d in domains:
            blocked, _ = is_totally_blocked(d)
            oracle_empty = bruteforce_binary(d).status == EXHAUSTED
            if blocked != oracle_empty:
                mismatches += 1
        assert mismatches == 0
    _report(6, timer, "blockedness matches the binary oracle on 7 fixtures + 200 random domains")


def test_criterion_07_possibility_equivalence_suite():
    with _Timer(600.0) as timer:
        rng = random.Random(710001)
        mismatches = 0
        for _ in range(200):
            d = random_boolean_domain(rng, max_issues=3)
            disjunction = (
                find_binary_nondictatorial(d).status == FOUND
                or find_majority(d).status == FOUND
                or find_minority(d).status == FOUND
            )
            oracle = bruteforce_ternary_nontrivial(d).status == FOUND
            if disjunction != oracle:
                mismatches += 1
        assert mismatches == 0
    _report(7, timer, "three-way disjunction matches the ternary oracle on 200 boolean domains")


def test_criterion_08_uniform_route_agreement_suite():
    with _Timer(600.0) as timer:
        domains = [fixture_domain(name) for name in ALL_FIXTURES]
        rng = random.Random(890002)
        while len(domains) < 7 + 100:
            domains.append(random_domain(rng, max_issues=3, max_alphabet=3, max_rows=10))
        mismatches = 0
        for d in domains:
            u = find_uniform(d)
            f = fold_diamond_cover(d)
            if u.status != f.status:
                mismatches += 1
                continue
            if u.status == FOUND:
                assert check_item4(d, u.witness)
                assert check_item4(d, f.witness)
                assert check_four_ops_everywhere(d, u.witness)
                assert check_four_ops_everywhere(d, f.witness)
        assert mismatches == 0
    _report(8, timer, "uniform search and diamond fold agree on 7 fixtures + 100 random domains")


def test_criterion_09_two_element_ternary_census():
    with _Timer(1.0) as timer:
        cells = list(product((0, 1), repeat=3))
        free = [c for c in cells if len(set(c)) == 2]
        commutative_tags = []
        total = 0
        for choice in product((0, 1), repeat=len(free)):
            table = {c: c[0] for c in cells if len(set(c)) == 1}
            table.update(dict(zip(free, choice)))
            op = OperationTable(
                issue=1, arity=3, values=(0, 1), table=tuple(table[c] for c in cells)
            )
            total += 1
            commutative = all(
                op.apply(c) == op.apply(p)
                for c in cells
                for p in set(permutations(c))
            )
            tag = restriction_class(op, (0, 1)).tag
            assert commutative == (tag in FOUR_OPS)
            if commutative:
                commutative_tags.append(tag)
        assert total == 64
        assert sorted(commutative_tags) == ["AND3", "MAJ", "OR3", "XOR3"]
    _report(9, timer, "of 64 supportive ternary tables exactly the 4 commutative ones carry named tags")


def test_criterion_10_solver_oracle_equivalence():
    with _Timer(300.0) as timer:
        rng = random.Random(328062)
        domains = [fixture_domain(n) for n in ("w", "example2", "example3", "z-affine", "y-horn")]
        for _ in range(100):
            inst = random_instance(rng, rng.choice(domains))
            result = solve(inst)
            reference = exhaustive_solve(inst)
            if reference is None:
                assert result.status == UNSAT
            else:
                assert result.status == SAT
                assert verify_assignment(inst, result.assignment)
    _report(10, timer, "backtracking solver matches exhaustive enumeration on 100 instances")


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_11_byte_determinism(tmp_path):
    with _Timer(120.0) as timer:
        for name in ALL_FIXTURES:
            path = tmp_path / f"{name}.dom"
            path.write_text(fixture_text(name))
            runs = [
                _cli("analyze", str(path), "--witnesses", "--dot"),
                _cli("analyze", str(path), "--witnesses", "--dot"),
                _cli("analyze", str(path), "--witnesses", "--dot", "--jobs", "4"),
            ]
            assert runs[0] == runs[1] == runs[2]
            graphs = [_cli("graph", str(path)), _cli("graph", str(path), "--jobs", "2")]
            assert graphs[0] == graphs[1]
            for kind in ("binary", "majority", "minority", "uniform"):
                first = _cli("witness", str(path), "--kind", kind)
                second = _cli("witness", str(path), "--kind", kind, "--jobs", "2")
                assert first == second
    _report(11, timer, "reports, witnesses and DOT byte-identical across runs and --jobs")
