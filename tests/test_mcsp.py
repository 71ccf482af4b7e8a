import random
from itertools import product

import pytest

from agorad import search
from agorad.errors import CapacityError, ParseError, SignatureError
from agorad.mcsp import (
    SAT,
    UNKNOWN,
    UNSAT,
    SubsetConstraint,
    XConstraint,
    make_instance,
    materialize_language,
    parse_instance,
    serialize_result,
    solve,
    verify_assignment,
)
from agorad.domain import build_domain, serialize_domain, validate
from agorad.search import SearchBudget

from helpers import FakeClock


def w_instance(w, extra=()):
    constraints = [XConstraint(scope=("v1", "v2", "v3"))]
    constraints.extend(extra)
    return make_instance(
        w, ("v1", "v2", "v3"), {"v1": 1, "v2": 2, "v3": 3}, constraints
    )


class TestLanguage:
    def test_w_relation_count(self, w):
        lang = materialize_language(w)
        assert len(lang) == 1 + 3 * 3

    def test_example2_relation_count(self, example2):
        assert len(materialize_language(example2)) == 1 + 3 * 7

    def test_single_issue_full(self):
        d = build_domain([("a", "b")], [("a",), ("b",)])
        assert len(materialize_language(d)) == 1 + 3

    def test_conservative_every_subset_once(self, w, example2):
        for d in (w, example2):
            lang = materialize_language(d)
            for j in range(1, d.issue_count + 1):
                codes = range(len(d.alphabets[j - 1]))
                subsets = {
                    rel.members
                    for rel in lang
                    if rel.kind == "subset" and rel.signature == (j,)
                }
                expected = set()
                for size in range(1, len(d.alphabets[j - 1]) + 1):
                    from itertools import combinations

                    expected.update(combinations(codes, size))
                assert subsets == expected


class TestVerify:
    def test_feasible_row_accepted(self, w):
        inst = w_instance(w)
        assert verify_assignment(inst, {"v1": "1", "v2": "0", "v3": "0"})

    def test_infeasible_row_rejected(self, w):
        inst = w_instance(w)
        assert not verify_assignment(inst, {"v1": "1", "v2": "1", "v3": "0"})

    def test_subset_constraint_enforced(self, w):
        inst = w_instance(
            w, [SubsetConstraint(var="v1", issue=1, allowed=frozenset({1}))]
        )
        assert verify_assignment(inst, {"v1": "1", "v2": "0", "v3": "0"})
        assert not verify_assignment(inst, {"v1": "0", "v2": "1", "v3": "0"})

    def test_signature_mismatch_raises(self, w):
        with pytest.raises(SignatureError):
            make_instance(
                w,
                ("a", "b", "c"),
                {"a": 2, "b": 2, "c": 3},
                [XConstraint(scope=("a", "b", "c"))],
            )
        with pytest.raises(SignatureError):
            make_instance(
                w,
                ("a",),
                {"a": 1},
                [SubsetConstraint(var="a", issue=2, allowed=frozenset({0}))],
            )


class TestSolve:
    def test_pinned_variable_unique_solution(self, w):
        inst = w_instance(
            w, [SubsetConstraint(var="v1", issue=1, allowed=frozenset({1}))]
        )
        result = solve(inst)
        assert result.status == SAT
        assert result.assignment == {"v1": "1", "v2": "0", "v3": "0"}

    def test_two_pins_unsat(self, w):
        inst = w_instance(
            w,
            [
                SubsetConstraint(var="v1", issue=1, allowed=frozenset({1})),
                SubsetConstraint(var="v2", issue=2, allowed=frozenset({1})),
            ],
        )
        assert solve(inst).status == UNSAT

    def test_no_constraints_canonical_least(self, w):
        inst = make_instance(
            w, ("x", "y"), {"x": 1, "y": 3}, []
        )
        result = solve(inst)
        assert result.status == SAT
        assert result.assignment == {"x": "0", "y": "0"}

    def test_budget_unknown(self, w):
        inst = w_instance(w)
        result = solve(inst, SearchBudget(max_nodes=1, max_millis=1000))
        assert result.status == UNKNOWN

    def test_time_budget_unknown(self, monkeypatch, w):
        # the clock passes the deadline at its second reading
        monkeypatch.setattr(search, "time", FakeClock(0.0, 10.0))
        result = solve(w_instance(w), SearchBudget(max_millis=1000))
        assert result.status == UNKNOWN

    def test_serialization(self, w):
        inst = w_instance(
            w, [SubsetConstraint(var="v1", issue=1, allowed=frozenset({1}))]
        )
        assert serialize_result(inst, solve(inst)) == "SAT\nv1 = 1\nv2 = 0\nv3 = 0\n"
        unsat = w_instance(
            w,
            [
                SubsetConstraint(var="v1", issue=1, allowed=frozenset({1})),
                SubsetConstraint(var="v2", issue=2, allowed=frozenset({1})),
            ],
        )
        assert serialize_result(unsat, solve(unsat)) == "UNSAT\n"


class TestParseInstance:
    def test_explicit_domain(self, w):
        text = (
            "var v1 sort 1\nvar v2 sort 2\nvar v3 sort 3\n"
            "constraint X: v1 v2 v3\nconstraint subset 1 {1}: v1\n"
        )
        inst = parse_instance(text, domain=w)
        assert solve(inst).assignment == {"v1": "1", "v2": "0", "v3": "0"}

    def test_domain_file_reference(self, w, tmp_path):
        from agorad.domain import serialize_domain

        (tmp_path / "w.dom").write_text(serialize_domain(w))
        text = "domain w.dom\nvar a sort 1\n"
        inst = parse_instance(text, base_dir=tmp_path)
        assert inst.domain == w

    def test_second_domain_line_rejected(self, w, example2, tmp_path):
        from agorad.domain import serialize_domain

        (tmp_path / "w.dom").write_text(serialize_domain(w))
        (tmp_path / "e2.dom").write_text(serialize_domain(example2))
        text = "domain w.dom\ndomain e2.dom\nvar a sort 1\n"
        with pytest.raises(ParseError, match="line 2: duplicate 'domain' line"):
            parse_instance(text, base_dir=tmp_path)
        with pytest.raises(ParseError, match="line 2: duplicate 'domain' line"):
            parse_instance(text, domain=w, base_dir=tmp_path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("var a sort \u00b2\n", 1),
            ("var a sort 1\nconstraint subset \u00b2 {0}: a\n", 2),
        ],
        ids=["var-sort", "constraint-subset"],
    )
    def test_non_decimal_numeral_rejected_with_line_number(self, w, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text, domain=w)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("var x sort 0\ndomain w.dom\n", 1, "sort 0 of 'x' out of range 1..3"),
            (
                "domain w.dom\nvar x sort 1\nvar y sort 2\nvar v sort 3\n"
                "constraint X: x z v\n",
                5,
                "constraint scope uses unknown variable 'z'",
            ),
            (
                "var x sort 1\nvar y sort 2\nconstraint X: x y y\ndomain w.dom\n",
                3,
                r"scope sorts \(1, 2, 2\) do not match the signature \(1, 2, 3\)",
            ),
            (
                "domain w.dom\nconstraint subset 1 {0}: q\n",
                2,
                "constraint on unknown variable 'q'",
            ),
            (
                "domain w.dom\nvar x sort 1\nconstraint subset 2 {0}: x\n",
                3,
                "variable 'x' has sort 1, relation is on sort 2",
            ),
            (
                "domain w.dom\nvar x sort 1\n\nconstraint subset 1 {zz}: x\n",
                4,
                "unknown token 'zz' for issue 1",
            ),
        ],
        ids=["sort", "scope-variable", "scope-sorts", "subset-variable",
             "subset-sort", "subset-token"],
    )
    def test_misfit_line_reported_with_its_number(self, w, tmp_path, body, line, message):
        from agorad.domain import serialize_domain

        (tmp_path / "w.dom").write_text(serialize_domain(w))
        with pytest.raises(ParseError, match=f"^line {line}: {message}$") as err:
            parse_instance(body, base_dir=tmp_path)
        assert err.value.line == line

    def test_domain_file_error_reported_at_domain_line(self, tmp_path):
        (tmp_path / "bad.dom").write_text("issues 2\nalphabet 1: a b\nbogus\n")
        with pytest.raises(ParseError) as err:
            parse_instance("domain bad.dom\nvar x sort 1\n", base_dir=tmp_path)
        assert str(err.value) == (
            "line 1: domain file bad.dom: line 3: unknown directive 'bogus'"
        )
        assert err.value.line == 1

    def test_oversized_domain_file_reported_at_domain_line(self, tmp_path):
        rows = list(product(("0", "1"), repeat=7))[:65]
        big = build_domain([("0", "1")] * 7, rows, allow_large=True)
        (tmp_path / "big.dom").write_text(serialize_domain(big))
        with pytest.raises(CapacityError) as err:
            parse_instance("domain big.dom\nvar x sort 1\n", base_dir=tmp_path)
        assert str(err.value) == (
            "line 1: domain file big.dom: "
            "65 feasible tuples exceeds the guard of 64"
        )

    def test_missing_domain_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("var a sort 1\n")

    def test_bad_subset_syntax(self, w):
        with pytest.raises(ParseError):
            parse_instance("constraint subset 1 0,1: v\n", domain=w)


def random_instance(rng, domain):
    n_vars = rng.randint(1, 10)
    names = tuple(f"v{i}" for i in range(n_vars))
    sorts = {v: rng.randint(1, domain.issue_count) for v in names}
    constraints = []
    by_sort = {j: [v for v in names if sorts[v] == j] for j in range(1, domain.issue_count + 1)}
    if all(by_sort[j] for j in by_sort) and rng.random() < 0.8:
        scope = tuple(rng.choice(by_sort[j]) for j in range(1, domain.issue_count + 1))
        constraints.append(XConstraint(scope=scope))
    for v in names:
        if rng.random() < 0.5:
            alphabet = range(len(domain.alphabets[sorts[v] - 1]))
            size = rng.randint(1, len(alphabet))
            constraints.append(
                SubsetConstraint(
                    var=v, issue=sorts[v], allowed=frozenset(rng.sample(list(alphabet), size))
                )
            )
    return make_instance(domain, names, sorts, constraints)


def exhaustive_solve(inst):
    domain = inst.domain
    spaces = [
        [domain.token(inst.sorts[v], c) for c in range(len(domain.alphabets[inst.sorts[v] - 1]))]
        for v in inst.variables
    ]
    for combo in product(*spaces):
        assignment = dict(zip(inst.variables, combo))
        if verify_assignment(inst, assignment):
            return assignment
    return None


class TestSolverOracle:
    def test_agreement_on_random_instances(self, w, example2, z_affine):
        rng = random.Random(13)
        domains = [w, example2, z_affine]
        for _ in range(40):
            inst = random_instance(rng, rng.choice(domains))
            result = solve(inst)
            reference = exhaustive_solve(inst)
            if reference is None:
                assert result.status == UNSAT
            else:
                assert result.status == SAT
                assert verify_assignment(inst, result.assignment)

    def test_first_solution_in_solver_order(self, w, example2, z_affine):
        rng = random.Random(13)
        domains = [w, example2, z_affine]
        for _ in range(40):
            inst = random_instance(rng, rng.choice(domains))
            assert solve(inst).assignment == ordered_exhaustive_solve(inst)


def ordered_exhaustive_solve(inst):
    """First solution in the solver's order: variables by candidate count,
    declaration order breaking ties, values by code."""
    domain = inst.domain
    candidates = {}
    for v in inst.variables:
        allowed = set(range(len(domain.alphabets[inst.sorts[v] - 1])))
        for con in inst.constraints:
            if isinstance(con, SubsetConstraint) and con.var == v:
                allowed &= con.allowed
        candidates[v] = sorted(allowed)
    order = sorted(
        inst.variables, key=lambda v: (len(candidates[v]), inst.variables.index(v))
    )
    for combo in product(*(candidates[v] for v in order)):
        assignment = {v: domain.token(inst.sorts[v], c) for v, c in zip(order, combo)}
        if verify_assignment(inst, assignment):
            return assignment
    return None


def dense_random_instance(draw_id):
    """Seeded random instance: a 3-issue domain over 3 tokens with 8 to 16
    rows; 20 to 30 variables with sorts in turn, three X-constraints per
    variable on random scopes, and subset constraints on a quarter of the
    variables."""
    rng = random.Random(f"csp-solve:{draw_id}")
    while True:
        # the random stream of perfbench's csp-solve generator, which also
        # draws each alphabet size from a tuple of sizes
        alphabets = [tuple("abcd"[: rng.choice((3,))]) for _ in range(3)]
        rows = rng.sample(list(product(*alphabets)), rng.randint(8, 16))
        d = build_domain(alphabets, rows)
        if validate(d).ok:
            break
    n = rng.randint(20, 30)
    names = [f"v{i}" for i in range(n)]
    sorts = {v: i % 3 + 1 for i, v in enumerate(names)}
    by_sort = {j: names[j - 1 :: 3] for j in (1, 2, 3)}
    constraints = [
        XConstraint(scope=tuple(rng.choice(by_sort[j]) for j in (1, 2, 3)))
        for _ in range(3 * n)
    ]
    for i in sorted(rng.sample(range(n), n // 4)):
        alphabet = d.alphabets[i % 3]
        allowed = rng.sample(alphabet, rng.randint(1, len(alphabet) - 1))
        constraints.append(
            SubsetConstraint(
                var=names[i],
                issue=i % 3 + 1,
                allowed=frozenset(d.code(i % 3 + 1, tok) for tok in allowed),
            )
        )
    return make_instance(d, names, sorts, constraints)


class TestDenseInstances:
    # draws that a solver checking each X-constraint only once its last
    # variable is set left undecided after 20 000 nodes
    STALLED = (17, 21, 38, 92, 101, 110)

    @pytest.mark.parametrize("draw_id", STALLED)
    def test_decided_within_budget(self, draw_id):
        inst = dense_random_instance(draw_id)
        result = solve(inst, SearchBudget(max_nodes=20_000))
        assert result.status in (SAT, UNSAT)
        if result.status == SAT:
            assert verify_assignment(inst, result.assignment)
