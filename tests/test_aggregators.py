import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorad.aggregators import (
    FOUR_OPS,
    AggregatorTuple,
    OperationTable,
    diamond,
    eval_named,
    is_closed,
    is_dictatorial,
    is_locally_monomorphic,
    is_uniformly_nondictatorial,
    operation_from_callable,
    parse_aggregator,
    projection_aggregator,
    require_aggregator,
    restriction_class,
    serialize_aggregator,
    superpose,
)
from agorad.domain import build_domain, two_element_subsets
from agorad.errors import CapacityError, ParseError
from agorad.fixtures import fixture_domain
from agorad.search import FOUND, find_component_nonprojection

from helpers import naive_is_closed, random_domain


def minority_witness(example3):
    """Odd-one-out everywhere, first value on pairwise-distinct arguments."""

    def _odd(u, v, w):
        if u == v:
            return w
        if v == w:
            return u
        return v

    comps = tuple(
        operation_from_callable(
            example3, j, 3, lambda u, v, w: 0 if len({u, v, w}) == 3 else _odd(u, v, w)
        )
        for j in range(1, 4)
    )
    return AggregatorTuple(arity=3, components=comps)


def random_supportive(rng, d, arity):
    """A projection with a random share of its cells, from none to all,
    moved to a random argument: closed, nearly closed or arbitrary."""
    share = rng.choice((0.0, 0.02, 0.2, 1.0))
    dictator = rng.randrange(arity)
    comps = []
    for j in range(1, d.issue_count + 1):
        values = d.projection(j)
        table = tuple(
            rng.choice(args) if rng.random() < share else args[dictator]
            for args in product(values, repeat=arity)
        )
        comps.append(OperationTable(issue=j, arity=arity, values=values, table=table))
    return AggregatorTuple(arity=arity, components=tuple(comps))


def tables_by_args(d, agg):
    """Per issue, the table as a dict keyed by argument tuple."""
    return [
        dict(zip(product(d.projection(j), repeat=agg.arity), agg.component(j).table))
        for j in range(1, d.issue_count + 1)
    ]


@pytest.fixture(scope="module")
def witness_sets():
    """Distinct component witnesses, one per (issue, pair) that has one, on
    the small fixtures and 30 seeded draws; domains with fewer than two
    are skipped."""
    rng = random.Random(7)
    names = ("example2", "example3", "wxw", "y-horn", "z-affine", "yz-product")
    domains = [fixture_domain(n) for n in names]
    domains += [random_domain(rng) for _ in range(30)]
    sets = []
    for d in domains:
        found = []
        for j in range(1, d.issue_count + 1):
            for pair in two_element_subsets(d, j):
                outcome = find_component_nonprojection(d, j, pair)
                if outcome.status == FOUND and outcome.witness not in found:
                    found.append(outcome.witness)
        if len(found) >= 2:
            sets.append((d, found))
    return sets


def majority_witness(example2):
    def _maj(u, v, w):
        return u if u == v or u == w else v

    comps = tuple(
        operation_from_callable(
            example2, j, 3, lambda u, v, w: 0 if len({u, v, w}) == 3 else _maj(u, v, w)
        )
        for j in range(1, 4)
    )
    return AggregatorTuple(arity=3, components=comps)


class TestEvalNamed:
    def test_maj_returns_duplicated_value(self):
        assert eval_named("maj", None, "a", "a", "b") == "a"
        assert eval_named("maj", None, "a", "b", "a") == "a"
        assert eval_named("maj", None, "b", "a", "a") == "a"

    def test_xor3_returns_odd_one_out(self):
        assert eval_named("xor3", ("c", "d"), "c", "d", "d") == "c"
        assert eval_named("xor3", ("c", "d"), "c", "c", "d") == "d"

    def test_and3_with_labeling(self):
        assert eval_named("and3", (0, 1), 1, 1, 0) == 0
        assert eval_named("and3", (0, 1), 1, 1, 1) == 1
        assert eval_named("or3", (0, 1), 0, 0, 1) == 1

    def test_distinct_arguments_rejected(self):
        with pytest.raises(ValueError):
            eval_named("maj", None, 1, 2, 3)
        with pytest.raises(ValueError):
            eval_named("xor3", (1, 2), 1, 2, 3)

    def test_value_outside_labeling_rejected(self):
        with pytest.raises(ValueError):
            eval_named("and3", (0, 1), 0, 0, 2)


class TestSupportiveness:
    def test_unsupportive_table_rejected(self):
        with pytest.raises(ValueError):
            OperationTable(issue=1, arity=2, values=(0, 1), table=(0, 0, 0, 0))

    def test_projection_tables_supportive(self, example2):
        for n in (2, 3, 4):
            for dct in range(1, n + 1):
                agg = projection_aggregator(example2, n, dct)
                assert agg.arity == n


class TestIsClosed:
    def test_minority_witness_closed(self, example3):
        assert is_closed(example3, minority_witness(example3)).ok

    def test_projections_always_closed(self, example2, w):
        for d in (example2, w):
            for dct in (1, 2):
                assert is_closed(d, projection_aggregator(d, 2, dct)).ok

    def test_binary_and_on_w_counterexample(self, w):
        comps = tuple(
            operation_from_callable(w, j, 2, lambda u, v: u & v) for j in range(1, 4)
        )
        result = is_closed(w, AggregatorTuple(arity=2, components=comps))
        assert not result.ok
        # lexicographically first counterexample over canonical row order
        assert result.counterexample == ((0, 0, 1), (0, 1, 0))

    def test_agrees_with_naive_reimplementation(self, w, example2, example3):
        cases = []
        for d in (w, example2, example3):
            cases.append((d, projection_aggregator(d, 2, 1)))
            cases.append((d, projection_aggregator(d, 3, 2)))
        cases.append((example3, minority_witness(example3)))
        cases.append((example2, majority_witness(example2)))
        w_and = AggregatorTuple(
            arity=2,
            components=tuple(
                operation_from_callable(w, j, 2, lambda u, v: u & v)
                for j in range(1, 4)
            ),
        )
        cases.append((w, w_and))
        rng = random.Random(19)
        for arity, max_rows in ((2, 10), (3, 8), (4, 5)):
            for _ in range(40):
                d = random_domain(rng, max_rows=max_rows)
                cases.append((d, random_supportive(rng, d, arity)))
        outcomes = set()
        for d, agg in cases:
            result = is_closed(d, agg)
            assert (result.ok, result.counterexample) == naive_is_closed(d, agg)
            outcomes.add(result.ok)
        assert outcomes == {True, False}

    def test_selection_guard_raises_before_scanning(self):
        # 65^3 selections exceed the 64^3 guard of the selection table
        rows = list(product("01", repeat=7))[:65]
        d = build_domain([("0", "1")] * 7, rows, allow_large=True)
        with pytest.raises(CapacityError, match="table-build guard"):
            is_closed(d, projection_aggregator(d, 3, 1))


class TestIsDictatorial:
    def test_projection_tuples_for_all_arities(self, w, example2):
        for d in (w, example2):
            for n in (2, 3, 4):
                for dct in range(1, n + 1):
                    assert is_dictatorial(d, projection_aggregator(d, n, dct)) == dct

    def test_product_mixed_projection_not_dictatorial(self, wxw):
        comps = tuple(
            operation_from_callable(
                wxw, j, 2, (lambda u, v: u) if j <= 3 else (lambda u, v: v)
            )
            for j in range(1, 7)
        )
        agg = AggregatorTuple(arity=2, components=comps)
        assert is_dictatorial(wxw, agg) is None

    def test_majority_witness_not_dictatorial(self, example2):
        assert is_dictatorial(example2, majority_witness(example2)) is None


class TestRestrictionClass:
    def test_maj_table_classifies_maj(self, example2):
        agg = majority_witness(example2)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert restriction_class(agg.component(1), pair).tag == "MAJ"

    def test_explicit_xor_table(self):
        d = build_domain([("0", "1")], [("0",), ("1",)])
        table = operation_from_callable(d, 1, 3, lambda x, y, z: x ^ y ^ z)
        assert restriction_class(table, (0, 1)).tag == "XOR3"

    def test_projection_restriction(self, example2):
        agg = projection_aggregator(example2, 3, 2)
        cls = restriction_class(agg.component(1), (0, 1))
        assert cls.tag == "PROJECTION" and cls.dictator == 2

    def test_four_op_set_exhausts_commutative_tables(self):
        # all 64 supportive ternary tables on a two-element set: the four
        # commutative ones are exactly AND3, OR3, MAJ, XOR3
        d = build_domain([("0", "1")], [("0",), ("1",)])
        cells = list(product((0, 1), repeat=3))
        free = [c for c in cells if len(set(c)) == 2]
        tags = []
        count = 0
        for choice in product(*[(0, 1)] * len(free)):
            table = {}
            for c in cells:
                if len(set(c)) == 1:
                    table[c] = c[0]
            for c, v in zip(free, choice):
                table[c] = v
            op = OperationTable(
                issue=1,
                arity=3,
                values=(0, 1),
                table=tuple(table[c] for c in cells),
            )
            count += 1
            cls = restriction_class(op, (0, 1))
            commutative = all(
                op.apply(c) == op.apply(p)
                for c in cells
                for p in set(__import__("itertools").permutations(c))
            )
            assert commutative == (cls.tag in FOUR_OPS)
            if cls.tag in FOUR_OPS:
                tags.append(cls.tag)
        assert count == 64
        assert sorted(tags) == ["AND3", "MAJ", "OR3", "XOR3"]

    def test_labeling_swap_keeps_four_op_membership(self):
        d = build_domain([("0", "1")], [("0",), ("1",)])
        for fn, tag in (
            (lambda x, y, z: x & y & z, "AND3"),
            (lambda x, y, z: x | y | z, "OR3"),
        ):
            op = operation_from_callable(d, 1, 3, fn)
            assert restriction_class(op, (0, 1)).tag == tag
            # relabel by complementing: and becomes or
            swapped = operation_from_callable(d, 1, 3, lambda x, y, z: 1 - fn(1 - x, 1 - y, 1 - z))
            assert restriction_class(swapped, (0, 1)).tag in FOUR_OPS


class TestUniformlyNondictatorial:
    def test_minority_witness_uniform(self, example3):
        assert is_uniformly_nondictatorial(example3, minority_witness(example3)).ok

    def test_projection_fails_everywhere(self, example2):
        result = is_uniformly_nondictatorial(
            example2, projection_aggregator(example2, 3, 1)
        )
        assert not result.ok
        pairs_per_issue = 3  # C(3,2) on each of three issues
        assert len(result.failures) == 3 * pairs_per_issue
        assert all(dct == 1 for _, _, dct in result.failures)

    def test_product_projection_tuple_fails(self, wxw):
        comps = tuple(
            operation_from_callable(
                wxw, j, 2, (lambda u, v: u) if j <= 3 else (lambda u, v: v)
            )
            for j in range(1, 7)
        )
        assert not is_uniformly_nondictatorial(
            wxw, AggregatorTuple(arity=2, components=comps)
        ).ok


class TestLocallyMonomorphic:
    def test_minority_witness(self, example3):
        assert is_locally_monomorphic(example3, minority_witness(example3))

    def test_majority_witness(self, example2):
        assert is_locally_monomorphic(example2, majority_witness(example2))

    def test_dictatorial_tuples(self, w, example2):
        for d in (w, example2):
            for dct in (1, 2, 3):
                assert is_locally_monomorphic(d, projection_aggregator(d, 3, dct))

    def test_mixed_product_projections_fail(self, wxw):
        comps = tuple(
            operation_from_callable(
                wxw, j, 2, (lambda u, v: u) if j <= 3 else (lambda u, v: v)
            )
            for j in range(1, 7)
        )
        assert not is_locally_monomorphic(wxw, AggregatorTuple(arity=2, components=comps))


class TestSuperpose:
    def test_identity_superposition(self, example2):
        f = majority_witness(example2)  # ternary; use binary case per spec too
        g = superpose(
            example2,
            f,
            [projection_aggregator(example2, 3, i) for i in (1, 2, 3)],
        )
        assert g == f

    def test_binary_identity_superposition(self, w):
        comps = tuple(
            operation_from_callable(w, j, 2, lambda u, v: u) for j in range(1, 4)
        )
        f = AggregatorTuple(arity=2, components=comps)
        assert superpose(w, f, [projection_aggregator(w, 2, 1), projection_aggregator(w, 2, 2)]) == f

    def test_dictator_superposition_selects(self, example3):
        hs = [
            minority_witness(example3),
            projection_aggregator(example3, 3, 1),
        ]
        g = superpose(example3, projection_aggregator(example3, 2, 1), hs)
        assert g == hs[0]
        g2 = superpose(example3, projection_aggregator(example3, 2, 2), hs)
        assert g2 == hs[1]

    def test_restrictions_compose_like_a_clone(self, example3):
        # restriction of a superposition equals superposing restrictions:
        # evaluate both sides cell by cell on a two-element subset
        f = minority_witness(example3)
        hs = [projection_aggregator(example3, 3, i) for i in (2, 3, 1)]
        g = superpose(example3, f, hs)
        pair = (0, 1)
        for args in product(pair, repeat=3):
            inner = tuple(h.component(1).apply(args) for h in hs)
            assert g.component(1).apply(args) == f.component(1).apply(inner)

    def test_refuses_unverified_tuples(self, w):
        comps = tuple(
            operation_from_callable(w, j, 2, lambda u, v: u & v) for j in range(1, 4)
        )
        not_closed = AggregatorTuple(arity=2, components=comps)
        with pytest.raises(ValueError):
            superpose(w, not_closed, [projection_aggregator(w, 2, 1)] * 2)

    def test_matches_cellwise_composition(self, witness_sets):
        # non-projection operands, expected tables read from dicts; the
        # operand order must matter somewhere, or the check pins nothing
        order_matters = False
        for d, found in witness_sets:
            for f, g in permutations(found, 2):
                inners = (g, g, f)
                got = tables_by_args(d, superpose(d, f, inners))
                fs = tables_by_args(d, f)
                hs = [tables_by_args(d, h) for h in inners]
                for j, (fj, gotj) in enumerate(zip(fs, got)):
                    for args in gotj:
                        ins = [h[j][args] for h in hs]
                        assert gotj[args] == fj[tuple(ins)]
                        order_matters |= fj[tuple(ins)] != fj[tuple(reversed(ins))]
        assert order_matters

    def test_closure_on_another_domain_does_not_carry_over(self, w):
        def and_tuple(d):
            comps = tuple(
                operation_from_callable(d, j, 2, lambda u, v: u & v)
                for j in range(1, 4)
            )
            return AggregatorTuple(arity=2, components=comps)

        full = fixture_domain("full-boolean-3")
        closed_on_full = and_tuple(full)
        require_aggregator(full, closed_on_full)
        and_on_w = and_tuple(w)
        assert and_on_w == closed_on_full
        with pytest.raises(ValueError, match="not an aggregator"):
            superpose(w, and_on_w, [and_on_w] * 2)


class TestDiamond:
    def test_dictator_first_argument_yields_second(self, example3):
        g = minority_witness(example3)
        assert diamond(example3, projection_aggregator(example3, 3, 1), g) == g

    def test_commutative_inputs_stay_four_op(self, example3):
        from agorad.domain import two_element_subsets

        f = minority_witness(example3)
        h = diamond(example3, f, f)
        for j in range(1, 4):
            for pair in two_element_subsets(example3, j):
                assert restriction_class(h.component(j), pair).tag in FOUR_OPS

    def test_matches_cyclic_rotation_cellwise(self, witness_sets):
        # f_j(g_j(x,y,z), g_j(y,z,x), g_j(z,x,y)) from dicts, on distinct
        # non-projection witnesses; some cell must tell the rotation from
        # its reverse, or the check pins nothing
        rotation_matters = False
        for d, found in witness_sets:
            for f, g in permutations(found, 2):
                got = tables_by_args(d, diamond(d, f, g))
                for fj, gj, gotj in zip(
                    tables_by_args(d, f), tables_by_args(d, g), got
                ):
                    for x, y, z in gotj:
                        a, b, c = gj[x, y, z], gj[y, z, x], gj[z, x, y]
                        assert gotj[x, y, z] == fj[a, b, c]
                        rotation_matters |= fj[a, b, c] != fj[a, c, b]
        assert rotation_matters

    def test_non_ternary_rejected(self, w):
        binary = projection_aggregator(w, 2, 1)
        with pytest.raises(ValueError):
            diamond(w, binary, binary)


class TestSerialization:
    def test_roundtrip_bit_exact(self, example3, example2, w):
        cases = [
            (example3, minority_witness(example3)),
            (example2, majority_witness(example2)),
            (w, projection_aggregator(w, 2, 1)),
        ]
        for d, agg in cases:
            text = serialize_aggregator(d, agg)
            back = parse_aggregator(text, d)
            assert back == agg
            assert serialize_aggregator(d, back) == text

    def test_header_format(self, w):
        text = serialize_aggregator(w, projection_aggregator(w, 2, 2))
        lines = text.splitlines()
        assert lines[0] == "aggregator arity 2"
        assert lines[1] == "component 1:"
        assert lines[2] == "0 0 -> 0"


# complete tables of two cells on w, which an arity-1 header would match
W_TWO_CELL_TABLES = "".join(f"component {j}:\n0 -> 0\n1 -> 1\n" for j in (1, 2, 3))


@pytest.mark.parametrize(
    "text, message",
    [
        ("aggregator arity 2\ncomponent\n", "line 2: expected 'component <j>:'"),
        ("aggregator arity 2\ncomponent ²:\n", "line 2: expected 'component <j>:'"),
        (
            "aggregator arity 2\ncomponent 1: junk here\n",
            "line 2: expected 'component <j>:'",
        ),
        ("aggregator arity 2\ncomponent 3::\n", "line 2: expected 'component <j>:'"),
        ("aggregator arity ²\n", "line 1: expected 'aggregator arity <n>'"),
        ("aggregator arity 1\n" + W_TWO_CELL_TABLES, "line 1: arity 1 outside 2..4"),
        ("aggregator arity 0\n", "line 1: arity 0 outside 2..4"),
        ("aggregator arity 5\ncomponent 1:\n", "line 1: arity 5 outside 2..4"),
        (
            "aggregator arity 2\naggregator arity 3\n",
            "line 2: duplicate 'aggregator' header",
        ),
    ],
)
def test_parse_aggregator_rejects_with_line_number(w, text, message):
    with pytest.raises(ParseError) as caught:
        parse_aggregator(text, w)
    assert str(caught.value) == message


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from(["MAJ", "XOR3", "AND3", "OR3"]),
)
def test_eval_named_matches_boolean_reference(x, y, z, tag):
    from helpers import boolean_table

    assert eval_named(tag.lower(), (0, 1), x, y, z) == boolean_table(tag)(x, y, z)


def test_arity_cap():
    with pytest.raises(ValueError):
        OperationTable(issue=1, arity=5, values=(0, 1), table=(0,) * 32)
    with pytest.raises(ValueError):
        OperationTable(issue=1, arity=1, values=(0, 1), table=(0, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4))
def test_dictatorial_detection_randomized(n, dct):
    if dct > n:
        dct = ((dct - 1) % n) + 1
    d = build_domain(
        [("a", "b"), ("a", "b", "c")], [("a", "a"), ("b", "b"), ("a", "c")]
    )
    assert is_dictatorial(d, projection_aggregator(d, n, dct)) == dct
