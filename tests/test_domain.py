import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorad.domain import (
    Domain,
    DuplicateTupleWarning,
    build_domain,
    parse_domain,
    product_domain,
    serialize_domain,
    two_element_subsets,
    validate,
)
from agorad.errors import CapacityError, ParseError

W_TEXT = """\
issues 3
alphabet 1: 0 1
alphabet 2: 0 1
alphabet 3: 0 1
tuple: 1 0 0
tuple: 0 1 0
tuple: 0 0 1
"""


def test_parse_w():
    d = parse_domain(W_TEXT)
    assert d.issue_count == 3
    assert d.feasible == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert d.projections == ((0, 1), (0, 1), (0, 1))


def test_parse_canonicalizes_order():
    d = parse_domain(W_TEXT)
    # canonical serialization sorts tuples lexicographically by code
    assert serialize_domain(d).splitlines()[4:] == [
        "tuple: 0 0 1",
        "tuple: 0 1 0",
        "tuple: 1 0 0",
    ]


def test_parse_strips_comments_and_blanks():
    text = "# heading\n\nissues 1\nalphabet 1: x y  # two options\ntuple: x\ntuple: y\n"
    d = parse_domain(text)
    assert d.feasible == ((0,), (1,))


def test_single_tuple_degenerate_projection():
    d = build_domain([("a", "b"), ("a", "b")], [("a", "a")])
    report = validate(d)
    assert not report.ok
    assert {v.code for v in report.violations} == {"NON_DEGENERACY"}
    assert sorted(v.subject for v in report.violations) == [1, 2]


def test_example2_shape(example2):
    assert len(example2.feasible) == 7
    assert example2.projections == ((0, 1, 2), (0, 1, 2), (0, 1, 2))


def test_validate_w_ok(w):
    assert validate(w).ok


def test_validate_constant_column():
    d = build_domain([("0", "1"), ("0", "1")], [("0", "0"), ("0", "1")])
    report = validate(d)
    codes = {(v.code, v.subject) for v in report.violations}
    assert ("NON_DEGENERACY", 1) in codes


def test_validate_arity_mismatch(w):
    broken = Domain(
        alphabets=w.alphabets,
        feasible=w.feasible + ((0, 1),),
        projections=w.projections,
    )
    report = validate(broken)
    assert any(v.code == "ARITY" for v in report.violations)


def test_validate_projection_mismatch(w):
    broken = Domain(
        alphabets=w.alphabets,
        feasible=w.feasible,
        projections=((0,), (0, 1), (0, 1)),
    )
    report = validate(broken)
    assert any(v.code == "PROJECTION_MISMATCH" for v in report.violations)


def test_two_element_subsets_w(w):
    assert two_element_subsets(w, 1) == [(0, 1)]


def test_two_element_subsets_example2(example2):
    assert two_element_subsets(example2, 1) == [(0, 1), (0, 2), (1, 2)]


def test_two_element_subsets_out_of_range(w):
    with pytest.raises(ValueError):
        two_element_subsets(w, 4)


def test_duplicate_tuples_warn_and_dedupe():
    with pytest.warns(DuplicateTupleWarning):
        d = build_domain([("0", "1")], [("0",), ("1",), ("0",)])
    assert d.feasible == ((0,), (1,))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_domain("issues 1\nalphabet 1: a b\ntuple: a c\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_domain("issues 2\nalphabet 1: a b\nalphabet 2: a b\ntuple: a\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_domain("alphabet 1: a b\n")


@pytest.mark.parametrize(
    "text, line",
    [("issues \u00b2\n", 1), ("issues 1\nalphabet \u00b2: a b\ntuple: a\n", 2)],
    ids=["issues", "alphabet"],
)
def test_non_decimal_numeral_rejected_with_line_number(text, line):
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, missing",
    [("issues 3\nalphabet 1: a b\ntuple: a\n", 2), ("issues 1000000\ntuple: a\n", 1)],
    ids=["second-of-3", "first-of-1000000"],
)
def test_missing_alphabet_names_first_missing_issue(text, missing):
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert str(err.value) == f"missing alphabet line for issue {missing}"


def test_capacity_guards():
    with pytest.raises(CapacityError):
        build_domain([("0", "1")] * 9, [tuple("0" for _ in range(9))])
    big_alpha = tuple(str(i) for i in range(6))
    with pytest.raises(CapacityError):
        build_domain([big_alpha], [(t,) for t in big_alpha])
    # override lifts the guard
    d = build_domain([big_alpha], [(t,) for t in big_alpha], allow_large=True)
    assert d.issue_count == 1


def test_product_domain(w):
    p = product_domain(w, w)
    assert p.issue_count == 6
    assert len(p.feasible) == 9


tokens = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def domains(draw):
    from itertools import product as iproduct

    m = draw(st.integers(1, 3))
    alphabets = []
    for _ in range(m):
        size = draw(st.integers(2, 3))
        alphabets.append(["a", "b", "c", "d"][:size])
    universe = list(iproduct(*alphabets))
    rows = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
    )
    return build_domain(alphabets, rows)


@settings(max_examples=60, deadline=None)
@given(domains())
def test_parse_serialize_roundtrip(d):
    assert parse_domain(serialize_domain(d)) == d


@settings(max_examples=60, deadline=None)
@given(domains(), domains())
def test_serialization_separates_domains(d1, d2):
    if d1 == d2:
        assert serialize_domain(d1) == serialize_domain(d2)
    else:
        assert serialize_domain(d1) != serialize_domain(d2)


@settings(max_examples=60, deadline=None)
@given(domains())
def test_projections_match_columns(d):
    for j in range(1, d.issue_count + 1):
        column = {row[j - 1] for row in d.feasible}
        assert tuple(sorted(column)) == d.projection(j)
