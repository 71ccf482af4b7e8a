"""Feasible voting-pattern domains: parsing, validation, canonical form.

A domain consists of a fixed number of issues, a finite alphabet of
position tokens per issue, and a non-empty set of feasible voting patterns
(one token per issue). Tokens are mapped to dense integer codes when a
domain is built: a token's code is its position in the alphabet line, so
per-issue token order is first appearance. Every combinatorial routine in
this package works on codes; tokens reappear only at the text boundary.

Domain file format (UTF-8, line oriented, ``#`` starts a comment)::

    issues <m>
    alphabet <j>: <tok> <tok> ...     one line per issue, j = 1..m
    tuple: <tok> ... <tok>            one line per feasible pattern

Serialization emits exactly this shape with the feasible tuples sorted
lexicographically by code, so the canonical form is byte-stable and two
distinct canonical domains never serialize to the same bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import CapacityError, ParseError

# Desk-scale guards: every downstream search is exponential, so oversized
# inputs are rejected loudly unless the caller overrides.
MAX_ISSUES = 8
MAX_ALPHABET = 5
MAX_FEASIBLE = 64


class DuplicateTupleWarning(UserWarning):
    """Duplicate feasible tuples in the input were dropped."""


@dataclass(frozen=True)
class Violation:
    code: str
    subject: object  # 1-based issue index or the offending code tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Domain:
    """Immutable set of feasible voting patterns over per-issue alphabets.

    Fields hold integer codes; ``alphabets`` is the token table that maps
    codes back to text. ``projections[j-1]`` is the sorted set of codes
    actually occurring in column j of ``feasible``.
    """

    alphabets: tuple[tuple[str, ...], ...]
    feasible: tuple[tuple[int, ...], ...]
    projections: tuple[tuple[int, ...], ...]

    @property
    def issue_count(self) -> int:
        return len(self.alphabets)

    @cached_property
    def feasible_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.feasible)

    @cached_property
    def _selection_tables(self) -> dict:
        # arity -> selection table, filled by aggregators._propagation_tables
        return {}

    @cached_property
    def _code_maps(self) -> tuple[dict[str, int], ...]:
        return tuple({tok: i for i, tok in enumerate(alpha)} for alpha in self.alphabets)

    def _check_issue(self, j: int) -> None:
        if not 1 <= j <= self.issue_count:
            raise ValueError(f"issue index {j} out of range 1..{self.issue_count}")

    def alphabet(self, j: int) -> tuple[str, ...]:
        """Alphabet tokens of issue j (1-based)."""
        self._check_issue(j)
        return self.alphabets[j - 1]

    def projection(self, j: int) -> tuple[int, ...]:
        """Codes occurring in column j of the feasible set (1-based j)."""
        self._check_issue(j)
        return self.projections[j - 1]

    def token(self, j: int, code: int) -> str:
        self._check_issue(j)
        alpha = self.alphabets[j - 1]
        if not 0 <= code < len(alpha):
            raise ValueError(f"code {code} out of range for issue {j}")
        return alpha[code]

    def code(self, j: int, token: str) -> int:
        self._check_issue(j)
        try:
            return self._code_maps[j - 1][token]
        except KeyError:
            raise ValueError(f"unknown token {token!r} for issue {j}") from None

    def row_tokens(self, row: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.alphabets[jj][c] for jj, c in enumerate(row))


def build_domain(
    alphabets,
    rows,
    *,
    allow_large: bool = False,
) -> Domain:
    """Canonicalize token data into a Domain.

    ``alphabets`` is a sequence of token sequences, ``rows`` a sequence of
    token tuples. Duplicate rows are dropped with a DuplicateTupleWarning;
    rows are sorted lexicographically by code. Raises ValueError on arity
    or token errors and CapacityError when desk-scale guards trip.
    """
    alphas = tuple(tuple(a) for a in alphabets)
    m = len(alphas)
    if m < 1:
        raise ValueError("a domain needs at least one issue")
    if not allow_large and m > MAX_ISSUES:
        raise CapacityError(f"{m} issues exceeds the guard of {MAX_ISSUES}")
    for j, alpha in enumerate(alphas, start=1):
        if len(set(alpha)) != len(alpha):
            raise ValueError(f"alphabet {j} repeats a token")
        if not allow_large and len(alpha) > MAX_ALPHABET:
            raise CapacityError(
                f"alphabet {j} has {len(alpha)} tokens, guard is {MAX_ALPHABET}"
            )
    code_maps = [{tok: i for i, tok in enumerate(alpha)} for alpha in alphas]

    coded: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    duplicates = 0
    for row in rows:
        row = tuple(row)
        if len(row) != m:
            raise ValueError(f"tuple {row!r} has {len(row)} tokens, expected {m}")
        try:
            code_row = tuple(code_maps[jj][tok] for jj, tok in enumerate(row))
        except KeyError:
            bad = next(tok for jj, tok in enumerate(row) if tok not in code_maps[jj])
            raise ValueError(f"unknown token {bad!r} in tuple {row!r}") from None
        if code_row in seen:
            duplicates += 1
            continue
        seen.add(code_row)
        coded.append(code_row)
    if not coded:
        raise ValueError("a domain needs at least one feasible tuple")
    if duplicates:
        warnings.warn(
            f"dropped {duplicates} duplicate feasible tuple(s)",
            DuplicateTupleWarning,
            stacklevel=2,
        )
    if not allow_large and len(coded) > MAX_FEASIBLE:
        raise CapacityError(
            f"{len(coded)} feasible tuples exceeds the guard of {MAX_FEASIBLE}"
        )
    coded.sort()
    projections = tuple(
        tuple(sorted({row[jj] for row in coded})) for jj in range(m)
    )
    return Domain(alphabets=alphas, feasible=tuple(coded), projections=projections)


def parse_domain(text: str, *, allow_large: bool = False) -> Domain:
    """Parse domain file text into a canonical Domain.

    Raises ParseError with a line number on malformed input.
    """
    issue_count: int | None = None
    alphabets: dict[int, tuple[str, ...]] = {}
    tuple_lines: list[tuple[int, list[str]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "issues":
            if issue_count is not None:
                raise ParseError("duplicate 'issues' line", line_no)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise ParseError("expected 'issues <m>'", line_no)
            issue_count = int(fields[1])
            if issue_count < 1:
                raise ParseError("issue count must be positive", line_no)
        elif fields[0] == "alphabet":
            if issue_count is None:
                raise ParseError("'alphabet' before 'issues'", line_no)
            head, sep, rest = line.partition(":")
            head_fields = head.split()
            if not sep or len(head_fields) != 2 or not head_fields[1].isdecimal():
                raise ParseError("expected 'alphabet <j>: <tok> ...'", line_no)
            j = int(head_fields[1])
            if not 1 <= j <= issue_count:
                raise ParseError(f"alphabet index {j} out of range", line_no)
            if j in alphabets:
                raise ParseError(f"duplicate alphabet for issue {j}", line_no)
            tokens = rest.split()
            if not tokens:
                raise ParseError(f"alphabet {j} is empty", line_no)
            if len(set(tokens)) != len(tokens):
                raise ParseError(f"alphabet {j} repeats a token", line_no)
            alphabets[j] = tuple(tokens)
        elif fields[0] in ("tuple", "tuple:"):
            if issue_count is None:
                raise ParseError("'tuple' before 'issues'", line_no)
            _, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected 'tuple: <tok> ...'", line_no)
            tuple_lines.append((line_no, rest.split()))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", line_no)

    if issue_count is None:
        raise ParseError("missing 'issues' header")
    if len(alphabets) < issue_count:
        missing = next(j for j in range(1, issue_count + 1) if j not in alphabets)
        raise ParseError(f"missing alphabet line for issue {missing}")
    if not tuple_lines:
        raise ParseError("no feasible tuples")

    ordered_alphas = [alphabets[j] for j in range(1, issue_count + 1)]
    code_maps = [{tok: i for i, tok in enumerate(a)} for a in ordered_alphas]
    rows: list[tuple[str, ...]] = []
    for line_no, tokens in tuple_lines:
        if len(tokens) != issue_count:
            raise ParseError(
                f"tuple has {len(tokens)} tokens, expected {issue_count}", line_no
            )
        for jj, tok in enumerate(tokens):
            if tok not in code_maps[jj]:
                raise ParseError(f"unknown token {tok!r} for issue {jj + 1}", line_no)
        rows.append(tuple(tokens))
    return build_domain(ordered_alphas, rows, allow_large=allow_large)


def serialize_domain(d: Domain) -> str:
    """Emit the canonical domain file text for ``d``."""
    out = [f"issues {d.issue_count}"]
    for j in range(1, d.issue_count + 1):
        out.append(f"alphabet {j}: " + " ".join(d.alphabets[j - 1]))
    for row in d.feasible:
        out.append("tuple: " + " ".join(d.row_tokens(row)))
    return "\n".join(out) + "\n"


def validate(d: Domain) -> ValidationReport:
    """Check every Domain invariant; violations are data, nothing raises."""
    violations: list[Violation] = []
    m = d.issue_count
    if not d.feasible:
        violations.append(Violation("EMPTY", None, "no feasible tuples"))
    for j in range(1, m + 1):
        if len(d.alphabets[j - 1]) < 2:
            violations.append(
                Violation("ALPHABET_SIZE", j, f"alphabet {j} has fewer than 2 tokens")
            )
    columns: list[set[int]] = [set() for _ in range(m)]
    seen: set[tuple[int, ...]] = set()
    for row in d.feasible:
        if len(row) != m:
            violations.append(
                Violation("ARITY", row, f"tuple has arity {len(row)}, expected {m}")
            )
            continue
        bad = False
        for jj, c in enumerate(row):
            if not 0 <= c < len(d.alphabets[jj]):
                violations.append(
                    Violation("UNKNOWN_VALUE", row, f"code {c} invalid for issue {jj + 1}")
                )
                bad = True
        if bad:
            continue
        if row in seen:
            violations.append(Violation("DUPLICATE", row, "duplicate feasible tuple"))
        seen.add(row)
        for jj, c in enumerate(row):
            columns[jj].add(c)
    for j in range(1, m + 1):
        if len(columns[j - 1]) < 2:
            violations.append(
                Violation(
                    "NON_DEGENERACY",
                    j,
                    f"issue {j} takes {len(columns[j - 1])} value(s) in the feasible set",
                )
            )
    if len(d.projections) != m:
        violations.append(
            Violation("PROJECTION_MISMATCH", None, "projection list has wrong length")
        )
    else:
        for j in range(1, m + 1):
            if tuple(sorted(columns[j - 1])) != d.projections[j - 1]:
                violations.append(
                    Violation(
                        "PROJECTION_MISMATCH",
                        j,
                        f"stored projection for issue {j} differs from column values",
                    )
                )
    return ValidationReport(tuple(violations))


def require_valid(d: Domain) -> None:
    """Raise ValueError when ``d`` violates any invariant."""
    report = validate(d)
    if not report.ok:
        detail = "; ".join(f"{v.code}({v.subject})" for v in report.violations)
        raise ValueError(f"invalid domain: {detail}")


def two_element_subsets(d: Domain, j: int) -> list[tuple[int, int]]:
    """All unordered pairs of distinct codes in the projection of issue j.

    Pairs come back as (smaller, larger) in lexicographic order; j is
    1-based and out-of-range indices raise ValueError.
    """
    d._check_issue(j)
    return list(combinations(d.projections[j - 1], 2))


def product_domain(left: Domain, right: Domain, *, allow_large: bool = False) -> Domain:
    """Cartesian product: issues concatenate, feasible sets multiply."""
    alphabets = left.alphabets + right.alphabets
    rows = [
        left.row_tokens(a) + right.row_tokens(b)
        for a in left.feasible
        for b in right.feasible
    ]
    return build_domain(alphabets, rows, allow_large=allow_large)
