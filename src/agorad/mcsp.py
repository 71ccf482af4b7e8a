"""Multi-sorted CSP instances over a domain's conservative language.

The language consists of the feasible set itself, with signature
(1, ..., m), plus every non-empty subset of every issue's alphabet as a
unary relation on that sort. Instances assign each variable a sort and
constrain tuples of variables by those relations. The solver runs the
engine of the witness searches (``agorad.search``), which checks an
X-constraint, and forces values through it, once any variable in it is set.
The tractability label computed elsewhere classifies the problem; it makes
no promise about the solver's running time.

Instance file format (``#`` starts a comment)::

    domain <path>
    var <name> sort <j>
    constraint X: <v1> ... <vm>
    constraint subset <j> {tok,tok}: <v>
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .domain import Domain, parse_domain, require_valid
from .errors import CapacityError, ParseError, SignatureError, VerificationError
from .search import (
    EXHAUSTED,
    FOUND,
    SearchBudget,
    _deadline,
    _search_instance,
    _Var,
)

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class XConstraint:
    """Scope constrained by the feasible set; sorts must read 1..m."""

    scope: tuple[str, ...]


@dataclass(frozen=True)
class SubsetConstraint:
    """Unary constraint: the variable's value lies in ``allowed`` (codes)."""

    var: str
    issue: int
    allowed: frozenset[int]


@dataclass(frozen=True)
class RelationDescriptor:
    kind: str  # "X" | "subset"
    signature: tuple[int, ...]
    members: tuple


@dataclass
class McspInstance:
    domain: Domain
    variables: tuple[str, ...]
    sorts: dict[str, int]  # 1-based issue per variable
    constraints: tuple[XConstraint | SubsetConstraint, ...]


@dataclass(frozen=True)
class SolveResult:
    status: str  # SAT | UNSAT | UNKNOWN
    assignment: dict[str, str] | None = None


def make_instance(domain, variables, sorts, constraints) -> McspInstance:
    """Validate and assemble an instance; signature mismatches raise."""
    require_valid(domain)
    variables = tuple(variables)
    sorts = dict(sorts)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable name")
    for v in variables:
        if v not in sorts:
            raise ValueError(f"variable {v!r} has no sort")
        _check_sort(domain, v, sorts[v])
    known = set(variables)
    for con in constraints:
        _check_constraint(domain, known, sorts, con)
    return McspInstance(
        domain=domain,
        variables=variables,
        sorts=sorts,
        constraints=tuple(constraints),
    )


def _check_sort(domain: Domain, v: str, sort: int) -> None:
    if not 1 <= sort <= domain.issue_count:
        raise ValueError(f"sort {sort} of {v!r} out of range 1..{domain.issue_count}")


def _check_constraint(domain: Domain, known, sorts, con) -> None:
    m = domain.issue_count
    if isinstance(con, XConstraint):
        for v in con.scope:
            if v not in known:
                raise ValueError(f"constraint scope uses unknown variable {v!r}")
        actual = tuple(sorts[v] for v in con.scope)
        if actual != tuple(range(1, m + 1)):
            raise SignatureError(
                f"scope sorts {actual} do not match the signature {tuple(range(1, m + 1))}"
            )
    elif isinstance(con, SubsetConstraint):
        if con.var not in known:
            raise ValueError(f"constraint on unknown variable {con.var!r}")
        if not 1 <= con.issue <= m:
            raise ValueError(f"sort {con.issue} out of range")
        if sorts[con.var] != con.issue:
            raise SignatureError(
                f"variable {con.var!r} has sort {sorts[con.var]}, relation is on sort {con.issue}"
            )
        alphabet_codes = set(range(len(domain.alphabets[con.issue - 1])))
        if not con.allowed or not set(con.allowed) <= alphabet_codes:
            raise ValueError("subset relation must be a non-empty alphabet subset")
    else:
        raise ValueError(f"unknown constraint type {type(con).__name__}")


def materialize_language(domain: Domain) -> tuple[RelationDescriptor, ...]:
    """The conservative language: X plus every alphabet subset, once each."""
    require_valid(domain)
    for j in range(1, domain.issue_count + 1):
        if len(domain.alphabets[j - 1]) > 5:
            raise CapacityError(f"alphabet {j} too large to materialize subsets")
    relations = [
        RelationDescriptor(
            kind="X",
            signature=tuple(range(1, domain.issue_count + 1)),
            members=domain.feasible,
        )
    ]
    for j in range(1, domain.issue_count + 1):
        codes = tuple(range(len(domain.alphabets[j - 1])))
        for size in range(1, len(codes) + 1):
            for combo in combinations(codes, size):
                relations.append(
                    RelationDescriptor(kind="subset", signature=(j,), members=combo)
                )
    return tuple(relations)


def parse_instance(
    text: str, *, domain: Domain | None = None, base_dir: str | Path = "."
) -> McspInstance:
    """Parse instance text; an explicit ``domain`` overrides the file's.

    An error in a domain file is reported at the ``domain`` line, naming
    the file and its own line; a variable or constraint that does not fit
    the domain, at its line.
    """
    sorts: dict[str, int] = {}
    var_lines: dict[str, int] = {}  # in declaration order
    constraints: list[tuple[int, XConstraint | SubsetConstraint]] = []
    file_domain: Domain | None = None
    domain_path: Path | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "domain":
            if domain_path is not None:
                raise ParseError("duplicate 'domain' line", line_no)
            if len(fields) != 2:
                raise ParseError("expected 'domain <path>'", line_no)
            domain_path = Path(base_dir) / fields[1]
            if domain is None:
                try:
                    file_domain = parse_domain(domain_path.read_text())
                except OSError as exc:
                    raise ParseError(f"cannot read domain file: {exc}", line_no)
                except ParseError as exc:
                    raise ParseError(f"domain file {fields[1]}: {exc}", line_no) from None
                except CapacityError as exc:
                    raise CapacityError(
                        f"line {line_no}: domain file {fields[1]}: {exc}"
                    ) from None
        elif fields[0] == "var":
            if len(fields) != 4 or fields[2] != "sort" or not fields[3].isdecimal():
                raise ParseError("expected 'var <name> sort <j>'", line_no)
            name = fields[1]
            if name in sorts:
                raise ParseError(f"duplicate variable {name!r}", line_no)
            sorts[name] = int(fields[3])
            var_lines[name] = line_no
        elif fields[0] == "constraint":
            rest = line[len("constraint") :].strip()
            if rest.startswith("X:"):
                scope = tuple(rest[2:].split())
                constraints.append((line_no, XConstraint(scope=scope)))
            elif rest.startswith("subset"):
                body = rest[len("subset") :].strip()
                head, sep, var_part = body.rpartition(":")
                if not sep:
                    raise ParseError("expected 'constraint subset <j> {..}: <v>'", line_no)
                head_fields = head.split(None, 1)
                if len(head_fields) != 2 or not head_fields[0].isdecimal():
                    raise ParseError("expected 'constraint subset <j> {..}: <v>'", line_no)
                j = int(head_fields[0])
                brace = head_fields[1].strip()
                if not (brace.startswith("{") and brace.endswith("}")):
                    raise ParseError("subset tokens must sit inside braces", line_no)
                tokens = [t.strip() for t in brace[1:-1].split(",") if t.strip()]
                if not tokens:
                    raise ParseError("empty subset relation", line_no)
                var_names = var_part.split()
                if len(var_names) != 1:
                    raise ParseError("subset constraints take one variable", line_no)
                con = SubsetConstraint(var=var_names[0], issue=j, allowed=tokens)  # type: ignore[arg-type]
                constraints.append((line_no, con))
            else:
                raise ParseError(f"unknown constraint form {rest!r}", line_no)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", line_no)

    chosen = domain if domain is not None else file_domain
    if chosen is None:
        raise ParseError("no domain given: add a 'domain <path>' line")
    require_valid(chosen)
    known = set(var_lines)
    resolved: list[XConstraint | SubsetConstraint] = []
    try:
        for name, line_no in var_lines.items():
            _check_sort(chosen, name, sorts[name])
        for line_no, con in constraints:
            # subset tokens become codes now that the domain is known
            if isinstance(con, SubsetConstraint):
                codes = frozenset(chosen.code(con.issue, tok) for tok in con.allowed)
                con = SubsetConstraint(var=con.var, issue=con.issue, allowed=codes)
            _check_constraint(chosen, known, sorts, con)
            resolved.append(con)
    except (ValueError, SignatureError) as exc:
        raise ParseError(str(exc), line_no) from None
    return McspInstance(
        domain=chosen, variables=tuple(var_lines), sorts=sorts, constraints=tuple(resolved)
    )


def verify_assignment(inst: McspInstance, assignment) -> bool:
    """Literal acceptance check: sorts respected and every constraint met.

    ``assignment`` maps variable names to tokens.
    """
    domain = inst.domain
    codes: dict[str, int] = {}
    for v in inst.variables:
        if v not in assignment:
            return False
        try:
            codes[v] = domain.code(inst.sorts[v], assignment[v])
        except ValueError:
            return False
    for con in inst.constraints:
        if isinstance(con, XConstraint):
            row = tuple(codes[v] for v in con.scope)
            if row not in domain.feasible_set:
                return False
        else:
            if codes[con.var] not in con.allowed:
                return False
    return True


def solve(inst: McspInstance, budget: SearchBudget | None = None) -> SolveResult:
    """Engine search, one cell per variable; SAT is re-verified before return.

    Variables are ordered by candidate count (most constrained first,
    declaration order breaking ties), values by code, and the first
    solution in that order is returned. UNSAT comes only from a complete
    search; running out of budget yields UNKNOWN.
    """
    budget = budget or SearchBudget()
    deadline = _deadline(budget)
    domain = inst.domain
    position = {v: cell for cell, v in enumerate(inst.variables)}
    candidates = [
        set(range(len(domain.alphabets[inst.sorts[v] - 1]))) for v in inst.variables
    ]
    scopes = []
    for con in inst.constraints:
        if isinstance(con, SubsetConstraint):
            candidates[position[con.var]] &= con.allowed
        else:
            scopes.append(tuple(position[v] for v in con.scope))
    watchers = [[] for _ in inst.variables]
    for ti, scope in enumerate(scopes):
        for cell in scope:
            watchers[cell].append(ti)
    order = sorted(position.values(), key=lambda cell: (len(candidates[cell]), cell))
    status, values, _ = _search_instance(
        domain,
        ([inst.sorts[v] - 1 for v in inst.variables], watchers, scopes),
        (),
        [_Var((cell,), tuple(sorted(candidates[cell]))) for cell in order],
        budget,
        deadline,
    )
    if status != FOUND:
        return SolveResult(UNSAT if status == EXHAUSTED else UNKNOWN, None)
    assignment = {
        v: domain.token(inst.sorts[v], values[cell]) for v, cell in position.items()
    }
    if not verify_assignment(inst, assignment):
        raise VerificationError("solver produced a non-verifying assignment")
    return SolveResult(SAT, assignment)


def serialize_result(inst: McspInstance, result: SolveResult) -> str:
    """SAT plus one assignment line per variable in declaration order."""
    if result.status != SAT:
        return result.status + "\n"
    lines = [SAT]
    for v in inst.variables:
        lines.append(f"{v} = {result.assignment[v]}")
    return "\n".join(lines) + "\n"
