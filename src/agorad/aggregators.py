"""Aggregator candidates as per-issue operation tables, plus their checks.

An n-ary aggregator candidate is one table per issue mapping every n-tuple
over that issue's projection values to one of its arguments (the tables
are supportive by construction; nothing else is assumed). Closure under
the feasible set is what turns a candidate into an aggregator, and that is
checked explicitly, never presumed.

One constructor builds every table from a rule: ``operation_from_callable``
evaluates it on all argument tuples over the projection values, in
``product`` order over ascending codes, and ``aggregator_from_callable``
does so for a rule f_j(x_1, ..., x_n) on every issue j. Projections, the
partition witness, superposition, the cyclic composition and parsed
witnesses are all built this way. ``apply`` looks a tuple up in O(1);
arguments outside the projection fall back to the first argument, and
since all decision procedures quantify over projection values only, this
convention never affects an outcome.

The selection table of an arity lays all tables end to end as one cell
range and gives every selection of n feasible rows the scope of cells
that produces its image: ``is_closed`` scans it, the table searches of
``agorad.search`` solve over it. Each domain object keeps its own tables,
built on first use, and frees them with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, islice, permutations, product

from .domain import MAX_FEASIBLE, Domain, two_element_subsets
from .errors import CapacityError, ParseError, VerificationError

FOUR_OPS = frozenset({"AND3", "OR3", "MAJ", "XOR3"})


def _majority_law(args):
    x, y, z = args
    if x == y or x == z:
        return x
    if y == z:
        return y
    return None


def _minority_law(args):
    x, y, z = args
    if x == y:
        return z
    if y == z:
        return x
    if x == z:
        return y
    return None


def eval_named(op: str, labeling, x, y, z):
    """Evaluate one of the four named ternary operations.

    ``labeling`` is the ordered pair (zero, one) fixing which element acts
    as 0; it is required for and3/or3/xor3 and ignored by maj, which is
    defined whenever two of the three arguments agree.
    """
    if op == "maj":
        out = _majority_law((x, y, z))
        if out is None:
            raise ValueError("maj needs two equal arguments")
        return out
    if labeling is None:
        raise ValueError(f"{op} needs a (zero, one) labeling")
    zero, one = labeling
    if any(v not in (zero, one) for v in (x, y, z)):
        raise ValueError(f"argument outside labeling {labeling!r}")
    if op == "and3":
        return zero if zero in (x, y, z) else one
    if op == "or3":
        return one if one in (x, y, z) else zero
    if op == "xor3":
        return _minority_law((x, y, z))
    raise ValueError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class OperationTable:
    """Total supportive function on projection values of one issue.

    ``table[i]`` is the output for the i-th argument tuple of
    ``product(values, repeat=arity)``. Supportiveness (output is one of
    the arguments) is asserted on construction.
    """

    issue: int  # 1-based
    arity: int
    values: tuple[int, ...]
    table: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.arity <= 4:
            raise ValueError(f"arity {self.arity} outside the supported range 2..4")
        k = len(self.values)
        if k < 1 or tuple(sorted(set(self.values))) != self.values:
            raise ValueError("values must be distinct and ascending")
        if len(self.table) != k**self.arity:
            raise ValueError(
                f"table length {len(self.table)} != {k}^{self.arity}"
            )
        for idx, out in enumerate(self.table):
            if out not in self.cell_args(idx):
                raise ValueError(
                    f"entry {idx} of issue {self.issue} is not supportive"
                )

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.values)}

    def cell_args(self, idx: int) -> tuple[int, ...]:
        k = len(self.values)
        args = [0] * self.arity
        for i in range(self.arity - 1, -1, -1):
            args[i] = self.values[idx % k]
            idx //= k
        return tuple(args)

    def apply(self, args) -> int:
        """Table lookup; outside the projection, first-argument fallback."""
        pos = self._pos
        if not all(a in pos for a in args):
            return args[0]
        k = len(self.values)
        idx = 0
        for a in args:
            idx = idx * k + pos[a]
        return self.table[idx]


@dataclass(frozen=True)
class AggregatorTuple:
    """One operation table per issue, all of the same arity."""

    arity: int
    components: tuple[OperationTable, ...]

    def __post_init__(self):
        for jj, comp in enumerate(self.components, start=1):
            if comp.arity != self.arity:
                raise ValueError(f"component {jj} has arity {comp.arity}")
            if comp.issue != jj:
                raise ValueError(f"component {jj} labeled issue {comp.issue}")

    @property
    def issue_count(self) -> int:
        return len(self.components)

    def component(self, j: int) -> OperationTable:
        return self.components[j - 1]


@dataclass(frozen=True)
class RestrictionClass:
    tag: str  # PROJECTION | AND3 | OR3 | MAJ | XOR3 | OTHER
    dictator: int | None = None


@dataclass(frozen=True)
class ClosureResult:
    ok: bool
    counterexample: tuple[tuple[int, ...], ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_alignment(d: Domain, agg: AggregatorTuple) -> None:
    if agg.issue_count != d.issue_count:
        raise ValueError(
            f"aggregator covers {agg.issue_count} issues, domain has {d.issue_count}"
        )
    for j in range(1, d.issue_count + 1):
        if agg.component(j).values != d.projections[j - 1]:
            raise ValueError(f"component {j} values differ from the projection")


def projection_aggregator(d: Domain, arity: int, dictator: int) -> AggregatorTuple:
    if not 1 <= dictator <= arity:
        raise ValueError(f"dictator index {dictator} outside 1..{arity}")
    return aggregator_from_callable(d, arity, lambda j, *args: args[dictator - 1])


def operation_from_callable(d: Domain, j: int, arity: int, fn) -> OperationTable:
    """Build a table by evaluating ``fn`` on every argument tuple of codes."""
    values = d.projection(j)
    table = tuple(fn(*args) for args in product(values, repeat=arity))
    return OperationTable(issue=j, arity=arity, values=values, table=table)


def aggregator_from_callable(d: Domain, arity: int, fn) -> AggregatorTuple:
    """Build an aggregator whose issue-j table evaluates ``fn(j, *args)``."""
    comps = tuple(
        operation_from_callable(d, j, arity, partial(fn, j))
        for j in range(1, d.issue_count + 1)
    )
    return AggregatorTuple(arity=arity, components=comps)


def _propagation_tables(d: Domain, arity: int):
    """The selection table of one arity, built once per domain object and
    kept on it, so it is freed with the domain."""
    tables = d._selection_tables
    if arity not in tables:
        tables[arity] = _build_selection_table(d, arity)
    return tables[arity]


def _build_selection_table(d: Domain, arity: int):
    """The selection table of one arity: an engine instance, and cell offsets.

    Cell idx of issue jj is flat cell offsets[jj] + idx; scope ti holds per
    issue the cell that produces the image coordinate of row selection ti.

    Refuses, before allocating, more row selections than a ternary table
    on a domain at the parse guard's row limit has.
    """
    rows = d.feasible
    n_rows = len(rows)
    if n_rows**arity > MAX_FEASIBLE**3:
        raise CapacityError(
            f"{n_rows}^{arity} row selections exceed the table-build guard "
            f"of {MAX_FEASIBLE**3}"
        )
    m = d.issue_count
    ks = [len(d.projections[jj]) for jj in range(m)]
    offsets = (0, *accumulate(k**arity for k in ks))
    issue_of = tuple(jj for jj in range(m) for _ in range(ks[jj] ** arity))
    watchers = [[] for _ in issue_of]
    scopes = []
    pcols = [[d.projections[jj].index(row[jj]) for row in rows] for jj in range(m)]
    for ti, selection in enumerate(product(range(n_rows), repeat=arity)):
        scope = []
        for k, pcol, offset in zip(ks, pcols, offsets):
            idx = 0
            for r in selection:
                idx = idx * k + pcol[r]
            watchers[offset + idx].append(ti)
            scope.append(offset + idx)
        scopes.append(tuple(scope))
    return offsets, (issue_of, tuple(map(tuple, watchers)), tuple(scopes))


def is_closed(d: Domain, agg: AggregatorTuple) -> ClosureResult:
    """Does every componentwise image of feasible rows stay feasible?

    Scans the selection table, all |X|^n row selections in lexicographic
    order over the canonical row indexing, for the first counterexample.
    """
    check_alignment(d, agg)
    _, (_, _, scopes) = _propagation_tables(d, agg.arity)
    cells = [out for comp in agg.components for out in comp.table]
    feasible_set = d.feasible_set
    for ti, scope in enumerate(scopes):
        if tuple(map(cells.__getitem__, scope)) not in feasible_set:
            matrix = next(islice(product(d.feasible, repeat=agg.arity), ti, None))
            return ClosureResult(False, matrix)
    return ClosureResult(True, None)


def require_aggregator(d: Domain, agg: AggregatorTuple) -> None:
    """Refuse tuples that are not aggregators for ``d``."""
    result = is_closed(d, agg)
    if not result.ok:
        raise ValueError(
            f"tuple is not an aggregator: image of {result.counterexample} escapes"
        )


def is_dictatorial(d: Domain, agg: AggregatorTuple) -> int | None:
    """Voter index d when every component equals the d-th projection.

    Because rows are selected independently, column j ranges over all of
    X_j^n, so table equality with the projection is exactly agreement on
    the feasible set.
    """
    check_alignment(d, agg)
    for dictator in range(1, agg.arity + 1):
        if agg == projection_aggregator(d, agg.arity, dictator):
            return dictator
    return None


def restriction_class(table: OperationTable, pair) -> RestrictionClass:
    """Classify a table restricted to a two-element subset of its values.

    The labeling is canonical (smaller code plays 0), so a conjunction
    under one labeling reports AND3 and OR3 under the other; membership in
    the four-op set is what stays labeling-invariant.
    """
    u, v = pair
    if u == v or u not in table._pos or v not in table._pos:
        raise ValueError(f"{pair!r} is not a two-element subset of the values")
    zero, one = (u, v) if u < v else (v, u)
    n = table.arity
    cells = list(product((zero, one), repeat=n))
    outs = {cell: table.apply(cell) for cell in cells}
    for dictator in range(1, n + 1):
        if all(outs[cell] == cell[dictator - 1] for cell in cells):
            return RestrictionClass("PROJECTION", dictator)
    if n == 3:
        commutative = all(
            outs[cell] == outs[perm]
            for cell in cells
            for perm in set(permutations(cell))
        )
        if commutative:
            a = outs[(one, zero, zero)]
            b = outs[(zero, one, one)]
            if a == zero and b == zero:
                return RestrictionClass("AND3")
            if a == one and b == one:
                return RestrictionClass("OR3")
            if a == zero and b == one:
                return RestrictionClass("MAJ")
            return RestrictionClass("XOR3")
    return RestrictionClass("OTHER")


@dataclass(frozen=True)
class UniformityResult:
    ok: bool
    failures: tuple[tuple[int, tuple[int, int], int], ...]  # (issue, pair, dictator)

    def __bool__(self) -> bool:
        return self.ok


def is_uniformly_nondictatorial(d: Domain, agg: AggregatorTuple) -> UniformityResult:
    """No component restricted to any two-element subset is a projection."""
    check_alignment(d, agg)
    failures = []
    for j in range(1, d.issue_count + 1):
        comp = agg.component(j)
        for pair in two_element_subsets(d, j):
            cls = restriction_class(comp, pair)
            if cls.tag == "PROJECTION":
                failures.append((j, pair, cls.dictator))
    return UniformityResult(not failures, tuple(failures))


_PAIR_TAGS = {"majority": {"MAJ"}, "minority": {"XOR3"}, "uniform": FOUR_OPS}


def verify_witness(d: Domain, agg: AggregatorTuple, kind: str, pin=None) -> None:
    """Raise VerificationError unless ``agg`` is a valid ``kind`` witness.

    Every witness must be closed. Then a binary witness must not be
    dictatorial; a majority, minority or uniform witness must restrict to
    MAJ, to XOR3, or into FOUR_OPS on every two-element subset of every
    projection (a four-op restriction is commutative, never a projection);
    a component witness, with ``pin`` = (j, pair, op), must restrict to op
    on ``pair`` at issue j.
    """
    if not is_closed(d, agg).ok:
        raise VerificationError(f"{kind} witness is not closed")
    if kind == "binary":
        if is_dictatorial(d, agg) is not None:
            raise VerificationError("binary witness is dictatorial")
        return
    if kind == "component":
        j, pair, op = pin
        checks = [(j, pair, {op})]
    else:
        checks = [
            (j, pair, _PAIR_TAGS[kind])
            for j in range(1, d.issue_count + 1)
            for pair in two_element_subsets(d, j)
        ]
    for j, pair, tags in checks:
        tag = restriction_class(agg.component(j), pair).tag
        if tag not in tags:
            raise VerificationError(
                f"{kind} witness restricts to {tag} at issue {j}, pair {pair}"
            )


def is_locally_monomorphic(d: Domain, agg: AggregatorTuple) -> bool:
    """Do all two-element restrictions agree under every identification?

    For every pair of issues, every pair of two-element subsets of their
    projections and both bijections between them, the restrictions must
    commute with the bijection on all argument tuples.
    """
    check_alignment(d, agg)
    n = agg.arity
    m = d.issue_count
    pair_lists = [two_element_subsets(d, j) for j in range(1, m + 1)]
    for ji in range(1, m + 1):
        fi = agg.component(ji)
        for pi in pair_lists[ji - 1]:
            for jj in range(1, m + 1):
                fj = agg.component(jj)
                for pj in pair_lists[jj - 1]:
                    for g in ({pi[0]: pj[0], pi[1]: pj[1]},
                              {pi[0]: pj[1], pi[1]: pj[0]}):
                        for col in product(pi, repeat=n):
                            mapped = tuple(g[c] for c in col)
                            if fj.apply(mapped) != g[fi.apply(col)]:
                                return False
    return True


def superpose(d: Domain, outer: AggregatorTuple, inners) -> AggregatorTuple:
    """Compose an n-ary aggregator with n k-ary aggregators componentwise.

    The result is supportive by construction and closed because closure
    survives superposition; is_closed re-verifies before returning.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ValueError(
            f"need {outer.arity} inner aggregators, got {len(inners)}"
        )
    require_aggregator(d, outer)
    for h in inners:
        require_aggregator(d, h)
    k = inners[0].arity
    if any(h.arity != k for h in inners):
        raise ValueError("inner aggregators must share one arity")
    result = aggregator_from_callable(
        d,
        k,
        lambda j, *args: outer.component(j).apply(
            tuple(h.component(j).apply(args) for h in inners)
        ),
    )
    check = is_closed(d, result)
    if not check.ok:
        raise VerificationError("superposition escaped the feasible set")
    return result


def diamond(d: Domain, f: AggregatorTuple, g: AggregatorTuple) -> AggregatorTuple:
    """Cyclic composition of two ternary aggregators.

    Component j of the result maps (x, y, z) to
    f_j(g_j(x,y,z), g_j(y,z,x), g_j(z,x,y)). Whenever either input is
    commutative on a two-element subset, the result is too, so folding
    with this operation accumulates commutative restrictions; that
    preservation and the result's closure are re-verified before returning.
    """
    if f.arity != 3 or g.arity != 3:
        raise ValueError("both arguments must be ternary")
    require_aggregator(d, f)
    require_aggregator(d, g)
    result = _cyclic_composition(d, f, g)
    check = is_closed(d, result)
    if not check.ok:
        raise VerificationError("cyclic composition escaped the feasible set")
    return result


def _cyclic_composition(
    d: Domain, f: AggregatorTuple, g: AggregatorTuple
) -> AggregatorTuple:
    """The tables of ``diamond(d, f, g)``, with its commutativity check.

    Closure is left to the caller: ``diamond`` checks inputs and result,
    a fold over verified inputs checks only its final composite.
    """

    def cyclic(j, x, y, z):
        gj = g.component(j)
        inner = (gj.apply((x, y, z)), gj.apply((y, z, x)), gj.apply((z, x, y)))
        return f.component(j).apply(inner)

    result = aggregator_from_callable(d, 3, cyclic)
    for j in range(1, d.issue_count + 1):
        for pair in two_element_subsets(d, j):
            f_cls = restriction_class(f.component(j), pair).tag
            g_cls = restriction_class(g.component(j), pair).tag
            if f_cls in FOUR_OPS or g_cls in FOUR_OPS:
                if restriction_class(result.component(j), pair).tag not in FOUR_OPS:
                    raise VerificationError(
                        f"commutativity lost at issue {j}, pair {pair}"
                    )
    return result


def serialize_aggregator(d: Domain, agg: AggregatorTuple) -> str:
    """Witness text: header plus one block of cell lines per issue."""
    check_alignment(d, agg)
    out = [f"aggregator arity {agg.arity}"]
    for j in range(1, d.issue_count + 1):
        comp = agg.component(j)
        out.append(f"component {j}:")
        for idx, value in enumerate(comp.table):
            args = comp.cell_args(idx)
            arg_toks = " ".join(d.token(j, a) for a in args)
            out.append(f"{arg_toks} -> {d.token(j, value)}")
    return "\n".join(out) + "\n"


def parse_aggregator(text: str, d: Domain) -> AggregatorTuple:
    """Inverse of serialize_aggregator; requires complete tables."""
    arity: int | None = None
    current: int | None = None
    cells: dict[int, dict[tuple[int, ...], int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "aggregator":
            if arity is not None:
                raise ParseError("duplicate 'aggregator' header", line_no)
            if len(fields) != 3 or fields[1] != "arity" or not fields[2].isdecimal():
                raise ParseError("expected 'aggregator arity <n>'", line_no)
            arity = int(fields[2])
            if not 2 <= arity <= 4:
                raise ParseError(f"arity {arity} outside 2..4", line_no)
        elif fields[0] == "component":
            if arity is None:
                raise ParseError("'component' before the arity header", line_no)
            index = fields[1].removesuffix(":") if len(fields) == 2 else ""
            if not index.isdecimal():
                raise ParseError("expected 'component <j>:'", line_no)
            current = int(index)
            if not 1 <= current <= d.issue_count:
                raise ParseError(f"component index {current} out of range", line_no)
            if current in cells:
                raise ParseError(f"duplicate component {current}", line_no)
            cells[current] = {}
        else:
            if arity is None or current is None:
                raise ParseError("cell line outside a component block", line_no)
            if "->" not in fields:
                raise ParseError("expected '<args> -> <value>'", line_no)
            sep = fields.index("->")
            arg_toks = fields[:sep]
            val_toks = fields[sep + 1 :]
            if len(arg_toks) != arity or len(val_toks) != 1:
                raise ParseError("malformed cell line", line_no)
            try:
                args = tuple(d.code(current, t) for t in arg_toks)
                value = d.code(current, val_toks[0])
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            values = d.projection(current)
            if any(a not in values for a in args) or value not in values:
                raise ParseError("cell uses values outside the projection", line_no)
            if args in cells[current]:
                raise ParseError("duplicate cell", line_no)
            cells[current][args] = value
    if arity is None:
        raise ParseError("missing 'aggregator arity' header")
    for j in range(1, d.issue_count + 1):
        expected = len(d.projection(j)) ** arity
        got = len(cells.get(j, {}))
        if got != expected:
            raise ParseError(f"component {j} has {got} cells, expected {expected}")
    return aggregator_from_callable(d, arity, lambda j, *args: cells[j][args])
