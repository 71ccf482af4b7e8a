"""Output checker for the benchmark, written apart from the package.

Everything here works on the text the command line prints and on the
domain and instance files the benchmark wrote: it has its own readers, its
own closure loops, its own MIPE scan and its own search. The only package
routine it calls is ``fold_diamond_cover``, and only to cross-check a
``NONE`` uniform answer that its own search could not settle within its
node limit.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

from itertools import combinations, product

# node limit of the checker's own search before it falls back to the
# package's per-pair route
SEARCH_NODE_LIMIT = 200_000


# ---------------------------------------------------------------------------
# Readers


class Dom:
    """A domain as token data: alphabets and feasible rows."""

    def __init__(self, alphabets, rows):
        self.alphabets = [tuple(a) for a in alphabets]
        self.rows = sorted(set(tuple(r) for r in rows))
        self.row_set = frozenset(self.rows)
        self.m = len(self.alphabets)
        self.proj = [
            [v for v in self.alphabets[j] if any(r[j] == v for r in self.rows)]
            for j in range(self.m)
        ]

    @property
    def is_boolean(self) -> bool:
        return all(len(p) == 2 for p in self.proj)


def read_domain(text: str) -> Dom:
    alphabets = {}
    rows = []
    m = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("issues"):
            m = int(line.split()[1])
        elif line.startswith("alphabet"):
            head, _, rest = line.partition(":")
            alphabets[int(head.split()[1])] = rest.split()
        elif line.startswith("tuple"):
            rows.append(tuple(line.partition(":")[2].split()))
        else:
            raise ValueError(f"unreadable domain line {line!r}")
    if m is None or sorted(alphabets) != list(range(1, m + 1)):
        raise ValueError("domain text lacks its header or an alphabet")
    return Dom([alphabets[j] for j in range(1, m + 1)], rows)


def read_witness(lines):
    """Witness block lines -> (arity, [ {args: value} per issue ])."""
    arity = None
    comps: dict[int, dict] = {}
    current = None
    for line in lines:
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "aggregator":
            arity = int(fields[2])
        elif fields[0] == "component":
            current = int(fields[1].rstrip(":"))
            comps[current] = {}
        else:
            sep = fields.index("->")
            args = tuple(fields[:sep])
            if len(args) != arity or len(fields) != sep + 2 or args in comps[current]:
                raise ValueError(f"malformed cell line {line!r}")
            comps[current][args] = fields[sep + 1]
    if arity is None:
        raise ValueError("witness lacks its arity header")
    return arity, [comps.get(j, {}) for j in range(1, max(comps, default=0) + 1)]


def read_report(text: str):
    """Analyze output -> (key/value dict, {block name: witness})."""
    values = {}
    blocks: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("witness "):
            current = line[len("witness ") :].rstrip(":")
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)
        elif " = " in line:
            key, _, value = line.partition(" = ")
            values[key] = value
    return values, {name: read_witness(lines) for name, lines in blocks.items()}


# ---------------------------------------------------------------------------
# Aggregator checks


def closure_counterexample(dom: Dom, arity: int, comps):
    """First row selection whose componentwise image leaves X, or None."""
    row_set = dom.row_set
    m = dom.m
    for selection in product(dom.rows, repeat=arity):
        image = tuple(
            comps[j][tuple(row[j] for row in selection)] for j in range(m)
        )
        if image not in row_set:
            return selection
    return None


def _op_closed(dom: Dom, ops) -> bool:
    """Closure of X under one ternary function per issue (plain loop)."""
    row_set = dom.row_set
    m = dom.m
    for a, b, c in product(dom.rows, repeat=3):
        if tuple(ops[j](a[j], b[j], c[j]) for j in range(m)) not in row_set:
            return False
    return True


def _maj(x, y, z):
    return x if x in (y, z) else y


def _xor(x, y, z):
    if x == y:
        return z
    return x if y == z else y


def witness_problems(dom: Dom, witness, kind: str) -> list[str]:
    """Supportiveness, closure and the law of the witness's kind."""
    arity, comps = witness
    expected_arity = 2 if kind == "binary" else 3
    if arity != expected_arity:
        return [f"{kind} witness has arity {arity}"]
    if len(comps) != dom.m:
        return [f"{kind} witness covers {len(comps)} of {dom.m} issues"]
    problems = []
    for j in range(dom.m):
        if set(comps[j]) != set(product(dom.proj[j], repeat=arity)):
            return [f"{kind} witness component {j + 1} is incomplete"]
        for args, out in comps[j].items():
            if out not in args:
                problems.append(f"{kind} witness cell {args} -> {out} is not supportive")
            elif kind == "majority" and len(set(args)) < 3 and out != _maj(*args):
                problems.append(f"majority witness breaks the law at {args}")
            elif kind == "minority" and len(set(args)) < 3 and out != _xor(*args):
                problems.append(f"minority witness breaks the law at {args}")
    if problems:
        return problems
    if kind == "binary":
        for d in range(2):
            if all(out == args[d] for comp in comps for args, out in comp.items()):
                problems.append(f"binary witness is dictator {d + 1}")
    if kind == "uniform":
        for j in range(dom.m):
            for pair in combinations(dom.proj[j], 2):
                cells = list(product(pair, repeat=3))
                for d in range(3):
                    if all(comps[j][c] == c[d] for c in cells):
                        problems.append(
                            f"uniform witness projects onto argument {d + 1} "
                            f"at issue {j + 1} on {pair}"
                        )
    if not problems and closure_counterexample(dom, arity, comps) is not None:
        problems.append(f"{kind} witness is not closed")
    return problems


# ---------------------------------------------------------------------------
# Total blockedness from the definition


def totally_blocked(dom: Dom) -> bool:
    """MIPEs on every 2-sub-box wire the pair graph; blocked = strongly connected.

    A partial evaluation on support K inside a 2-sub-box is a MIPE when no
    row of the box extends it and every single flip makes it extendable.
    Rows of a box are read as bit patterns (bit j set when the row takes
    the second value of the box's pair at issue j). Supports of size one
    wire no edge and are skipped.
    """
    m = dom.m
    vertices = [(j, u, v) for j in range(m) for u in dom.proj[j] for v in dom.proj[j] if u != v]
    succ = {v: set() for v in vertices}
    supports = [k for k in range(1, 1 << m) if k & (k - 1)]
    for cells in product(*(list(combinations(p, 2)) for p in dom.proj)):
        patterns = set()
        for row in dom.rows:
            bits = 0
            for j in range(m):
                if row[j] == cells[j][1]:
                    bits |= 1 << j
                elif row[j] != cells[j][0]:
                    break
            else:
                patterns.add(bits)
        if not patterns:
            continue
        for k in supports:
            seen = {p & k for p in patterns}
            issues = [j for j in range(m) if k >> j & 1]
            sub = k
            while True:
                a = sub  # the assignment, as the bits it sets inside k
                if a not in seen and all(a ^ (1 << j) in seen for j in issues):
                    for s in issues:
                        for t in issues:
                            if s != t:
                                sv = cells[s][a >> s & 1]
                                tv = cells[t][a >> t & 1]
                                succ[(s, sv, cells[s][1 - (a >> s & 1)])].add(
                                    (t, cells[t][1 - (a >> t & 1)], tv)
                                )
                if sub == 0:
                    break
                sub = (sub - 1) & k
    pred = {v: set() for v in vertices}
    for v, targets in succ.items():
        for w in targets:
            pred[w].add(v)
    return _reaches_all(vertices, succ) and _reaches_all(vertices, pred)


def _reaches_all(vertices, edges) -> bool:
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in edges[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


# ---------------------------------------------------------------------------
# A small search over relations: generalised arc consistency plus branching


def relation_search(domains, positions, scopes, rows):
    """Find values for variables so that every scope's tuple lies in ``rows``.

    ``domains[x]`` lists the candidate values of variable x, ``positions[x]``
    is the column of ``rows`` it fills, and each scope names one variable
    per column. Returns ``("sat", values)``, ``("unsat", None)`` or
    ``("limit", None)`` when more than ``SEARCH_NODE_LIMIT`` branches were tried.
    """
    width = len(rows[0])
    column_masks = [{} for _ in range(width)]
    for r, row in enumerate(rows):
        for j, v in enumerate(row):
            column_masks[j][v] = column_masks[j].get(v, 0) | (1 << r)
    masks = [column_masks[positions[x]] for x in range(len(domains))]
    scopes = list(set(scopes))
    watch = [[] for _ in domains]
    for c, scope in enumerate(scopes):
        for x in scope:
            watch[x].append(c)

    def propagate(dom, constraints):
        """Prune unsupported values until nothing changes; False on a wipe-out."""
        pending = list(constraints)
        queued = set(pending)
        while pending:
            c = pending.pop()
            queued.discard(c)
            scope = scopes[c]
            support = -1
            for y in scope:
                support &= dom[y][1]
            if not support:
                return False
            for y in scope:
                values, mask = dom[y]
                if len(values) == 1:
                    continue
                kept = [v for v in values if support & masks[y].get(v, 0)]
                if len(kept) < len(values):
                    if not kept:
                        return False
                    dom[y] = state(y, kept)
                    for c2 in watch[y]:
                        if c2 != c and c2 not in queued:
                            queued.add(c2)
                            pending.append(c2)
        return True

    def state(x, values):
        mask = 0
        for v in values:
            mask |= masks[x].get(v, 0)
        return (list(values), mask)

    start = [state(x, vals) for x, vals in enumerate(domains)]
    if any(not vals for vals in domains) or not propagate(start, range(len(scopes))):
        return "unsat", None
    nodes = 0
    stack = [start]
    while stack:
        dom = stack.pop()
        open_vars = [x for x in range(len(dom)) if len(dom[x][0]) > 1]
        if not open_vars:
            return "sat", [vals[0] for vals, _ in dom]
        x = min(open_vars, key=lambda y: len(dom[y][0]))
        for v in reversed(dom[x][0]):
            nodes += 1
            if nodes > SEARCH_NODE_LIMIT:
                return "limit", None
            child = list(dom)
            child[x] = state(x, [v])
            if propagate(child, watch[x]):
                stack.append(child)
    return "unsat", None


def ternary_exists(dom: Dom, kind: str) -> str:
    """Does X admit a ternary aggregator of this kind? yes / no / limit.

    ``majority`` and ``minority`` fix every cell with a repeated argument;
    ``uniform`` asks for f(x,y,y) = f(y,x,y) = f(y,y,x) everywhere, which
    makes every two-element restriction one of AND, OR, majority or
    minority, hence no projection.
    """
    variables = []  # (issue, candidate values)
    cell_var = []  # per issue: args -> variable
    for j in range(dom.m):
        index = {}
        for args in product(dom.proj[j], repeat=3):
            if args in index:
                continue
            if len(set(args)) == 3:
                choices = list(args)
            elif kind == "majority":
                choices = [_maj(*args)]
            elif kind == "minority":
                choices = [_xor(*args)]
            elif len(set(args)) == 1:
                choices = [args[0]]
            else:
                solo = _xor(*args)
                dup = _maj(*args)
                for tied in ((solo, dup, dup), (dup, solo, dup), (dup, dup, solo)):
                    index[tied] = len(variables)
                variables.append((j, [solo, dup]))
                continue
            index[args] = len(variables)
            variables.append((j, choices))
        cell_var.append(index)
    scopes = set()
    for a, b, c in product(dom.rows, repeat=3):
        scope = tuple(cell_var[j][(a[j], b[j], c[j])] for j in range(dom.m))
        if scope not in scopes:
            forced = [variables[x][1] for x in scope]
            if all(len(f) == 1 for f in forced):
                # every cell of this selection is fixed: a plain membership test
                if tuple(f[0] for f in forced) not in dom.row_set:
                    return "no"
                continue
            scopes.add(scope)
    status, _ = relation_search(
        [choices for _, choices in variables],
        [j for j, _ in variables],
        scopes,
        dom.rows,
    )
    return {"sat": "yes", "unsat": "no"}.get(status, status)


def boolean_upd(dom: Dom) -> bool:
    """Uniform possibility of a Boolean domain by plain closure tests.

    On two values the ternary operations with f(x,y,y) = f(y,x,y) =
    f(y,y,x) are AND, OR, majority and minority; try every choice of one
    per issue.
    """
    ops = []
    for j in range(dom.m):
        zero, one = dom.proj[j]
        ops.append(
            (
                lambda x, y, z, zero=zero, one=one: zero if zero in (x, y, z) else one,
                lambda x, y, z, zero=zero, one=one: one if one in (x, y, z) else zero,
                _maj,
                _xor,
            )
        )
    return any(_op_closed(dom, choice) for choice in product(*ops))


# ---------------------------------------------------------------------------
# Per-workload checks


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label} = {got}, expected {want}")


def check_analyze(dom: Dom, text: str, factors=None, fold=None) -> list[str]:
    """Check one ``analyze --witnesses`` report against the domain.

    ``factors`` lists the factor domains when the input is a product;
    ``fold`` is called with no argument to get the package's per-pair
    uniform status when the checker's own search cannot settle a NONE.
    """
    values, blocks = read_report(text)
    problems: list[str] = []
    _expect(problems, "issues", values.get("issues"), str(dom.m))
    _expect(
        problems,
        "alphabet_sizes",
        values.get("alphabet_sizes"),
        " ".join(str(len(a)) for a in dom.alphabets),
    )
    _expect(
        problems,
        "projection_sizes",
        values.get("projection_sizes"),
        " ".join(str(len(p)) for p in dom.proj),
    )
    _expect(problems, "feasible", values.get("feasible"), str(len(dom.rows)))

    blocked = totally_blocked(dom)
    _expect(problems, "totally_blocked", values.get("totally_blocked"), "yes" if blocked else "no")
    if factors is not None and blocked:
        problems.append("a product of non-degenerate factors came out totally blocked")

    possibility = values.get("possibility")
    kind = values.get("witness_kind")
    witness = blocks.get(f"possibility {kind}")
    if possibility == "yes":
        if witness is None:
            problems.append("possibility = yes without a witness block")
        else:
            problems += witness_problems(dom, witness, kind)
        # the binary route runs first and answers whenever X is not blocked
        if not blocked and kind != "binary":
            problems.append(f"witness_kind = {kind} on a domain that is not blocked")
        if kind == "minority" and ternary_exists(dom, "majority") != "no":
            problems.append("minority witness reported although a majority one exists")
    elif possibility == "no":
        if not blocked:
            problems.append("possibility = no on a domain that is not totally blocked")
        for law in ("majority", "minority"):
            if ternary_exists(dom, law) != "no":
                problems.append(f"possibility = no although a {law} aggregator exists")
    else:
        problems.append(f"possibility = {possibility}")

    if dom.is_boolean:
        affine = _op_closed(dom, [_xor] * dom.m)
        bijunctive = _op_closed(dom, [_maj] * dom.m)
        _expect(problems, "affine", values.get("affine"), "yes" if affine else "no")
        _expect(problems, "bijunctive", values.get("bijunctive"), "yes" if bijunctive else "no")
        _expect(
            problems,
            "possibility (affine or not blocked)",
            possibility,
            "yes" if affine or not blocked else "no",
        )

    upd = values.get("upd")
    if upd == "yes":
        upd_witness = blocks.get("upd")
        if upd_witness is None:
            problems.append("upd = yes without a witness block")
        else:
            problems += witness_problems(dom, upd_witness, "uniform")
        if possibility != "yes":
            problems.append("upd = yes on an impossibility domain")
    if factors is not None:
        want = all(
            boolean_upd(f) if f.is_boolean else ternary_exists(f, "uniform") == "yes"
            for f in factors
        )
        _expect(problems, "upd (AND of the factors)", upd, "yes" if want else "no")
    elif upd == "no":
        problems += check_uniform_none(dom, fold)
    elif upd != "yes":
        problems.append(f"upd = {upd}")
    _expect(
        problems,
        "mcsp",
        values.get("mcsp"),
        {"yes": "TRACTABLE", "no": "NP_COMPLETE"}.get(upd, "UNKNOWN"),
    )
    return problems


def check_uniform_none(dom: Dom, fold) -> list[str]:
    """A NONE uniform answer: the checker's search, else the per-pair route."""
    own = ternary_exists(dom, "uniform")
    if own == "no":
        return []
    if own == "yes":
        return ["no uniform witness reported although one exists"]
    if fold is None or fold() != "EXHAUSTED":
        return ["NONE uniform answer not confirmed by the per-pair route"]
    return []


def check_uniform(dom: Dom, text: str, fold=None) -> list[str]:
    """Check one ``witness --kind uniform`` answer."""
    if text.strip() == "NONE":
        return check_uniform_none(dom, fold)
    try:
        witness = read_witness(text.splitlines())
    except (ValueError, KeyError) as exc:
        return [f"unreadable witness: {exc}"]
    return witness_problems(dom, witness, "uniform")


def read_instance(text: str):
    """Instance text -> (variables, sorts, X scopes, subset constraints)."""
    variables, sorts, scopes, subsets = [], {}, [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        fields = line.split()
        if not fields or fields[0] == "domain":
            continue
        if fields[0] == "var":
            variables.append(fields[1])
            sorts[fields[1]] = int(fields[3])
        elif line.startswith("constraint X:"):
            scopes.append(tuple(line.partition(":")[2].split()))
        elif line.startswith("constraint subset"):
            head, _, var = line.rpartition(":")
            allowed = head[head.index("{") + 1 : head.index("}")].split(",")
            subsets.append((var.strip(), {t.strip() for t in allowed}))
        else:
            raise ValueError(f"unreadable instance line {line!r}")
    return variables, sorts, scopes, subsets


def check_solve(dom: Dom, instance_text: str, text: str) -> list[str]:
    """Check one ``solve`` answer: SAT by substitution, UNSAT by search."""
    variables, sorts, scopes, subsets = read_instance(instance_text)
    lines = text.splitlines()
    if lines and lines[0] == "SAT":
        assignment = {}
        for line in lines[1:]:
            name, _, token = line.partition(" = ")
            assignment[name] = token
        if set(assignment) != set(variables):
            return ["SAT assignment does not cover exactly the variables"]
        problems = []
        for v in variables:
            if assignment[v] not in dom.alphabets[sorts[v] - 1]:
                problems.append(f"{v} takes {assignment[v]} outside its sort")
        for scope in scopes:
            if tuple(assignment[v] for v in scope) not in dom.row_set:
                problems.append(f"scope {scope} is not satisfied")
        for var, allowed in subsets:
            if assignment[var] not in allowed:
                problems.append(f"{var} breaks its subset constraint")
        return problems
    if lines != ["UNSAT"]:
        return [f"unexpected solve output {lines[:1]}"]
    index = {v: i for i, v in enumerate(variables)}
    domains = [list(dom.alphabets[sorts[v] - 1]) for v in variables]
    for var, allowed in subsets:
        domains[index[var]] = [t for t in domains[index[var]] if t in allowed]
    status, _ = relation_search(
        domains,
        [sorts[v] - 1 for v in variables],
        [tuple(index[v] for v in scope) for scope in scopes],
        dom.rows,
    )
    if status == "sat":
        return ["UNSAT reported for a satisfiable instance"]
    if status != "unsat":
        return ["UNSAT not confirmed within the checker's node limit"]
    return []
