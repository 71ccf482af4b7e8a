#!/usr/bin/env python3
"""Cross-validate the decision procedures on random domains.

Seven independent agreements are audited:
  blocked   strong connectivity of the pair graph vs the binary oracle
  ternary   the three-way witness disjunction vs the ternary oracle
            (boolean domains only)
  uniform   the direct uniform search vs the folded per-pair route
  mipes     enumerate_mipes on every 2-sub-box and is_multiply_constrained
            vs the definition-level scans of tests/helpers.py
  verify    verify_witness vs the definition-level judgement of
            tests/helpers.py on every single-cell flip of the first witness
            found of each kind (binary, majority, minority, uniform,
            component)
  graph     build_graph vs the definition-level graph of tests/helpers.py:
            vertices, edges, first witnesses, SCCs and the number of
            2-sub-boxes with no feasible row
  pairs     the graph read of the AND3/OR3 component pins (the two
            vertices of a pair in different classes) vs the binary oracle,
            and the definition-level check of every lifted witness

Exits non-zero on the first disagreement, printing the offending domain.
"""

import argparse
import random
import sys
import time
import warnings
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from agorad.blockedness import EmptyBoxWarning  # noqa: E402

warnings.simplefilter("ignore", EmptyBoxWarning)

from agorad.blockedness import (
    SubBox,
    build_graph,
    commutative_from_graph,
    enumerate_mipes,
    is_multiply_constrained,
    is_totally_blocked,
)
from agorad.domain import serialize_domain, two_element_subsets
from agorad.search import (
    EXHAUSTED,
    FOUND,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
    fold_diamond_cover,
)

from helpers import (
    definition_graph,
    flip_disagreements,
    found_witnesses,
    naive_mipes,
    naive_multiply_constrained,
    naive_witness_ok,
    random_boolean_domain,
    random_domain,
)
from oracles import (
    all_binary_aggregators,
    bruteforce_binary,
    bruteforce_ternary_nontrivial,
)


def audit_blocked(d) -> bool:
    blocked, _ = is_totally_blocked(d)
    return blocked == (bruteforce_binary(d).status == EXHAUSTED)


def audit_ternary(d) -> bool:
    disjunction = (
        find_binary_nondictatorial(d).status == FOUND
        or find_majority(d).status == FOUND
        or find_minority(d).status == FOUND
    )
    return disjunction == (bruteforce_ternary_nontrivial(d).status == FOUND)


def audit_uniform(d) -> bool:
    return find_uniform(d).status == fold_diamond_cover(d).status


def audit_mipes(d) -> bool:
    pairs = (two_element_subsets(d, j) for j in range(1, d.issue_count + 1))
    return all(
        enumerate_mipes(d, SubBox(cells=cells)) == list(naive_mipes(d, cells, 1))
        for cells in product(*pairs)
    ) and is_multiply_constrained(d) == naive_multiply_constrained(d)


def audit_verify(d) -> bool:
    first = {}
    for kind, witness, pin in found_witnesses(d):
        first.setdefault(kind, (witness, pin))
    return not any(
        flip_disagreements(d, witness, kind, pin)
        for kind, (witness, pin) in first.items()
    )


def audit_graph(d) -> bool:
    vertices, edges, witnesses, sccs, empty = definition_graph(d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EmptyBoxWarning)
        graph = build_graph(d)
    warned = [str(w.message) for w in caught if w.category is EmptyBoxWarning]
    expected = [f"{empty} 2-sub-box(es) contain no feasible row"] if empty else []
    got = (graph.vertices, graph.edges, graph.witnesses, graph.sccs, warned)
    return got == (vertices, edges, witnesses, sccs, expected)


def audit_pairs(d) -> bool:
    graph = build_graph(d)
    class_of = {v: c for c, members in enumerate(graph.sccs) for v in members}
    aggs = all_binary_aggregators(d)
    for j in range(1, d.issue_count + 1):
        for u, v in two_element_subsets(d, j):
            split = class_of[j, u, v] != class_of[j, v, u]
            commutative = any(
                agg.component(j).apply((u, v)) == agg.component(j).apply((v, u))
                for agg in aggs
            )
            if split != commutative:
                return False
            if (commutative_from_graph(d, graph, j, (u, v)) is None) == split:
                return False
            if split:
                witness = find_component_nonprojection(d, j, (u, v)).witness
                if not any(
                    naive_witness_ok(d, witness, "component", (j, (u, v), tag))
                    for tag in ("AND3", "OR3")
                ):
                    return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-issues", type=int, default=3)
    parser.add_argument("--max-alphabet", type=int, default=3)
    parser.add_argument(
        "--max-rows",
        type=int,
        default=10,
        help="row cap of the non-Boolean draws; Boolean draws take any row count",
    )
    parser.add_argument(
        "--check",
        choices=(
            "blocked", "ternary", "uniform", "mipes", "verify", "graph", "pairs", "all"
        ),
        default="all",
    )
    args = parser.parse_args()

    rng = random.Random(args.seed)

    def general():
        return random_domain(
            rng,
            max_issues=args.max_issues,
            max_alphabet=args.max_alphabet,
            max_rows=args.max_rows,
        )

    def boolean():
        return random_boolean_domain(rng, max_issues=args.max_issues)

    checks = []
    if args.check in ("blocked", "all"):
        checks.append(("blocked", audit_blocked, general))
    if args.check in ("ternary", "all"):
        checks.append(("ternary", audit_ternary, boolean))
    if args.check in ("uniform", "all"):
        checks.append(("uniform", audit_uniform, general))
    if args.check in ("mipes", "all"):
        checks.append(("mipes", audit_mipes, general))
    if args.check in ("verify", "all"):
        checks.append(("verify", audit_verify, general))
    if args.check in ("graph", "all"):
        checks.append(("graph", audit_graph, general))
    if args.check in ("pairs", "all"):
        checks.append(("pairs", audit_pairs, general))

    start = time.monotonic()
    for i in range(args.count):
        for label, audit, draw in checks:
            d = draw()
            if not audit(d):
                print(f"DISAGREEMENT in {label} on domain #{i}:")
                print(serialize_domain(d))
                return 1
    elapsed = time.monotonic() - start
    print(f"{args.count} domains per check, all agree ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
