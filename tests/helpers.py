"""Shared test utilities: naive oracles, random domain samplers, a call
counter, a fake clock.

The naive functions here deliberately re-derive results from definitions
with the dumbest possible loops so the package's optimized routines have
something independent to agree with.
"""

import sys
from itertools import combinations, product

from agorad.blockedness import Mipe, SubBox
from agorad.domain import Domain, build_domain, validate

TOKENS = ("a", "b", "c", "d", "e")


def random_domain(rng, *, max_issues=3, max_alphabet=3, max_rows=10):
    """Non-degenerate random domain, sizes bounded for desk-scale suites."""
    while True:
        m = rng.randint(1, max_issues)
        sizes = [rng.randint(2, max_alphabet) for _ in range(m)]
        alphabets = [TOKENS[:s] for s in sizes]
        universe = list(product(*alphabets))
        k = rng.randint(2, min(max_rows, len(universe)))
        rows = rng.sample(universe, k)
        d = build_domain(alphabets, rows)
        if validate(d).ok:
            return d


def random_boolean_domain(rng, *, max_issues=3):
    while True:
        m = rng.randint(1, max_issues)
        alphabets = [("0", "1")] * m
        universe = list(product(*alphabets))
        k = rng.randint(2, len(universe))
        rows = rng.sample(universe, k)
        d = build_domain(alphabets, rows)
        if validate(d).ok:
            return d


def count_calls(monkeypatch, original) -> list:
    """Record the positional arguments of every call to a package function.

    Patches every module attribute of the package bound to ``original``,
    so calls from one module into another are counted too.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "agorad" or name.startswith("agorad."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class FakeClock:
    """Stands in for the ``time`` module of ``agorad.search``.

    ``monotonic()`` returns the given readings one by one, then repeats the
    last; ``now`` may also be set, or advanced, by the test itself.
    """

    def __init__(self, *readings):
        self.readings = list(readings)
        self.now = 0.0

    def monotonic(self) -> float:
        if self.readings:
            self.now = self.readings.pop(0)
        return self.now


def naive_is_closed(d: Domain, agg) -> bool:
    """Definition-level closure check: independent double loop, no indexing
    tricks shared with the package implementation."""
    for selection in product(d.feasible, repeat=agg.arity):
        image = []
        for j in range(1, d.issue_count + 1):
            column = tuple(row[j - 1] for row in selection)
            image.append(agg.component(j).apply(column))
        if tuple(image) not in d.feasible_set:
            return False
    return True


def naive_mipes(d: Domain, cells, min_support: int):
    """Yield the MIPEs of the sub-box ``cells`` with support of at least
    ``min_support`` (>= 1) issues, by the definition: infeasible inside the
    box, and every single coordinate can be replaced by another value of
    its cell to give an assignment some row inside the box extends.

    Supports come by size, then lexicographically, assignments in product
    order of the cells.
    """
    m = d.issue_count
    box = SubBox(cells=tuple(tuple(c) for c in cells))
    in_box = [
        row for row in d.feasible if all(row[jj] in cells[jj] for jj in range(m))
    ]

    def extends(support, assignment):
        return any(
            all(row[jj] == v for jj, v in zip(support, assignment)) for row in in_box
        )

    for size in range(min_support, m + 1):
        for support in combinations(range(m), size):
            for assignment in product(*(cells[jj] for jj in support)):
                if extends(support, assignment):
                    continue
                minimal = True
                for i, jj in enumerate(support):
                    fixed = [
                        (jj2, v)
                        for k2, (jj2, v) in enumerate(zip(support, assignment))
                        if k2 != i
                    ]
                    if not any(
                        alt != assignment[i]
                        and any(
                            row[jj] == alt and all(row[jj2] == v for jj2, v in fixed)
                            for row in in_box
                        )
                        for alt in cells[jj]
                    ):
                        minimal = False
                        break
                if minimal:
                    yield Mipe(
                        box=box,
                        support=tuple(jj + 1 for jj in support),
                        assignment=assignment,
                    )


def sub_boxes(d: Domain):
    """Every sub-box of ``d``: each cell a non-empty subset of a projection."""
    return product(
        *(
            [c for size in range(1, len(p) + 1) for c in combinations(p, size)]
            for p in d.projections
        )
    )


def naive_multiply_constrained(d: Domain) -> bool:
    """Definition-level scan over every sub-box for a length->=3 minimal
    infeasible partial evaluation."""
    if d.issue_count < 3:
        return False
    return any(
        next(naive_mipes(d, cells, 3), None) is not None for cells in sub_boxes(d)
    )


def boolean_table(tag: str):
    """Reference truth tables of the four named ops on {0, 1}."""

    def maj(x, y, z):
        return x if x == y or x == z else y

    def xor3(x, y, z):
        return x ^ y ^ z

    def and3(x, y, z):
        return x & y & z

    def or3(x, y, z):
        return x | y | z

    return {"MAJ": maj, "XOR3": xor3, "AND3": and3, "OR3": or3}[tag]
