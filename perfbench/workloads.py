"""Workload inputs: seeded draws built with the package's public constructors.

Every draw is a pure function of its workload name and an integer draw id
(``random.Random("<workload>:<id>")``). ``pools.json`` records, per pooled
workload, the draw ids that duplicate an earlier draw (left out) and the
ids the package did not decide within the node budget when the benchmark
was written: uniform-small runs those as expected failures at a fixed
rate, the other workloads leave them out. A run's ``--seed`` picks the
order of the other draws; ``analyze-random`` needs no pool and draws
straight from the seed.

An operation is one command line for ``agorad.cli.main`` plus the files
it reads and what the checker needs to judge its output.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
POOLS = HERE / "pools.json"
SRC = HERE.parent / "src"

# node budget per workload, so a budget stop is a count rather than a clock
# reading; uniform-small uses a lower one because its decided draws cost up
# to about 0.4 ms a node, and a few long decided searches would otherwise
# decide how many operations fit in a run
BUDGET_NODES = {
    "analyze-random": 20_000,
    "analyze-product": 20_000,
    "uniform-small": 2_000,
    "csp-solve": 100_000,
}
# far above any operation's run time, so only the node budget can stop a search
BUDGET_MS = 600_000

PRODUCT_FIXTURES = (
    ("full-boolean-4", ("full-boolean-1",) * 4),
    ("full-boolean-5", ("full-boolean-1",) * 5),
    ("wxw", ("w", "w")),
    ("yz-product", ("y-horn", "z-affine")),
)

@dataclass
class Op:
    argv: list
    files: dict  # file name -> text, written into the work directory
    kind: str  # analyze | uniform | solve
    domain_text: str
    factors: list | None = None  # factor domain texts of a product
    instance_text: str | None = None
    expect_fail: bool = False
    label: str = ""


def import_package():
    """Import agorad afresh from this checkout's ``src/``.

    Earlier copies are dropped from ``sys.modules`` first, so each call
    re-executes the package's modules; that is what the set-up time counts.
    """
    for name in [n for n in sys.modules if n == "agorad" or n.startswith("agorad.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("agorad")
    for sub in ("cli", "fixtures", "mcsp"):
        importlib.import_module(f"agorad.{sub}")
    if Path(pkg.__file__).resolve().parent != SRC / "agorad":
        raise ImportError(f"agorad came from {pkg.__file__}, not from {SRC}")
    return pkg


def _random_rows(rng, alphabets, low, high):
    universe = list(product(*alphabets))
    return rng.sample(universe, rng.randint(low, min(high, len(universe))))


def draw_random_domain(pkg, rng, issues, sizes, low, high):
    """A valid random domain with the given alphabet sizes and row range."""
    while True:
        alphabets = [tuple("abcd"[: rng.choice(sizes)]) for _ in range(issues)]
        d = pkg.build_domain(alphabets, _random_rows(rng, alphabets, low, high))
        if pkg.validate(d).ok:
            return d


def _boolean_factor(pkg, rng):
    issues = rng.randint(2, 3)
    alphabets = [("0", "1")] * issues
    while True:
        d = pkg.build_domain(alphabets, _random_rows(rng, alphabets, 2 ** issues // 2, 2 ** issues))
        if pkg.validate(d).ok:
            return d


def draw_product(pkg, draw_id: int):
    """(product, factors): a random Boolean factor times a Boolean factor or
    one free three-valued issue, 16 to 32 rows."""
    rng = random.Random(f"analyze-product:{draw_id}")
    while True:
        left = _boolean_factor(pkg, rng)
        if rng.random() < 0.3:
            right = pkg.build_domain([("a", "b", "c")], [("a",), ("b",), ("c",)])
        else:
            right = _boolean_factor(pkg, rng)
        if 16 <= len(left.feasible) * len(right.feasible) <= 32:
            return pkg.product_domain(left, right), [left, right]


def draw_uniform(pkg, draw_id: int):
    """Random 3-issue domain, alphabets of 3 or 4 tokens, 8 to 12 rows."""
    rng = random.Random(f"uniform-small:{draw_id}")
    return draw_random_domain(pkg, rng, 3, (3, 4), 8, 12)


def draw_csp(pkg, draw_id: int):
    """(domain, instance lines without the domain line) of a random CSP.

    The domain has 3 issues over 3 tokens and 8 to 16 rows; the instance
    has 20 to 30 variables with sorts in turn, eight X-constraints per
    variable on random scopes, and subset constraints on a quarter of the
    variables. At this density the package's solver decides every draw of
    the pool within the node budget, in milliseconds as a rule.
    """
    rng = random.Random(f"csp-solve:{draw_id}")
    d = draw_random_domain(pkg, rng, 3, (3,), 8, 16)
    n = rng.randint(20, 30)
    names = [f"v{i}" for i in range(n)]
    by_sort = {j: names[j - 1 :: 3] for j in (1, 2, 3)}
    lines = [f"var {v} sort {i % 3 + 1}" for i, v in enumerate(names)]
    for _ in range(8 * n):
        lines.append("constraint X: " + " ".join(rng.choice(by_sort[j]) for j in (1, 2, 3)))
    for i in sorted(rng.sample(range(n), n // 4)):
        alphabet = d.alphabets[i % 3]
        allowed = sorted(rng.sample(alphabet, rng.randint(1, len(alphabet) - 1)))
        lines.append(f"constraint subset {i % 3 + 1} {{{','.join(allowed)}}}: {names[i]}")
    return d, lines


def load_pools():
    return json.loads(POOLS.read_text())


class Workload:
    """Rounds of operations for one workload, deterministic in the seed."""

    def __init__(self, name: str, pkg, seed: int, workdir: Path, pools):
        self.name = name
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        if name != "analyze-random":
            pool = pools[name]
            skip = set(pool["duplicate"]) | set(pool["over_budget"])
            self.kept = [i for i in range(pool["draws"]) if i not in skip]
            random.Random(f"{name}:order:{seed}").shuffle(self.kept)
            # uniform-small runs these in id order, whatever the seed; the
            # other workloads leave them out
            self.failing = pool["over_budget"]
        self.round_size = {
            "analyze-random": 8,
            "analyze-product": 8,
            "uniform-small": 9,  # plus one over-budget draw
            "csp-solve": 50,
        }[name]

    def _kept_ids(self, r: int):
        return _cycle(self.kept, r * self.round_size, self.round_size)

    def round(self, r: int) -> list:
        return getattr(self, "_round_" + self.name.replace("-", "_"))(r)

    def _text(self, d, suffix=""):
        """Canonical domain text, tokens suffixed when ``suffix`` is set."""
        if suffix:
            d = self.pkg.build_domain(
                [[t + suffix for t in a] for a in d.alphabets],
                [[t + suffix for t in d.row_tokens(r)] for r in d.feasible],
            )
        return self.pkg.serialize_domain(d)

    def _domain_op(self, key, d, kind, argv_tail, suffix="", **extra):
        text = self._text(d, suffix)
        path = self.workdir / f"{key}.dom"
        verb = ["analyze", str(path), "--witnesses"] if kind == "analyze" else [
            "witness", str(path), "--kind", "uniform"
        ]
        return Op(
            argv=verb + argv_tail,
            files={path.name: text},
            kind=kind,
            domain_text=text,
            label=key,
            **extra,
        )

    def _budget(self):
        return ["--budget-nodes", str(BUDGET_NODES[self.name]), "--budget-ms", str(BUDGET_MS)]

    def _round_analyze_random(self, r):
        ops = []
        for i in range(r * self.round_size, (r + 1) * self.round_size):
            rng = random.Random(f"analyze-random:{self.seed}:{i}")
            d = draw_random_domain(self.pkg, rng, 4, (3,), 16, 24)
            ops.append(self._domain_op(f"r{i}", d, "analyze", self._budget()))
        return ops

    def _round_analyze_product(self, r):
        ops = []
        if r == 0:
            for name, factor_names in PRODUCT_FIXTURES:
                d = self.pkg.fixtures.fixture_domain(name)
                factors = [self._text(self.pkg.fixtures.fixture_domain(f)) for f in factor_names]
                ops.append(self._domain_op(name, d, "analyze", self._budget(), factors=factors))
        for draw_id, suffix in self._kept_ids(r):
            d, factors = draw_product(self.pkg, draw_id)
            texts = [self._text(f, suffix) for f in factors]
            ops.append(
                self._domain_op(_key("p", draw_id, suffix), d, "analyze", self._budget(), suffix, factors=texts)
            )
        return ops

    def _round_uniform_small(self, r):
        ops = [
            self._domain_op(_key("u", draw_id, suffix), draw_uniform(self.pkg, draw_id), "uniform", self._budget(), suffix)
            for draw_id, suffix in self._kept_ids(r)
        ]
        # one over-budget draw per round, the same in every run, so
        # failed/attempted is exactly 1/10 whatever the seed and run length
        for draw_id, suffix in _cycle(self.failing, r, 1):
            op = self._domain_op(
                _key("u", draw_id, suffix), draw_uniform(self.pkg, draw_id), "uniform", self._budget(), suffix
            )
            op.expect_fail = True
            ops.append(op)
        return ops

    def _round_csp_solve(self, r):
        ops = []
        for draw_id, suffix in self._kept_ids(r):
            d, lines = draw_csp(self.pkg, draw_id)
            if suffix:
                lines = [_relabel_instance_line(line, suffix) for line in lines]
            text = self._text(d, suffix)
            key = _key("c", draw_id, suffix)
            instance = "\n".join([f"domain {key}.dom"] + lines) + "\n"
            ops.append(
                Op(
                    argv=["solve", str(self.workdir / f"{key}.csp")] + self._budget(),
                    files={f"{key}.dom": text, f"{key}.csp": instance},
                    kind="solve",
                    domain_text=text,
                    instance_text=instance,
                    label=key,
                )
            )
        return ops


def _cycle(ids, start, count):
    """ids[start:start + count] going round ``ids``, each with the relabel
    suffix of its pass (none on the first), so no two operations of a run
    share a domain value while their searches stay the same."""
    out = []
    for i in range(start, start + count):
        cycle, k = divmod(i, len(ids))
        out.append((ids[k], f"{cycle}" if cycle else ""))
    return out


def _key(prefix, draw_id, suffix):
    """Label and file name stem of a draw; the separator keeps draw 12 on
    its second pass apart from draw 121 on its first."""
    return f"{prefix}{draw_id}-{suffix}" if suffix else f"{prefix}{draw_id}"


def _relabel_instance_line(line: str, suffix: str) -> str:
    if not line.startswith("constraint subset"):
        return line
    head, _, var = line.rpartition(":")
    left, _, rest = head.partition("{")
    tokens, _, right = rest.partition("}")
    tokens = ",".join(t + suffix for t in tokens.split(","))
    return f"{left}{{{tokens}}}{right}:{var}"


def check_op(op: Op, output: str, fold=None) -> list:
    """Run the independent checker on one decided operation."""
    dom = checker.read_domain(op.domain_text)
    if op.kind == "analyze":
        factors = [checker.read_domain(t) for t in op.factors] if op.factors else None
        return checker.check_analyze(dom, output, factors, fold)
    if op.kind == "uniform":
        return checker.check_uniform(dom, output, fold)
    return checker.check_solve(dom, op.instance_text, output)
