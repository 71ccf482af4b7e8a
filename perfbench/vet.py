"""Rebuild pools.json: the draw ids each pooled workload leaves out or runs
as expected failures.

A draw is left out when its domain equals one drawn before it (or, for
analyze-product, one of the fixtures the workload also runs). Every other
draw stays in the workload. The ids the package does not decide within the
workload's node budget are recorded as ``over_budget``: uniform-small runs
them as expected failures, one per round in id order. The other workloads
are sized so that nearly every draw is decided, and leave their few
over-budget draws out, since a run would hold them or not depending on
its seed.

``pools.json`` is part of the benchmark's definition: it records the
package as it stood when the benchmark was written, and two commits are
compared on the same file. Rebuilding it after a change to the package
changes the workload. Run from the repository root; it takes a few minutes:

    python3 perfbench/vet.py            # rewrites perfbench/pools.json
"""

from __future__ import annotations

import json
import time
import warnings

from workloads import (
    BUDGET_MS,
    BUDGET_NODES,
    POOLS,
    PRODUCT_FIXTURES,
    draw_csp,
    draw_product,
    draw_uniform,
    import_package,
)

DRAWS = {"analyze-product": 83, "uniform-small": 1500, "csp-solve": 2500}


def vet(pkg, name: str, draws: int) -> dict:
    from agorad import classify, mcsp, search

    budget = search.SearchBudget(max_nodes=BUDGET_NODES[name], max_millis=BUDGET_MS)
    seen = set()
    if name == "analyze-product":
        seen = {pkg.serialize_domain(pkg.fixtures.fixture_domain(f)) for f, _ in PRODUCT_FIXTURES}
    over_budget, duplicate = [], []
    seconds = []
    for draw_id in range(draws):
        if name == "analyze-product":
            d, _ = draw_product(pkg, draw_id)
        elif name == "uniform-small":
            d = draw_uniform(pkg, draw_id)
        else:
            d, lines = draw_csp(pkg, draw_id)
        text = pkg.serialize_domain(d)
        if text in seen:
            duplicate.append(draw_id)
            continue
        seen.add(text)
        start = time.perf_counter()
        if name == "analyze-product":
            report = classify.analyze(d, classify.AnalysisOptions(budget=budget))
            decided = classify.UNKNOWN not in (report.possibility, report.upd)
        elif name == "uniform-small":
            decided = search.find_uniform(d, budget).status != search.BUDGET_EXCEEDED
        else:
            instance = mcsp.parse_instance("\n".join(lines), domain=d)
            decided = mcsp.solve(instance, budget).status != mcsp.UNKNOWN
        seconds.append(time.perf_counter() - start)
        if not decided:
            over_budget.append(draw_id)
            print(f"{name}: draw {draw_id} exceeds the budget after {seconds[-1]:.3f} s")
    seconds.sort()
    print(
        f"{name}: {draws} draws, {len(over_budget)} over budget, {len(duplicate)} duplicates; "
        f"median {seconds[len(seconds) // 2]:.4f} s, max {seconds[-1]:.4f} s"
    )
    return {
        "budget_nodes": BUDGET_NODES[name],
        "draws": draws,
        "duplicate": duplicate,
        "over_budget": over_budget,
    }


def main() -> int:
    warnings.simplefilter("ignore")
    pkg = import_package()
    pools = {name: vet(pkg, name, draws) for name, draws in sorted(DRAWS.items())}
    POOLS.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
