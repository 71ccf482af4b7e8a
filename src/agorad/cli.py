"""Command-line front end.

Exit codes: 0 a decision was computed (whatever it says), 1 a budget ran
out and the answer is unknown, 2 bad input, 3 desk-scale capacity guard.
Reports, witnesses, DOT output and stderr (one ``warning: <message>``
line per package warning) are byte-deterministic; --jobs is accepted for
interface stability but execution is sequential either way, which
satisfies the determinism contract trivially.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import classify, fixtures, mcsp
from .aggregators import serialize_aggregator
from .blockedness import EmptyBoxWarning, build_graph, graph_to_dot
from .domain import Domain, DuplicateTupleWarning, parse_domain
from .errors import AgoradError, CapacityError
from .search import (
    EXHAUSTED,
    FOUND,
    SearchBudget,
    find_binary_nondictatorial,
    find_component_nonprojection,
    find_majority,
    find_minority,
    find_uniform,
)


def _read_domain(path: str, allow_large: bool) -> Domain:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    return parse_domain(text, allow_large=allow_large)


def _budget_from(args) -> SearchBudget:
    # an explicit 0 must reach SearchBudget and be refused, not read as unset
    nodes = SearchBudget.max_nodes if args.budget_nodes is None else args.budget_nodes
    millis = args.budget_ms
    if millis is None:
        text = os.environ.get("AGORAD_BUDGET_MS", str(SearchBudget.max_millis))
        try:
            millis = int(text)
        except ValueError:
            raise ValueError(f"AGORAD_BUDGET_MS must be an integer, got {text!r}") from None
        if millis <= 0:
            raise ValueError(f"AGORAD_BUDGET_MS must be positive, got {text!r}")
    return SearchBudget(max_nodes=nodes, max_millis=millis)


def _cmd_analyze(args) -> int:
    domain = _read_domain(args.domain, args.allow_large)
    options = classify.AnalysisOptions(
        budget=_budget_from(args), diagnostics=args.diagnostics
    )
    report = classify.analyze(domain, options)
    sys.stdout.write(classify.serialize_report(report))
    if args.witnesses:
        sys.stdout.write(classify.report_witness_blocks(domain, report))
    if args.dot:
        sys.stdout.write("graph:\n")
        sys.stdout.write(graph_to_dot(domain, report.graph))
    unknown = (
        classify.UNKNOWN in (report.possibility, report.upd)
        or report.mcsp == classify.MCSP_UNKNOWN
    )
    return 1 if unknown else 0


def _cmd_witness(args) -> int:
    domain = _read_domain(args.domain, args.allow_large)
    budget = _budget_from(args)
    if args.kind == "binary":
        outcome = find_binary_nondictatorial(domain, budget)
    elif args.kind == "majority":
        outcome = find_majority(domain, budget)
    elif args.kind == "minority":
        outcome = find_minority(domain, budget)
    elif args.kind == "uniform":
        outcome = find_uniform(domain, budget)
    else:  # component
        if args.issue is None or args.pair is None:
            raise ValueError("--kind component needs --issue and --pair")
        tokens = args.pair.split(",")
        if len(tokens) != 2:
            raise ValueError("--pair expects two comma-separated tokens")
        pair = tuple(domain.code(args.issue, tok.strip()) for tok in tokens)
        outcome = find_component_nonprojection(domain, args.issue, pair, budget)
    if outcome.status == FOUND:
        sys.stdout.write(serialize_aggregator(domain, outcome.witness))
        return 0
    if outcome.status == EXHAUSTED:
        sys.stdout.write("NONE\n")
        return 0
    sys.stdout.write("UNKNOWN\n")
    return 1


def _cmd_graph(args) -> int:
    domain = _read_domain(args.domain, args.allow_large)
    _budget_from(args)  # validated as in every verb; build_graph reads no budget yet
    graph = build_graph(domain)
    if args.format == "text":
        for (sj, su, sv), (tj, tu, tv) in graph.edges:
            sys.stdout.write(
                f"{sj}:{domain.token(sj, su)}{domain.token(sj, sv)} -> "
                f"{tj}:{domain.token(tj, tu)}{domain.token(tj, tv)}\n"
            )
    else:
        sys.stdout.write(graph_to_dot(domain, graph))
    return 0


def _cmd_classify(args) -> int:
    domain = _read_domain(args.domain, args.allow_large)
    label = classify.classify_mcsp(domain, _budget_from(args))
    sys.stdout.write(label + "\n")
    return 1 if label == classify.MCSP_UNKNOWN else 0


def _cmd_solve(args) -> int:
    path = Path(args.instance)
    inst = mcsp.parse_instance(path.read_text(), base_dir=path.parent)
    result = mcsp.solve(inst, _budget_from(args))
    sys.stdout.write(mcsp.serialize_result(inst, result))
    return 1 if result.status == mcsp.UNKNOWN else 0


def _cmd_fixtures(args) -> int:
    sys.stdout.write(fixtures.fixture_text(args.name))
    return 0


def _add_common(sub) -> None:
    sub.add_argument("domain", help="domain file path, or - for stdin")
    sub.add_argument("--allow-large", action="store_true", help="lift capacity guards")
    sub.add_argument("--budget-nodes", type=int, default=None)
    sub.add_argument("--budget-ms", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=1, help="accepted; never changes output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agorad",
        description="Analyze feasible voting-pattern domains.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("analyze", help="full report for a domain")
    _add_common(p)
    p.add_argument("--witnesses", action="store_true", help="attach witness tables")
    p.add_argument("--dot", action="store_true", help="attach the DOT graph")
    p.add_argument("--diagnostics", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser("witness", help="search one witness kind")
    _add_common(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=("binary", "majority", "minority", "uniform", "component"),
    )
    p.add_argument("--issue", type=int, default=None)
    p.add_argument("--pair", type=str, default=None, help="tok,tok")
    p.set_defaults(handler=_cmd_witness)

    p = subs.add_parser("graph", help="emit the blockedness graph")
    _add_common(p)
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.set_defaults(handler=_cmd_graph)

    p = subs.add_parser("classify", help="tractability label of the conservative CSP")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("solve", help="solve a multi-sorted CSP instance file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-ms", type=int, default=None)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("fixtures", help="emit a built-in example domain file")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_package_warning(message, category, *rest):
            # one fixed line, free of the source path and line Python adds
            if issubclass(category, (DuplicateTupleWarning, EmptyBoxWarning)):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *rest)

        warnings.showwarning = show_package_warning
        try:
            return args.handler(args)
        except CapacityError as exc:
            print(f"capacity: {exc}", file=sys.stderr)
            return 3
        except (AgoradError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
