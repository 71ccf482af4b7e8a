"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps every public function the package defines, at
every module attribute that binds it, so calls from one module into
another pass through the wrapper. Each call records a span (operation,
name, start, end, parent) kept in memory, plus per-name call counts,
inclusive time and self time (inclusive time minus the time of the spans
it caused). A few boundaries also read work counts off their arguments
and results, and the private 2-sub-box generator of ``blockedness`` is
wrapped to count the boxes ``build_graph`` actually visits.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter


def _graph(tracer, args, result):
    tracer.count("blockedness.edges", len(result.edges))


def _table_search(tracer, args, result):
    tracer.count("search.selections", len(args[0].feasible) ** args[1])
    tracer.count("search.nodes", result.stats.nodes)
    tracer.count("search.prunes", result.stats.prunes)


def _closure(tracer, args, result):
    d, agg = args[0], args[1]
    n = len(d.feasible)
    if result.ok:
        scanned = n**agg.arity
    else:  # selections up to and including the counterexample, in scan order
        position = 0
        for row in result.counterexample:
            position = position * n + d.feasible.index(row)
        scanned = position + 1
    tracer.count("aggregators.closure_selections", scanned)


COUNTERS = {
    "blockedness.build_graph": _graph,
    "search.run_table_search": _table_search,
    "aggregators.is_closed": _closure,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent span]
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "agorad" or n.startswith("agorad."))
        ]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith("agorad.")
                    or value.__name__.startswith("_")
                ):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        blockedness = sys.modules.get("agorad.blockedness")
        boxes = getattr(blockedness, "_two_boxes", None)
        if boxes is not None:
            self._restore.append((blockedness, "_two_boxes", boxes))
            blockedness._two_boxes = self._counted("blockedness.two_boxes", boxes)

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _counted(self, key, generator):
        """``generator`` with each value it yields added to count ``key``."""
        def counted(*args, **kwargs):
            for value in generator(*args, **kwargs):
                self.count(key, 1)
                yield value

        return counted

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1][0] if stack else None]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                span[2], span[3] = start, end
                self.calls[name] = self.calls.get(name, 0) + 1
                self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation means of the per-layer metrics, plus the node rate."""
        def calls(name):
            return self.calls.get(name, 0) / ops

        def incl(*names):
            return sum(self.inclusive.get(n, 0.0) for n in names) / ops

        def count(key):
            return self.counts.get(key, 0) / ops

        search_s = self.inclusive.get("search.run_table_search", 0.0)
        classify_self = sum(t for n, t in self.self_time.items() if n.startswith("classify."))
        return {
            "domain.parse_s": (incl("domain.parse_domain"), "s"),
            "domain.validate_calls": (calls("domain.validate"), "count"),
            "blockedness.build_graph_calls": (calls("blockedness.build_graph"), "count"),
            "blockedness.build_graph_s": (incl("blockedness.build_graph"), "s"),
            "blockedness.two_boxes": (count("blockedness.two_boxes"), "count"),
            "blockedness.edges": (count("blockedness.edges"), "count"),
            "search.table_searches": (calls("search.run_table_search"), "count"),
            "search.run_table_search_s": (incl("search.run_table_search"), "s"),
            "search.selections": (count("search.selections"), "count"),
            "search.nodes": (count("search.nodes"), "count"),
            "search.prunes": (count("search.prunes"), "count"),
            "search.nodes_per_s": (
                self.counts.get("search.nodes", 0) / search_s if search_s else 0.0,
                "1/s",
            ),
            "search.find_uniform_s": (incl("search.find_uniform"), "s"),
            "search.find_majority_s": (incl("search.find_majority"), "s"),
            "search.find_minority_s": (incl("search.find_minority"), "s"),
            "search.find_binary_s": (incl("search.find_binary_nondictatorial"), "s"),
            "aggregators.is_closed_calls": (calls("aggregators.is_closed"), "count"),
            "aggregators.is_closed_s": (incl("aggregators.is_closed"), "s"),
            "aggregators.closure_selections": (count("aggregators.closure_selections"), "count"),
            "classify.self_s": (classify_self / ops, "s"),
            "classify.boolean_classification_s": (incl("classify.boolean_classification"), "s"),
            "classify.report_s": (incl("classify.serialize_report", "classify.report_witness_blocks"), "s"),
            "mcsp.parse_instance_s": (incl("mcsp.parse_instance"), "s"),
            "mcsp.solve_s": (incl("mcsp.solve"), "s"),
            "mcsp.verify_assignment_calls": (calls("mcsp.verify_assignment"), "count"),
            "cli.overhead_s": (self.self_time.get("cli.main", 0.0) / ops, "s"),
        }
