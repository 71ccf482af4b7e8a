"""Benchmark for agorad: verdict latency and throughput, timed per layer.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-random --seed 1 --seconds 20 --trace 0

One process runs one workload on one thread. Each operation is one
in-process call to ``agorad.cli.main`` on files the benchmark wrote, so
argument parsing, domain parsing and output serialisation are timed while
interpreter start-up is not. Operations come in whole rounds until
``--seconds`` of operation time have passed (and at least 40 operations
ran); after each round, outside the timed region, an independent checker
judges every decided output of that round. The set-up is timed once before
the loop and again at ten points spread over it, and ``setup_s`` is the
median, so that it sees the same changes of machine speed as the loop.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the package's public functions are wrapped, the same
loop runs traced, the operations are replayed untraced, and the last line
carries the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

# the standard modules the package imports, loaded before the first timed
# set-up so that every set-up repeats the same work
import argparse
import contextlib
import dataclasses  # noqa: F401
import functools
import gc
import io
import itertools  # noqa: F401
import json
import os
import re  # noqa: F401
import resource
import shutil
import statistics
import sys
import warnings  # noqa: F401
import weakref  # noqa: F401
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("analyze-random", "analyze-product", "uniform-small", "csp-solve")
SETUP_SAMPLES = 10  # set-ups timed during the loop, besides the first
MIN_OPS = 40  # the tail percentile needs ten operations beyond it
# node budget of the package's per-pair route when the checker falls back on it
FOLD_NODES = 200_000


def write_files(workdir: Path, ops) -> None:
    for op in ops:
        for name, text in op.files.items():
            with open(workdir / name, "x") as f:  # no two operations share a file
                f.write(text)


def set_up(name, seed, workdir, pools):
    """Import the package and build and write the first round's inputs."""
    start = perf_counter()
    pkg = workloads.import_package()
    workload = workloads.Workload(name, pkg, seed, workdir, pools)
    first = workload.round(0)
    write_files(workdir, first)
    return perf_counter() - start, pkg, workload, first


def sample_set_up(name, seed, workdir, pools) -> float:
    """Time one more set-up in a fresh directory, then put the run's own
    copy of the package back in ``sys.modules``."""
    saved = {n: m for n, m in sys.modules.items() if n == "agorad" or n.startswith("agorad.")}
    target = workdir / "setup"
    target.mkdir()
    gc.collect()
    try:
        seconds = set_up(name, seed, target, pools)[0]
    finally:
        for n in [n for n in sys.modules if n == "agorad" or n.startswith("agorad.")]:
            del sys.modules[n]
        sys.modules.update(saved)
        shutil.rmtree(target)
    gc.collect()
    return seconds


def run_op(main, op):
    """Time one command; returns (seconds, exit code or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = perf_counter()
        try:
            code = main(op.argv)
        except Exception as exc:  # a crash counts as a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    if code is None:
        print(f"{op.label}: {err.getvalue().strip()}", file=sys.stderr)
    return elapsed, code, out.getvalue()


def timed_loop(pkg, workload, first, seconds, workdir, tracer=None, setup_sample=None):
    """Whole rounds until ``seconds`` of operation time and MIN_OPS ran.

    Each round is checked right after it ran, outside the timed region (and
    untraced), so the timed rounds are spread over the whole run and a spell
    of slower machine speed weighs on them more evenly. ``setup_sample``,
    when given, is called after the rounds that pass each tenth of
    ``seconds``; its results are returned too.

    Untraced, a checked round's outputs and files are dropped, so that the
    process's memory does not grow with the number of rounds; traced, the
    operations and outputs are kept for the untraced replay.
    """
    ops, results, problems, setups = [], [], [], []
    loop_seconds = 0.0
    batch, r = first, 0
    while True:
        if tracer is not None:
            tracer.install()
        done = []
        start = perf_counter()
        for op in batch:
            if tracer is not None:
                tracer.op = len(results) + len(done)
            done.append(run_op(pkg.cli.main, op))
        loop_seconds += perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        problems.extend(check_all(pkg, batch, done))
        if tracer is None:
            done = [(elapsed, code, None) for elapsed, code, _ in done]
            for op in batch:
                for name in op.files:
                    (workdir / name).unlink()
        else:
            ops.extend(batch)
        results.extend(done)
        while setup_sample is not None and len(setups) < SETUP_SAMPLES and (
            loop_seconds >= seconds * len(setups) / SETUP_SAMPLES
        ):
            setups.append(setup_sample())
        if loop_seconds >= seconds and len(results) >= MIN_OPS:
            return ops, results, loop_seconds, problems, setups
        r += 1
        batch = workload.round(r)
        write_files(workdir, batch)


def check_all(pkg, ops, results) -> list:
    """Independent checks of every decided output; returns the problems.

    An over-budget draw must stop at the node budget (exit code 1, output
    ``UNKNOWN``) or be decided, and then is checked like any other.
    """
    problems = []
    for op, (_, code, output) in zip(ops, results):
        if op.expect_fail and (code, output) == (1, "UNKNOWN\n"):
            continue
        if code != 0:
            problems.append(f"{op.label}: unexpected exit code {code}")
            continue

        def fold(text=op.domain_text):
            budget = pkg.SearchBudget(max_nodes=FOLD_NODES, max_millis=workloads.BUDGET_MS)
            return pkg.fold_diamond_cover(pkg.parse_domain(text), budget).status

        try:
            found = workloads.check_op(op, output, fold)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output ({type(exc).__name__}: {exc})"]
        problems.extend(f"{op.label}: {p}" for p in found)
    return problems


def tail(values):
    """Highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        pools = None if args.workload == "analyze-random" else workloads.load_pools()
        workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            return measure(args, pools, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still use it
                WORK_DIR.rmdir()
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


def measure(args, pools, workdir) -> int:
    first_setup, pkg, workload, first = set_up(args.workload, args.seed, workdir, pools)
    gc.collect()

    tracer = Tracer() if args.trace else None
    sample = None if tracer else functools.partial(sample_set_up, args.workload, args.seed, workdir, pools)
    ops, results, loop_seconds, problems, setups = timed_loop(
        pkg, workload, first, args.seconds, workdir, tracer, sample
    )
    setups.append(first_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(results)
    failed = sum(1 for _, code, _ in results if code != 0)
    times = [t for t, _, _ in results]

    if tracer is None:
        metrics = {
            "verdict_s_p50": (statistics.median(times), "s"),
            "verdict_s_tail": (tail(times), "s"),
            "verdicts_per_s": ((attempted - failed) / loop_seconds, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        metrics = tracer.layer_metrics(attempted)
        # the spans recorded so far are not garbage; keep the collector from
        # scanning them over and over during the replay
        gc.collect()
        gc.freeze()
        replay = []
        for op, (_, code, output) in zip(ops, results):
            elapsed, code2, output2 = run_op(pkg.cli.main, op)
            replay.append(elapsed)
            if (code2, output2) != (code, output):
                problems.append(f"{op.label}: untraced replay printed other output")
        overhead = (sum(times) - sum(replay)) / sum(replay) * 100
        metrics["trace.overhead_pct"] = (overhead, "%")

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
