"""Compare two trees on benchmark workloads in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload verify --pairs 10
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload verify star --pairs 10

Pair i runs ``perfbench/run.py --workload W --seed 11+i --trace 0`` at
the benchmark's own run length once in each tree, each run in its own process: parent first
in even pairs, change first in odd ones, so that drift of the machine
over the minutes of a comparison falls on both sides alike.  For each
end-to-end metric it prints the median and quartiles of either side, the
relative change of the medians and in how many pairs the change read
lower.  Where the parent tree has a ``BENCHMARK.json``, each metric also
gets the ``bound`` of its ``end_to_end`` entry there and a verdict: ``ok``
when the change of the medians is within the bound, ``WORSE`` when it is
worse by more; the first line names the metrics that are worse, if any.
Several workloads run one after the other, each in its own pairs, and
each gets its own table; a last line then gives the verdict over all of
them.  Two records of ``bench_record.py`` made one after the other cannot tell
drift from a change; pairs can.  Every run must report ``correct`` with no failed
operation, or the script stops with exit status 1.

Check out or ``git archive`` the two commits to compare into directories
first.  Bytecode moves ``setup_s`` by about a tenth and ``peak_rss_mb`` by
about 1 MB, so no run reads or writes a tree's own ``__pycache__``: each
tree gets a fresh ``PYTHONPYCACHEPREFIX`` directory for the comparison,
which its first run fills and its later runs read, alike on both sides.
``--runner`` names the script inside each tree; the default is the
benchmark's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")
FIRST_SEED = 11


def run_once(tree: Path, runner: str, workload: str, seed: int, pycache: Path) -> dict:
    argv = [sys.executable, runner, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: seed {seed} reported correct={result['correct']}, "
                           f"{result['failed']} failed operations")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end_bounds(tree: Path) -> dict[str, tuple[float, str]]:
    """metric -> (bound, better) from the ``end_to_end`` entries of the
    tree's ``BENCHMARK.json``; empty when the tree has none."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {e["name"]: (float(e["bound"]), e["better"]) for e in json.loads(path.read_text()).get("end_to_end", [])}


def verdict(parent_median: float, change_median: float, bound: tuple[float, str] | None) -> tuple[float, str]:
    """The relative change of the medians and whether it stays within ``bound``."""
    if parent_median == 0:
        rel = 0.0 if change_median == 0 else math.copysign(math.inf, change_median)
    else:
        rel = change_median / parent_median - 1.0
    if bound is None:
        return rel, "-"
    limit, better = bound
    worse = rel > limit if better == "lower" else rel < -limit
    return rel, "WORSE" if worse else "ok"


def compare(parent: Path, change: Path, runner: str, workload: str, pairs: int) -> tuple[list[str], list[str]]:
    """Run the pairs of one workload; return the report lines and the
    metrics worse than their bounds."""
    bounds = end_to_end_bounds(parent)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        order = [("parent", parent, Path(tmp, "parent")), ("change", change, Path(tmp, "change"))]
        for i in range(pairs):
            for side, tree, pycache in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_once(tree, runner, workload, FIRST_SEED + i, pycache))
                print(f"pair {i + 1}/{pairs} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
    lines, worse = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
                    f"{'change':>8} {'bound':>6} {'verdict':>7}  change lower"], []
    for m in METRICS:
        a, b = ([r[m] for r in runs[side]] for side in ("parent", "change"))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(a), quartiles(b)
        lower = sum(y < x for x, y in zip(a, b))
        rel, word = verdict(pmed, cmed, bounds.get(m))
        if word == "WORSE":
            worse.append(m)
        bound = f"{bounds[m][0]:.0%}" if m in bounds else "-"
        lines.append(f"{m:<12} {f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':>34} "
                     f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>34} {rel:>+8.1%} {bound:>6} {word:>7}  {lower}/{pairs}")
    head = f"{workload}: {pairs} alternating pairs, seeds {FIRST_SEED}..{FIRST_SEED + pairs - 1}; "
    return [head + summary(bool(bounds), worse)] + lines, worse


def summary(bounded: bool, worse: list[str]) -> str:
    if not bounded:
        return "no bounds (the parent has no BENCHMARK.json)"
    return f"worse than its bound: {', '.join(worse)}" if worse else "no metric worse than its bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--workload", required=True, nargs="+", action="extend", help="one or more workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runner", default="perfbench/run.py", help="benchmark script, relative to each tree")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / args.runner).is_file():
            parser.error(f"{tree / args.runner} does not exist")
    parent, change, worse = args.parent.resolve(), args.change.resolve(), []
    try:
        for i, workload in enumerate(args.workload):
            lines, bad = compare(parent, change, args.runner, workload, args.pairs)
            print("\n" * (i > 0) + "\n".join(lines), flush=True)
            worse += [f"{workload} {m}" for m in bad]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(args.workload) > 1:
        print(f"\noverall, {len(args.workload)} workloads: {summary(bool(end_to_end_bounds(parent)), worse)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
