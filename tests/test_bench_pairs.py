"""``scripts/bench_pairs.py`` on two fake trees whose runner prints fixed metrics.

The real benchmark is never run here: each fake tree holds a ``run.py``
that logs its call and prints one result line in the benchmark's format.
"""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

FAKE_RUN = textwrap.dedent("""
    import argparse, json, os
    from pathlib import Path
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--trace"):
        p.add_argument(flag)
    args = p.parse_args()
    here = Path(__file__).resolve().parent
    spec = json.loads((here / "spec.json").read_text())
    with open(here.parent / "calls.log", "a") as log:
        pycache = os.environ.get("PYTHONPYCACHEPREFIX")
        nowrite = os.environ.get("PYTHONDONTWRITEBYTECODE", "-")
        log.write(f"{here.name} {args.workload} {args.seed} {args.trace} {pycache} {nowrite}\\n")
    if spec.get("fail"):
        raise SystemExit(3)
    seed = int(args.seed)
    values = dict(spec["metrics"], **spec.get("per_workload", {}).get(args.workload, {}))
    metrics = {m: {"value": v + 0.001 * seed, "unit": "x"} for m, v in values.items()}
    print(json.dumps({"correct": spec.get("correct", True), "attempted": 4, "failed": 0, "metrics": metrics}))
""")


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(root: Path, name: str, op_ms: float, **extra) -> Path:
    tree = root / name
    tree.mkdir()
    (tree / "run.py").write_text(FAKE_RUN)
    metrics = {"setup_s": 0.5, "wall_s": 0.02, "op_p50_ms": op_ms, "peak_rss_mb": 40.0}
    (tree / "spec.json").write_text(json.dumps({"metrics": metrics, **extra}))
    return tree


def test_pairs_alternate_and_count_lower_runs(tmp_path, capsys):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 5.0)
    code = load().main([str(parent), str(change), "--workload", "verify", "--pairs", "4", "--runner", "run.py"])
    out = capsys.readouterr().out
    assert code == 0
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert [c.split()[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert [int(c.split()[2]) for c in calls] == [11, 11, 12, 12, 13, 13, 14, 14]
    assert all(c.split()[1:2] + c.split()[3:4] == ["verify", "0"] for c in calls)
    rows = {line.split()[0]: line for line in out.splitlines()[2:]}
    assert set(rows) == {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}
    assert rows["op_p50_ms"].startswith("op_p50_ms") and rows["op_p50_ms"].endswith("4/4")
    assert "10.01 [10.01, 10.01]" in rows["op_p50_ms"] and "5.012 [5.012, 5.013]" in rows["op_p50_ms"]
    assert rows["setup_s"].endswith("0/4")


def test_each_tree_keeps_its_bytecode_apart(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 5.0)
    assert load().main([str(parent), str(change), "--workload", "verify", "--pairs", "3", "--runner", "run.py"]) == 0
    prefixes = {}
    for call in (tmp_path / "calls.log").read_text().split("\n")[:-1]:
        prefixes.setdefault(call.split()[0], set()).add(call.split()[4])
        assert call.split()[5] == "-"  # every run may write the bytecode its tree's later runs read
    assert all(len(p) == 1 for p in prefixes.values())  # one prefix a tree, kept over its runs
    (p_parent,), (p_change,) = prefixes["parent"], prefixes["change"]
    assert p_parent != p_change
    assert not any(Path(p).is_relative_to(tmp_path) or Path(p).exists() for p in (p_parent, p_change))
    assert not any(tmp_path.glob("**/__pycache__"))


@pytest.mark.parametrize("extra", [{"correct": False}, {"fail": True}])
def test_incorrect_or_failed_run_stops_with_exit_1(tmp_path, capsys, extra):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 5.0, **extra)
    code = load().main([str(parent), str(change), "--workload", "verify", "--pairs", "2", "--runner", "run.py"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_runner_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        load().main([str(tmp_path), str(tmp_path), "--workload", "verify"])
    assert exc.value.code == 2


END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


@pytest.mark.parametrize("op_ms, word, summary", [
    (5.0, "ok", "no metric worse than its bound"),
    (12.0, "ok", "no metric worse than its bound"),  # +20 %, within 25 %
    (13.0, "WORSE", "worse than its bound: op_p50_ms"),  # +30 %
])
def test_verdict_against_the_parents_bounds(tmp_path, capsys, op_ms, word, summary):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", op_ms)
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))  # the change's own file is not read
    code = load().main([str(parent), str(change), "--workload", "verify", "--pairs", "2", "--runner", "run.py"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].endswith(summary)
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    median = 0.001 * (11 + 12) / 2  # the fake runner adds 0.001 * seed
    assert rows["op_p50_ms"][-4:-1] == [f"{(op_ms + median) / (10.0 + median) - 1:+.1%}", "25%", word]
    assert rows["peak_rss_mb"][-4:-1] == ["+0.0%", "10%", "ok"]


def test_verdict_without_bounds(tmp_path, capsys):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 20.0)
    assert load().main([str(parent), str(change), "--workload", "verify", "--pairs", "1", "--runner", "run.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("no bounds (the parent has no BENCHMARK.json)")
    assert lines[2 + 2].split()[-4:-1] == ["+99.9%", "-", "-"]  # op_p50_ms, medians 10.011 and 20.011


@pytest.mark.parametrize("parent, change, bound, rel, word", [
    (10.0, 12.5, (0.25, "lower"), 0.25, "ok"),  # at the bound is within it
    (10.0, 7.0, (0.25, "higher"), -0.3, "WORSE"),
    (0.0, 0.0, (0.1, "lower"), 0.0, "ok"),
    (0.0, 1.0, (0.1, "lower"), float("inf"), "WORSE"),
])
def test_verdict_rule(parent, change, bound, rel, word):
    assert load().verdict(parent, change, bound) == (pytest.approx(rel), word)


@pytest.mark.parametrize("flags", [["--workload", "verify", "star"], ["--workload", "verify", "--workload", "star"]])
def test_several_workloads_get_a_table_each_and_one_verdict(tmp_path, capsys, flags):
    parent = fake_tree(tmp_path, "parent", 10.0)
    change = fake_tree(tmp_path, "change", 5.0, per_workload={"star": {"op_p50_ms": 13.0}})
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    code = load().main([str(parent), str(change), *flags, "--pairs", "2", "--runner", "run.py"])
    out = capsys.readouterr().out
    assert code == 0
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert [c.split()[1] for c in calls] == ["verify"] * 4 + ["star"] * 4
    assert [c.split()[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    verify, star, overall = out.rstrip("\n").split("\n\n")
    assert verify.splitlines()[0] == "verify: 2 alternating pairs, seeds 11..12; no metric worse than its bound"
    assert star.splitlines()[0] == "star: 2 alternating pairs, seeds 11..12; worse than its bound: op_p50_ms"
    for table in (verify, star):
        assert [line.split()[0] for line in table.splitlines()[2:]] == ["setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"]
    assert overall == "overall, 2 workloads: worse than its bound: star op_p50_ms"


def test_several_workloads_within_bounds_and_without(tmp_path, capsys):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 5.0)
    argv = [str(parent), str(change), "--workload", "verify", "products", "star", "--pairs", "1", "--runner", "run.py"]
    assert load().main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall, 3 workloads: no bounds (the parent has no BENCHMARK.json)"
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    assert load().main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("alternating pairs") == 3
    assert out.splitlines()[-1] == "overall, 3 workloads: no metric worse than its bound"


def test_one_workload_prints_no_overall_line(tmp_path, capsys):
    parent, change = fake_tree(tmp_path, "parent", 10.0), fake_tree(tmp_path, "change", 5.0)
    assert load().main([str(parent), str(change), "--workload", "star", "--pairs", "1", "--runner", "run.py"]) == 0
    out = capsys.readouterr().out
    assert "overall" not in out and len(out.splitlines()) == 6
