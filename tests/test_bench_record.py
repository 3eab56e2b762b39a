"""``scripts/bench_record.py`` with every child process replaced by a fake.

The benchmark is never run here: the fake answers each child with a fixed
result line and logs the environment it was given.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_child_keeps_its_bytecode_outside_the_tree(tmp_path, monkeypatch):
    module = load()
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1.0}))
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m: {"value": 1.0, "unit": "x"} for m in module.METRICS}}
    envs = []

    def fake_run(argv, **kwargs):
        if "perfbench/run.py" in argv or "perfbench/grid.py" in argv or "pgquant" in argv:
            envs.append(kwargs["env"])
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) if "perfbench/run.py" in argv else "")

    monkeypatch.setattr(module, "ROOT", tree)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert module.main(["fake"]) == 0
    runs = len(module.WORKLOADS) * len(module.SEEDS)
    assert len(envs) == runs + 1 + len(module.CLI) * module.CLI_RUNS + 1  # workloads, matrix, CLI, grid
    prefixes = {env["PYTHONPYCACHEPREFIX"] for env in envs}
    assert len(prefixes) == 1  # one fresh cache a record, filled by its first run
    prefix = Path(prefixes.pop())
    assert not prefix.is_relative_to(tree) and not prefix.is_relative_to(SCRIPT.parent.parent)
    assert not prefix.exists()  # removed with the record's scratch directory
    assert all("PYTHONDONTWRITEBYTECODE" not in env for env in envs)
    assert all(env["PYTHONPATH"] == str(tree / "src") for env in envs[runs:-1])
    assert (tree / "BENCH_fake.json").is_file()


def test_record_names_the_boot_it_was_made_in(tmp_path, monkeypatch):
    module = load()
    monkeypatch.setattr(module.subprocess, "run",
                        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 0, stdout="2.0\n"))
    boot = tmp_path / "boot_id"
    boot.write_text("0f3c9a52-6e1d-4b8a-9c1e-2d7f5b3a8e61\n")
    monkeypatch.setattr(module, "BOOT_ID", boot)
    assert module.machine()["boot_id"] == "0f3c9a52-6e1d-4b8a-9c1e-2d7f5b3a8e61"
    monkeypatch.setattr(module, "BOOT_ID", tmp_path / "absent")
    assert module.machine()["boot_id"] is None
