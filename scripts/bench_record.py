"""Record one ``BENCH_<label>.json`` for the tree this script sits in.

    python3 scripts/bench_record.py LABEL

The file, written to the repository root, holds:

- for each benchmark workload, the median and quartiles over seeds
  11 .. 15 of the four end-to-end metrics of
  ``perfbench/run.py --trace 0``, with the run length from
  ``BENCHMARK.json``, and the operation counts and correctness of those runs;
- the wall time of the CLI commands ``verify``, ``quantize``,
  ``dequantize``, ``star`` and ``demo``, each run as ``python -m pgquant``
  in a fresh process, median and quartiles over five runs;
- the output of ``perfbench/grid.py``;
- the machine and interpreter, and the boot the record was made in.

It runs those scripts and the CLI only as child processes and imports
nothing from the tree, so the same command measures any commit that has
``perfbench/``.  Bytecode moves ``setup_s`` by 6 to 14 %, so no child
reads or writes the tree's own ``__pycache__``: every child of one record
shares a fresh ``PYTHONPYCACHEPREFIX`` directory, which the first run
fills and the later runs read.  It takes about ten minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "multimode", "products", "star")
SEEDS = list(range(11, 16))
METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")
CLI_RUNS = 5
# Changes at every boot of a Linux kernel: two records that differ here come
# from different sessions of the machine and are not to be compared.
BOOT_ID = Path("/proc/sys/kernel/random/boot_id")
# Command name and arguments after ``python -m pgquant``; MATRIX stands for a
# JSON file written by ``pgquant matrix theta --k 16``.
MATRIX = "MATRIX"
CLI = [
    ("verify", ["verify", "--k", "16"]),
    ("quantize", ["quantize", "th*bth + 2", "--k", "16"]),
    ("dequantize", ["dequantize", MATRIX]),
    ("star", ["star", "th", "bth", "--k", "16"]),
    ("demo", ["demo", "quaternion"]),
]
# The CLI runs single-threaded, as the benchmark does.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                 "BLIS_NUM_THREADS": "1"}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def child_env(scratch: Path, **extra: str) -> dict:
    """The environment of a child process: the caller's, with bytecode kept
    under ``scratch`` instead of the tree, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPYCACHEPREFIX": str(scratch / "pycache"), **extra}


def workloads(seeds: list[int], seconds: float, env: dict) -> dict:
    out = {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            print(" ".join(argv[1:]), file=sys.stderr, flush=True)
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out[name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                m: {**summary([r["metrics"][m]["value"] for r in runs]), "unit": runs[0]["metrics"][m]["unit"]}
                for m in METRICS
            },
        }
    return out


def cli_times(scratch: Path) -> dict:
    env = child_env(scratch, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    matrix = scratch / "theta16.json"
    with open(matrix, "w") as fh:
        subprocess.run([sys.executable, "-m", "pgquant", "matrix", "theta", "--k", "16", "--format", "json"],
                       env=env, cwd=scratch, stdout=fh, check=True)
    out = {}
    for name, args in CLI:
        argv = [sys.executable, "-m", "pgquant", *(str(matrix) if a == MATRIX else a for a in args)]
        times, codes = [], set()
        for _ in range(CLI_RUNS):
            t0 = time.perf_counter()
            codes.add(subprocess.run(argv, env=env, cwd=scratch, capture_output=True).returncode)
            times.append(time.perf_counter() - t0)
        out[name] = {"argv": args, "exit_codes": sorted(codes), "wall_s": summary(times)}
    return out


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                capture_output=True, text=True, check=True).stdout.strip(),
        "cpus": os.cpu_count(),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "boot_id": BOOT_ID.read_text().strip() if BOOT_ID.exists() else None,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = re.findall(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.MULTILINE)
        info["cpu_model"] = models[0] if models else None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("label may hold letters, digits, '.', '_' and '-' only")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory() as scratch:
        env = child_env(Path(scratch))
        record = {
            "label": args.label,
            "started_utc": started,
            "machine": machine(),
            "run_seconds": seconds,
            "workloads": workloads(SEEDS, seconds, env),
            "cli": cli_times(Path(scratch)),
            "grid": subprocess.run([sys.executable, "perfbench/grid.py"], cwd=ROOT, env=env,
                                   capture_output=True, text=True, check=True).stdout.splitlines(),
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
