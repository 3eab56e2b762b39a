"""Benchmark of pgquant, one workload per process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Runs the workload's first operation cold, then whole rounds of warm
operations until ``--seconds`` have passed, checks every output against
the independent references in ``oracle.py``, and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, mean
time of a round of warm operations, median operation time, peak resident
memory); set-up is measured in this process and in fresh child processes
and reported as the median.  With ``--trace 1`` the same operations run under
``tracer.Tracer`` and the metrics are its per-layer counts and self times,
for the cold set-up operation and per warm operation; the spans of the
set-up operation and the first warm round are written to
``perfbench/out/``.
"""

import os

# One BLAS thread, set before anything imports numpy; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, listed here so that parsing the arguments
# imports no numpy before set-up is timed.
NAMES = ("verify", "multimode", "products", "star")
SETUP_SAMPLES = 5  # this process plus four fresh children
CHILD_TIMEOUT_S = 60
# Operations and set-up are timed in CPU time of this single-threaded
# process: on a shared virtual machine the hypervisor takes the CPU away
# for 4 to 52 % of a second, which wall-clock time would count.
CLOCK = time.process_time


def import_pgquant():
    """Import pgquant from the ``src`` directory next to the benchmark."""
    sys.path.insert(0, str(SRC))
    import pgquant
    import pgquant.cli  # noqa: F401

    if not Path(pgquant.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pgquant imported from {pgquant.__file__}, not from {SRC}")
    return pgquant


def cold_start(name: str, seed: int, after_import=None):
    """Import pgquant and run operation 0 cold.  Returns pgquant, the
    workload, the set-up time, which leaves out making the input, and the
    operation's input and output."""
    t0 = CLOCK()
    pg = import_pgquant()
    import_s = CLOCK() - t0
    if after_import:
        after_import()
    import workloads

    wl = workloads.WORKLOADS[name]
    inp = wl.make(pg, seed, 0)
    t0 = CLOCK()
    out = wl.op(pg, inp)
    return pg, wl, import_s + CLOCK() - t0, inp, out


def child_setup(name: str, seed: int) -> tuple[float, str | None]:
    """Set-up time and check result of operation 0 in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--cold"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["error"]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Operation 0 cold, then whole rounds of ``round_size`` warm operations
    until ``seconds`` of wall-clock time have passed.  Each output is checked
    right after its operation, outside the timed region."""
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    pg, wl, setup_s, inp, out = cold_start(name, seed, tracer.install if tracer else None)
    setup_layers = tracer.snapshot() if tracer else None
    errors = [wl.check(inp, out)]
    setups = [setup_s]
    children = 0 if trace else SETUP_SAMPLES - 1

    def setup_sample() -> None:
        s, err = child_setup(name, seed)
        setups.append(s)
        errors.append(err)

    run_layers = Counter()
    op_s, round_s = [], []
    failed = 0
    index = 1
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < seconds:
        total = 0.0
        for _ in range(wl.round_size):
            inp = wl.make(pg, seed, index)
            if tracer:
                tracer.op, tracer.record = index, index <= wl.round_size  # spans of the first round only
                before = tracer.snapshot()
            t0 = CLOCK()
            try:
                out = wl.op(pg, inp)
            except Exception as exc:  # a failed operation, counted below
                print(f"operation {index} failed: {exc!r}", file=sys.stderr)
                out = None
            dt = CLOCK() - t0
            if tracer:
                run_layers.update({key: v - before[key] for key, v in tracer.snapshot().items()})
            op_s.append(dt)
            total += dt
            index += 1
            if out is None:
                failed += 1
            else:
                errors.append(wl.check(inp, out))
        round_s.append(total)
        # Fresh-process set-up samples are spread over the run, so that they
        # see the same machine conditions as the warm operations.
        while len(setups) <= children and time.perf_counter() - start >= len(setups) * seconds / (children + 1):
            setup_sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) <= children:
        setup_sample()
    if hasattr(wl, "run_check"):
        errors.append(wl.run_check(pg))
    warm = index - 1

    if tracer:
        metrics = {}
        for (layer, field), total in setup_layers.items():
            unit = "ms" if field == "self_ms" else "count"
            metrics[f"setup.{layer}.{field}"] = {"value": total, "unit": unit}
        for (layer, field), total in run_layers.items():
            unit = "ms/op" if field == "self_ms" else "count/op"
            metrics[f"run.{layer}.{field}"] = {"value": total / warm, "unit": unit}
        tracer.write(OUT / f"trace-{name}-{seed}.json")
        print(f"traced op p50 {statistics.median(op_s) * 1e3:.3f} ms over {warm} ops", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(round_s), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_s) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(
            f"{warm} warm ops in {len(round_s)} rounds of {wl.round_size}; "
            f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s",
            file=sys.stderr,
        )
    for err in filter(None, errors):
        print(f"check failed: {err}", file=sys.stderr)
    return {"correct": not any(errors), "attempted": 1 + warm + children, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.cold:
            _, wl, setup_s, inp, out = cold_start(args.workload, args.seed)
            print(json.dumps({"setup_s": setup_s, "error": wl.check(inp, out)}))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
