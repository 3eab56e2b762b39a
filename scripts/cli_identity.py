"""Compare what two trees' CLIs print for one fixed list of commands.

    python3 scripts/cli_identity.py PARENT_DIR CHANGE_DIR

Each tree runs every command of the list through its own
``pgquant.cli.main``, in process, all in one subprocess per tree with the
tree's ``src`` first on the path and one BLAS thread.  A command may read
standard input: a seeded random matrix in JSON, or what an earlier
command of the list printed, such as a ``matrix --format json`` piped
into ``dequantize -``.  The script prints every command whose standard
output or exit status differs between the trees, then a count, and exits
1 if any differs, 0 if none does.  Standard error is not compared.

The list holds, on one mode: ``dequantize`` and ``lower-symbol``, pretty
and json, of every named ``matrix`` and of a seeded random matrix at
every even k from 4 to 64; ``star`` on eight expression pairs at every
even k from 4 to 32; ``demo quaternion``; ``verify --format json`` at
every even k from 4 to 128, with ``--modes 2`` from 4 to 32 and at 48
and 64, with ``--modes 3`` from 4 to 16 and with ``--modes 4`` from 4 to
8; ``quantize`` in all three orderings and both formats at k = 6, 8 and
16, on one and on two modes, at k = 4 and 6 on three modes, where the
canonical product reads its pair table at k = 4 and enumerates pairs
block by block at k = 6, and at k = 64, 128 and 236 on one mode;
``dequantize`` and ``lower-symbol``, pretty and json, of each two-mode
``quantize --format json`` image at k = 6 and 8; at k = 32 and 64 on two
modes, the large outputs: ``quantize`` of one expression and ``matrix
bartheta --mode 2`` (a transposed array), both formats, and
``dequantize`` and ``lower-symbol``, both formats, of their json; and
``verify --k 16 --tolerance 0 --format json``, a report whose relations
fail.  Outputs are compared by their sha256, so a tree's subprocess holds
a whole output only while a later command of the list still reads it.
Check out or ``git archive`` the two commits to compare into directories
first.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

MATRIX_NAMES = ("theta", "bartheta", "number", "Q", "Qbar", "B", "Bdag")
STAR_PAIRS = (
    ("th", "bth"),
    ("bth", "th"),
    ("th*bth + 2", "bth^2 - th"),
    ("(1 + th + bth)^3", "th*bth"),
    ("2.5*th^2 - i*bth", "1 + bth^3"),
    ("th + bth", "th - bth"),
    ("(th*bth)^2", "3"),
    ("i*th*bth - bth*th", "(th + 2*bth)^2"),
)
QUANTIZE_EXPRESSIONS = {
    1: ("th*bth + 2", "(1 + th + bth)^5", "bth*th^2 - i*th"),
    2: ("th1*bth2 + 2", "(1 + th1 + bth2)^3", "bth1*th2 - i*th1*bth1"),
    3: ("th1*bth3 + 2", "(1 + th2 + bth3)^3", "bth1*th3 - i*th2*bth2*th1"),
}
LARGE_EXPRESSION = "(1 + th1 + bth2)^3"

# run in each tree: read [argv, stdin] pairs, answer [sha256 of stdout, exit
# status] pairs; an output is kept whole only while a later command reads it
RUNNER = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from pgquant.cli import main
cases, results, kept = json.load(sys.stdin), [], {}
last_read = {stdin: i for i, (_, stdin) in enumerate(cases) if isinstance(stdin, int)}
for i, (argv, stdin) in enumerate(cases):
    sys.stdin = io.StringIO(kept[stdin] if isinstance(stdin, int) else stdin or "")
    if last_read.get(stdin) == i:
        del kept[stdin]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:
            code = "raised " + repr(exc)
    if i in last_read:
        kept[i] = out.getvalue()
    results.append([hashlib.sha256(out.getvalue().encode()).hexdigest(), code])
    del out
sys.__stdout__.write(json.dumps(results))
"""


def random_matrix(k: int, seed: int) -> str:
    """A seeded random single-mode matrix at order k, entries uniform in
    [-1, 1]^2, in the JSON form ``dequantize`` reads."""
    kp = k // 2
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (kp, kp, 2))
    rows = [[{"re": float(re), "im": float(im)} for re, im in row] for row in draws]
    return json.dumps({"k": k, "d": 1, "dim": kp, "rows": rows})


def cases() -> list[tuple[list[str], str | int | None]]:
    """The fixed list: (argv, stdin), stdin a text, the index of an earlier
    case whose output it reads, or None."""
    out: list[tuple[list[str], str | int | None]] = []

    def readers(stdin):
        for command in ("dequantize", "lower-symbol"):
            for fmt in ("pretty", "json"):
                out.append(([command, "-", "--format", fmt], stdin))

    for k in range(4, 65, 2):
        for name in MATRIX_NAMES:
            out.append((["matrix", name, "--k", str(k), "--format", "json"], None))
            readers(len(out) - 1)
        readers(random_matrix(k, seed=k))
    for k in range(4, 33, 2):
        for left, right in STAR_PAIRS:
            for fmt in ("pretty", "json"):
                out.append((["star", left, right, "--k", str(k), "--format", fmt], None))
    for fmt in ("pretty", "json"):
        out.append((["demo", "quaternion", "--format", fmt], None))
    for k in range(4, 129, 2):
        out.append((["verify", "--k", str(k), "--format", "json"], None))
    for modes, ks in ((2, [*range(4, 33, 2), 48, 64]), (3, range(4, 17, 2)), (4, range(4, 9, 2))):
        for k in ks:
            out.append((["verify", "--k", str(k), "--modes", str(modes), "--format", "json"], None))

    def quantize(k, modes, readback=False):
        for text in QUANTIZE_EXPRESSIONS[modes]:
            for ordering in ("antinormal", "left", "right"):
                for fmt in ("pretty", "json"):
                    out.append((["quantize", text, "--k", str(k), "--modes", str(modes),
                                 "--ordering", ordering, "--format", fmt], None))
                if readback:  # the json image read back
                    readers(len(out) - 1)

    for k in (6, 8, 16):
        for modes in (1, 2):
            quantize(k, modes, readback=modes == 2 and k < 16)
    for k in (4, 6):
        quantize(k, 3)
    for k in (64, 128, 236):
        quantize(k, 1)
    for k in ("32", "64"):  # 256 and 1024 square, each json image read back
        for argv in (["quantize", LARGE_EXPRESSION, "--k", k, "--modes", "2", "--ordering", "antinormal"],
                     ["matrix", "bartheta", "--k", k, "--modes", "2", "--mode", "2"]):
            for fmt in ("pretty", "json"):
                out.append((argv + ["--format", fmt], None))
            readers(len(out) - 1)
    out.append((["verify", "--k", "16", "--tolerance", "0", "--format", "json"], None))  # failing relations
    return out


def run_tree(tree: Path, commands: list) -> list:
    """[sha256 of stdout, exit status] of every command, run in one subprocess
    of ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src")], input=json.dumps(commands),
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the runner exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def label(commands: list, i: int) -> str:
    argv, stdin = commands[i]
    text = "pgquant " + shlex.join(argv)
    if isinstance(stdin, int):
        return f"{label(commands, stdin)} | {text}"
    return text + (f" < random matrix, k={json.loads(stdin)['k']}" if stdin else "")


def compare(parent: Path, change: Path, commands: list) -> list[str]:
    """The labels of the commands whose output or exit status differs."""
    before, after = run_tree(parent, commands), run_tree(change, commands)
    return [label(commands, i) for i, (a, b) in enumerate(zip(before, after)) if a != b]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare the CLI output of two trees on a fixed list of commands")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    commands = cases()
    differ = compare(args.parent.resolve(), args.change.resolve(), commands)
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(commands)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
