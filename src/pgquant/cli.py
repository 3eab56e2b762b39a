"""Command line interface.

Subcommands::

    verify        run the identity checks for one deformation order
    quantize      expression -> matrix, in a chosen operator ordering
    dequantize    matrix (JSON file or '-') -> unique antinormal preimage
    lower-symbol  matrix (JSON file or '-') -> coherent expectation symbol
    star          star product of two expressions
    matrix        named special operator (ladders, phase diagonals, ...)
    demo          worked examples (quaternion arithmetic at k = 4)

Exit status: 0 on success, 1 when a verification or demo reports a failed
relation, 2 on usage, parse or input-validation errors, 141 (128 + SIGPIPE,
as a shell reports it) with nothing on stderr when the reader of standard
output closes it early, as ``pgquant ... | head -1`` does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from . import expr as expr_mod
from .algebra import ParaPoly, check_size, poly_to_dict
from .qnum import deformation, factorials
from .quantization import (
    FockOperator,
    check_kfermionic,
    check_mixed_quantization,
    check_ordering_products,
    hermiticity_residual,
    ladder,
    ladder_dag,
    number_operator,
    operator_from_dict,
    operator_to_dict,
    q_power_N,
    quantize,
    rescale_B,
    resolution_of_unity,
    verify_relations,
)
from .symbols import (
    lower_symbol,
    moyal_star,
    quaternion_demo,
    round_trip_residuals,
    upper_symbol,
)

__all__ = ["main", "run_main"]

# each named operator of ``matrix``, built from (dfm, modes, mode)
_MATRICES = {
    "theta": ladder,
    "bartheta": ladder_dag,
    "number": number_operator,
    "Q": lambda dfm, modes, mode: q_power_N(dfm, modes, sign=1, mode=mode),
    "Qbar": lambda dfm, modes, mode: q_power_N(dfm, modes, sign=-1, mode=mode),
    "B": lambda dfm, modes, mode: rescale_B(dfm)[0],
    "Bdag": lambda dfm, modes, mode: rescale_B(dfm)[1],
}
MATRIX_NAMES = tuple(_MATRICES)


def _fmt_entry(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}i"


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_poly(p: ParaPoly, fmt: str) -> None:
    if fmt == "json":
        _emit_json(poly_to_dict(p))
    else:
        print(expr_mod.poly_to_expr(p))


def _emit_operator(op: FockOperator, fmt: str) -> None:
    if fmt == "json":
        _emit_json(operator_to_dict(op))
        return
    cells = [[_fmt_entry(z) for z in row] for row in op.mat]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  ".join(c.rjust(width) for c in row))


def _emit_report(report, fmt: str) -> int:
    if fmt == "json":
        _emit_json(report.to_dict())
    else:
        for line in report.pretty_lines():
            print(line)
    return 0 if report.all_pass else 1


def _read_operator(path: str) -> FockOperator:
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path) as fh:
            obj = json.load(fh)
    return operator_from_dict(obj)


def _parse_poly(text: str, k: int, modes: int) -> ParaPoly:
    dfm = deformation(k)
    factorials(dfm)  # refuses k past the tables' float64 range before any tensor is built
    return expr_mod.parse(text, dfm, modes)


def _cmd_verify(args) -> int:
    dfm = deformation(args.k)
    report = verify_relations(dfm, modes=args.modes, tolerance=args.tolerance)
    ru = resolution_of_unity(dfm, modes=args.modes)
    ru.mat.flat[::ru.dim + 1] -= 1  # less the identity, in place
    report.add("resolution of unity equals identity", ru.max_abs())
    if args.modes == 1:
        report.extend(check_ordering_products(dfm, tolerance=args.tolerance))
        report.extend(check_mixed_quantization(dfm, tolerance=args.tolerance))
        # the negated square-root branch is reported for information by
        # check_kfermionic but is not expected to hold, so it must not
        # flip the exit code
        kf = check_kfermionic(dfm, tolerance=args.tolerance)
        for c in kf.checks:
            if "[negated branch]" not in c.name:
                report.add(c.name, c.residual)
        report.add(
            f"conjugation matches adjoint ({args.trials} random trials)",
            hermiticity_residual(dfm, trials=args.trials, seed=args.seed),
        )
        r_poly, r_mat = round_trip_residuals(dfm, trials=args.trials, seed=args.seed)
        report.add("symbol round trip on polynomials", r_poly)
        report.add("symbol round trip on matrices", r_mat)
    return _emit_report(report, args.format)


def _cmd_quantize(args) -> int:
    f = _parse_poly(args.expression, args.k, args.modes)
    _emit_operator(quantize(f, args.ordering), args.format)
    return 0


def _cmd_dequantize(args) -> int:
    op = _read_operator(args.matrix)
    _emit_poly(upper_symbol(op), args.format)
    return 0


def _cmd_lower_symbol(args) -> int:
    op = _read_operator(args.matrix)
    _emit_poly(lower_symbol(op), args.format)
    return 0


def _cmd_star(args) -> int:
    f = _parse_poly(args.left, args.k, 1)
    g = _parse_poly(args.right, args.k, 1)
    _emit_poly(moyal_star(f, g), args.format)
    return 0


def _cmd_matrix(args) -> int:
    dfm = deformation(args.k)
    if args.name in ("B", "Bdag") and (args.modes, args.mode) != (1, 1):
        raise ValueError(f"{args.name} is only defined for a single mode, mode 1")
    _emit_operator(_MATRICES[args.name](dfm, args.modes, args.mode), args.format)
    return 0


def _cmd_demo(args) -> int:
    report = quaternion_demo(trials=args.trials, seed=args.seed, tolerance=args.tolerance)
    return _emit_report(report, args.format)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _add_k(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True,
                   help="deformation order (even, >= 4); nilpotency order is k/2")


def _add_modes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modes", type=_positive_int, default=1, help="number of generator pairs")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``pgquant`` argument parser, built once per process: parsing
    leaves it unchanged, so every ``main`` call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "pretty"), default="pretty",
                        help="output format")
    common.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="seed for randomized checks")

    parser = argparse.ArgumentParser(
        prog="pgquant",
        description="quantize nilpotent q-commuting variables into finite matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the identity checks for one deformation order")
    _add_k(p)
    _add_modes(p)
    p.add_argument("--tolerance", type=_tolerance, default=1e-10)
    p.add_argument("--trials", type=_positive_int, default=20,
                   help="random instances for the sampled checks")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("quantize", parents=[common], help="expression -> matrix")
    p.add_argument("expression", help="e.g. 'th*bth + 2' or 'th1*bth2' with --modes 2")
    _add_k(p)
    _add_modes(p)
    p.add_argument("--ordering", choices=("antinormal", "left", "right"),
                   default="antinormal")
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("dequantize", parents=[common],
                       help="matrix JSON -> unique antinormal preimage")
    p.add_argument("matrix", help="path to matrix JSON, or '-' for stdin")
    p.set_defaults(handler=_cmd_dequantize)

    p = sub.add_parser("lower-symbol", parents=[common],
                       help="matrix JSON -> coherent expectation symbol")
    p.add_argument("matrix", help="path to matrix JSON, or '-' for stdin")
    p.set_defaults(handler=_cmd_lower_symbol)

    p = sub.add_parser("star", parents=[common],
                       help="star product of two single-mode expressions")
    p.add_argument("left")
    p.add_argument("right")
    _add_k(p)
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("matrix", parents=[common], help="named special operator")
    p.add_argument("name", choices=MATRIX_NAMES)
    _add_k(p)
    _add_modes(p)
    p.add_argument("--mode", type=int, default=1, help="1-based mode index")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("demo", parents=[common], help="worked examples")
    p.add_argument("name", choices=("quaternion",))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--tolerance", type=_tolerance, default=1e-10)
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "modes" in vars(args):  # before any basis or matrix is built
            check_size(deformation(args.k), args.modes)
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The end of output, not an input error.  Following the "Note on
        # SIGPIPE" of Python's signal docs, stdout now writes to devnull so
        # the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # check_size bounds the output matrix, not the temporaries that build it
        k, modes = getattr(args, "k", None), getattr(args, "modes", 1)
        size = f"a {(k // 2) ** modes} x {(k // 2) ** modes} matrix (k={k}, modes={modes})" if k else "this input"
        print(f"error: out of memory for {size}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())
