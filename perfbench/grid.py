"""Reference figures for the (k, d) grid {(8, 1), (32, 1), (8, 2)}.

    python3 perfbench/grid.py

Times ``quantize`` (antinormal), ``multiply`` and ``upper_symbol`` once
each on full random inputs (seed 0), in wall-clock and CPU time.  These
figures are a reference for the README, not benchmark metrics.
``upper_symbol`` is single-mode only; its first call at each k fills the
monomial cache, so it is timed cold and then warm.
"""

from __future__ import annotations

import platform
import time

import numpy as np

import run
import workloads as wls

GRID = [(8, 1), (32, 1), (8, 2)]


def timed(fn, *args) -> str:
    w0, c0 = time.perf_counter(), time.process_time()
    fn(*args)
    return f"{(time.perf_counter() - w0) * 1e3:10.1f} {(time.process_time() - c0) * 1e3:10.1f}"


def main() -> None:
    pg = run.import_pgquant()
    print(f"python {platform.python_version()}, numpy {np.__version__}")
    print(f"{'layer':13} {'k':>3} {'d':>2} {'wall ms':>10} {'cpu ms':>10}")
    for k, d in GRID:
        rng = np.random.default_rng([0, k, d])
        shape = (k // 2,) * (2 * d)
        f = wls.to_poly(pg, wls.random_coeffs(rng, shape), k)
        g = wls.to_poly(pg, wls.random_coeffs(rng, shape), k)
        print(f"{'quantize':13} {k:3} {d:2} {timed(pg.quantize, f)}")
        print(f"{'multiply':13} {k:3} {d:2} {timed(pg.multiply, f, g)}")
        if d != 1:
            print(f"{'upper_symbol':13} {k:3} {d:2} {'n/a: single mode only':>21}")
            continue
        op = pg.FockOperator(pg.deformation(k), 1, wls.random_coeffs(rng, (k // 2, k // 2)))
        print(f"{'upper_symbol':13} {k:3} {d:2} {timed(pg.upper_symbol, op)}  (cold)")
        print(f"{'upper_symbol':13} {k:3} {d:2} {timed(pg.upper_symbol, op)}  (warm)")


if __name__ == "__main__":
    main()
