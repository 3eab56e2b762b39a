"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For each workload, one real output must pass its check, and the same
output with one matrix entry, one coefficient or one phase changed must be
rejected, so that no check passes vacuously.  Exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import oracle
import run
import workloads as wls

PERTURB = 1e-6  # relative size of a changed entry; the checks accept 1e-10


def bump(a: np.ndarray, factor: complex | None = None) -> np.ndarray:
    """Copy of ``a`` with its largest entry moved by ``PERTURB`` of itself,
    or multiplied by ``factor``."""
    out = np.array(a, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    out[idx] *= factor if factor is not None else 1 + PERTURB
    return out


def main() -> int:
    pg = run.import_pgquant()
    cases: list[tuple[str, bool, str | None]] = []  # (case, should pass, check result)

    def case(name: str, should_pass: bool, message: str | None) -> None:
        cases.append((name, should_pass, message))

    v = wls.WORKLOADS["verify"]
    inp = v.make(pg, 0, 0)
    rc, text = v.op(pg, inp)
    case("verify: real report", True, v.check(inp, (rc, text)))
    case("verify: exit status 1", False, v.check(inp, (1, text)))
    report = json.loads(text)
    report["relations"][2]["residual"] = 1e-3
    case("verify: one residual above tolerance", False, v.check(inp, (0, json.dumps(report))))
    report = json.loads(text)
    report["relations"][5]["pass"] = False
    case("verify: one relation failed", False, v.check(inp, (0, json.dumps(report))))
    report = json.loads(text)
    del report["relations"][-1]
    case("verify: one relation missing", False, v.check(inp, (0, json.dumps(report))))
    case("verify: pgquant's lowering matrix", True, v.run_check(pg))
    low = pg.ladder(pg.deformation(v.k)).mat
    case("verify: lowering matrix, one entry", False, wls.check_lowering(bump(low), v.k))

    m = wls.WORKLOADS["multimode"]
    inp = m.make(pg, 0, 0)
    out = m.op(pg, inp)
    case("multimode: real quantize", True, m.check(inp, out))
    wrong = pg.FockOperator(out.dfm, out.d, bump(out.mat))
    case("multimode: one matrix entry", False, m.check(inp, wrong))
    wrong = pg.FockOperator(out.dfm, out.d, bump(out.mat, oracle.q_k(m.k)))
    case("multimode: one phase", False, m.check(inp, wrong))

    p = wls.WORKLOADS["products"]
    inp = p.make(pg, 0, 0)
    h, hc = p.op(pg, inp)
    prod, conj, conj_conj = (wls.dense(x, p.k) for x in (h, hc, hc.conjugate()))
    qk = oracle.q_k(p.k)
    case("products: real product and conjugate", True, wls.check_products(*inp[:2], prod, conj, conj_conj, p.k))
    case("products: one product coefficient", False,
         wls.check_products(*inp[:2], bump(prod), conj, conj_conj, p.k))
    case("products: one product phase", False,
         wls.check_products(*inp[:2], bump(prod, qk), conj, conj_conj, p.k))
    case("products: one conjugate phase", False,
         wls.check_products(*inp[:2], prod, bump(conj, qk), conj_conj, p.k))
    case("products: conjugate not an involution", False,
         wls.check_products(*inp[:2], prod, conj, bump(conj_conj), p.k))

    s = wls.WORKLOADS["star"]
    inp = s.make(pg, 0, 0)
    fa, fb, fab = (wls.dense(x, s.k) for x in s.op(pg, inp))
    case("star: real symbols and star product", True, wls.check_star(*inp[:2], fa, fb, fab, s.k))
    case("star: one star-product coefficient", False, wls.check_star(*inp[:2], fa, fb, bump(fab), s.k))
    case("star: one symbol phase", False,
         wls.check_star(*inp[:2], bump(fa, oracle.q_k(s.k)), fb, fab, s.k))

    wrong_way = 0
    for name, should_pass, message in cases:
        ok = (message is None) == should_pass
        wrong_way += not ok
        verdict = "accepted" if message is None else f"rejected ({message})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    print(f"{len(cases) - wrong_way} of {len(cases)} cases as expected")
    return 1 if wrong_way else 0


if __name__ == "__main__":
    sys.exit(main())
