"""The benchmark's four workloads: inputs, one operation, and its checks.

Each workload makes the input of operation ``index`` from
``numpy.random.default_rng([seed, index])``, so the same seed gives the
same inputs.  Every operation in a workload has the same size.  ``op``
drives pgquant only through its public names, looked up on the module at
call time so that a traced run sees its wrappers.  ``check`` compares the
output against :mod:`oracle` and returns a message, or None when the
output is correct.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import numpy as np

import oracle

# Relative bound for results that agree with the oracle to rounding; the
# measured worst cases are about 1e-14 (products, multimode) and 1e-13 (star).
RTOL = 1e-10


def compare(what: str, got: np.ndarray, ref: np.ndarray) -> str | None:
    """Rejects ``got`` when the largest entry of ``|got - ref|`` over the
    largest entry of ``|ref|`` (or 1) exceeds ``RTOL``."""
    err = float(np.max(np.abs(np.asarray(got) - ref))) / max(1.0, float(np.max(np.abs(ref))))
    if not err <= RTOL:  # also rejects NaN
        return f"{what}: relative error {err:.3e} exceeds {RTOL:g}"
    return None


def first_error(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def dense(poly, k: int) -> np.ndarray:
    """Coefficients of a pgquant polynomial as an oracle array."""
    c = np.zeros((k // 2,) * (2 * poly.d), dtype=complex)
    for (theta, bar), v in poly.terms.items():
        c[tuple(theta) + tuple(bar)] = v
    return c


def random_coeffs(rng, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def to_poly(pg, coeffs: np.ndarray, k: int):
    d = coeffs.ndim // 2
    exponents = itertools.product(range(k // 2), repeat=2 * d)
    terms = {(ix[:d], ix[d:]): v for ix, v in zip(exponents, coeffs.ravel())}
    return pg.ParaPoly(pg.deformation(k), d, terms)


def run_cli(pg, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pg.cli.main(argv)
    return rc, buf.getvalue()


class Verify:
    """``pgquant verify --k 16 --format json --seed s``, in-process."""

    name = "verify"
    round_size = 2
    k = 16
    relations = 41  # 7 oscillator, 1 unity, 14 ordering, 4 mixed, 12 k-fermionic, 3 sampled
    tolerance = 1e-10

    def make(self, pg, seed: int, index: int):
        cli_seed = int(np.random.default_rng([seed, index]).integers(2**31))
        return ["verify", "--k", str(self.k), "--format", "json", "--seed", str(cli_seed)]

    def op(self, pg, inp):
        return run_cli(pg, inp)

    def check(self, inp, out) -> str | None:
        return check_report(*out, self.relations, self.tolerance)

    def run_check(self, pg) -> str | None:
        rc, text = run_cli(pg, ["matrix", "theta", "--k", str(self.k), "--format", "json"])
        if rc != 0:
            return f"matrix theta exited {rc}"
        rows = json.loads(text)["rows"]
        return check_lowering(np.array([[complex(v["re"], v["im"]) for v in row] for row in rows]), self.k)


def check_report(rc: int, text: str, relations: int, tolerance: float) -> str | None:
    """Exit status 0, the expected number of relations, every one passing."""
    if rc != 0:
        return f"verify exited {rc}"
    try:
        checks = json.loads(text)["relations"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"verify output unreadable: {exc!r}"
    if len(checks) != relations:
        return f"verify reported {len(checks)} relations, expected {relations}"
    for c in checks:
        if not (c["pass"] and c["residual"] <= tolerance):
            return f"relation failed: {c['name']} (residual {c['residual']})"
    return None


def check_lowering(low: np.ndarray, k: int) -> str | None:
    """pgquant's lowering matrix equals sqrt([n+1]) on the superdiagonal and
    satisfies low@high - q high@low = diag(q^-n)."""
    q = np.exp(2j * np.pi / k)
    high = low.conj().T
    rhs = np.diag(q ** -np.arange(k // 2))
    return first_error(
        compare("lowering matrix", low, oracle.lowering(k)),
        compare("low@high - q high@low = diag(q^-n)", low @ high - q * (high @ low), rhs),
    )


class Multimode:
    """Antinormal ``quantize`` of a full random 3-mode symbol at k = 6."""

    name = "multimode"
    round_size = 4
    k = 6
    modes = 3

    def make(self, pg, seed: int, index: int):
        c = random_coeffs(np.random.default_rng([seed, index]), (self.k // 2,) * (2 * self.modes))
        return c, to_poly(pg, c, self.k)

    def op(self, pg, inp):
        return pg.quantize(inp[1], "antinormal")

    def check(self, inp, out) -> str | None:
        return compare("quantize", out.mat, oracle.quantize(inp[0], self.k))


class Products:
    """``(f * g).conjugate()`` on full random 2-mode polynomials at k = 6."""

    name = "products"
    round_size = 10
    k = 6
    modes = 2

    def make(self, pg, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        shape = (self.k // 2,) * (2 * self.modes)
        c1, c2 = random_coeffs(rng, shape), random_coeffs(rng, shape)
        return c1, c2, to_poly(pg, c1, self.k), to_poly(pg, c2, self.k)

    def op(self, pg, inp):
        h = inp[2] * inp[3]
        return h, h.conjugate()

    def check(self, inp, out) -> str | None:
        h, hc = out
        return check_products(
            inp[0], inp[1], dense(h, self.k), dense(hc, self.k), dense(hc.conjugate(), self.k), self.k
        )


def check_products(c1, c2, prod, conj, conj_conj, k: int) -> str | None:
    ref = oracle.multiply(c1, c2, k)
    return first_error(
        compare("f * g", prod, ref),
        compare("conjugate(f * g)", conj, oracle.conjugate(ref, k)),
        compare("conjugate(conjugate(h)) = h", conj_conj, prod),
    )


class Star:
    """Two random single-mode matrices at k = 32: ``upper_symbol`` of each,
    then ``moyal_star`` of the symbols."""

    name = "star"
    round_size = 8
    k = 32

    def make(self, pg, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        kp = self.k // 2
        a, b = random_coeffs(rng, (kp, kp)), random_coeffs(rng, (kp, kp))
        dfm = pg.deformation(self.k)
        return a, b, pg.FockOperator(dfm, 1, a), pg.FockOperator(dfm, 1, b)

    def op(self, pg, inp):
        fa = pg.upper_symbol(inp[2])
        fb = pg.upper_symbol(inp[3])
        return fa, fb, pg.moyal_star(fa, fb)

    def check(self, inp, out) -> str | None:
        return check_star(inp[0], inp[1], *(dense(p, self.k) for p in out), self.k)


def check_star(a, b, fa, fb, fab, k: int) -> str | None:
    """The symbols quantize back to A, B and A@B under the oracle's quantization."""
    return first_error(
        compare("quantize(upper_symbol(A))", oracle.quantize(fa, k), a),
        compare("quantize(upper_symbol(B))", oracle.quantize(fb, k), b),
        compare("quantize(moyal_star) = A@B", oracle.quantize(fab, k), a @ b),
    )


WORKLOADS = {w.name: w for w in (Verify(), Multimode(), Products(), Star())}
