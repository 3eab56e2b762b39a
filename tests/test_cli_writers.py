"""The CLI's writers print, byte for byte, what ``json.dumps(obj,
indent=2, sort_keys=True)`` and a newline print for the dict forms of a
report, an operator and a polynomial, and what the per-entry pretty layout
prints for a matrix."""

import contextlib
import io
import json

import numpy as np
import pytest

from pgquant import FockOperator, ParaPoly, deformation, operator_to_dict, quantize
from pgquant.algebra import poly_to_dict
from pgquant.cli import _write_operator, _write_poly, _write_pretty, _write_report
from pgquant.quantization import VerificationReport

INF, NAN = float("inf"), float("nan")
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1 / 3, 2.5, NAN,
         INF, -INF]
NAMES = ['say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "énergie ∑ 𝔸", "", "plain"]


def printed(writer, value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        writer(value)
    return out.getvalue()


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def pretty_oracle(op: FockOperator) -> str:
    """Each numpy entry through one f-string, right-aligned to the widest."""
    cells = [[f"{z.real:.10g}{z.imag:+.10g}i" for z in row] for row in op.mat]
    width = max(len(c) for row in cells for c in row)
    return "".join("  ".join(c.rjust(width) for c in row) + "\n" for row in cells)


def edge_matrix(k: int, d: int, seed: int = 0) -> np.ndarray:
    """A random (k/2)^d square matrix whose first entries pair every value
    of ``EDGES`` with every other, as far as they fit."""
    dim = (k // 2) ** d
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    edges = [complex(a, b) for a in EDGES for b in EDGES][: dim * dim]
    mat.flat[: len(edges)] = edges
    return mat


def report(names, residuals, tolerance=1e-10) -> VerificationReport:
    r = VerificationReport(tolerance)
    for name, residual in zip(names, residuals):
        r.add(name, residual)
    return r


@pytest.mark.parametrize("r", [
    report([], []),
    report([], [], tolerance=0.0),
    report(NAMES, [1e-16, NAN, INF, -INF, -0.0, 1e-300]),
    report([f"relation {i}" for i in range(len(EDGES))], EDGES, tolerance=5e-324),
], ids=["empty", "empty-zero-tolerance", "names-and-non-finite", "edge-residuals"])
def test_report_writer_prints_what_json_dumps_prints(r):
    assert printed(_write_report, r) == dumped(r.to_dict())


@pytest.mark.parametrize("k, d", [(4, 1), (6, 1), (16, 1), (8, 2), (6, 3)])
def test_operator_writer_prints_what_json_dumps_prints(k, d):
    dfm = deformation(k)
    mat = edge_matrix(k, d)
    for op in (FockOperator(dfm, d, mat), FockOperator(dfm, d, mat.T), FockOperator.identity(dfm, d)):
        assert printed(_write_operator, op) == dumped(operator_to_dict(op))


def test_writers_write_in_blocks(monkeypatch):
    # several rows or terms a write, a last block shorter than the others
    import pgquant.cli as cli

    monkeypatch.setattr(cli, "_ENTRIES_PER_WRITE", 48)
    writes = []
    monkeypatch.setattr(cli.sys, "stdout", type("Out", (), {"write": staticmethod(writes.append)})())
    op = FockOperator(deformation(8), 2, edge_matrix(8, 2, seed=1))
    _write_operator(op)
    assert len(writes) == 2 + 6  # the head, 16 rows three at a time, the tail
    assert "".join(writes) == dumped(operator_to_dict(op))
    writes.clear()
    p = ParaPoly(deformation(6), 2, op.mat[9:].ravel()[:81].reshape((3,) * 4))  # finite rows, past the edges
    _write_poly(p)
    assert len(writes) == 2 + 11  # the head, 81 terms eight at a time, the tail
    assert "".join(writes) == dumped(poly_to_dict(p))


@pytest.mark.parametrize("k, d", [(4, 1), (6, 1), (8, 2), (6, 3)])
def test_pretty_writer_prints_the_entry_layout(k, d):
    dfm = deformation(k)
    mat = edge_matrix(k, d)
    zero = np.zeros_like(mat)  # every entry +0, then -0 in both parts, then -0 in the imaginary part
    for m in (mat, mat.T, np.eye(len(mat)), zero, -zero, zero.conj()):
        op = FockOperator(dfm, d, m)
        assert printed(_write_pretty, op) == pretty_oracle(op)


def test_pretty_writer_prints_a_quantized_image_as_the_entry_layout():
    op = quantize(ParaPoly.generator(deformation(16), 2, 1))
    assert printed(_write_pretty, op) == pretty_oracle(op)


@pytest.mark.parametrize("k, d, density", [(4, 1, 1.0), (8, 1, 0.5), (6, 2, 0.3), (4, 3, 1.0), (6, 3, 0.05),
                                           (8, 1, 0.0)])
def test_poly_writer_prints_what_json_dumps_prints(k, d, density):
    shape = (k // 2,) * (2 * d)
    rng = np.random.default_rng(len(shape) + k)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (rng.random(shape) < density)
    if density:
        coeffs.flat[:4] = [-0.0 + 5e-324j, 1.7976931348623157e308 - 0.0j, -5e-324 + 1e-300j, 2.5j]
    p = ParaPoly(deformation(k), d, coeffs)
    text = printed(_write_poly, p)
    assert text == dumped(poly_to_dict(p))
    if not density:
        assert json.loads(text)["terms"] == []
