"""End-to-end command line tests, run in process through main()."""

import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from pgquant import (
    FockOperator,
    ParaPoly,
    deformation,
    ladder,
    lower_symbol,
    operator_to_dict,
    parse,
    poly_from_dict,
    quantize,
)
from pgquant.cli import MATRIX_NAMES, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--k", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"relations", "tolerance"}
    assert report["tolerance"] == 1e-10
    assert len(report["relations"]) > 20
    for rel in report["relations"]:
        assert set(rel) == {"name", "residual", "pass"}
        assert rel["pass"] is True
        assert rel["residual"] <= 1e-10


def test_verify_pretty(capsys):
    code, out, _ = run(capsys, "verify", "--k", "4")
    assert code == 0
    assert "relations pass" in out


def test_verify_two_modes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "6", "--modes", "2", "--format", "json")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out)["relations"])


def test_verify_reports_failure_exit_code(capsys):
    # an absurd tolerance turns rounding noise into failures; the report must
    # say so and the process must exit 1
    code, out, _ = run(capsys, "verify", "--k", "8", "--tolerance", "1e-30", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert any(not r["pass"] for r in report["relations"])


def test_quantize_json(capsys):
    code, out, _ = run(capsys, "quantize", "th", "--k", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 4 and obj["d"] == 1 and obj["dim"] == 2
    assert obj["rows"][0][1] == {"re": 1.0, "im": 0.0}
    assert obj["rows"][1][0] == {"re": 0.0, "im": 0.0}


def test_quantize_right_ordering_frozen(capsys):
    code, out, _ = run(
        capsys, "quantize", "th", "--k", "8", "--ordering", "right", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][0][1]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert obj["rows"][1][2]["im"] == pytest.approx(-(2.0**0.25), abs=1e-12)


def test_quantize_two_modes(capsys):
    code, out, _ = run(
        capsys, "quantize", "th1*bth2", "--k", "4", "--modes", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dim"] == 4


def test_star_pretty(capsys):
    code, out, _ = run(capsys, "star", "th", "bth", "--k", "4")
    assert code == 0
    assert out.strip() == "th*bth"


def test_star_reversed_k4(capsys):
    code, out, _ = run(capsys, "star", "bth", "th", "--k", "4", "--format", "json")
    assert code == 0
    p = poly_from_dict(json.loads(out))
    dfm = deformation(4)
    expect = ParaPoly(dfm, 1, {((0,), (0,)): 1.0, ((1,), (1,)): -1.0})
    assert p.distance(expect) < 1e-12


def test_dequantize_file(capsys, tmp_path):
    dfm = deformation(6)
    mono = ParaPoly.monomial(dfm, 1, (1,), (1,))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_dict(quantize(mono))))
    code, out, _ = run(capsys, "dequantize", str(path), "--format", "json")
    assert code == 0
    assert poly_from_dict(json.loads(out)).distance(mono) < 1e-10


def test_dequantize_stdin(capsys, monkeypatch):
    dfm = deformation(4)
    payload = json.dumps(operator_to_dict(ladder(dfm)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "dequantize", "-")
    assert code == 0
    assert out.strip() == "th"


def test_lower_symbol_identity_matrix(capsys, tmp_path):
    dfm = deformation(4)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(operator_to_dict(FockOperator.identity(dfm, 1))))
    code, out, _ = run(capsys, "lower-symbol", str(path), "--format", "json")
    assert code == 0
    p = poly_from_dict(json.loads(out))
    expect = ParaPoly(dfm, 1, {((0,), (0,)): 1.0, ((1,), (1,)): -1.0})
    assert p.distance(expect) < 1e-12


def test_symbol_commands_read_a_two_mode_matrix(capsys, tmp_path):
    f = parse("th1*bth2 + 2", deformation(6), 2)
    code, out, _ = run(capsys, "quantize", "th1*bth2 + 2", "--k", "6", "--modes", "2", "--format", "json")
    assert code == 0
    path = tmp_path / "m.json"
    path.write_text(out)
    code, out, _ = run(capsys, "dequantize", str(path), "--format", "json")
    assert code == 0
    assert poly_from_dict(json.loads(out)).distance(f) <= 1e-12
    code, out, _ = run(capsys, "lower-symbol", str(path), "--format", "json")
    assert code == 0
    assert poly_from_dict(json.loads(out)).distance(lower_symbol(quantize(f))) <= 1e-12


def test_matrix_named_operators(capsys):
    code, out, _ = run(capsys, "matrix", "theta", "--k", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(operator_to_dict(ladder(deformation(4)))))
    code, out, _ = run(capsys, "matrix", "Qbar", "--k", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][1][1]["im"] == pytest.approx(-1.0, abs=1e-12)


def test_matrix_rescaled_single_mode_only(capsys):
    code, _, err = run(capsys, "matrix", "B", "--k", "6", "--modes", "2")
    assert code == 2
    assert "single mode" in err


@pytest.mark.parametrize("name", ["B", "Bdag"])
@pytest.mark.parametrize("mode", [0, 2, -1])
def test_matrix_rescaled_refuses_another_mode(capsys, name, mode):
    # B and B' act on mode 1 only; another --mode used to print mode 1's matrix
    code, out, err = run(capsys, "matrix", name, "--k", "4", "--mode", str(mode))
    assert (code, out) == (2, "")
    assert "single mode, mode 1" in err
    assert run(capsys, "matrix", name, "--k", "4", "--mode", "1")[0] == 0


def test_verify_resolution_of_unity_residual_is_the_dense_difference(capsys):
    # the identity is subtracted from the diagonal in place; the residual keeps its bits
    from pgquant import resolution_of_unity

    for k, modes in ((4, 1), (16, 1), (236, 1), (8, 2), (32, 2), (8, 3)):
        dfm = deformation(k)
        ru = resolution_of_unity(dfm, modes)
        dense = ru.residual(FockOperator.identity(dfm, modes))
        code, out, _ = run(capsys, "verify", "--k", str(k), "--modes", str(modes), "--format", "json")
        got = [r["residual"] for r in json.loads(out)["relations"] if r["name"] == "resolution of unity equals identity"]
        assert got == [dense], (k, modes)


def test_demo_quaternion(capsys):
    code, out, _ = run(capsys, "demo", "quaternion")
    assert code == 0
    assert "I*I = -1: pass" in out
    assert "J*I = -K: pass" in out


def test_demo_quaternion_json(capsys):
    code, out, _ = run(capsys, "demo", "quaternion", "--format", "json", "--seed", "5")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out)["relations"])


@pytest.mark.parametrize("k, modes, mode", [(8, 1, 1), (6, 2, 1), (6, 2, 2), (4, 3, 2)])
def test_matrix_zeros_carry_no_sign(capsys, k, modes, mode):
    # no part of any entry is -0: pretty output never prints "-0" ("1-0i" in
    # Qbar's first row before its phase exponent was taken mod k)
    for name in MATRIX_NAMES:
        if name in ("B", "Bdag") and modes != 1:
            continue
        argv = ["matrix", name, "--k", str(k), "--modes", str(modes), "--mode", str(mode), "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        for entry in (e for row in json.loads(out)["rows"] for e in row):
            parts = (entry["re"], entry["im"])
            assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0.0), (name, entry)


# ---------------------------------------------------------------- errors


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "quantize", "th + @", "--k", "4")
    assert code == 2
    assert "offset" in err


def test_odd_order_rejected(capsys):
    code, _, err = run(capsys, "verify", "--k", "7")
    assert code == 2
    assert "odd k" in err


def test_unknown_generator_index(capsys):
    code, _, err = run(capsys, "quantize", "th3", "--k", "4", "--modes", "2")
    assert code == 2
    assert "generator index" in err


def test_missing_required_argument(capsys):
    code, _, _ = run(capsys, "quantize", "th")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_matrix_file(capsys, tmp_path):
    code, _, err = run(capsys, "dequantize", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_dequantize_nan_entry_exit_code(capsys, tmp_path):
    obj = operator_to_dict(ladder(deformation(6)))
    obj["rows"][1][2] = {"re": float("nan"), "im": 0.0}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "dequantize", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("command", ["dequantize", "lower-symbol"])
@pytest.mark.parametrize("field, value", [("k", 8.9), ("d", 1.7), ("dim", 4.5)])
def test_matrix_readers_refuse_a_size_that_is_not_an_integer(capsys, tmp_path, command, field, value):
    # the k = 8 matrix with one size edited: refused, not truncated to the k = 8 result
    _, text, _ = run(capsys, "matrix", "theta", "--k", "8", "--format", "json")
    obj = json.loads(text)
    obj[field] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert f"{field} must be an integer, got {value}" in err


@pytest.mark.parametrize("command", [["verify", "--k", "8"], ["demo", "quaternion"]])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_exit_code(capsys, command, trials):
    code, out, err = run(capsys, *command, "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err and ">= 1" in err


@pytest.mark.parametrize("command", [["verify", "--k", "4"], ["demo", "quaternion"]])
def test_negative_seed_refused_at_parse_time(capsys, command):
    # before: verify ran its deterministic checks, then numpy refused the
    # seed with a message that did not name the flag
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "argument --seed: must be >= 0, got -1" in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--k", "8", "--tolerance", "nan"], "--tolerance"),
    (["demo", "quaternion", "--tolerance", "nan"], "--tolerance"),
    (["verify", "--k", "8", "--tolerance", "-1"], "--tolerance"),
    (["verify", "--k", "8", "--modes", "-1"], "--modes"),
])
def test_bad_flag_values_refused_at_parse_time(capsys, argv, flag):
    # before: a merge error, every relation FAIL with exit 1, or "repeat
    # argument cannot be negative"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


def test_python_m_pgquant(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pgquant", "verify", "--k", "8"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all 41 relations pass" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "64", "--modes", "8"],
    ["quantize", "th1", "--k", "64", "--modes", "8"],
    ["matrix", "theta", "--k", "64", "--modes", "8"],
    ["matrix", "number", "--k", "4", "--modes", "1000000000"],
])
def test_oversize_dimension_refused_before_allocating(tmp_path, argv):
    # The child runs under a 2 GiB address-space cap, so a guard that let the
    # request through would end in MemoryError instead of filling the machine.
    child = textwrap.dedent("""
        import resource, sys
        from pgquant.cli import main
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "exceeds" in proc.stderr and "memory" in proc.stderr


def test_quantize_at_largest_admitted_size_stays_near_output_size(tmp_path):
    # With 16 MiB of memory the guard admits a 32^2 x 32^2 complex matrix
    # (k=64, two modes) and nothing larger.  Quantizing a full symbol there
    # must fit in ten times that matrix; a k'-fold temporary (512 MiB) would
    # end in MemoryError.  The symbol is a product of one-mode symbols, so
    # its matrix is the Kronecker product of theirs.
    child = textwrap.dedent("""
        import os, re, resource
        import numpy as np
        from pgquant import ParaPoly, deformation, quantize, random_poly
        from pgquant.algebra import check_size
        os.sysconf = {"SC_PAGE_SIZE": 1 << 12, "SC_PHYS_PAGES": 1 << 12}.get
        dfm = deformation(64)
        check_size(dfm, 2)
        try:
            check_size(dfm, 3)
            raise SystemExit("the guard admitted three modes")
        except ValueError:
            pass
        g, h = (random_poly(dfm, np.random.default_rng(seed)) for seed in (1, 2))
        f = ParaPoly(dfm, 2, np.einsum("ab,cd->acbd", g.coeffs, h.coeffs))
        expected = np.kron(quantize(g).mat, quantize(h).mat)
        mapped = int(re.search(r"VmSize:\\s*(\\d+) kB", open("/proc/self/status").read()).group(1)) << 10
        resource.setrlimit(resource.RLIMIT_AS, (mapped + (160 << 20),) * 2)
        mat = quantize(f).mat
        print(np.abs(mat - expected).max() / np.abs(expected).max())
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1e-13


def test_demo_quaternion_memory_does_not_grow_with_trials(tmp_path):
    # The demo draws and checks its trials a chunk at a time, so 200000
    # trials (about 190 MB if stacked at once) fit in 64 MiB of address
    # space beyond what the interpreter has mapped after import.
    child = textwrap.dedent("""
        import re, resource, sys
        from pgquant.cli import main
        mapped = int(re.search(r"VmSize:\\s*(\\d+) kB", open("/proc/self/status").read()).group(1)) << 10
        resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20),) * 2)
        sys.exit(main(["demo", "quaternion", "--trials", "200000"]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_out_of_memory_at_admitted_size_exits_2(tmp_path):
    # The guard admits k=64 on two modes with 16 MiB of memory, as above, but
    # 40 MiB of address space is too little to parse a symbol there and
    # quantize it: the CLI turns the MemoryError into exit status 2 and an
    # error line that names the matrix size.
    child = textwrap.dedent("""
        import os, re, resource, sys
        from pgquant.cli import main
        os.sysconf = {"SC_PAGE_SIZE": 1 << 12, "SC_PHYS_PAGES": 1 << 12}.get
        mapped = int(re.search(r"VmSize:\\s*(\\d+) kB", open("/proc/self/status").read()).group(1)) << 10
        resource.setrlimit(resource.RLIMIT_AS, (mapped + (40 << 20),) * 2)
        sys.exit(main(["quantize", "th1*bth2 + 2*bth1*th2 + 3", "--k", "64", "--modes", "2"]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory") and "1024 x 1024" in proc.stderr


def test_size_guard_boundary(capsys, monkeypatch):
    # with 4096 bytes of memory a 16 x 16 complex matrix (k=8, two modes) just
    # fits and a 64 x 64 one (three modes) does not
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.get)
    assert run(capsys, "matrix", "theta", "--k", "8", "--modes", "2")[0] == 0
    for argv in (["matrix", "theta"], ["quantize", "th1"], ["verify"]):
        code, out, err = run(capsys, *argv, "--k", "8", "--modes", "3")
        assert code == 2
        assert out == ""
        assert "exceeds" in err


PARSER_REUSE_ARGV = [
    ["verify", "--k", "4", "--seed", "-1"],  # refused at parse time, exit 2
    ["verify", "--k", "4", "--format", "json"],
    ["quantize", "th", "--k", "4"],
]


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for argv in PARSER_REUSE_ARGV:
        fresh = subprocess.run([sys.executable, "-m", "pgquant", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert run(capsys, *PARSER_REUSE_ARGV[0])[0] == 2


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    for argv in PARSER_REUSE_ARGV:
        run(capsys, *argv)
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(PARSER_REUSE_ARGV) - 1)


def test_closed_pipe_exits_141_quietly():
    """A reader that stops after one line, as ``head -1`` does: the rest of
    a 256 x 256 matrix (megabytes, far more than a pipe buffer) meets a
    closed pipe, which ends the output and is no input error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "pgquant", "quantize", "th1", "--k", "32", "--modes", "2",
                             "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")
