"""The float64 range of the q-factorial tables.

Every closed-form table reads products [n]! [m]!, which overflow float64
once [k'-1]! exceeds sqrt(float max): from k = 240 on, where [119]! =
3.3e154 (at k = 238, [118]! = 6.5e152).  From k = 408 on [k'-1]! is itself
inf.  ``factorials`` refuses such a k, so no command prints a matrix with
wrong, inf or NaN entries; each refuses before any k'^3 table is built,
which ``tracemalloc`` sees as a peak far below one such table.
"""

import json
import tracemalloc

import pytest

from pgquant import deformation, ladder, operator_to_dict
from pgquant.cli import main
from pgquant.qnum import factorials

LIMIT = "k <= 238"


def peak_bytes(call):
    """Run ``call`` and return its result with the traced allocation peak."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_bytes(k):
    return (k // 2) ** 3 * 8


@pytest.mark.parametrize("k", [236, 238])
def test_factorials_accepted_up_to_238(k):
    fac = factorials(deformation(k))
    assert fac.shape == (k // 2,) and fac[-1] < 1e154


@pytest.mark.parametrize("k", [240, 256, 406, 408, 512])
def test_factorials_refused_from_240(k):
    def refused():
        with pytest.raises(ValueError, match=LIMIT) as exc:
            factorials(deformation(k))
        return str(exc.value)

    message, peak = peak_bytes(refused)
    assert f"[{k // 2 - 1}]!" in message and f"k={k}" in message
    assert peak < table_bytes(k) / 8


def run_cli(capsys, argv):
    code, peak = peak_bytes(lambda: main(argv))
    out, err = capsys.readouterr()
    return code, out, err, peak


# one mode only: past the range a second mode means matrices of gigabytes,
# which a build that lost the refusal would try to allocate
@pytest.mark.parametrize("argv", [
    ["quantize", "th", "--k", "240", "--format", "json"],
    ["verify", "--k", "512", "--format", "json"],
    ["star", "th", "bth", "--k", "256"],
])
def test_commands_refuse_past_the_range(capsys, argv):
    code, out, err, peak = run_cli(capsys, argv)
    k = int(argv[argv.index("--k") + 1])
    assert code == 2 and out == "" and LIMIT in err
    assert "nan" not in (out + err).lower() and "inf" not in (out + err).lower()
    assert peak < table_bytes(k) / 8


@pytest.mark.parametrize("command", ["dequantize", "lower-symbol"])
@pytest.mark.parametrize("k", [240, 408])
def test_matrix_readers_refuse_past_the_range(capsys, tmp_path, command, k):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(operator_to_dict(ladder(deformation(k)))))
    code, out, err, _ = run_cli(capsys, [command, str(path)])
    assert code == 2 and out == "" and LIMIT in err
    assert "nan" not in err.lower() and "inf" not in err.lower()


def test_largest_supported_order_still_quantizes(capsys):
    code, out, err, _ = run_cli(capsys, ["quantize", "th", "--k", "238", "--format", "json"])
    assert code == 0 and err == ""
    assert "nan" not in out.lower() and "inf" not in out.lower()
