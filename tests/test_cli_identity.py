"""``scripts/cli_identity.py`` on this tree, on itself and against a stub
tree whose ``pgquant.cli.main`` prints something else.

The full command list runs only in the checks that count it; the trees
are compared on a short list that pipes a matrix into ``dequantize``."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_identity.py"

SHORT = [
    (["matrix", "theta", "--k", "6", "--format", "json"], None),
    (["dequantize", "-", "--format", "json"], 0),
    (["lower-symbol", "-"], 0),
    (["star", "th", "bth", "--k", "4"], None),
    (["verify", "--k", "4", "--format", "json"], None),
]


def load():
    spec = importlib.util.spec_from_file_location("cli_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_tree(root: Path) -> Path:
    package = root / "stub" / "src" / "pgquant"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(textwrap.dedent("""
        import sys
        def main(argv):
            print("stub", sys.stdin.read()[:1], *argv)
            return 0
    """))
    return root / "stub"


def test_a_tree_compared_with_itself_reports_nothing():
    assert load().compare(ROOT, ROOT, SHORT) == []


def test_a_tree_that_prints_differently_is_caught(tmp_path):
    module = load()
    differ = module.compare(ROOT, stub_tree(tmp_path), SHORT)
    assert differ == [module.label(SHORT, i) for i in range(len(SHORT))]
    assert differ[1] == "pgquant matrix theta --k 6 --format json | pgquant dequantize - --format json"


def test_main_exits_1_and_prints_every_difference(tmp_path, monkeypatch, capsys):
    module = load()
    monkeypatch.setattr(module, "cases", lambda: SHORT)
    assert module.main([str(ROOT), str(stub_tree(tmp_path))]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{len(SHORT)} of {len(SHORT)} commands differ"
    assert len(out) == len(SHORT) + 1
    assert module.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == f"0 of {len(SHORT)} commands differ\n"


def test_the_fixed_list_covers_each_family():
    commands = load().cases()
    argvs = [argv for argv, _ in commands]
    verify_ks = {int(a[2]) for a in argvs if a[0] == "verify"}
    assert verify_ks == set(range(4, 129, 2))
    verify_modes = {(int(a[2]), int(a[4])) for a in argvs if a[0] == "verify" and "--modes" in a}
    assert verify_modes == ({(k, 2) for k in [*range(4, 33, 2), 48, 64]} | {(k, 3) for k in range(4, 17, 2)}
                            | {(k, 4) for k in range(4, 9, 2)})
    for reader in ("dequantize", "lower-symbol"):
        fed = [stdin for argv, stdin in commands if argv[0] == reader]
        # named matrices, k = 4..64, two formats, then two-mode quantize images at k = 6 and 8
        assert sum(isinstance(s, int) for s in fed) == 7 * 31 * 2 + 2 * 3 * 3 * 2
        assert sum(isinstance(s, str) for s in fed) == 31 * 2  # a random matrix a k
        read_back = {tuple(commands[s][0][3:8:2]) for argv, s in commands if argv[0] == reader
                     and isinstance(s, int) and commands[s][0][0] == "quantize"}
        assert read_back == {(k, "2", o) for k in ("6", "8") for o in ("antinormal", "left", "right")}
    assert all(commands[s][0][-1] == "json" for argv, s in commands if isinstance(s, int))
    assert {int(a[4]) for a in argvs if a[0] == "star"} == set(range(4, 33, 2))
    assert len({(a[1], a[2]) for a in argvs if a[0] == "star"}) >= 8
    orderings = {(a[3], a[5], a[7]) for a in argvs if a[0] == "quantize"}
    assert orderings == ({(k, m, o) for k in ("6", "8", "16") for m in ("1", "2") for o in ("antinormal", "left", "right")}
                         | {(k, "3", o) for k in ("4", "6") for o in ("antinormal", "left", "right")}
                         | {(k, "1", o) for k in ("64", "128", "236") for o in ("antinormal", "left", "right")})
    assert sum(a[0] == "quantize" and a[3] in ("64", "128", "236") for a in argvs) == 54
    assert sum(a[0] == "demo" for a in argvs) == 2
