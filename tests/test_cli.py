import json
import os

import numpy as np
import pytest

from quivalg import cli, repmod


def test_parse_exA_builds_dim_8():
    alg = cli.load_algebra_file("exA.alg")
    assert alg.dim == 8
    assert alg.p == 101


def test_roundtrip_on_bundled_fixtures():
    for name in ("exA.alg", "exB.alg", "a2.alg", "nakayama-selfinj.alg",
                 "nakayama-a3.alg", "rsz-a.alg", "point.alg"):
        path = cli.resolve_path(name)
        with open(path, "r", encoding="utf-8") as fh:
            src = cli.parse_algebra(fh.read(), path)
        text = cli.print_algebra(src)
        again = cli.parse_algebra(text)
        assert again == src
        assert cli.print_algebra(again) == text


def test_parse_errors_carry_positions(tmp_path):
    bad = "algebra t field 101 truncate 30\nvertex 1 2\narrow a: 1 -> 3\n"
    with pytest.raises(cli.InputError) as err:
        cli.parse_algebra(bad, "bad.alg")
    assert "bad.alg:3" in str(err.value)
    assert "unknown vertex 3" in str(err.value)
    dup = "algebra t field 101 truncate 30\nvertex 1 1\n"
    with pytest.raises(cli.InputError) as err2:
        cli.parse_algebra(dup, "dup.alg")
    assert "dup.alg:2" in str(err2.value)
    with pytest.raises(cli.InputError):
        cli.parse_algebra("vertex 1\n", "nohdr.alg")
    with pytest.raises(cli.InputError):
        cli.parse_algebra("algebra t field 10 truncate 5\n", "notprime.alg")


def test_module_literals(exB, exCop):
    m = cli.parse_module_expr(exB, "S1+S2")
    assert m.dims == {"1": 1, "2": 1}
    assert cli.parse_module_expr(exB, "P1").dims == {"1": 2, "2": 1}
    assert cli.parse_module_expr(exB, "rad P1").dims == {"1": 1, "2": 1}
    assert cli.parse_module_expr(exB, "P1/socle").dims == {"1": 1, "2": 0}
    assert cli.parse_module_expr(exB, "S1^3").dims == {"1": 3, "2": 0}
    cop = exCop.algebra
    q = cli.parse_module_expr(cop, "P1/(S1+S2)")
    assert q.dims == {"0": 1, "1": 1, "2": 0}
    with pytest.raises(cli.InputError):
        cli.parse_module_expr(exB, "S9")


def test_module_json_file(tmp_path, exB):
    m = repmod.random_module(exB, 3, 8)
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(m.to_json()))
    back = cli.parse_module_expr(exB, str(path))
    assert back.equals(m)


def _run(args):
    return cli.main(args)


BROKEN = {"algebra": "exB", "dims": {"1": 1, "2": 0}, "maps": {"bb1": [[1]]}}


@pytest.mark.parametrize("command,payload,says", [
    # bb1 * bb1 = 0 fails: the radical series of the fingerprint never ends
    ("phi", BROKEN, "bb1*bb1"),
    ("pd", BROKEN, "bb1*bb1"),
    ("decompose", BROKEN, "bb1*bb1"),
    ("phi", "{not json", "Expecting"),
    ("phi", [1, 2], "JSON object"),
    ("phi", {"dims": {"9": 1}}, "unknown vertices"),
    ("phi", {"dims": {"1": 1}, "map": {}}, "unknown keys"),
    ("phi", {"dims": {"1": 1}, "maps": {"zz": [[0]]}}, "unknown arrows"),
    ("phi", {"dims": {"1": -1}}, "negative dimension"),
    ("phi", {"dims": {"1": 1.5}}, "integers"),
    ("phi", {"dims": {"1": 1}, "maps": {"bb1": [[0, 0]]}}, "shape"),
    ("phi", {"dims": {"1": 1}, "maps": {"bb1": [[0.5]]}}, "integers"),
    ("phi", {"dims": {"1": 1}, "maps": {"bb1": [[0], [0, 0]]}}, "input error"),
])
def test_bad_module_json_exits_3(tmp_path, capsys, command, payload, says):
    path = tmp_path / "m.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert _run([command, "exB.alg", "--module", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and says in err


def test_cli_phi_command(capsys):
    code = _run(["phi", "exB.alg", "--module", "S1+S2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1
    assert data["certificate"] == "orbit_cycle"
    assert data["rank_trace"][:3] == [2, 1, 1]


def test_cli_exit_codes(capsys, tmp_path):
    assert _run(["selfinjective", "exA.alg"]) == 0
    assert _run(["iso", "exB.alg", "--module", "S1", "--other", "S2"]) == 0
    # input error: no such file
    assert _run(["info", "missing.alg"]) == 3
    # inconclusive: pd of a simple over the local algebra within tiny budget
    code = _run(["pd", "exB.alg", "--module", "S1"])
    assert code == 0
    capsys.readouterr()


def test_cli_json_report_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert _run(["--json", str(out1), "phi", "exB.alg", "--module", "S1+S2"]) == 0
    assert _run(["--json", str(out2), "phi", "exB.alg", "--module", "S1+S2"]) == 0
    capsys.readouterr()
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("timing"), d2.pop("timing")
    assert d1 == d2
    assert d1["inputs"]  # digest recorded


def test_cli_additivity_witness(capsys):
    code = _run(["additivity", "remark54.glue"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "witness"
    assert data["phi12"]["value"] == 1


def test_cli_split_check(capsys):
    code = _run(["split-check", "exC.glue", "--samples", "10"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["failures"] == []


def test_cli_check_h(capsys):
    code = _run(["check-h", "exC.glue"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["h4_boundary"]["status"] == "finitely_generated"
    assert data["h4_full"]["status"] == "inconclusive"


def test_cli_zero_it(capsys):
    code = _run(["zero-it-check", "exCop.glue", "--generators", "S0,P0",
                 "--block", "0"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["passed"]
    code2 = _run(["zero-it-check", "exB.alg", "--generators", "S1"])
    data2 = json.loads(capsys.readouterr().out)
    assert code2 == 1 and not data2["passed"]


def test_cli_registry_dump(capsys):
    code = _run(["registry", "exB.alg", "dump", "--modules", "rad P1"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {e["id"] for e in data["entries"]} >= {0, 1, 2, 3}
    for e in data["entries"]:
        assert set(e) == {"id", "dims", "fingerprint", "projective", "syzygy"}


def test_cli_opposite_roundtrip(tmp_path, capsys):
    out = tmp_path / "op.alg"
    code = _run(["opposite", "a2.alg", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    op = cli.load_algebra_file(str(out))
    assert op.dim == 3
    arrow = op.quiver.arrow_map["a"]
    assert (arrow.source, arrow.target) == ("2", "1")


def test_cli_gluing_parse_errors():
    with pytest.raises(cli.InputError):
        cli.parse_gluing("glue g\nleft a.alg\nideal generated\n", "g.glue")
    with pytest.raises(cli.InputError):
        cli.parse_gluing("glue g\nleft a.alg\nright b.alg\nideal generated\n"
                         "relation 1 x*y\n", "g.glue")


def test_field_override(capsys):
    code = _run(["--field", "7", "info", "exA.alg"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["dim"] == 8  # the presentation stays 8-dimensional over F_7


@pytest.mark.parametrize("field", ["0", "6", "1048583", "4294967311"])
def test_field_override_rejects_bad_fields(field, capsys):
    # 1048583 is the least prime above the int64 overflow cap 2**20
    assert _run(["--field", field, "phi", "exB.alg", "--module", "S1+S2"]) == 3
    assert "input error" in capsys.readouterr().err


def test_dsl_rejects_prime_above_cap():
    with pytest.raises(cli.InputError):
        cli.parse_algebra("algebra t field 1048583 truncate 5\n", "big.alg")


@pytest.mark.parametrize("connector", ["alpha a0: 0 -> 1 -> 2", "alpha a0: 1 -> 0"])
def test_bad_gluing_file_exits_3(tmp_path, capsys, connector):
    # a connector with two arrows, and an alpha connector going B -> A
    path = tmp_path / "g.glue"
    path.write_text(f"glue g\nleft exA.alg\nright exB.alg\n{connector}\nideal extended\n")
    assert _run(["info", str(path)]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["syzygy", "exB.alg", "--module", "S1", "--power", "-1"],
    ["split-check", "exC.glue", "--samples", "-1"],
    ["split-check", "exC.glue", "--samples", "0"],
    ["phi", "exB.alg", "--module", "S1^0"],
    ["phi", "exB.alg", "--module", "S1^-1"],
])
def test_bad_counts_exit_3(capsys, args):
    assert _run(args) == 3
    assert "input error" in capsys.readouterr().err
