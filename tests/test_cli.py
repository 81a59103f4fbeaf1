import json
import os
import shutil
import subprocess
import sys

import pytest

from quivalg import cli, homology, morita, repmod


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
    # bb1 * bb1 = 0 fails: the module equals its own radical
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
    ("phi", {"dims": {"1": 1}, "maps": {"b1": [[1]]}}, "shape"),
    ("phi", {"dims": {"1": 1}, "maps": {"bb1": [0]}}, "2-d"),
    ("phi", {"dims": {"1": 1}, "maps": {"bb1": [[[0]]]}}, "2-d"),
    ("phi", {"dims": {"1": -1}, "maps": {"bb1": []}}, "negative dimension"),
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
    # input error: no such file; the empty path is not the fixtures directory
    assert _run(["info", "missing.alg"]) == 3
    assert _run(["info", ""]) == 3
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
    code = _run(["split-check", "exC.glue"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["holds_for_every_module"] is True


def test_cli_split_check_fails_on_a_connector_nonzero_on_a_radical(capsys, monkeypatch):
    # unreachable for a gluing that passed H3; the report names the vertex
    monkeypatch.setattr(morita, "nonzero_on_radicals", lambda alg, arrows: ("0", "a0"))
    assert _run(["split-check", "exC.glue"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["holds_for_every_module"] is False
    assert data["reason"].startswith("connector a0 is nonzero on rad P_0 = Omega(S_0)")


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


def test_cli_opposite_unwritable_out_exits_3(tmp_path, capsys):
    out = str(tmp_path / "missing" / "op.alg")
    assert _run(["opposite", "exA.alg", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and out in err


def test_cli_syzygy_power_stops_at_the_dimension_cap(capsys):
    # Omega^4(S0) over exA has dimension 49, above the default cap of 40;
    # without the cap Omega^16 would run for many minutes
    assert _run(["syzygy", "exA.alg", "--module", "S0", "--power", "16"]) == 2
    assert "Omega^4 has dimension 49" in capsys.readouterr().err
    assert _run(["--max-dim", "49", "syzygy", "exA.alg", "--module", "S0", "--power", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(data["syzygy"]["dims"].values()) == 49


def test_cli_syzygy_power_caps_each_block(capsys, tmp_path, monkeypatch):
    # Omega^3(S0 + S0) over exA is two blocks of 31 dims, each under the
    # default cap of 40 though their sum is not; Omega^4(S0) is one of 49
    assert _run(["syzygy", "exA.alg", "--module", "S0^2", "--power", "3"]) == 0
    assert sum(json.loads(capsys.readouterr().out)["syzygy"]["dims"].values()) == 62
    assert _run(["syzygy", "exA.alg", "--module", "S0", "--power", "4"]) == 2
    # read back from a file, Omega^4(S0) is an input block above the cap:
    # exit 2 before any syzygy is taken
    assert _run(["--max-dim", "49", "syzygy", "exA.alg", "--module", "S0", "--power", "4"]) == 0
    path = tmp_path / "omega4.json"
    path.write_text(json.dumps(json.loads(capsys.readouterr().out)["syzygy"]))
    monkeypatch.setattr(homology, "syzygy", lambda m: pytest.fail("syzygy taken"))
    assert _run(["syzygy", "exA.alg", "--module", str(path), "--power", "1"]) == 2
    assert "a block of Omega^0 has dimension 49 > cap 40" in capsys.readouterr().err


def test_cli_out_of_memory_is_a_budget_hit(capsys, monkeypatch):
    # an allocation that fails is reported like any budget hit: exit 2, with
    # the reason, and no traceback
    def decompose(obj, args, budgets, rep):
        raise MemoryError("Unable to allocate 1.73 GiB for an array")

    monkeypatch.setitem(cli.COMMANDS, "decompose", decompose)
    assert _run(["decompose", "exB.alg", "--module", "S1"]) == 2
    assert capsys.readouterr().err == (
        "inconclusive (budget): out of memory: Unable to allocate 1.73 GiB for an array\n")


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


def _extra(relation):
    return f"alpha a0: 0 -> 1\nrelation {relation}"


def _copy_fixtures(directory, *names):
    for name in names:
        shutil.copy(os.path.join(cli.fixtures_dir(), name), directory / name)


def test_gluing_sides_resolve_against_the_gluing_file_only(tmp_path, capsys):
    # a .glue's left/right never fall back to the bundled fixtures: a missing
    # sibling is an input error, a present one is the file loaded
    path = tmp_path / "g.glue"
    path.write_text("glue g\nleft exA.alg\nright exB.alg\nideal generated\n")
    _copy_fixtures(tmp_path, "exB.alg")
    assert _run(["info", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"input error: no such file: {tmp_path / 'exA.alg'}" in err and "Traceback" not in err
    (tmp_path / "exA.alg").write_text(
        open(os.path.join(cli.fixtures_dir(), "exA.alg")).read().replace("algebra exA", "algebra mine"))
    glued = cli.load_glue_file(str(path))
    assert glued.spec.left.name == "mine" and _run(["info", str(path)]) == 0


@pytest.mark.parametrize("where", ["no/such/dir", "", "."],
                         ids=["missing-dirs", "existing-dir", "dot"])
def test_only_a_bare_name_falls_back_to_the_fixtures(tmp_path, capsys, where):
    # a path with a directory part that does not exist is an input error,
    # even when its file name is a bundled fixture's
    missing = str(tmp_path / where / "exA.alg")
    assert _run(["info", missing]) == 3
    err = capsys.readouterr().err
    assert f"input error: no such file: {missing}" in err and "Traceback" not in err
    assert _run(["info", "exA.alg"]) == 0


@pytest.mark.parametrize("connector,says", [
    # a connector with two arrows, and an alpha connector going B -> A
    pytest.param("alpha a0: 0 -> 1 -> 2", "expected: alpha name: v -> w",
                 id="alpha a0: 0 -> 1 -> 2"),
    pytest.param("alpha a0: 1 -> 0", "must go A -> B", id="alpha a0: 1 -> 0"),
    # extra relations on the union quiver, and connectors
    pytest.param(_extra("1 a0*bb1 + 1 a0*b1"), "not parallel", id="terms-not-parallel"),
    pytest.param(_extra("1 a0*zz"), "unknown arrow 'zz'", id="unknown-later-arrow"),
    pytest.param(_extra("1 zz*a0"), "unknown arrow 'zz'", id="unknown-first-arrow"),
    pytest.param(_extra("1 a0*a0"), "do not compose at a0", id="arrows-do-not-compose"),
    pytest.param(_extra("1 a0"), "length < 2", id="term-of-length-1"),
    pytest.param(_extra("1 a0*b1 - 1 a0*b1"), "no nonzero term", id="no-nonzero-term"),
    pytest.param("alpha g1: 0 -> 1", "duplicate arrow ids", id="connector-reuses-a-name"),
    pytest.param("alpha : 0 -> 1", "arrow name ''", id="empty-alpha-name"),
    pytest.param("alpha a*0: 0 -> 1", "arrow name 'a*0'", id="alpha-name-with-star"),
    pytest.param("beta b+0: 1 -> 0", "arrow name 'b+0'", id="beta-name-with-plus"),
    pytest.param("beta b-0: 1 -> 0", "arrow name 'b-0'", id="beta-name-with-minus"),
])
def test_bad_gluing_file_exits_3(tmp_path, capsys, connector, says):
    _copy_fixtures(tmp_path, "exA.alg", "exB.alg")
    path = tmp_path / "g.glue"
    path.write_text(f"glue g\nleft exA.alg\nright exB.alg\n{connector}\nideal extended\n")
    assert _run(["info", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and says in err and "Traceback" not in err


@pytest.mark.parametrize("lines,says", [
    pytest.param("arrow a: 1 -> 2\nrelation 1 a*a", "do not compose at a",
                 id="arrows-do-not-compose"),
    pytest.param("arrow : 1 -> 2", "alg:3: arrow name ''", id="empty-name"),
    pytest.param("arrow a*b: 1 -> 2", "alg:3: arrow name 'a*b'", id="name-with-star"),
    pytest.param("arrow a+b: 1 -> 2", "alg:3: arrow name 'a+b'", id="name-with-plus"),
    pytest.param("arrow a-b: 1 -> 2", "alg:3: arrow name 'a-b'", id="name-with-minus"),
    pytest.param("arrow a b: 1 -> 2", "alg:3: arrow name 'a b'", id="name-with-space"),
])
def test_bad_algebra_file_exits_3(tmp_path, capsys, lines, says):
    path = tmp_path / "t.alg"
    path.write_text(f"algebra t field 101 truncate 30\nvertex 1 2\n{lines}\n")
    assert _run(["info", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and says in err and "Traceback" not in err



@pytest.mark.parametrize("relations", [
    pytest.param("", id="free"),
    pytest.param("relation 1 a*b - 1 b*a", id="commutative"),
    pytest.param("relation 1 a*b - 1 b*a\nrelation 1 a*a*a - 1 a*a\nrelation 1 b*b*b - 1 b*b",
                 id="idempotent-powers"),
])
def test_not_admissible_algebra_exits_3_at_once(tmp_path, relations):
    # every power of J survives: the free and the commutative algebra on two
    # loops have normal words of every length, and with a^3 = a^2 and
    # b^3 = b^2 every path is outside I while its normal forms stay few.
    # Exponentially many paths stay outside I at each length, so a search
    # over them would not finish; a subprocess keeps that from hanging the suite
    path = tmp_path / "t.alg"
    path.write_text("algebra t field 101 truncate 30\nvertex 1\n"
                    f"arrow a: 1 -> 1\narrow b: 1 -> 1\n{relations}\n")
    proc = _run_checkout("-c", "import sys; from quivalg.cli import main; sys.exit(main())",
                         "info", str(path))
    assert proc.returncode == 3
    assert "not admissible at this truncation bound" in proc.stderr


def _run_checkout(*args):
    """Run the interpreter on args with this checkout's package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_python_m_quivalg_runs_the_command_line(capsys):
    proc = _run_checkout("-m", "quivalg", "info", "exB.alg")
    assert _run(["info", "exB.alg"]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    proc = _run_checkout("-m", "quivalg", "info", "missing.alg")
    assert proc.returncode == 3 and "input error: no such file: missing.alg" in proc.stderr


@pytest.mark.parametrize("args", [
    ["syzygy", "exB.alg", "--module", "S1", "--power", "-1"],
    ["phi", "exB.alg", "--module", "S1^x"],
    ["syzygy", "exB.alg", "--module", "S2^0"],
    ["phi", "exB.alg", "--module", "S1^0"],
    ["phi", "exB.alg", "--module", "S1^-1"],
])
def test_bad_counts_exit_3(capsys, args):
    assert _run(args) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--depth-budget", "--class-budget", "--max-dim",
                                    "--confidence"])
def test_negative_budget_options_exit_3(capsys, option):
    assert _run([option, "-1", "phi", "exB.alg", "--module", "S1+S2"]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and option in err


@pytest.mark.parametrize("args", [["verify-paper"], ["split-check", "exC.glue"]])
def test_negative_seed_exits_3(capsys, args):
    assert _run(["--seed", "-1"] + args) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "--seed" in err


@pytest.mark.parametrize("args,says", [
    (["registry", "exB.alg", "bogus"], "invalid choice: 'bogus'"),
    (["--seed", "abc", "phi", "exB.alg", "--module", "S1"], "invalid int value: 'abc'"),
    (["phi", "exB.alg"], "the following arguments are required: --module"),
    (["nosuchcommand", "exB.alg"], "invalid choice: 'nosuchcommand'"),
])
def test_usage_errors_exit_3_not_as_inconclusive(capsys, args, says):
    # 2 means an inconclusive result, so a typo must not exit with it
    with pytest.raises(SystemExit) as exc:
        _run(args)
    assert exc.value.code == 3
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["phi", "--help"]])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        _run(args)
    assert exc.value.code == 0
    assert "usage: quivalg" in capsys.readouterr().out


@pytest.mark.parametrize("block", ["nope", ""])
def test_zero_it_check_unknown_block_vertex_exits_3(capsys, block):
    assert _run(["zero-it-check", "exA.alg", "--generators", "S0", "--block", block]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"unknown vertex {block!r}" in err


@pytest.mark.parametrize("option", ["--assert-a-it", "--assert-b-it", "--assert-a-lit",
                                    "--assert-b-lit"])
def test_classify_negative_asserted_level_exits_3(capsys, option):
    assert _run(["classify", "rad-square-zero-pair.glue", option, "-3"]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and option in err
