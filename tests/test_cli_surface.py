"""One smoke run per CLI subcommand: the interface contract stays callable."""

import json

from quivalg import cli


def _run_json(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info(capsys):
    code, data = _run_json(capsys, ["info", "exB.alg"])
    assert code == 0
    assert data["dim"] == 6
    assert data["profile"]["selfinjective"] is False


def test_projectives_and_simples(capsys):
    code, data = _run_json(capsys, ["projectives", "exB.alg"])
    assert code == 0 and data["1"] == {"1": 2, "2": 1}
    code, data = _run_json(capsys, ["simples", "a2.alg"])
    assert code == 0 and data["1"] == {"1": 1, "2": 0}


def test_syzygy_command(capsys):
    code, data = _run_json(capsys, ["syzygy", "exB.alg", "--module", "S1",
                                    "--power", "2"])
    assert code == 0
    assert sum(data["syzygy"]["dims"].values()) == 4  # (S1+S2)^... twice


def test_pd_command(capsys):
    code, data = _run_json(capsys, ["pd", "exA.alg", "--module", "S0"])
    assert code == 0
    assert data["status"] == "infinite"


def test_phidim_command(capsys):
    code, data = _run_json(capsys, ["phidim", "exB.alg",
                                    "--modules", "S1,S2,S1+S2"])
    assert code == 0
    assert data["value"] == 1 and data["status"] == "certified"


def test_decompose_command(capsys):
    code, data = _run_json(capsys, ["decompose", "exB.alg", "--module",
                                    "rad P1"])
    assert code == 0
    assert sorted(k for _, k in data["classes"]) == [1, 1]


def test_gldim_command(capsys):
    code, data = _run_json(capsys, ["gldim", "nakayama-a3.alg"])
    assert code == 0 and data["value"] == 2


def test_glue_command(capsys):
    code, data = _run_json(capsys, ["glue", "remark54.glue"])
    assert code == 0
    assert data["flags"]["generated"] and data["t_vertices"] == ["v"]


def test_classify_command(capsys):
    code, data = _run_json(capsys, ["classify", "rad-square-zero-pair.glue"])
    assert code == 0
    props = {e["proposition"] for e in data["entries"]}
    assert "syzygy_finite_gluing" in props


def test_classify_with_assertions(capsys):
    code, data = _run_json(capsys, [
        "classify", "exC.glue", "--assert-a-it", "1", "--assert-b-lit", "1"])
    assert code == 0
    props = {e["proposition"] for e in data["entries"]}
    assert "lit_one_directional" in props


def test_check_h_inconclusive_exit(capsys):
    # the opposite-oriented gluing feeds the growing local block: both orbit
    # seedings stay open, so the command reports inconclusive (exit 2)
    code, data = _run_json(capsys, ["check-h", "exCop.glue"])
    assert code == 2
    assert data["h4_boundary"]["status"] == "inconclusive"
    assert data["h4_full"]["status"] == "inconclusive"


def test_verify_paper_text_lines(capsys, tmp_path, monkeypatch):
    # the wiring around the battery, with verify.run_all stubbed: one
    # PASS/FAIL line per criterion, exit 1 on a failure and 0 without one,
    # and the report as the JSON dump's results
    from quivalg import verify

    criteria = [{"name": "c1", "summary": "held", "passed": True},
                {"name": "c2", "summary": "broke", "passed": False}]
    seen = []

    def run_all(budgets):
        seen.append(budgets.seed)
        report = {"criteria": criteria, "passed": all(c["passed"] for c in criteria)}
        return report, report["passed"]

    monkeypatch.setattr(verify, "run_all", run_all)
    out = tmp_path / "verify.json"
    assert cli.main(["--seed", "3", "--json", str(out), "verify-paper"]) == 1
    assert capsys.readouterr().out.splitlines() == ["[PASS] c1: held", "[FAIL] c2: broke"]
    data = json.loads(out.read_text())
    assert (data["command"], data["status"], data["seed"]) == ("verify-paper", "fail", 3)
    assert data["results"] == {"criteria": criteria, "passed": False}
    criteria.pop()
    assert cli.main(["verify-paper"]) == 0
    assert capsys.readouterr().out.splitlines() == ["[PASS] c1: held"]
    assert seen == [3, 0]
