"""Golden digests of CLI `--json` payloads.

Each command runs through cli.main with --json; the payload, without its
`timing` field and with the fixtures directory and the test's tmp directory
replaced by fixed names, is hashed.  A change that alters any result, status,
recorded input or argument of these commands changes a digest.
"""

import hashlib
import json

import pytest

from quivalg import cli

# an exB module with entries outside [0, 101): the file reader reduces them
MODULE = {"algebra": "exB", "dims": {"1": 2, "2": 1},
          "maps": {"bb1": [[0, -100], [0, 101]], "b1": [[1], [0]]}}

GOLDEN = {
    "info exB": (["info", "exB.alg"], "e6769a9da8ac5fb9"),
    "projectives nakayama-a3": (["projectives", "nakayama-a3.alg"], "01e9a8550f2500f0"),
    "syzygy exB S1 power 3": (["syzygy", "exB.alg", "--module", "S1", "--power", "3"],
                              "db2e12528b9bcc70"),
    "pd exCop S2": (["pd", "exCop.glue", "--module", "S2"], "4a4b6f59193154ad"),
    "phi exB S1+S2": (["phi", "exB.alg", "--module", "S1+S2"], "0f17a3e7eef43743"),
    "phi exB field 2": (["--field", "2", "phi", "exB.alg", "--module", "P1+S1+S2"],
                        "a87d1557cc6a9951"),
    "phi exB json": (["phi", "exB.alg", "--module", "{tmp}/m.json"], "c08ab59a3dc6b5b0"),
    "decompose exB json": (["decompose", "exB.alg", "--module", "{tmp}/m.json"],
                           "025f2f0876dc0d09"),
    "decompose exA": (["decompose", "exA.alg", "--module", "P0+S0^2"], "ca7f5f4fe58eaa12"),
    "decompose nakayama-selfinj quotients": (
        ["decompose", "nakayama-selfinj.alg", "--module", "P1/socle^2+S2"], "b568ab6a5da8ae73"),
    "iso exB": (["iso", "exB.alg", "--module", "rad P1", "--other", "S1+S2"],
                "e2d954c20a081fba"),
    "gldim a2": (["gldim", "a2.alg"], "d7b2c61c4c67d078"),
    "registry exB": (["registry", "exB.alg", "dump", "--modules", "rad P1"],
                     "cac6e9b267654097"),
    "check-h exC field 2": (["--field", "2", "check-h", "exC.glue"], "18dda898c173c8e9"),
    "classify rad-square-zero-pair field 3": (
        ["--field", "3", "classify", "rad-square-zero-pair.glue"], "2fb61b9f229ffb38"),
    "split-check exC": (["--seed", "3", "split-check", "exC.glue"], "148f8229b57bef3e"),
    "additivity remark54 field 3": (["--field", "3", "additivity", "remark54.glue"],
                                    "5be35c711a2fde96"),
    "zero-it-check exCop": (["zero-it-check", "exCop.glue", "--generators", "S0,P0",
                             "--block", "0"], "cc7966553aec16fe"),
}


def payload_digest(args, tmp_path) -> str:
    """Run one command with --json; the digest of its normalized payload."""
    out = tmp_path / "report.json"
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert cli.main(["--json", str(out)] + args) == 0
    data = json.loads(out.read_text())
    data.pop("timing")
    text = json.dumps(data, sort_keys=True)
    text = text.replace(cli.fixtures_dir(), "<fixtures>").replace(str(tmp_path), "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_payload_is_unchanged(name, tmp_path, capsys):
    (tmp_path / "m.json").write_text(json.dumps(MODULE))
    args, digest = GOLDEN[name]
    got = payload_digest(args, tmp_path)
    capsys.readouterr()
    assert got == digest, (name, got)
