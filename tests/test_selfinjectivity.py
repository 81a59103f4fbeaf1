"""homology.selfinjectivity and selfinjective_block against the iso-test
oracle, and the criterion's cost: no iso test, no opposite algebra."""

import itertools

from random_algebra import TRUNCATION, random_presentation
from selfinjective_oracle import iso_selfinjectivity

from quivalg import cli, decomp, homology
from quivalg.pathalgebra import BoundAlgebra, NotAdmissible, build_algebra

ALGEBRAS = ("a2.alg", "exA.alg", "exB.alg", "nakayama-a3.alg", "nakayama-selfinj.alg",
            "point.alg", "rsz-a.alg", "rsz-b.alg")
GLUINGS = ("exC.glue", "exCop.glue", "rad-square-zero-pair.glue", "remark54.glue")


def _algebras():
    """The fixtures, every gluing and both its sides, the admissible
    generated algebras at seeds 0-99, and the opposite of each."""
    algs = [cli.load_algebra_file(name) for name in ALGEBRAS]
    for name in GLUINGS:
        c = cli.load_glue_file(name)
        algs += [c.algebra, c.left, c.right]
    for seed in range(100):
        quiver, relations, p = random_presentation(seed)
        try:
            algs.append(build_algebra(quiver, relations, p, TRUNCATION))
        except NotAdmissible:
            pass
    return algs + [a.opposite() for a in algs]


def _successor_closed(alg):
    vs = alg.quiver.vertices
    for k in range(1, len(vs) + 1):
        for subset in map(frozenset, itertools.combinations(vs, k)):
            if alg.quiver.successor_closure(subset) == subset:
                yield subset


def test_selfinjectivity_matches_the_iso_oracle():
    answers = selfinjective = 0
    for alg in _algebras():
        assert homology.selfinjectivity(alg) == iso_selfinjectivity(alg), alg
        for vs in _successor_closed(alg):
            whole = len(vs) == len(alg.quiver.vertices)
            want = iso_selfinjectivity(alg if whole else homology.restricted_algebra(alg, vs))
            assert homology.selfinjective_block(alg, vs) == want, (alg, sorted(vs))
            answers += 1
            selfinjective += want
    assert (answers, selfinjective) == (486, 261)


def test_selfinjectivity_runs_no_iso_test_and_builds_no_opposite(monkeypatch):
    calls = []
    iso, opposite = decomp.is_isomorphic, BoundAlgebra.opposite
    monkeypatch.setattr(decomp, "is_isomorphic",
                        lambda *a, **k: calls.append("iso") or iso(*a, **k))
    monkeypatch.setattr(BoundAlgebra, "opposite",
                        lambda self: calls.append("opposite") or opposite(self))
    for name, want in (("exA.alg", True), ("nakayama-selfinj.alg", True), ("exB.alg", False)):
        assert homology.selfinjectivity(cli.load_algebra_file(name)) is want
    assert calls == []
