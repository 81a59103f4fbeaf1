import gldim_opposite_oracle as oracle
import numpy as np
import pytest
from families import nakayama, uniserial_pd
from population import population

from quivalg import analysis, decomp, grothendieck as gk, homology, repmod
from quivalg.budgets import Budgets
from quivalg.pathalgebra import BoundAlgebra, Quiver, build_algebra


@pytest.fixture(scope="module")
def qinf_violator():
    # loop at vertex 1 (infinite pd) with an arrow into a pd-finite vertex:
    # the infinite locus is not successor-closed
    q = Quiver(["1", "2"], [("l", "1", "1"), ("a", "1", "2")])
    return build_algebra(q, [[(1, ("l", "l"))]], 101, 30,
                         name="loop-then-sink")


def test_gldim_examples(a2, exB, nak_a3):
    assert analysis.global_dimension(a2).value == 1
    assert analysis.global_dimension(nak_a3).value == 2
    r = analysis.global_dimension(exB)
    assert r.status == "infinite" and r.witness in ("1", "2")


def _oracle_algebras():
    """The oracle population and N(n, 3), n in {16, 32, 48}, built afresh."""
    for _, alg in population():
        yield alg
    for n in (16, 32, 48):
        yield nakayama(n, 3)


# depth -> (answers the oracle took off the opposite algebra, unknown -> decided
# as (algebra, value), witness changes as (algebra, oracle's, gldim's))
ORACLE_COUNTS = {
    64: (0, [], []),
    3: (9, [], []),
    2: (15, [("rsz26", 3)], [("rsz37", "2", "0")]),
    1: (9, [("N(4,3)", 2), ("N(5,3)", 3), ("N(5,4)", 2), ("N(6,3)", 3), ("N(6,4)", 3),
               ("N(7,3)", 4), ("N(7,4)", 3), ("N(8,3)", 5), ("N(8,4)", 3), ("rsz20", 2),
               ("rsz26", 3), ("generated 20", 2), ("generated 26", 2), ("generated 53", 2),
               ("generated 84", 2), ("N(16,3)", 10), ("N(32,3)", 21), ("N(48,3)", 31)],
        [("rsz6", "2", "0"), ("rsz37", "3", "0"), ("rsz58", "3", "0")]),
}


@pytest.mark.parametrize("depth", sorted(ORACLE_COUNTS, reverse=True))
def test_gldim_agrees_with_the_opposite_algebra_fallback(depth):
    """gldim against the earlier pass with the opposite-algebra fallback,
    each on its own fresh algebra: every answer the oracle decided is kept,
    with its status and value.  The oracle's unknowns that gldim decides and
    the witnesses that change are pinned; a witness changes only where the
    oracle's own pass left a simple unknown, which gldim re-reads after the
    orbit of the simples."""
    budgets = Budgets(depth=depth)
    opposite, newly, witnesses, total = 0, [], [], 0
    for old_alg, alg in zip(_oracle_algebras(), _oracle_algebras()):
        qinf = oracle.q_infinity(old_alg, budgets)
        old = oracle.global_dimension(old_alg, budgets, qinf)
        new = analysis.global_dimension(alg, budgets)
        total += 1
        opposite += old.via == "opposite"
        if old.status == "unknown":
            if new.status != "unknown":
                newly.append((alg.name, new.value))
            continue
        assert (new.status, new.value) == (old.status, old.value), (alg.name, old, new)
        if new.witness != old.witness:
            assert not qinf.all_decided, alg.name
            witnesses.append((alg.name, old.witness, new.witness))
    assert total == 225
    assert (opposite, newly, witnesses) == ORACLE_COUNTS[depth]


def test_gldim_builds_no_opposite_algebra(monkeypatch):
    """Answers the fallback took off the opposite algebra, read off the
    orbit of the simples: N(32, 3) at depth 4 has gldim 21, the largest
    uniserial pd, and N(8, 3) at depth 1 has gldim 5."""
    def refuse(self):
        raise AssertionError("opposite algebra built")

    monkeypatch.setattr(BoundAlgebra, "opposite", refuse)
    want = max(uniserial_pd(32, 3, i, 1) for i in range(32))
    assert want == 21
    depth4 = Budgets(depth=4)
    r = analysis.global_dimension(nakayama(32, 3), depth4)
    assert (r.status, r.value) == ("finite", want)
    assert analysis.q_infinity(nakayama(32, 3), depth4).all_decided
    r = analysis.global_dimension(nakayama(8, 3), Budgets(depth=1))
    assert (r.status, r.value) == ("finite", 5)


def test_gldim_semisimple():
    ss = build_algebra(Quiver(["x"], []), [], 101, 30, name="point")
    assert analysis.global_dimension(ss).value == 0


def test_selfinjective_examples(exA, exB, a2, nak_si):
    assert homology.selfinjectivity(exA)
    assert homology.selfinjectivity(nak_si)
    assert not homology.selfinjectivity(a2)
    # the two-vertex radical-square-zero algebra is NOT selfinjective:
    # soc P1 = S1 + S2 is not simple (and phi(S1+S2) = 1 would contradict it)
    assert not homology.selfinjectivity(exB)


def test_q_infinity(a2, exB, remark54):
    assert sorted(analysis.q_infinity(a2).certified) == []
    assert sorted(analysis.q_infinity(exB).certified) == ["1", "2"]
    qc = analysis.q_infinity(remark54.algebra)
    assert sorted(qc.certified) == ["0"]
    assert qc.statuses["v"].status == "finite" and qc.statuses["v"].value == 1
    assert qc.all_decided


def test_successors_closed(exB, remark54, qinf_violator):
    qB = analysis.q_infinity(exB)
    assert analysis.successors_closed(exB, qB)[0] == "closed"
    qC = analysis.q_infinity(remark54.algebra)
    assert analysis.successors_closed(remark54.algebra, qC)[0] == "closed"
    qv = analysis.q_infinity(qinf_violator)
    assert sorted(qv.certified) == ["1"]
    status, arrow = analysis.successors_closed(qinf_violator, qv)
    assert status == "violated" and arrow.name == "a"
    # the violation is consistent with the probe finding a witness pair
    verdict = analysis.phi_zero_probe(qinf_violator)
    assert verdict.kind == "witness"


def test_simple_socle_check(exA, exB):
    qA = analysis.q_infinity(exA)
    assert analysis.simple_socle_check(exA, qA) == {"0": True}
    qB = analysis.q_infinity(exB)
    # non-simple socles at infinite-locus vertices flag the additivity tension
    assert analysis.simple_socle_check(exB, qB) == {"1": False, "2": False}


def test_phi_zero_probe_positive(a2, exA, nak_si, nak_a3):
    assert analysis.phi_zero_probe(a2).kind == "additive_gldim"
    assert analysis.phi_zero_probe(nak_a3).kind == "additive_gldim"
    assert analysis.phi_zero_probe(exA).kind == "additive_selfinjective"
    assert analysis.phi_zero_probe(nak_si).kind == "additive_selfinjective"


def test_phi_zero_probe_witness(remark54):
    v = analysis.phi_zero_probe(remark54.algebra)
    assert v.kind == "witness"
    assert v.phi1.certified and v.phi1.value == 0
    assert v.phi2.certified and v.phi2.value == 0
    assert v.phi12.certified and v.phi12.value == 1
    # witness re-verifies from scratch on reload
    from quivalg import cli

    fresh = cli.load_glue_file("remark54.glue").algebra
    m1 = repmod.Rep.from_json(fresh, v.m1.to_json())
    m2 = repmod.Rep.from_json(fresh, v.m2.to_json())
    assert gk.phi(m1).value == 0 and gk.phi(m2).value == 0
    assert gk.phi(repmod.direct_sum([m1, m2])[0]).value == 1


def test_phi_zero_pairs_close_on_selfinjective(exA):
    for seed in range(25):
        m1 = repmod.random_module(exA, seed, 9)
        m2 = repmod.random_module(exA, seed + 300, 9)
        r = gk.phi(repmod.direct_sum([m1, m2])[0])
        assert r.certified and r.value == 0


def test_left_right_parity(exB, remark54):
    # exB itself: gldim infinite, not selfinjective; probe may stay
    # inconclusive but never contradicts the opposite side
    v = analysis.phi_zero_probe(exB)
    vop = analysis.phi_zero_probe(exB.opposite())
    if "inconclusive" not in (v.kind, vop.kind):
        assert v.kind == vop.kind
    c = remark54.algebra
    assert analysis.phi_zero_probe(c).kind == \
        analysis.phi_zero_probe(c.opposite()).kind == "witness"


def test_lemma_syzygy_indecomposable_over_selfinjective(exA):
    # certified-infinite-pd indecomposables have indecomposable syzygies;
    # checked by splitting the syzygy directly (no registry round trip, since
    # wild families over this algebra can defeat fingerprint bucketing)
    rng = np.random.default_rng(5)
    reg = exA.registry()
    checked = 0
    seen = []
    for seed in range(25):
        m = repmod.random_module(exA, seed, 10)
        pieces, certified = decomp.indecomposable_pieces(m.strip(), rng, 40)
        for piece in pieces:
            key = (piece.dim_vector(), tuple(piece.mats[a].tobytes()
                                             for a in sorted(piece.mats)))
            if key in seen or not certified:
                continue
            seen.append(key)
            if homology.pd(piece).status != "infinite":
                continue
            om = homology.syzygy(piece)
            om_pieces, _ = decomp.indecomposable_pieces(om.strip(), rng, 40)
            assert len(om_pieces) == 1
            checked += 1
    assert checked >= 10


def test_zero_it_check_examples(exB, exCop):
    projs = [exB.projective(v) for v in exB.quiver.vertices]
    assert analysis.zero_it_check(exB, projs).passed
    r = analysis.zero_it_check(exB, [repmod.simple(exB, "1")])
    assert not r.passed
    assert "syzygy-closure" in r.failed_axioms()
    # the selfinjective sink block of the opposite-oriented gluing is 0-IT
    cop = exCop.algebra
    r2 = analysis.zero_it_check(
        cop, [repmod.simple(cop, "0"), cop.projective("0")], blocks=[["0"]])
    assert r2.passed
    # adding the opposite-side simples breaks phi-dim zero: the kernel of the
    # class-level syzygy map on {S1, S2} meets a cosyzygy inside the block
    r3 = analysis.zero_it_check(
        cop, [repmod.simple(cop, "0"), repmod.simple(cop, "1"),
              repmod.simple(cop, "2")], blocks=[["0"]])
    assert not r3.phidim_zero


def test_corollary_consistency(exA, nak_si):
    for alg in (exA, nak_si):
        verdict = analysis.phi_zero_probe(alg)
        assert verdict.kind.startswith("additive")
        qinf = analysis.q_infinity(alg)
        if qinf.all_decided:
            assert analysis.successors_closed(alg, qinf)[0] in ("closed",)
            assert all(analysis.simple_socle_check(alg, qinf).values())


def test_remark_gluing_phi_dim_at_least_one(remark54):
    # the new simple has pd 1, so phi(S_v) = 1 while gldim is infinite:
    # the glued algebra cannot have an additive phi-zero class
    alg = remark54.algebra
    r = gk.phi(repmod.simple(alg, "v"))
    assert r.value == 1 and r.certified
    assert analysis.global_dimension(alg).status == "infinite"
    assert not homology.selfinjectivity(alg)


def test_profile_json(exB):
    prof = analysis.profile(exB)
    data = prof.to_json()
    assert data["selfinjective"] is False
    assert data["gldim"]["status"] == "infinite"
    assert data["q_infinity"] == ["1", "2"]
    assert data["connected"] is True
