import numpy as np
import pytest

from quivalg import analysis, decomp, grothendieck as gk, homology, repmod
from quivalg.pathalgebra import Quiver, build_algebra


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
