from typing import NamedTuple

import pytest

from block_lit_oracle import sampled_block_lit, sampled_shape
from quivalg import cli, decomp, grothendieck as gk, homology, morita, repmod, verify
from quivalg.budgets import DEFAULT, Budgets
from quivalg.pathalgebra import Quiver, build_algebra


def test_glue_flags_and_dims(exC, exCop, remark54, rsz):
    assert exC.algebra.dim == 15
    assert exC.flags == {"j_empty": False, "k_empty": True, "generated": False,
                         "endpoints_disjoint": True, "connected": True}
    assert exCop.flags["j_empty"] and not exCop.flags["k_empty"]
    assert remark54.flags["generated"]
    assert rsz.flags["generated"] and rsz.flags["endpoints_disjoint"]
    assert remark54.t_vertices == frozenset({"v"})
    assert rsz.boundary_a == frozenset({"a1"}) and rsz.boundary_b == frozenset({"b2"})


def test_no_connector_glue_is_product(exB):
    # vertex names must be disjoint across the two sides
    qa = Quiver(["x1", "x2"], [("ar", "x1", "x2")])
    left = build_algebra(qa, [], 101, 30, name="a2x")
    spec = morita.GluingSpec(left, exB, [], [], name="product")
    c = morita.glue(spec)
    assert c.flags["j_empty"] and c.flags["k_empty"]
    assert not c.flags["connected"]
    assert c.algebra.dim == left.dim + exB.dim
    # projectives restrict to the side projectives
    for v in ("x1", "x2"):
        pa = morita.pi_a(c, c.algebra.projective(v))
        assert decomp.is_isomorphic(pa, left.projective(v)).verdict == "yes"
    # cross-side homs vanish
    sx = repmod.simple(c.algebra, "x1")
    s1 = repmod.simple(c.algebra, "1")
    assert len(repmod.hom_basis(sx, s1)) == 0


def test_pi_restriction_examples(remark54):
    alg = remark54.algebra
    s0 = repmod.simple(alg, "0")
    assert morita.pi_a(remark54, s0).dims == {"0": 1}
    assert morita.pi_b(remark54, s0).dims == {"v": 0}
    # P_0 of C restricts to P_0 of A (no connector leaves vertex 0)
    pa = morita.pi_a(remark54, alg.projective("0"))
    assert decomp.is_isomorphic(pa, remark54.left.projective("0")).verdict == "yes"


def test_verify_split_examples(exC):
    alg = exC.algebra
    # projective: trivial split
    r = morita.verify_syzygy_split(exC, alg.projective("0"))
    assert r.ok
    # the A-side simple: A part is rad(P0^A), B part is the B-side simple S1
    r2 = morita.verify_syzygy_split(exC, repmod.simple(alg, "0"))
    assert r2.ok
    assert r2.a_dims == {"0": 7, "1": 0, "2": 0}
    assert r2.b_dims == {"0": 0, "1": 1, "2": 0}
    assert r2.top_clause == "match"
    for seed in range(25):
        m = repmod.random_module(alg, seed + 9000, 12)
        assert morita.verify_syzygy_split(exC, m).ok


def test_split_lemma_on_all_glued_fixtures(rsz, remark54):
    # the splitting lemma must hold on every gluing satisfying the
    # connector-ideal containment; exC/exCop take their 100-sample runs in
    # test_split_certificate_agrees_with_the_per_module_oracle
    for c in (rsz, remark54):
        assert morita.nonzero_on_radicals(c.algebra, _connectors(c)) is None
        for seed in range(100):
            m = repmod.random_module(c.algebra, seed + 4000, 10)
            assert morita.verify_syzygy_split(c, m).ok


def _connectors(c):
    return c.spec.alphas + c.spec.betas


def _product(exB):
    """A gluing with no connectors: a2 on fresh vertex names next to exB."""
    qa = Quiver(["x1", "x2"], [("ar", "x1", "x2")])
    left = build_algebra(qa, [], 101, 30, name="a2x")
    return morita.glue(morita.GluingSpec(left, exB, [], [], name="product"))


def test_split_certificate_agrees_with_the_per_module_oracle(exC, exCop, exB):
    # the 100 random modules each over exC and exCop that criterion 3 once
    # sampled at the default seed, and a product gluing
    for c, draws in ((exC, range(100)), (exCop, range(100)), (_product(exB), range(20))):
        assert morita.nonzero_on_radicals(c.algebra, _connectors(c)) is None
        for i in draws:
            m = repmod.random_module(c.algebra, (DEFAULT.seed << 13) + i, 12)
            assert morita.verify_syzygy_split(c, m, DEFAULT).ok


def test_opposite_connector_on_a_radical_blocks_the_split(remark54, rsz):
    # "the opposite of a LIT algebra is not LIT in general": over C^op a
    # connector can act on rad P_v, and then Omega(S_v) = rad P_v has no
    # one-sided split
    for c, v in ((remark54, "0"), (rsz, "a1")):
        cop = c.algebra.opposite()
        assert morita.nonzero_on_radicals(cop, _connectors(c)) == (v, "be")
        om = homology.syzygy(repmod.simple(cop, v))
        assert om.dims == repmod.radical(cop.projective(v))[0].dims
        assert morita.one_sided_parts(c, om) is None
    # and an arrow out of a B-vertex on rad P_v breaks the block-LIT shape
    cop = rsz.algebra.opposite()
    out_of_b = [arr for arr in cop.quiver.arrows if arr.source in rsz.b_vertices]
    assert morita.nonzero_on_radicals(cop, out_of_b) == ("b2", "al")
    pieces = decomp.decompose(homology.syzygy(repmod.simple(cop, "b2"))).items
    reps = [cop.registry().rep(eid) for eid, _ in pieces]
    assert any(not rep.support() <= rsz.a_vertices
               and not (rep.total_dim == 1 and rep.support() <= rsz.b_vertices)
               for rep in reps)


@pytest.mark.parametrize("name,expected", [("exC", "C^op"), ("exCop", "C"),
                                           ("remark54", "C"), ("rsz", None)])
def test_block_lit_shape_agrees_with_the_sampled_oracle(request, name, expected):
    c = request.getfixturevalue(name)
    for alg in (c.algebra, c.algebra.opposite()):
        sampled, _ = sampled_shape(c, alg)
        # every arrow into or out of a B-vertex zero on the radicals; with the
        # A-vertices successor-closed these are the arrows out of B-vertices
        touching_b = [arr for arr in alg.quiver.arrows
                      if arr.source in c.b_vertices or arr.target in c.b_vertices]
        assert sampled == (morita.nonzero_on_radicals(alg, touching_b) is None)
        if alg.quiver.successor_closure(c.a_vertices) == c.a_vertices:
            out_of_b = [arr for arr in alg.quiver.arrows if arr.source in c.b_vertices]
            assert sampled == (morita.nonzero_on_radicals(alg, out_of_b) is None)
    entry = morita._block_lit_entry(c)
    old = sampled_block_lit(c)
    assert (entry and entry.witness["algebra"]) == (old and old[0]) == expected
    if expected:
        assert set(old[1]) <= set(entry.witness["v_simple_classes"])


def test_certificates_draw_no_random_module(monkeypatch):
    draws = []
    random_module = repmod.random_module

    def spy(alg, seed, size_bound=12):
        draws.append(seed)
        return random_module(alg, seed, size_bound)

    monkeypatch.setattr(repmod, "random_module", spy)
    fx = verify.Fixtures()
    assert verify.criterion_3(fx, DEFAULT)["passed"]
    assert cli.main(["split-check", "exC.glue"]) == 0
    for c in (fx.exC, fx.exCop, fx.remark54, fx.rsz):
        morita.classify_gluing(c)
    assert draws == []


def test_g_functors(rsz, remark54):
    for c in (rsz, remark54):
        aop = c.left.opposite()
        for seed in range(10):
            m = repmod.random_module(aop, seed, 8)
            gm = morita.g_a(c, m)
            assert repmod.validate(gm) is None
            assert repmod.restrict_rep(aop, gm).equals(m)
        assert morita.g_a(c, repmod.zero_rep(aop)).is_zero
        cop = c.algebra.opposite()
        for v in aop.quiver.vertices:
            iso = decomp.is_isomorphic(morita.g_a(c, aop.projective(v)),
                                       cop.projective(v))
            assert iso.verdict == "yes"
    bop = rsz.right.opposite()
    for v in bop.quiver.vertices:
        iso = decomp.is_isomorphic(morita.g_b(rsz, bop.projective(v)),
                                   rsz.algebra.opposite().projective(v))
        assert iso.verdict == "yes"


def test_g_commutes_with_omega_bar(rsz):
    aop = rsz.left.opposite()
    opreg = aop.registry()
    for seed in range(10):
        m = repmod.random_module(aop, seed + 77, 8)
        lhs = gk.class_vector(homology.syzygy(morita.g_a(rsz, m)))
        rhs = {}
        for eid, mult in gk.class_vector(homology.syzygy(m)).items():
            for j, k in gk.class_vector(morita.g_a(rsz, opreg.rep(eid))).items():
                rhs[j] = rhs.get(j, 0) + mult * k
        assert lhs == {k: v for k, v in rhs.items() if v}


def test_check_h4_variants(exC, remark54):
    rb = morita.check_h4(exC, DEFAULT, "boundary")
    assert rb.status == "finitely_generated"
    assert rb.a_orbit.reached == ()  # the A part of Omega_C(B0) vanishes
    regB = exC.right.registry()
    assert set(rb.b_orbit.reached) == {regB.simple_ids["1"], regB.simple_ids["2"]}
    rf = morita.check_h4(exC, DEFAULT, "full")
    assert rf.status == "inconclusive"  # the A-side seed grows
    assert rf.b_orbit.closed and not rf.a_orbit.closed
    r54 = morita.check_h4(remark54, DEFAULT, "boundary")
    assert r54.status == "finitely_generated"
    # Pi_A(Omega_C(B0)) is the projective P0 of A: orbit closed immediately
    regA = remark54.left.registry()
    assert set(r54.a_orbit.reached) <= {regA.projective_ids["0"]}


def test_check_h4_takes_omega_of_the_simples_under_the_block_cap(exC):
    # Omega_C(S0) over exC has 8 dims, Omega_C(S1) and Omega_C(S2) 2 each:
    # at a cap of 7 both variants stop at Omega^1 of a sum holding S0, and
    # say so in both orbits
    for variant in ("boundary", "full"):
        r = morita.check_h4(exC, Budgets(max_dim=7), variant)
        assert r.status == "inconclusive"
        for orbit in (r.a_orbit, r.b_orbit):
            assert (orbit.closed, orbit.reached) == (False, ())
            assert orbit.note == "a block of Omega^1 has dimension 8 > cap 7"


def test_probabilistic_orbits_are_not_finitely_generated(probabilistic_registry_decompositions):
    # exC's boundary variant closes both orbits and rsz's sides are syzygy
    # finite (the tests above and below); with the decompositions under them
    # probabilistic, neither is claimed
    exC = cli.load_glue_file("exC.glue")
    rsz = cli.load_glue_file("rad-square-zero-pair.glue")
    rb = morita.check_h4(exC, DEFAULT, "boundary")
    assert rb.b_orbit.closed and not rb.b_orbit.certified
    assert rb.status == "inconclusive"
    side = morita._machine_side_status(rsz.left, DEFAULT)
    assert side.syzygy_finite is None and side.it_level is None
    probabilistic_registry_decompositions.undo()
    exC = cli.load_glue_file("exC.glue")
    rsz = cli.load_glue_file("rad-square-zero-pair.glue")
    assert morita.check_h4(exC, DEFAULT, "boundary").status == "finitely_generated"
    assert morita._machine_side_status(rsz.left, DEFAULT).syzygy_finite["n"] == 1


def test_cross_parts_projective_on_disjoint_generated(rsz):
    # one-sided modules have projective opposite-side syzygy parts
    alg = rsz.algebra
    reg = alg.registry()
    for seed in range(10):
        ma = repmod.random_module(rsz.left, seed, 8)
        om = homology.syzygy(repmod.extend_rep(alg, ma))
        parts = morita.one_sided_parts(rsz, om)
        assert parts is not None
        b_part = parts[1]
        if b_part.is_zero:
            continue
        res = decomp.decompose(b_part.strip())
        assert all(reg.is_projective(i) for i, _ in res.items)


# the boundary class map f from classes over C^op to triples (A^op classes,
# B^op classes, connector-source simples), defined for gluings whose ideal is
# the generated set; an oracle of the opposite-gluing proposition


class FTriple(NamedTuple):
    a_part: dict  # class vector over A^op (projectives dropped)
    b_part: dict  # class vector over B^op
    t_part: dict  # vertex -> multiplicity of connector-source simples


def _t_vertices_op(c):
    """Connector sources in the opposite algebra (= targets in C).

    f singles out the simples at these vertices; with the source-side set it
    would identify a connector-receiving simple with the two-dimensional
    module restricting identically.
    """
    return frozenset(x.target for x in c.spec.alphas + c.spec.betas)


def f_map(c, eid, budgets=DEFAULT):
    """The three-case class assignment on an indecomposable over C^op."""
    assert c.flags["generated"]
    cop = c.algebra.opposite()
    reg = cop.registry()
    rep = reg.rep(eid)
    # case 1: a simple at a connector source of the opposite algebra
    if rep.total_dim == 1:
        v0 = next(v for v, d in rep.dims.items() if d)
        if v0 in _t_vertices_op(c):
            return FTriple({}, {}, {v0: 1})
    tops = reg.entries[eid].fp[1]
    tsupp = frozenset(v for v, d in zip(cop.quiver.vertices, tops) if d)
    if tsupp <= c.a_vertices:
        part = repmod.restrict_rep(c.left.opposite(), rep)
        return FTriple(gk.class_vector(part, budgets), {}, {})
    assert tsupp <= c.b_vertices, f"class {eid} has mixed-side top; f is undefined on it"
    part = repmod.restrict_rep(c.right.opposite(), rep)
    return FTriple({}, gk.class_vector(part, budgets), {})


def f_vec(c, vec, budgets=DEFAULT):
    """f extended linearly to a class vector."""
    out = FTriple({}, {}, {})
    for eid, mult in vec.items():
        for total, part in zip(out, f_map(c, eid, budgets)):
            for k, v in part.items():
                total[k] = total.get(k, 0) + mult * v
                if not total[k]:
                    del total[k]
    return out


def test_f_map_cases(rsz):
    cop = rsz.algebra.opposite()
    reg = cop.registry()
    # simples at connector sources of the opposite algebra go to the third slot
    assert _t_vertices_op(rsz) == frozenset({"b1", "a2"})
    for v0 in sorted(_t_vertices_op(rsz)):
        eid = reg.simple_ids[v0]
        triple = f_map(rsz, eid)
        assert triple.a_part == {} and triple.b_part == {}
        assert triple.t_part == {v0: 1}
    # a one-sided class with top on the A side lands in the first slot
    s = repmod.simple(cop, "a1")
    eid = reg.register(s)
    triple = f_map(rsz, eid)
    assert triple.b_part == {} and triple.t_part == {}
    assert sum(triple.a_part.values()) == 1


def _f_compatibility(c, m, budgets=DEFAULT):
    """Check f([Omega(M)]) = ([Omega(M1)], [Omega(M2)], 0) for t-free classes.

    Returns (status, detail): status in {"ok", "mismatch", "skipped"}.
    """
    cop = c.algebra.opposite()
    vec = gk.class_vector(m, budgets)
    fm = f_vec(c, vec, budgets)
    if fm.t_part:
        return "skipped", "class meets the connector-source simples"
    lhs = f_vec(c, gk.omega_bar(cop, vec, budgets), budgets)
    rhs_a = gk.omega_bar(c.left.opposite(), fm.a_part, budgets)
    rhs_b = gk.omega_bar(c.right.opposite(), fm.b_part, budgets)
    ok = lhs.a_part == rhs_a and lhs.b_part == rhs_b and not lhs.t_part
    detail = "" if ok else (f"lhs=({lhs.a_part},{lhs.b_part},{lhs.t_part}) "
                            f"rhs=({rhs_a},{rhs_b},0)")
    return ("ok" if ok else "mismatch"), detail


def test_f_compatibility_sampled(rsz):
    # f is defined on classes of syzygies, so sample from them
    cop = rsz.algebra.opposite()
    ok = skipped = 0
    for seed in range(50):
        m = homology.syzygy(repmod.random_module(cop, seed + 31, 10))
        if m.is_zero:
            skipped += 1
            continue
        status, detail = _f_compatibility(rsz, m)
        if status == "skipped":
            skipped += 1
            continue
        assert status == "ok", detail
        ok += 1
    assert ok >= 15  # enough samples avoid the connector-source simples


def test_classify_gluing_entries(rsz, exCop):
    report = morita.classify_gluing(rsz, budgets=DEFAULT)
    props = {e.proposition for e in report.entries}
    assert "syzygy_finite_gluing" in props
    assert "igusa_todorov_gluing" in props
    # the exCop fixture realizes the selfinjective-sink-block LIT shape
    report2 = morita.classify_gluing(
        exCop,
        a_status=morita.SideStatus(it_level=None, lit_level=None),
        b_status=morita.SideStatus(
            syzygy_finite={"n": 1, "provenance": "machine"},
            it_level={"n": 1, "provenance": "machine"}),
        budgets=DEFAULT)
    props2 = {e.proposition for e in report2.entries}
    assert "selfinjective_block_lit" in props2
    entry = next(e for e in report2.entries
                 if e.proposition == "selfinjective_block_lit")
    assert entry.witness["block"] == ["0"]


def test_opposite_gluing_witness_stops_at_the_block_cap(remark54):
    # asserted 26-IT sides ask for Omega^1..Omega^26 of C0 over C^op; a block
    # of Omega^3 has 62 dims, above the default cap of 40, so the witness
    # lists Omega^1 and Omega^2 and a check names that block
    asserted = {"n": 26, "provenance": "asserted"}
    report = morita.classify_gluing(remark54, morita.SideStatus(it_level=asserted),
                                    morita.SideStatus(it_level=asserted), DEFAULT)
    entry = next(e for e in report.entries if e.proposition == "opposite_gluing")
    assert [sum(d.values()) for d in entry.witness["v3_dims"]] == [15, 34]
    assert entry.checks == ["syzygies of C0 over C^op stop at the cap: "
                            "a block of Omega^3 has dimension 62 > cap 40"]


def test_lit_both_sides_entry(rsz):
    # generated ideal, disjoint connector endpoints and asserted LIT sides
    report = morita.classify_gluing(
        rsz, morita.SideStatus(lit_level={"n": 1, "provenance": "asserted"}),
        morita.SideStatus(lit_level={"n": 2, "provenance": "asserted"}), DEFAULT)
    entry = next(e for e in report.entries if e.proposition == "lit_both_sides")
    assert entry.conclusion == "C is a 3-LIT algebra"
    assert entry.hypotheses[:2] == ["A is 1-LIT (asserted)", "B is 2-LIT (asserted)"]


def test_classify_product_case(exB):
    report = morita.classify_gluing(_product(exB), budgets=DEFAULT)
    assert any(e.proposition == "product" for e in report.entries)


def test_lit_one_directional_entry(exC):
    # alphas only; assert the B side is LIT and the A side IT to apply the rule
    report = morita.classify_gluing(
        exC,
        a_status=morita.SideStatus(it_level={"n": 1, "provenance": "asserted"}),
        b_status=morita.SideStatus(lit_level={"n": 1, "provenance": "asserted"}),
        budgets=DEFAULT)
    props = {e.proposition for e in report.entries}
    assert "lit_one_directional" in props
