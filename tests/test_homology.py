import sys
import traceback
from collections import Counter

import pytest
from families import cyclic_nakayama, ladder, nakayama, radical_square_zero
from pd_bfs_oracle import oracle_pd_class
from population import modules, population
from random_algebra import TRUNCATION, random_presentation
from selfinjective_oracle import restricted_algebra

from quivalg import analysis, cli, decomp, exactfield as ef, grothendieck, homology, repmod
from quivalg.budgets import DEFAULT, BudgetExceeded, Budgets
from quivalg.pathalgebra import build_algebra


def test_cover_examples(exB, a2):
    s1 = repmod.simple(exB, "1")
    cover, epi = homology.projective_cover(s1)
    assert cover.equals(exB.projective("1"))
    assert epi.is_surjective()
    # cover of a projective is itself
    cover2, _ = homology.projective_cover(exB.projective("2"))
    assert decomp.is_isomorphic(cover2, exB.projective("2")).verdict == "yes"
    # cover of rad P1 = P1 + P2 over the radical-square-zero algebra
    rad = repmod.radical(exB.projective("1"))[0]
    cover3, _ = homology.projective_cover(rad)
    assert cover3.dims == {"1": 3, "2": 3}


def test_cover_minimality_asserted(exB):
    # minimal: the kernel of the cover lies in the radical of the cover
    p = exB.p
    for seed in range(10):
        m = repmod.random_module(exB, seed, 10)
        if m.is_zero:
            continue
        cover, epi = homology.projective_cover(m)
        _, rad_inc = repmod.radical(cover)
        for v, mat in epi.mats.items():
            rows = ef.kernel_basis(mat.T, p)
            assert not rows.size or ef.solve(rad_inc.mats[v].T, rows.T, p) is not None


def test_syzygy_examples(exB, a2):
    om = homology.syzygy(repmod.simple(exB, "1"))
    target = repmod.direct_sum([repmod.simple(exB, "1"),
                                repmod.simple(exB, "2")])[0].strip()
    assert decomp.is_isomorphic(om, target).verdict == "yes"
    assert homology.syzygy(exB.projective("1")).is_zero
    om1 = homology.syzygy(repmod.simple(a2, "1"))
    assert decomp.is_isomorphic(om1, a2.projective("2")).verdict == "yes"
    assert homology.syzygy(om1).is_zero


def _kernel(f):
    """Kernel of f with its inclusion into the source: the syzygy oracle."""
    p = f.source.algebra.p
    rows = {v: ef.kernel_basis(f.mats[v].T, p) for v in f.mats}
    return repmod.submodule(f.source, rows)


def test_kernel_examples(a2):
    p1 = a2.projective("1")
    s1 = repmod.simple(a2, "1")
    epi = repmod.hom_basis(p1, s1)[0]
    ker, inc = _kernel(epi)
    assert ker.dims == {"1": 0, "2": 1}  # the radical S2
    assert inc.is_injective() and inc.compose(epi).is_zero()
    ident = repmod.RepMap(p1, p1, {v: ef.eye(p1.dims[v]) for v in p1.dims})
    assert _kernel(ident)[0].is_zero
    zero = repmod.RepMap(p1, s1, {})
    assert _kernel(zero)[0].total_dim == p1.total_dim


def test_syzygy_is_the_kernel_of_a_fresh_cover(exB, a2, nak_a3):
    # the syzygy read off the cached presentation equals the kernel of the
    # epi of a cover built on a fresh copy of the module
    mods = [repmod.simple(exB, "1"), repmod.simple(a2, "1"), exB.projective("1"),
            repmod.radical(exB.projective("1"))[0]]
    mods += [repmod.random_module(alg, seed, 10) for alg in (exB, nak_a3)
             for seed in range(10)]
    for m in mods:
        fresh = repmod.Rep(m.algebra, m.dims, m.mats)
        _, epi = homology.projective_cover(fresh)
        assert homology.syzygy(m).equals(_kernel(epi)[0])


def test_syzygy_blockwise_on_sums(exB):
    m = repmod.random_module(exB, 1, 8)
    n = repmod.random_module(exB, 2, 8)
    both = repmod.direct_sum([m, n])[0]
    lhs = homology.syzygy(both)
    rhs = repmod.direct_sum([homology.syzygy(m), homology.syzygy(n)])[0]
    assert lhs.equals(rhs)


def test_syzygy_dimension_formula(exB):
    for seed in range(10):
        m = repmod.random_module(exB, seed, 10)
        if m.is_zero:
            continue
        cover, _ = homology.projective_cover(m)
        om = homology.syzygy(m)
        for v in exB.quiver.vertices:
            assert om.dims[v] == cover.dims[v] - m.dims[v]


def test_pd_examples(exB, a2):
    assert homology.pd(a2.projective("1")).value == 0
    r = homology.pd(repmod.simple(a2, "1"))
    assert (r.status, r.value) == ("finite", 1)
    r2 = homology.pd(repmod.simple(exB, "1"))
    assert r2.status == "infinite"
    # evidence names one of the sound certificates
    assert r2.evidence["kind"] in ("cycle", "cartan", "selfinjective",
                                   "selfinjective_block")


@pytest.mark.parametrize("seed", [247, 251])
def test_pd_cycle_certificate(seed):
    # two-vertex random algebras where no class is infinite by a shortcut
    # (not selfinjective, no selfinjective block, dims in the Cartan span):
    # the syzygy class graph from S0 returns to S0 in two steps
    quiver, relations, p = random_presentation(seed)
    alg = build_algebra(quiver, relations, p, TRUNCATION)
    s0 = repmod.simple(alg, "0")
    r = homology.pd(s0)
    assert (r.status, r.evidence, r.certified) == (
        "infinite", {"kind": "cycle", "classes": [0, 4, 0], "depth": 2}, True)
    # S0 is a summand of Omega^2(S0), so pd(S0) is infinite
    om2 = homology.omega_power(s0, 2, DEFAULT.max_dim)
    assert alg.registry().simple_ids["0"] in dict(decomp.decompose(om2).items)
    gd = analysis.global_dimension(alg)
    assert (gd.status, gd.witness) == ("infinite", "0")


def test_pd_cycle_rests_on_every_syzygy_around_it():
    # on the seed-247 cycle 0 -> 4 -> 0, class 4's kept answer closes the
    # cycle through S0's syzygy, so it is probabilistic when that one is
    quiver, relations, p = random_presentation(247)
    alg = build_algebra(quiver, relations, p, TRUNCATION)
    s0 = alg.registry().simple_ids["0"]
    homology.syzygy_class(alg, s0)
    alg.registry().entries[s0].syzygy_certified = False
    r = homology.pd(repmod.simple(alg, "0"))
    assert (r.status, r.evidence["classes"], r.certified) == ("infinite", [0, 4, 0], False)
    r = homology.pd_class(alg, 4)
    assert (r.status, r.certified) == ("infinite", False)


def test_pd_selfinjective_shortcut(exA):
    m = repmod.random_module(exA, 4, 10)
    r = homology.pd(m)
    assert r.status in ("finite", "infinite")
    if r.status == "finite":
        assert r.value == 0  # selfinjective: projective or infinite


def test_pd_stopped_on_the_cap_is_walked_again_under_a_larger_cap():
    # an unknown that stopped on the cap says nothing about a larger cap, even
    # at a depth it reached: the walk is taken again, as on a fresh registry
    alg = cli.load_glue_file("remark54.glue").algebra
    m = repmod.random_module(alg, 17, 10)
    r = homology.pd(m, Budgets(max_dim=6))
    assert (r.status, r.evidence, r.depth_reached) == ("unknown", {"kind": "budget"}, 1)
    r = homology.pd(m, Budgets(max_dim=40, depth=1))
    assert (r.status, r.value) == ("finite", 1)


def test_pd_reads_each_class_a_few_times_on_a_graph_of_many_paths(monkeypatch):
    # Fibonacci-many paths lead from S0 to the classes 10 steps away, whose
    # syzygies are not taken: each class is read a bounded number of times,
    # and its Cartan verdict is taken once
    alg = ladder(40)
    reads, known = Counter(), homology._known
    monkeypatch.setattr(homology, "_known",
                        lambda a, node: reads.update([node.id]) or known(a, node))
    verdicts, member = Counter(), homology.cartan_member
    monkeypatch.setattr(homology, "cartan_member",
                        lambda a, dims: verdicts.update([tuple(dims)]) or member(a, dims))
    r = homology.pd(repmod.simple(alg, "0"), Budgets(depth=10))
    assert (r.status, r.evidence, r.depth_reached) == ("unknown", {"kind": "depth"}, 10)
    assert max(reads.values()) <= 4
    assert max(verdicts.values()) == 1
    # at depth 20 every class is within reach: the pass reads pd S0 = 39
    # along the longest path, past the depth
    r = homology.pd(repmod.simple(alg, "0"), Budgets(depth=20))
    assert (r.status, r.value) == ("finite", 39)


def test_pd_walks_a_long_syzygy_chain_with_no_frame_per_class():
    # the orbit takes N(64, 3)'s 42 syzygies from S0 and keeps no pd; the
    # pass then walks that chain past the depth on an explicit stack, under
    # a recursion limit a few frames above the caller's
    alg = nakayama(64, 3)
    s0 = alg.registry().simple_ids["0"]
    assert homology.omega_orbit(alg, [s0]).closed
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 20)
    try:
        r = homology.pd_class(alg, s0, Budgets(depth=1))
    finally:
        sys.setrecursionlimit(limit)
    assert (r.status, r.value) == ("finite", 42)


def _pd_against_the_breadth_first_search(budgets):
    """pd_class against oracle_pd_class on every nonprojective class registered
    over the population, once its modules are decomposed: the oracle's
    statuses by group; each class it left unknown that pd_class decides
    (from an answer kept by an earlier query, or through syzygies taken
    before, past the depth); and each other class whose evidence differs, as
    (algebra, class, the oracle's evidence, pd_class's), the values of each
    evidence dict in order.  Every other answer has the oracle's status,
    value, certified flag and evidence kind."""
    counts, decided, changed = Counter(), [], []
    for group, alg in population():
        for m in modules(alg):
            decomp.decompose(m, budgets)
        for entry in alg.registry().entries:  # the searches append syzygy classes
            if entry.projective:
                continue
            new = homology.pd_class(alg, entry.id, budgets)
            old = oracle_pd_class(alg, entry.id, budgets)
            counts[group, old.status] += 1
            if old.status == "unknown" and new.status != "unknown":
                decided.append((alg.name, entry.id, new.describe()))
                continue
            assert (new.status, new.value, new.certified) == \
                (old.status, old.value, old.certified), (alg.name, entry.id)
            assert (new.evidence or {}).get("kind") == (old.evidence or {}).get("kind")
            if new.evidence != old.evidence:
                changed.append((alg.name, entry.id, tuple(old.evidence.values()),
                                tuple(new.evidence.values())))
    return dict(counts), decided, changed


# the cycle evidence pd_class gives where it differs from the oracle's: its
# classes are the cycle met from the first class queried, which a class can
# inherit from a successor, and its depth is the length of the walked path,
# not the breadth-first level
CHANGED_6_7 = [("rsz6", 2, ("cycle", [2, 2], 1), ("cycle", [0, 2, 0], 2)),
               ("rsz6", 10, ("cycle", [2, 2], 2), ("cycle", [0, 2, 0], 2)),
               ("rsz7", 2, ("cycle", [0, 0], 2), ("cycle", [0, 0], 1))]
CHANGED_37_58 = [("rsz37", 2, ("cycle", [3, 3], 2), ("cycle", [3, 3], 3)),
                 ("rsz37", 3, ("cycle", [3, 3], 1), ("cycle", [3, 3], 3)),
                 ("rsz37", 5, ("cycle", [3, 3], 2), ("cycle", [3, 3], 3)),
                 ("rsz58", 0, ("cycle", [0, 3, 0], 2), ("cycle", [0, 2, 1, 3, 0], 4)),
                 ("rsz58", 1, ("cycle", [0, 3, 0], 3), ("cycle", [0, 2, 1, 3, 0], 4)),
                 ("rsz58", 3, ("cycle", [0, 3, 0], 2), ("cycle", [0, 2, 1, 3, 0], 4))]


def test_pd_agrees_with_the_breadth_first_search_at_the_default_budgets():
    changed = CHANGED_6_7 + [("rsz7", 5, ("cycle", [0, 0], 3), ("cycle", [0, 0], 1)),
                             ("rsz37", 1, ("cycle", [3, 3], 4), ("cycle", [3, 3], 3))]
    assert _pd_against_the_breadth_first_search(DEFAULT) == ({
        ("fixtures", "finite"): 7, ("fixtures", "infinite"): 75,
        ("families", "finite"): 114, ("families", "infinite"): 124,
        ("radical square zero", "finite"): 21, ("radical square zero", "infinite"): 126,
        ("generated", "finite"): 49, ("generated", "infinite"): 200,
    }, [], changed + CHANGED_37_58)


TIGHT = {
    1: ({("fixtures", "finite"): 5, ("fixtures", "infinite"): 75, ("fixtures", "unknown"): 2,
         ("families", "finite"): 50, ("families", "infinite"): 124, ("families", "unknown"): 64,
         ("radical square zero", "finite"): 12, ("radical square zero", "infinite"): 111,
         ("radical square zero", "unknown"): 24,
         ("generated", "finite"): 40, ("generated", "infinite"): 199, ("generated", "unknown"): 10},
        [("nakayama-a3^op", 2, "pd = 2"), ("N(5,3)", 9, "pd = 2"), ("N(6,3)", 11, "pd = 2"),
         ("N(6,3)", 12, "pd = 2"), ("N(6,4)", 11, "pd = 2"), ("N(7,3)", 15, "pd = 2"),
         ("N(7,3)", 16, "pd = 2"), ("N(7,4)", 13, "pd = 2"), ("N(7,4)", 14, "pd = 2"),
         ("N(8,3)", 17, "pd = 2"), ("N(8,3)", 18, "pd = 2"), ("N(8,4)", 16, "pd = 2"),
         ("N(8,4)", 17, "pd = 2"), ("N(8,4)", 18, "pd = 2"),
         ("rsz0", 9, "pd = infinity (cartan)"), ("rsz6", 10, "pd = infinity (cycle)"),
         ("rsz7", 2, "pd = infinity (cycle)"), ("rsz7", 5, "pd = infinity (cycle)"),
         ("rsz37", 4, "pd = infinity (cycle)"), ("rsz37", 5, "pd = infinity (cycle)"),
         ("rsz37", 12, "pd = infinity (cycle)"), ("rsz50", 2, "pd = 3"), ("rsz50", 7, "pd = 3"),
                 ("rsz58", 3, "pd = infinity (cycle)"), ("generated 11", 5, "pd = infinity (cartan)"),
         ("generated 58", 2, "pd = 2"), ("generated 81", 2, "pd = 2"),
         ("generated 84", 5, "pd = 2"), ("generated 96", 5, "pd = 2"),
         ("generated 96", 6, "pd = 2")],
        [("rsz6", 2, ("cycle", [2, 2], 1), ("cycle", [2, 0, 2], 2))]),
    2: ({("fixtures", "finite"): 7, ("fixtures", "infinite"): 75,
         ("families", "finite"): 79, ("families", "infinite"): 124, ("families", "unknown"): 35,
         ("radical square zero", "finite"): 17, ("radical square zero", "infinite"): 119,
         ("radical square zero", "unknown"): 11,
         ("generated", "finite"): 49, ("generated", "infinite"): 200},
        [("N(7,3)", 13, "pd = 4"), ("N(7,3)", 14, "pd = 3"), ("N(8,3)", 15, "pd = 3"),
         ("N(8,3)", 16, "pd = 4"), ("rsz7", 5, "pd = infinity (cycle)"),
         ("rsz37", 4, "pd = infinity (cycle)"), ("rsz37", 12, "pd = infinity (cycle)"),
         ("rsz50", 2, "pd = 3"), ("rsz50", 7, "pd = 3"), ("rsz58", 1, "pd = infinity (cycle)"),
         ("rsz58", 2, "pd = infinity (cycle)")],
        CHANGED_6_7 + [("rsz37", 3, ("cycle", [3, 3], 1), ("cycle", [3, 3], 2))]),
    3: ({("fixtures", "finite"): 7, ("fixtures", "infinite"): 75,
         ("families", "finite"): 99, ("families", "infinite"): 124, ("families", "unknown"): 15,
         ("radical square zero", "finite"): 21, ("radical square zero", "infinite"): 124,
         ("radical square zero", "unknown"): 2,
         ("generated", "finite"): 49, ("generated", "infinite"): 200},
        [("N(7,3)", 13, "pd = 4"), ("N(8,3)", 16, "pd = 4"),
         ("rsz37", 1, "pd = infinity (cycle)"), ("rsz58", 2, "pd = infinity (cycle)")],
        CHANGED_6_7 + [("rsz7", 5, ("cycle", [0, 0], 3), ("cycle", [0, 0], 1))] + CHANGED_37_58),
}


@pytest.mark.parametrize("depth", sorted(TIGHT))
def test_pd_decides_what_the_breadth_first_search_decides_at_tight_budgets(depth):
    # no decided answer changes; the unknowns pd_class decides and the
    # evidence it changes are listed
    assert _pd_against_the_breadth_first_search(Budgets(depth=depth, max_dim=8)) == TIGHT[depth]


def test_orbit_examples(exB, a2):
    regB = exB.registry()
    orbit = homology.omega_orbit(exB, [regB.simple_ids["1"], regB.simple_ids["2"]])
    assert orbit.closed
    assert set(orbit.reached) == {regB.simple_ids["1"], regB.simple_ids["2"]}
    # projective seeds are already closed
    rega = a2.registry()
    orbit2 = homology.omega_orbit(a2, [rega.projective_ids["1"]])
    assert orbit2.closed and orbit2.reached == (rega.projective_ids["1"],)


def test_omega_orbit_stops_at_the_class_budget():
    # the orbit of S1 over exB is S1 and the class of its syzygy
    exB = cli.load_algebra_file("exB.alg")
    seed = exB.registry().simple_ids["1"]
    orbit = homology.omega_orbit(exB, [seed], Budgets(classes=1))
    assert (orbit.closed, orbit.note, len(orbit.reached)) == (False, "class budget exceeded", 2)
    assert orbit.frontier
    assert homology.omega_orbit(exB, [seed], Budgets(classes=2)).closed


def test_syzygy_finite_probe(exB, exA, a2):
    assert homology.syzygy_finite_probe(exB, 1).closed
    assert homology.syzygy_finite_probe(a2, 1).closed
    probe = homology.syzygy_finite_probe(exA, 1)
    assert not probe.closed  # growing syzygies over the local algebra
    # dims strictly increase for the first steps of the orbit
    s0 = repmod.simple(exA, "0")
    d0 = homology.syzygy(s0).total_dim
    d1 = homology.syzygy(homology.syzygy(s0)).total_dim
    assert 1 < d0 < d1


def test_syzygy_finite_probe_builds_no_syzygy_above_the_cap(exCop, monkeypatch):
    # the blocks of Omega^k of the sum of simples over the glued algebra are
    # 31/34/17 dims at k = 3 and 49/82/51 at k = 4: at shift 5 and cap 40
    # the probe opens at Omega^4 and takes no syzygy of a block above the cap
    # (taking them would build the 386-dimensional Omega^5)
    alg = exCop.algebra
    m = repmod.direct_sum([repmod.simple(alg, v) for v in alg.quiver.vertices])[0]
    for k, want in ((3, [31, 34, 17]), (4, [49, 82, 51])):
        assert [b.total_dim for b in homology.omega_power(m, k, 82).summands] == want
    sizes = []
    syzygy = homology.syzygy

    def spy(x):
        sizes.append(x.total_dim)
        return syzygy(x)

    monkeypatch.setattr(homology, "syzygy", spy)
    probe = homology.syzygy_finite_probe(alg, 5, Budgets(max_dim=40))
    assert not probe.closed and "cap 40" in probe.note
    assert sizes and max(sizes) <= 40

def test_module_orbit_opens_on_a_block_above_the_cap_whatever_the_memo(monkeypatch):
    # P1 + P1 over exB as one 6-dimensional block, decomposed at the default
    # cap, so the memo holds it: at a cap of 5 its orbit still opens at
    # Omega^0, with no decomposition and no syzygy
    exB = cli.load_algebra_file("exB.alg")
    m = repmod.direct_sum([exB.projective("1")] * 2)[0].strip()
    decomp.decompose(m)
    monkeypatch.setattr(decomp, "decompose", lambda *a, **k: pytest.fail("decomposed"))
    monkeypatch.setattr(homology, "syzygy", lambda x: pytest.fail("syzygy taken"))
    orbit = homology.module_orbit(m, Budgets(max_dim=5))
    assert not orbit.closed
    assert orbit.note == "a block of Omega^0 has dimension 6 > cap 5"


def test_probabilistic_syzygy_decompositions_leave_orbits_uncertified(
        probabilistic_registry_decompositions):
    # fresh algebras, so no syzygy class is cached from a certified run
    exB, a2 = cli.load_algebra_file("exB.alg"), cli.load_algebra_file("a2.alg")
    regB = exB.registry()
    seeds = [regB.simple_ids["1"], regB.simple_ids["2"]]
    # the orbit visits the syzygy classes of S1 and S2
    orbit = homology.omega_orbit(exB, seeds)
    assert orbit.closed and not orbit.certified
    # Omega(S1 + S2) = P2 over A2: the orbit visits nothing, and only the
    # decomposition of the seed is probabilistic
    probe = homology.syzygy_finite_probe(a2, 1)
    assert probe.closed and probe.reached == (a2.registry().projective_ids["2"],)
    assert not probe.certified
    probabilistic_registry_decompositions.undo()
    exB, a2 = cli.load_algebra_file("exB.alg"), cli.load_algebra_file("a2.alg")
    assert homology.omega_orbit(exB, seeds).certified
    assert homology.syzygy_finite_probe(a2, 1).certified


def test_semisimple_probe_closed():
    from quivalg.pathalgebra import Quiver, build_algebra

    ss = build_algebra(Quiver(["x", "y"], []), [], 101, 30, name="semisimple")
    probe = homology.syzygy_finite_probe(ss, 1)
    assert probe.closed and all(ss.registry().is_projective(i) for i in probe.reached)


def test_selfinjective_block_machinery(exCop):
    cop = exCop.algebra
    assert homology.selfinjective_block(cop, frozenset({"0"}))
    assert not homology.selfinjective_block(cop, frozenset({"1"}))  # not closed
    sub = restricted_algebra(cop, frozenset({"0"}))
    assert sub.dim == 8


def test_pd_on_a_selfinjective_block_names_the_block(exA, exCop):
    # one rule for a selfinjective algebra and for a block of one, taken
    # before the Cartan test: both simples lie off the Cartan span too
    for alg in (exA, exCop.algebra):
        r = homology.pd(repmod.simple(alg, "0"))
        assert (r.status, r.evidence) == (
            "infinite", {"kind": "selfinjective_block", "vertices": ["0"], "class": 0})


def test_cartan_certificate(exB):
    # dim vector (1,0) is outside the Z-span of (2,1) and (1,2)
    assert not homology.cartan_member(exB, (1, 0))
    assert homology.cartan_member(exB, (3, 3))


def test_closed_orbit_is_forward_closed(exB, rsz):
    # closed => the syzygy of every reached nonprojective class decomposes
    # into reached classes
    for alg in (exB, rsz.algebra):
        reg = alg.registry()
        seeds = [reg.simple_ids[v] for v in alg.quiver.vertices]
        orbit = homology.omega_orbit(alg, seeds)
        assert orbit.closed
        reached = set(orbit.reached)
        for eid in orbit.reached:
            if reg.is_projective(eid):
                continue
            assert {j for j, _ in homology.syzygy_class(alg, eid)} <= reached


def test_over_cap_syzygy_is_built_once(monkeypatch):
    # Omega(S0) over exCop has dimension 7: a cap of 6 is checked on the
    # presentation's rows, so both calls raise before any syzygy is built,
    # and a call at the default cap builds it once and answers as a fresh
    # registry does
    alg = cli.load_glue_file("exCop.glue").algebra
    eid = alg.registry().simple_ids["0"]
    built, syzygy = [], homology.syzygy
    monkeypatch.setattr(homology, "syzygy", lambda m: built.append(syzygy(m)) or built[-1])
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match=f"syzygy of class {eid} has dimension 7 > cap"):
            homology.syzygy_class(alg, eid, Budgets(max_dim=6))
        assert not built
    got = homology.syzygy_class(alg, eid)
    assert [m.total_dim for m in built] == [7]
    fresh = cli.load_glue_file("exCop.glue").algebra
    assert got == homology.syzygy_class(fresh, fresh.registry().simple_ids["0"])


def _registered_syzygies_checked(alg) -> int:
    """Walk the orbits of alg's simples, then check every class on a
    selfinjective block whose syzygy class was taken: decompose finds its
    syzygy to be the one certified class that syzygy_class registered."""
    reg = alg.registry()
    homology.omega_orbit(alg, [reg.simple_ids[v] for v in alg.quiver.vertices])
    checked = 0
    for entry in list(reg.entries):
        if entry.syzygy is None or entry.projective:
            continue
        if homology.covering_selfinjective_block(alg, entry.rep.support()) is None:
            continue
        res = decomp.decompose(homology.syzygy(entry.rep))
        assert (res.items, res.certified) == (entry.syzygy, True), (alg.name, entry.id)
        assert len(entry.syzygy) == 1 and entry.syzygy[0][1] == 1
        checked += 1
    return checked


def test_syzygy_on_a_selfinjective_block_is_the_class_decompose_finds():
    counts = {}
    for name in ("exC", "exCop", "remark54", "rad-square-zero-pair"):
        alg = cli.load_glue_file(f"{name}.glue").algebra
        counts[name] = _registered_syzygies_checked(alg), _registered_syzygies_checked(alg.opposite())
    counts["C(n, L)"] = sum(_registered_syzygies_checked(cyclic_nakayama(n, length))
                            for n in range(1, 9) for length in (2, 3, 4))
    counts["radical square zero"] = sum(_registered_syzygies_checked(radical_square_zero(seed)[0])
                                        for seed in range(60))
    assert counts == {"exC": (0, 3), "exCop": (3, 0), "remark54": (3, 0),
                      "rad-square-zero-pair": (0, 0), "C(n, L)": 180, "radical square zero": 67}


def test_large_excop_syzygies_decompose_to_one_certified_class():
    # Omega^4(S0) and Omega^5(S0) over exCop, of 49 and 71 dimensions, lie in
    # the unbounded orbit of its selfinjective block: each is one certified
    # class, split-tested at sizes that no benchmark workload reaches
    alg = cli.load_glue_file("exCop.glue").algebra
    m = homology.omega_power(repmod.simple(alg, "0"), 3, DEFAULT.max_dim)
    for dim, eid in ((49, 6), (71, 7)):
        m = homology.syzygy(m)
        res = decomp.decompose(m, budgets=Budgets(max_dim=80))
        assert (m.total_dim, res.items, res.certified) == (dim, ((eid, 1),), True)


def test_excop_orbit_at_a_cap_of_100_is_registered_not_decomposed(monkeypatch):
    # phi(S0 + S1) over exCop walks the Omega-orbit of its selfinjective block
    # {0}: no syzygy there is decomposed and none above the cap is built.  The
    # classes off the block close modulo it, so the walk stops one step past
    # their Fitting index with a certified answer
    alg = cli.load_glue_file("exCop.glue").algebra
    m = repmod.direct_sum([repmod.simple(alg, "0"), repmod.simple(alg, "1")])[0]
    decomposed, built = [], []
    decompose, syzygy = decomp.decompose, homology.syzygy
    monkeypatch.setattr(decomp, "decompose",
                        lambda x, *a, **k: decomposed.append(x.support()) or decompose(x, *a, **k))
    monkeypatch.setattr(homology, "syzygy", lambda x: built.append(syzygy(x)) or built[-1])
    r = grothendieck.phi(m, Budgets(max_dim=100))
    assert (r.value, r.certified, r.certificate, r.trace) == (0, True, "orbit_cycle", [2, 2, 2])
    assert decomposed and {"0"} not in decomposed
    assert max(x.total_dim for x in built) <= 100
