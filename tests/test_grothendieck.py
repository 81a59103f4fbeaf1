import functools
import pathlib
from collections import Counter

from families import nakayama
from phi_walk_oracle import oracle_phi
from population import modules, population

import quivalg
from quivalg import cli, decomp, exactfield as ef, grothendieck as gk, homology, repmod
from quivalg.budgets import DEFAULT, Budgets


def test_class_vector_examples(exB):
    reg = exB.registry()
    assert gk.class_vector(exB.projective("1")) == {}
    s1 = repmod.simple(exB, "1")
    assert gk.class_vector(repmod.power(s1, 2)) == {reg.simple_ids["1"]: 2}
    mix = repmod.direct_sum([s1, exB.projective("1")])[0]
    assert gk.class_vector(mix) == {reg.simple_ids["1"]: 1}


def test_probabilistic_syzygy_decomposition_weakens_phi_and_pd(
        probabilistic_registry_decompositions):
    # Omega(S1) over A2 is P2: phi(S1) = pd(S1) = 1 rest on that one
    # syzygy decomposition, here reported as probabilistic
    alg = cli.load_algebra_file("a2.alg")
    s1 = repmod.simple(alg, "1")
    r = gk.phi(s1)
    assert (r.value, r.certificate) == (1, "finite_pd")
    assert not r.certified and r.status == "probabilistic"
    d = homology.pd(s1)
    assert (d.status, d.value, d.certified) == ("finite", 1, False)
    assert cli._pd_json(d)["certified"] is False
    probabilistic_registry_decompositions.undo()
    fresh = cli.load_algebra_file("a2.alg")
    assert gk.phi(repmod.simple(fresh, "1")).status == "certified"
    assert "certified" not in cli._pd_json(homology.pd(repmod.simple(fresh, "1")))


def test_omega_bar_examples(exB, a2):
    regB = exB.registry()
    v = gk.class_vector(repmod.simple(exB, "1"))
    img = gk.omega_bar(exB, v)
    assert img == {regB.simple_ids["1"]: 1, regB.simple_ids["2"]: 1}
    rega = a2.registry()
    v2 = gk.class_vector(repmod.simple(a2, "1"))
    assert gk.omega_bar(a2, v2) == {}  # the syzygy is projective
    assert gk.omega_bar(a2, {}) == {}


def test_subgroup_add(exB):
    s1 = repmod.simple(exB, "1")
    s2 = repmod.simple(exB, "2")
    assert gk.lattice_rank_of(gk.subgroup_add(repmod.direct_sum([s1, s2])[0])) == 2
    assert gk.lattice_rank_of(gk.subgroup_add(repmod.power(s1, 5))) == 1
    assert gk.lattice_rank_of(gk.subgroup_add(exB.projective("1"))) == 0


def test_rank_traces(exB, a2):
    both = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0]
    assert gk.phi(both).trace[:3] == [2, 1, 1]
    assert gk.phi(repmod.simple(a2, "1")).trace == [1, 0]
    assert gk.phi(a2.projective("1")).trace == [0]


def test_phi_examples(exA, exB, a2):
    both = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0]
    r = gk.phi(both)
    assert (r.value, r.certified, r.certificate) == (1, True, "orbit_cycle")
    r2 = gk.phi(repmod.simple(a2, "1"))
    assert (r2.value, r2.certificate) == (1, "finite_pd")
    assert homology.pd(repmod.simple(a2, "1")).value == 1
    r3 = gk.phi(repmod.random_module(exA, 8, 10))
    assert r3.value == 0 and r3.certified


def test_phi_trace_non_increasing(exB):
    for seed in range(20):
        r = gk.phi(repmod.random_module(exB, seed, 10))
        assert all(r.trace[i + 1] <= r.trace[i] for i in range(len(r.trace) - 1))


def test_plateau_implies_injectivity(exB):
    # consecutive equal ranks mean the map between those lattices is injective:
    # verified here by checking image rank equals source rank at the plateau
    both = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0]
    gens = gk.subgroup_add(both)
    img = [gk.omega_bar(exB, g) for g in gens]
    img2 = [gk.omega_bar(exB, g) for g in img]
    assert gk.lattice_rank_of(img) == gk.lattice_rank_of(img2) == 1


def test_phi_dim_over(exB, a2):
    s1, s2 = repmod.simple(exB, "1"), repmod.simple(exB, "2")
    both = repmod.direct_sum([s1, s2])[0]
    r = gk.phi_dim_over([s1, s2, both])
    assert r.value == 1 and r.all_certified
    projs = [a2.projective(v) for v in a2.quiver.vertices]
    assert gk.phi_dim_over(projs).value == 0
    simples = [repmod.simple(a2, v) for v in a2.quiver.vertices]
    assert gk.phi_dim_over(simples).value == 1


def test_trace_against_module_level_oracle(exB, a2):
    # dual route: rebuild each trace entry from actual syzygy modules
    # Omega^k(S) of the distinct summands, bypassing the class-level cache
    for alg in (exB, a2):
        reg = alg.registry()
        for seed in range(8):
            m = repmod.random_module(alg, seed, 8)
            res = gk.phi(m)
            gens = [reg.rep(i) for i in sorted(gk.class_vector(m))]
            if not gens:
                assert res.trace == [0]
                continue
            mods = list(gens)
            for depth in range(1, min(len(res.trace), 4)):
                mods = [homology.syzygy(x) for x in mods]
                vecs = [gk.class_vector(x.strip()) for x in mods]
                assert gk.lattice_rank_of(vecs) == res.trace[depth], \
                    (alg.name, seed, depth)


def _vanishing_index(alg, vec, budgets=DEFAULT):
    """Least n with Omega-bar^n(vec) = 0, or None within the depth budget.

    For a module whose summands all have finite pd, phi is the largest
    vanishing index over its classes: an oracle for the trace computation.
    """
    cur = dict(vec)
    for n in range(budgets.depth + 1):
        if not cur:
            return n
        cur = gk.omega_bar(alg, cur, budgets)
    return None


def test_vanishing_index_matches_phi_when_finite(a2, nak_a3):
    for alg in (a2, nak_a3):
        for seed in range(10):
            m = repmod.random_module(alg, seed, 8)
            res = gk.phi(m)
            if res.certificate not in ("finite_pd", "rank_zero"):
                continue
            vec = gk.class_vector(m)
            if not vec:
                assert res.value == 0
                continue
            indices = [_vanishing_index(alg, {i: 1}) for i in vec]
            assert None not in indices
            assert res.value == max(indices)



# -- the phi table on the registry ---------------------------------------------


def test_phi_table_keeps_no_budget_stop():
    # a budget stop is not stored: once a larger max_dim has cached the
    # syzygy, the small budget walks on, as on a registry that never stopped
    small, large = Budgets(max_dim=2), Budgets(max_dim=40)

    def run(budgets):
        s = repmod.simple(cli.load_glue_file("remark54.glue").algebra, "v")
        return [gk.phi(s, b) for b in budgets]

    first, _, last = run([small, large, small])
    assert first.certificate == "budget"
    assert last == run([large, small])[-1]
    assert last.certificate == "finite_pd"


def test_phi_of_an_equal_content_copy_walks_nothing(exB, monkeypatch):
    both = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0].strip()
    first = gk.phi(both)
    calls = []
    for mod, name in ((homology, "syzygy_class"), (ef, "lattice_rank")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert gk.phi(both.strip()) == first
    assert calls == []


def test_phi_answers_own_their_traces(exB):
    m = repmod.random_module(exB, 3, 10)
    first = gk.phi(m)
    trace = list(first.trace)
    first.trace.append(99)
    second = gk.phi(m.strip())
    assert second.trace == trace
    second.trace[0] = -1
    assert gk.phi(m).trace == trace


def test_decompose_hit_returns_the_loop_result(exB):
    parts = [repmod.random_module(exB, seed, 6) for seed in (3, 4)]
    summed = repmod.direct_sum(parts + parts[:1])[0]
    looped = decomp.decompose(summed)
    block = summed.strip()
    assert decomp.decompose(block) == looped
    assert decomp.decompose(block.strip()) == looped
    zero = repmod.zero_rep(exB)
    assert decomp.decompose(zero) == decomp.DecomposeResult((), True, DEFAULT.confidence)


# -- the closure certificate against the three-branch walk ---------------------


def test_closure_needs_every_syzygy_class_of_f_reached():
    # over N(4, 2) Omega S_i = S_(i+1) and S_3 = P_3: the simples close only
    # once the chain is reached, and T is nilpotent with Fitting index 3
    alg = nakayama(4, 2)
    ids = [alg.registry().simple_ids[v] for v in "012"]
    assert gk._closed(alg, set(ids[:2]), DEFAULT) is None
    assert gk._closed(alg, set(ids), DEFAULT) == (sorted(ids), 3)


def test_phi_stream_takes_each_block_verdict_once(monkeypatch):
    # the cold half of the seed-0 phi-stream pass, as the benchmark builds it:
    # each class's selfinjective-block verdict is taken once, on its registry
    # entry, however often the walk's closure rule and pd read it
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    calls, covering = Counter(), homology.covering_selfinjective_block
    monkeypatch.setattr(homology, "covering_selfinjective_block",
                        lambda alg, support: calls.update([alg]) or covering(alg, support))
    ops = workloads.PhiStream(quivalg, 0).prepare()
    for op in ops[:len(ops) // 2]:
        op.run()
    assert calls == {alg: sum(e.block is not False for e in alg.registry().entries)
                     for alg in calls}
    assert {alg.name: (n, len(alg.registry().entries)) for alg, n in calls.items()} == {
        "a2": (1, 3), "exB": (13, 15), "nakayama-selfinj": (5, 8), "nakayama-a3": (2, 5),
        "exA": (12, 14), "exCop": (20, 23), "rsz-pair": (12, 16), "remark54": (8, 12)}


@functools.cache
def _compared():
    """phi against oracle_phi on every module of the population: the counts,
    and each (module, answer) that phi certifies where the oracle stopped on
    a budget."""
    counts, fresh = Counter(), []
    for group, alg in population():
        for m in modules(alg):
            new, old = gk.phi(m), oracle_phi(m)
            counts[group, "ops"] += 1
            if old.certificate in ("budget", "depth_budget"):
                if new.certified:
                    counts[group, "newly certified"] += 1
                    fresh.append((m, new, DEFAULT))
                else:
                    assert (new.value, new.certificate, new.trace) == \
                        (old.value, old.certificate, old.trace)
                continue
            assert (new.value, new.certified, new.status) == (old.value, old.certified, old.status)
            if new.certificate != old.certificate:
                # a selfinjective block that covers the support from depth d
                # on is the one certificate the closure rule renames
                assert old.certificate == "theorem_selfinjective" and " from depth " in old.note
                counts[group, f"{old.certificate} -> {new.certificate}"] += 1
            if len(new.trace) > len(old.trace):
                # such an answer gains the plateau step that orbit_cycle shows
                assert new.trace == old.trace + old.trace[-1:] and new.certificate == "orbit_cycle"
                counts[group, "one plateau step longer"] += 1
            elif new.trace != old.trace:
                assert new.trace == old.trace[:len(new.trace)] and new.certificate == "orbit_cycle"
                counts[group, "shorter"] += 1
    return counts, fresh


def test_phi_agrees_with_the_three_branch_walk():
    counts, _ = _compared()
    assert dict(counts) == {
        ("fixtures", "ops"): 152,
        ("fixtures", "shorter"): 7,
        ("fixtures", "newly certified"): 4,
        ("fixtures", "theorem_selfinjective -> rank_one_persistent"): 1,
        ("families", "ops"): 408,
        ("radical square zero", "ops"): 447,
        ("radical square zero", "shorter"): 14,
        ("radical square zero", "theorem_selfinjective -> orbit_cycle"): 3,
        ("radical square zero", "one plateau step longer"): 3,
        ("generated", "ops"): 535,
        ("generated", "shorter"): 29,
        ("generated", "theorem_selfinjective -> orbit_cycle"): 11,
        ("generated", "one plateau step longer"): 11,
    }


def test_newly_certified_traces_stay_flat_at_a_cap_of_170():
    # the closure rule's gate: each answer certified where the three-branch
    # walk stopped on a budget, over the population above and the modules the
    # phi-stream benchmark draws over exCop at seeds 0-9 (one fresh algebra
    # per seed, as its cold half), is walked again by the oracle with a cap
    # of 170: the value is the same and the trace stays flat past the depth
    # where the closure rule stopped
    fresh = list(_compared()[1])
    for seed in range(10):
        alg = cli.load_glue_file("exCop.glue").algebra
        budgets = Budgets(seed=seed)
        for i in range(12):
            m = repmod.random_module(alg, (seed << 16) + i, 12)
            new, old = gk.phi(m, budgets), oracle_phi(m, budgets)
            if new.certified and not old.certified:
                fresh.append((m, new, budgets))
    depths = Counter()
    for m, new, budgets in fresh:
        far = oracle_phi(m, Budgets(seed=budgets.seed, max_dim=170))
        stop = len(new.trace) - 1
        assert far.value == new.value
        assert far.trace[:stop + 1] == new.trace
        assert set(far.trace[stop:]) == {new.trace[-1]}
        depths[stop, len(far.trace) - 1] += 1
    # (closure stop, oracle depth at a cap of 170): 33 answers, 4 of them
    # from the population
    assert dict(depths) == {(2, 8): 2, (2, 9): 1, (3, 6): 2, (3, 9): 8, (3, 10): 15, (3, 11): 5}
