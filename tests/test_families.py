"""Many-vertex families against their counting oracles (see families.py)."""

from collections import Counter

from families import (cyclic_nakayama, nakayama, projective_length, radical_square_zero,
                      rsz_phi, rsz_selfinjective, uniserial, uniserial_dims, uniserial_pd)
from population import modules

from quivalg import analysis, decomp, grothendieck, homology, repmod

SIZES = (2, 3, 5, 8, 16, 32)
LENGTHS = (2, 3, 4)


def test_selfinjective_exactly_on_the_cyclic_nakayama_algebras():
    for n in SIZES:
        for length in LENGTHS:
            assert homology.selfinjectivity(cyclic_nakayama(n, length)), (n, length)
            assert not homology.selfinjectivity(nakayama(n, length)), (n, length)


def test_the_only_selfinjective_successor_closure_of_a_linear_nakayama_is_its_sink():
    for n in SIZES:
        for length in LENGTHS:
            alg = nakayama(n, length)
            for i in range(n):
                closure = frozenset(str(j) for j in range(i, n))
                want = i == n - 1
                assert homology.selfinjective_block(alg, closure) is want, (n, length, i)


def test_radical_square_zero_selfinjective_iff_in_and_out_degrees_agree():
    selfinjective = 0
    for seed in range(300):
        alg, edges = radical_square_zero(seed)
        want = rsz_selfinjective(len(alg.quiver.vertices), edges)
        assert homology.selfinjectivity(alg) is want, (seed, edges)
        selfinjective += want
    assert 100 <= selfinjective <= 200


def test_radical_square_zero_syzygy_of_a_simple_is_the_simples_at_its_arrows():
    # Omega S_v = rad P_v = the sum of S_w over the arrows v -> w, with multiplicity
    simples = 0
    for seed in range(60):
        alg, edges = radical_square_zero(seed)
        reg = alg.registry()
        for v in alg.quiver.vertices:
            want = Counter(reg.simple_ids[str(t)] for s, t in edges if str(s) == v)
            got = Counter()
            for eid, mult in homology.syzygy_class(alg, reg.simple_ids[v]):
                got[eid] += mult
            assert got == want, (seed, v, edges)
            simples += 1
    assert simples == 207


def test_radical_square_zero_phi_follows_the_arrow_adjacency_matrix():
    # phi of population.modules over radical-square-zero seeds 0-59 against
    # rsz_phi, which counts the trace off the arrows: every trace the walk
    # took is a prefix of the counted one, and every answer is certified
    # with the counted phi
    certificates, values = Counter(), Counter()
    for seed in range(60):
        alg, edges = radical_square_zero(seed)
        reg = alg.registry()
        for m in modules(alg):
            res = grothendieck.phi(m)
            reps = [reg.rep(i) for i, _ in decomp.decompose(m).items]
            trace, value = rsz_phi(alg, edges, reps, len(res.trace))
            assert res.trace == trace[:len(res.trace)], (seed, res.trace, trace)
            assert res.certified and res.value == value, (seed, res, trace)
            certificates[res.certificate] += 1
            values[value] += 1
    assert certificates == {"rank_zero": 189, "theorem_selfinjective": 139,
                            "indec_infinite_pd": 63, "finite_pd": 39, "orbit_cycle": 17}
    assert values == {0: 403, 1: 24, 2: 11, 3: 9}


def test_syzygy_class_of_a_uniserial_follows_the_uniserial_rule():
    # Omega M(i, l) = M(i + l, len P_i - l), by dim vector, over N(n, L) and
    # over C(n, L), where len P_i = L and vertices are taken mod n;
    # M(i, len P_i) is P_i, whose syzygy is zero
    uniserials = 0
    for n in SIZES:
        for length in LENGTHS:
            for alg, lengths in ((nakayama(n, length),
                                  [projective_length(n, length, i) for i in range(n)]),
                                 (cyclic_nakayama(n, length), [length] * n)):
                reg = alg.registry()
                for i, top in enumerate(lengths):
                    for l in range(1, top + 1):
                        eid = reg.register(uniserial(alg, i, l))
                        got = [tuple(reg.rep(j).dim_vector())
                               for j, mult in homology.syzygy_class(alg, eid) for _ in range(mult)]
                        want = [uniserial_dims(n, i + l, top - l)] if l < top else []
                        assert got == want, (alg.name, i, l)
                        uniserials += 1
    assert uniserials == 1129


def test_phi_over_a_linear_nakayama_registers_only_uniserials():
    # every indecomposable over N(n, L) is some M(i, l): each class phi's walk
    # registers has a 0/1 dim vector on an interval of length at most L, and
    # no two classes share one
    classes = 0
    for n in (4, 8, 16):
        for length in LENGTHS:
            alg = nakayama(n, length)
            for seed in range(20):
                grothendieck.phi(repmod.random_module(alg, seed, 12))
            dims = [e.rep.dim_vector() for e in alg.registry().entries]
            want = {uniserial_dims(n, i, l) for i in range(n)
                    for l in range(1, projective_length(n, length, i) + 1)}
            assert set(dims) <= want and len(set(dims)) == len(dims), (n, length)
            classes += len(dims)
    assert classes == 207


def test_linear_nakayama_pd_and_gldim_follow_the_uniserial_rule():
    for n in (8, 16, 32):
        alg = nakayama(n, 3)
        pds = [uniserial_pd(n, 3, i, 1) for i in range(n)]
        for i, want in enumerate(pds):
            r = homology.pd(repmod.simple(alg, str(i)))
            assert (r.status, r.value) == ("finite", want), (n, i)
        gd = analysis.global_dimension(alg)
        assert (gd.status, gd.value) == ("finite", max(pds)), n
