"""Many-vertex families against their counting oracles (see families.py)."""

from collections import Counter

from families import (cyclic_nakayama, nakayama, projective_length, radical_square_zero,
                      rsz_selfinjective, uniserial, uniserial_dims, uniserial_pd)

from quivalg import analysis, homology, repmod

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


def test_linear_nakayama_pd_and_gldim_follow_the_uniserial_rule():
    for n in (8, 16, 32):
        alg = nakayama(n, 3)
        pds = [uniserial_pd(n, 3, i, 1) for i in range(n)]
        for i, want in enumerate(pds):
            r = homology.pd(repmod.simple(alg, str(i)))
            assert (r.status, r.value) == ("finite", want), (n, i)
        gd = analysis.global_dimension(alg)
        assert (gd.status, gd.value) == ("finite", max(pds)), n
