"""Many-vertex families against their counting oracles (see families.py)."""

from collections import Counter

from families import (cyclic_nakayama, nakayama, radical_square_zero, rsz_selfinjective,
                      uniserial_pd)

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


def test_linear_nakayama_pd_and_gldim_follow_the_uniserial_rule():
    for n in (8, 16, 32):
        alg = nakayama(n, 3)
        pds = [uniserial_pd(n, 3, i, 1) for i in range(n)]
        for i, want in enumerate(pds):
            r = homology.pd(repmod.simple(alg, str(i)))
            assert (r.status, r.value) == ("finite", want), (n, i)
        gd = analysis.global_dimension(alg)
        assert (gd.status, gd.value) == ("finite", max(pds)), n
