from collections import Counter

import numpy as np
import pytest

from quivalg import cli, decomp, exactfield as ef, repmod
from quivalg.budgets import DEFAULT, BudgetExceeded


def test_end_algebra_dims(exA, exB):
    assert decomp.end_algebra(repmod.simple(exB, "1")).dim == 1
    two = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0]
    assert decomp.end_algebra(two).dim == 2
    # End(P1) over exB: evaluation at the vertex-1 component
    assert decomp.end_algebra(exB.projective("1")).dim == exB.projective("1").dims["1"]


def test_decompose_examples(exA, exB):
    reg = exB.registry()
    s1, s2 = repmod.simple(exB, "1"), repmod.simple(exB, "2")
    res = decomp.decompose(repmod.direct_sum([s1, s1, s2])[0].strip())
    assert dict(res.items) == {reg.simple_ids["1"]: 2, reg.simple_ids["2"]: 1}
    rad = repmod.radical(exB.projective("1"))[0]
    res2 = decomp.decompose(rad)
    assert dict(res2.items) == {reg.simple_ids["1"]: 1, reg.simple_ids["2"]: 1}
    # the single projective over the local algebra is indecomposable
    resA = decomp.decompose(exA.projective("0"))
    assert len(resA.items) == 1 and resA.items[0][1] == 1
    assert resA.certified


def test_summand_dims_add_up(exB):
    reg = exB.registry()
    for seed in range(20):
        m = repmod.random_module(exB, seed, 10)
        res = decomp.decompose(m.strip())
        total = np.zeros(len(exB.quiver.vertices), dtype=int)
        for eid, k in res.items:
            total += k * np.array(reg.rep(eid).dim_vector())
        assert tuple(total) == m.dim_vector()


def test_krull_schmidt_union(exB):
    for seed in range(30):
        m = repmod.random_module(exB, seed, 9)
        n = repmod.random_module(exB, seed + 500, 9)
        cm = Counter(dict(decomp.decompose(m.strip()).items))
        cn = Counter(dict(decomp.decompose(n.strip()).items))
        cb = Counter(dict(decomp.decompose(
            repmod.direct_sum([m, n])[0].strip()).items))
        assert cm + cn == cb


def _base_change(m, rng):
    p = m.algebra.p
    U = {}
    for v in m.algebra.quiver.vertices:
        d = m.dims[v]
        u = rng.integers(0, p, size=(d, d)).astype(np.int64)
        while d and not ef.is_invertible(u, p):
            u = rng.integers(0, p, size=(d, d)).astype(np.int64)
        U[v] = u if d else ef.zeros(0, 0)
    mats = {}
    for a in m.algebra.quiver.arrows:
        ui = ef.invert(U[a.source], p) if m.dims[a.source] else ef.zeros(0, 0)
        mats[a.name] = ef.matmul(ef.matmul(ui, m.mats[a.name], p), U[a.target], p)
    return repmod.Rep(m.algebra, m.dims, mats)


def test_iso_examples(exB):
    s1, s2 = repmod.simple(exB, "1"), repmod.simple(exB, "2")
    assert decomp.is_isomorphic(s1, s1).verdict == "yes"
    assert decomp.is_isomorphic(s1, s2).verdict == "no"
    rng = np.random.default_rng(7)
    for seed in range(5):
        m = repmod.random_module(exB, seed, 9)
        r = decomp.is_isomorphic(m, _base_change(m, rng))
        assert r.verdict == "yes"
        assert r.witness.is_invertible()


def test_fingerprint_iso_invariance(exB):
    rng = np.random.default_rng(11)
    for seed in range(10):
        m = repmod.random_module(exB, seed, 9)
        assert decomp.fingerprint(m) == decomp.fingerprint(_base_change(m, rng))


def test_registry_canonical_order_and_dedup(exB, a2):
    reg = exB.registry()
    # simples by vertex order first, then projectives
    assert reg.simple_ids == {"1": 0, "2": 1}
    assert reg.projective_ids == {"1": 2, "2": 3}
    assert reg.register(repmod.simple(exB, "1")) == 0
    rng = np.random.default_rng(3)
    m = repmod.random_module(exB, 9, 9)
    pieces, _ = decomp.indecomposable_pieces(m.strip(), rng, 40)
    ids = sorted({reg.register(x) for x in pieces})
    ids2 = sorted({reg.register(_base_change(x, rng)) for x in pieces})
    assert ids == ids2
    # P2 over a2 is the simple S2: the registry merges them
    rega = a2.registry()
    assert rega.projective_ids["2"] == rega.simple_ids["2"]
    assert rega.is_projective(rega.simple_ids["2"])


def test_decompose_budget(exB):
    big = repmod.direct_sum([exB.projective("1")] * 20)[0].strip()
    with pytest.raises(BudgetExceeded):
        decomp.decompose(big, budgets=DEFAULT)


def test_lift_idempotent_helper(exB):
    # a projection perturbed by a nilpotent part lifts back to an idempotent
    from quivalg.decomp import _lift_idempotent

    p = exB.p
    s1 = repmod.simple(exB, "1")
    m = repmod.direct_sum([s1, s1])[0].strip()
    e = {"1": np.array([[1, 1], [0, 0]], dtype=np.int64),
         "2": ef.zeros(0, 0)}
    lifted = _lift_idempotent(m, e, p)
    assert lifted is not None
    sq = {v: ef.matmul(lifted[v], lifted[v], p) for v in lifted}
    assert all(np.array_equal(sq[v], lifted[v]) for v in lifted)
    assert ef.rank_fp(lifted["1"], p) == 1


def test_zero_module_paths(exB):
    from quivalg import grothendieck as gk, homology

    z = repmod.zero_rep(exB)
    assert decomp.decompose(z).items == ()
    assert homology.syzygy(z).is_zero
    assert homology.pd(z).value == 0
    r = gk.phi(z)
    assert r.value == 0 and r.certified
    assert repmod.loewy_length(z) == 0


def test_registry_dump_schema(exB):
    dump = exB.registry().dump()
    assert all(set(e) == {"id", "dims", "fingerprint", "projective", "syzygy"}
               for e in dump)
    ids = [e["id"] for e in dump]
    assert ids == sorted(ids)


def test_field_endomorphism_algebra_certified_in_quotient():
    # a Kronecker module at a degree-2 point over F_3 has End(M) = F_9: no
    # element splits it, so locality is certified in E/rad(E) by an element
    # whose minimal polynomial is irreducible of full degree
    kron = cli.parse_algebra("algebra K field 3 truncate 5\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()
    m = repmod.Rep(kron, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[0, 1], [2, 0]]})
    assert decomp.end_algebra(m).dim == 2
    pieces, certified = decomp.indecomposable_pieces(m, np.random.default_rng(0), 5)
    assert certified and len(pieces) == 1
    _check_quotient_mult(m)


def test_quotient_algebra_multiplication(exB, a2):
    # E/rad(E) with a nonzero radical: P1 + S1 over exB
    _check_quotient_mult(repmod.direct_sum([exB.projective("1"), repmod.simple(exB, "1")])[0])
    # End = M_2(F), on a module that is zero at vertex 2
    _check_quotient_mult(repmod.power(repmod.simple(a2, "1"), 2))


def _check_quotient_mult(m):
    """S.mult on the images of basis elements equals the image of their composite."""
    E = decomp.end_algebra(m)
    S = decomp._QuotientAlgebra(E, decomp._radical_rows(E))
    unit = np.eye(E.dim, dtype=np.int64)
    for i in range(E.dim):
        for j in range(E.dim):
            prod = E.coordinates(E.compose(E.basis[i].mats, E.basis[j].mats))
            assert np.array_equal(E.structure_constants()[i, j], prod)
            got = S.mult(S.project(unit[i]), S.project(unit[j]))
            assert np.array_equal(got, S.project(prod))
