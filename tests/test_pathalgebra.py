import pytest

from quivalg import exactfield as ef, repmod
from quivalg.pathalgebra import (MalformedRelation, NotAdmissible, Quiver,
                                 Relation, build_algebra)


def test_a2_basis(a2):
    assert a2.dim == 3
    assert set(a2.basis) == {("1", ()), ("2", ()), ("1", ("a",))}


def test_exterior_dim_with_independent_oracle(exA):
    # independent count: degree-wise codimension of the two-sided ideal
    # generated by the degree-2 relations inside the free algebra
    from quivalg.verify import exterior_dim_oracle

    assert exA.dim == 8
    assert exterior_dim_oracle(exA.p) == 8


def test_not_admissible_at_low_truncation():
    q = Quiver(["v"], [("g", "v", "v")])
    with pytest.raises(NotAdmissible):
        build_algebra(q, [[(1, ("g", "g"))]], 101, 1)


def test_malformed_relation():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("l", "2", "2")])
    with pytest.raises(MalformedRelation):
        Relation(q, [(1, ("a",))], 101)  # length 1
    with pytest.raises(MalformedRelation):
        Relation(q, [(1, ("a", "l")), (1, ("l", "l"))], 101)  # non-parallel


@pytest.mark.parametrize("terms,says", [
    ([(1, ())], "no arrows"),
    ([(1, ("a", "zz"))], "unknown arrow 'zz'"),
    ([(1, ("a", "a"))], "do not compose at a"),
    ([(1, ("a", "l")), (-1, ("a", "l"))], "no nonzero term"),
])
def test_relation_rejects_bad_words(terms, says):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("l", "2", "2")])
    with pytest.raises(MalformedRelation, match=says):
        Relation(q, terms, 101)


def test_relation_keys_words_by_their_start():
    # words in any order and with repeats: terms are summed, keyed by
    # (start, arrows) and sorted by key
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")])
    rel = Relation(q, [(2, ("b", "d")), (1, ("a", "c")), (100, ("b", "d"))], 101)
    assert rel.terms == ((1, ("1", ("a", "c"))), (1, ("1", ("b", "d"))))
    assert (rel.source, rel.target) == ("1", "4")
    assert str(rel) == "1 a*c + 1 b*d"


def test_normal_form_examples(exA):
    # basis paths are fixed; gamma_i^2 dies; the commutator rewrites with a sign
    for k in exA.basis:
        assert exA.normal_form({k: 1}) == {k: 1}
    assert exA.normal_form({("0", ("g1", "g1")): 1}) == {}
    nf = exA.normal_form({("0", ("g2", "g1")): 1})
    assert nf == {("0", ("g1", "g2")): exA.p - 1}


def test_normal_form_idempotent(exA):
    elem = {("0", ("g2", "g1")): 3, ("0", ("g3", "g2")): 5, ("0", ()): 1}
    once = exA.normal_form(elem)
    assert exA.normal_form(once) == once


def test_relations_reduce_to_zero(exA, exB, nak_si):
    for alg in (exA, exB, nak_si):
        for rel in alg.relations:
            assert alg.normal_form(rel.element()) == {}


def test_dimension_is_sum_over_starting_vertices(exB):
    total = sum(len(exB.basis_from(v)) for v in exB.quiver.vertices)
    assert total == exB.dim


def test_projectives_are_bound(exA, exB, a2):
    for alg in (exA, exB, a2):
        for v in alg.quiver.vertices:
            assert repmod.validate(alg.projective(v)) is None


def test_projective_dims(exB, a2):
    assert a2.projective("2").dims == {"1": 0, "2": 1}
    assert a2.projective("1").dims == {"1": 1, "2": 1}
    assert exB.projective("1").dims == {"1": 2, "2": 1}


def test_opposite_involution(exA, exB):
    for alg in (exA, exB):
        op = alg.opposite()
        assert op.opposite() is alg
        assert op.dim == alg.dim
        back = {(a.name, a.source, a.target) for a in op.opposite().quiver.arrows}
        orig = {(a.name, a.source, a.target) for a in alg.quiver.arrows}
        assert back == orig


def test_opposite_of_symmetric_presentation_is_isomorphic(exA):
    # the three-loop algebra has symmetric relations: same quiver, same dim
    op = exA.opposite()
    assert [a.name for a in op.quiver.arrows] == [a.name for a in exA.quiver.arrows]
    assert op.dim == exA.dim == 8


def test_opposite_of_a2_reverses(a2):
    op = a2.opposite()
    arrow = op.quiver.arrow_map["a"]
    assert (arrow.source, arrow.target) == ("2", "1")


def test_truncation_discovered(exA, exB, nak_si):
    assert exA.m == 4
    assert exB.m == 2
    assert nak_si.m == 3


def test_groebner_extracts_consequences():
    # <x^3 + x^2, x^4> = <x^2>: the completion must discover x^2
    q = Quiver(["v"], [("x", "v", "v")])
    rels = [
        [(1, ("x",) * 3), (1, ("x",) * 2)],
        [(1, ("x",) * 4)],
    ]
    alg = build_algebra(q, rels, 101, 30)
    assert alg.dim == 2
    assert alg.m == 2
    assert alg.normal_form({("v", ("x", "x")): 1}) == {}


def test_groebner_without_extra_relation_not_admissible():
    # <x^3 + x^2> alone never kills a power of the arrow ideal
    q = Quiver(["v"], [("x", "v", "v")])
    rel = [(1, ("x",) * 3), (1, ("x",) * 2)]
    with pytest.raises(NotAdmissible):
        build_algebra(q, [rel], 101, 12)


def test_commutative_square():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")])
    rel = [(1, ("a", "c")), (-1, ("b", "d"))]
    alg = build_algebra(q, [rel], 101, 30)
    assert alg.dim == 9  # 4 trivial + 4 arrows + one corner path class
    nf = alg.normal_form({("1", ("b", "d")): 1})
    assert nf == {("1", ("a", "c")): 1}
    from quivalg import analysis

    assert analysis.global_dimension(alg).status == "finite"
