from collections import Counter

import numpy as np
import pytest

from quivalg import cli, exactfield as ef, repmod
from quivalg.pathalgebra import (MalformedRelation, NotAdmissible, Quiver,
                                 Relation, build_algebra)

from random_algebra import TRUNCATION, paths, random_presentation


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


def test_reduce_builds_each_order_key_once(exA, monkeypatch):
    # the terms wait on a heap keyed once per term, not on a max over every
    # remaining term at every step
    calls = Counter()
    order_key = type(exA)._order_key

    def counted(self, key):
        calls[key] += 1
        return order_key(self, key)

    monkeypatch.setattr(type(exA), "_order_key", counted)
    words = paths(exA.quiver, 2) + paths(exA.quiver, 3)
    nf = exA.normal_form({k: i + 1 for i, k in enumerate(words)})
    assert nf and len(calls) > len(words) // 2
    assert max(calls.values()) == 1


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


# -- an independent oracle: the ideal as a row space ---------------------------


def _order(quiver, key):
    """The declared path order: length, then arrow indices, then start vertex."""
    return (len(key[1]), tuple(quiver.arrow_index[a] for a in key[1]),
            quiver.vertex_index[key[0]])


def _ideal_oracle(quiver, relations, p, cutoff, cut=True):
    """{path: normal form} for the paths of length < cutoff, by linear algebra.

    Rows span every u*r*v, r a relation and u, v paths: with `cut`, minus
    its terms of length >= cutoff, so the quotient is kQ/(I + J^cutoff);
    without, only those u*r*v whose terms are all shorter, a subspace of I.
    Columns are the paths in descending path order, so the RREF's pivot
    columns are the leading paths of the span, and a pivot path's normal
    form is minus the rest of its row.
    """
    cols = sorted((k for n in range(cutoff) for k in paths(quiver, n)),
                  key=lambda k: _order(quiver, k), reverse=True)
    index = {k: j for j, k in enumerate(cols)}
    into, out_of = {}, {}
    for k in reversed(cols):  # shortest first
        into.setdefault(quiver.arrow_map[k[1][-1]].target if k[1] else k[0], []).append(k)
        out_of.setdefault(k[0], []).append(k)
    rows = []
    for r in relations:
        lengths = [len(w) for _, (_, w) in r.terms]
        room = cutoff - (min(lengths) if cut else max(lengths))
        for u in into.get(r.source, ()):
            for v in out_of.get(r.target, ()):
                n = len(u[1]) + len(v[1])
                if n >= room:
                    break
                row = np.zeros(len(cols), dtype=np.int64)
                for c, (_, w) in r.terms:
                    if n + len(w) < cutoff:
                        row[index[(u[0], u[1] + w + v[1])]] = c
                rows.append(row)
    reduced, pivots, _ = ef.rref(np.array(rows).reshape(len(rows), len(cols)), p)
    nf = {k: {k: 1} for k in cols}
    for i, j in enumerate(pivots):
        nf[cols[j]] = {cols[t]: int(-reduced[i, t]) % p
                       for t in range(j + 1, len(cols)) if reduced[i, t]}
    return nf


def _assert_matches_oracle(alg):
    """kQ/(I + J^(m+1)) has alg's basis, normal forms and m, and J^m lies in
    I itself: every length-m path is a combination of u*r*v, uncut, no
    longer than the completion looks (m_max + 1 arrows, or a relation)."""
    q = alg.quiver
    nf = _ideal_oracle(q, alg.relations, alg.p, alg.m + 1)
    normal = [k for k, form in nf.items() if form == {k: 1}]
    assert alg.basis == tuple(sorted(normal, key=lambda k: _order(q, k)))
    assert alg.dim == len(normal)
    assert alg.m == max([2] + [len(k[1]) + 1 for k in normal])
    for k, form in nf.items():
        assert alg.normal_form({k: 1}) == form, k
    longest = max([alg.m] + [len(k[1]) for r in alg.relations for _, k in r.terms])
    for cutoff in range(longest + 1, max(longest, alg.m_max + 1) + 2):
        inside = _ideal_oracle(q, alg.relations, alg.p, cutoff, cut=False)
        if all(inside[k] == {} for k in paths(q, alg.m)):
            break
    else:
        pytest.fail(f"J^{alg.m} is not shown to lie in I")


ALGEBRA_FIXTURES = ("a2.alg", "exA.alg", "exB.alg", "nakayama-a3.alg",
                    "nakayama-selfinj.alg", "point.alg", "rsz-a.alg", "rsz-b.alg")
GLUE_FIXTURES = ("exC.glue", "exCop.glue", "rad-square-zero-pair.glue", "remark54.glue")


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES + GLUE_FIXTURES)
def test_fixture_basis_and_normal_forms_match_the_oracle(name):
    alg = cli.underlying_algebra(cli.load_any(name))
    _assert_matches_oracle(alg)
    _assert_matches_oracle(alg.opposite())


@pytest.mark.parametrize("seed", range(100))
def test_generated_algebra_matches_the_oracle(seed):
    quiver, relations, p = random_presentation(seed)
    try:
        alg = build_algebra(quiver, relations, p, TRUNCATION)
    except NotAdmissible:
        # these relations are homogeneous, so a path of length TRUNCATION
        # outside I + J^(TRUNCATION + 1) is outside I: no m <= TRUNCATION
        # has J^m inside I
        rels = [Relation(quiver, r, p) for r in relations]
        nf = _ideal_oracle(quiver, rels, p, TRUNCATION + 1)
        assert any(nf[k] == {k: 1} for k in paths(quiver, TRUNCATION))
        return
    _assert_matches_oracle(alg)
