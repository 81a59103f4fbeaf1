"""Selfinjectivity by iso tests, and by building each block's algebra: the
oracles for homology.selfinjectivity and selfinjective_block.

`iso_selfinjectivity` asks of every indecomposable projective P_v that its
socle be simple, S_w, with the socle vertices distinct, and that P_v be
isomorphic to the injective I_w, built as the k-dual of the opposite
algebra's projective at w.  Each iso test runs at the defaults and again at
seed 1 with 200 rounds when the first is inconclusive, as the package once
did.  Only the socles are shared with the package's criterion, which reads
injectivity off Cartan dimensions instead of iso tests.

`restricted_algebra` builds the algebra A_B on a successor-closed vertex set
B afresh, and `cartan_selfinjectivity` is the Cartan/socle criterion read
on that algebra's own projectives: together they are the route the package
took before it read a block's verdict off the full algebra's projectives.
"""

from quivalg import decomp, repmod
from quivalg.budgets import DEFAULT, Budgets
from quivalg.pathalgebra import Quiver, Relation, build_algebra
from quivalg.repmod import Rep

RETRY = Budgets(seed=1, confidence=200)


def dualize(m: Rep) -> Rep:
    """k-dual over the opposite algebra: transpose and reattach to reversed arrows."""
    op = m.algebra.opposite()
    mats = {a.name: m.mats[a.name].T for a in m.algebra.quiver.arrows}
    return Rep(op, m.dims, mats)


def iso_selfinjectivity(alg) -> bool:
    socle_vertex = {}
    for v in alg.quiver.vertices:
        soc, _ = repmod.socle(alg.projective(v))
        if soc.total_dim != 1:
            return False
        socle_vertex[v] = next(w for w, d in soc.dims.items() if d)
    if len(set(socle_vertex.values())) != len(socle_vertex):
        return False
    op = alg.opposite()
    for v in alg.quiver.vertices:
        inj = dualize(op.projective(socle_vertex[v]))
        res = decomp.is_isomorphic(alg.projective(v), inj, DEFAULT)
        if res.verdict == "inconclusive":
            res = decomp.is_isomorphic(alg.projective(v), inj, RETRY)
        if res.verdict != "yes":
            return False
    return True


def restricted_algebra(alg, vertices):
    """The algebra on a successor-closed vertex set, built afresh from the
    arrows and relations that start there (paths cannot escape)."""
    if alg.quiver.successor_closure(vertices) != frozenset(vertices):
        raise ValueError("vertex set is not successor-closed")
    verts = [v for v in alg.quiver.vertices if v in vertices]
    q = Quiver(verts, [a for a in alg.quiver.arrows if a.source in vertices])
    rels = [Relation(q, rel.words(), alg.p) for rel in alg.relations if rel.source in vertices]
    return build_algebra(q, rels, alg.p, alg.m_max, name=f"{alg.name}|{'+'.join(verts)}")


def cartan_selfinjectivity(alg) -> bool:
    """Rejected when the Cartan rows and columns differ as multisets (P_v is
    I_nu(v) on a selfinjective algebra); else every P_v must have a simple
    socle S_w and the dimension of I_w, the sum of the Cartan column of w."""
    rows = [list(alg.projective(v).dim_vector()) for v in alg.quiver.vertices]
    if sorted(map(tuple, rows)) != sorted(zip(*rows)):
        return False
    columns = dict(zip(alg.quiver.vertices, map(sum, zip(*rows))))
    socles = (repmod.socle(alg.projective(v))[0] for v in alg.quiver.vertices)
    return all(soc.total_dim == 1 and sum(row) == columns[next(iter(soc.support()))]
               for soc, row in zip(socles, rows))
