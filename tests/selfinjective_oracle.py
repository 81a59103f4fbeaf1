"""Selfinjectivity by iso tests: the oracle for homology.selfinjectivity.

`iso_selfinjectivity` asks of every indecomposable projective P_v that its
socle be simple, S_w, with the socle vertices distinct, and that P_v be
isomorphic to the injective I_w, built as the k-dual of the opposite
algebra's projective at w.  Each iso test runs at the defaults and again at
seed 1 with 200 rounds when the first is inconclusive, as the package once
did.  Only the socles are shared with the package's criterion, which reads
injectivity off Cartan dimensions instead of iso tests.
"""

from quivalg import decomp, repmod
from quivalg.budgets import DEFAULT, Budgets
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
