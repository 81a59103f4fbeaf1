"""Sampled syzygy shapes: the oracle for the selfinjective-block LIT entry.

`sampled_shape` decomposes the syzygies of seeded random modules over an
algebra and asks that every summand be supported on the A-vertices or be a
simple at a B-vertex, as the package once did before it decided the shape
on the projectives' radicals.  `sampled_block_lit` picks the algebra as the
package did then: the first of C and C^op on which the A-vertices are
successor-closed and a selfinjective block.
"""

from quivalg import decomp, homology, repmod
from quivalg.budgets import DEFAULT, BudgetExceeded


def sampled_shape(c, alg, budgets=DEFAULT, samples=20):
    """(True, B-simple class ids met) if every sampled syzygy over alg is a
    block module plus B-simples; (False, the first offending sample) if not."""
    reg = alg.registry()
    b_simple_ids = []
    for i in range(samples):
        m = repmod.random_module(alg, (budgets.seed << 16) + 1000 + i, 10)
        try:
            res = decomp.decompose(homology.syzygy(m), budgets)
        except BudgetExceeded:
            return False, f"sample {i}: syzygy beyond decompose budget"
        for eid, _ in res.items:
            rep = reg.rep(eid)
            if rep.support() <= c.a_vertices:
                continue
            if rep.total_dim == 1 and rep.support() <= c.b_vertices:
                if eid not in b_simple_ids:
                    b_simple_ids.append(eid)
                continue
            return False, f"sample {i}: class {eid} is neither block-supported nor a B-simple"
    return True, sorted(b_simple_ids)


def sampled_block_lit(c, budgets=DEFAULT, samples=20):
    """(algebra label, B-simple class ids met) where the sampled entry fires, or None."""
    for which, alg in (("C", c.algebra), ("C^op", c.algebra.opposite())):
        if alg.quiver.successor_closure(c.a_vertices) == c.a_vertices \
                and homology.selfinjective_block(alg, c.a_vertices):
            ok, ids = sampled_shape(c, alg, budgets, samples)
            return (which, ids) if ok else None
    return None
