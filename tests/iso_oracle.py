"""The iso test with Hom's basis built first: the oracle for decomp.is_isomorphic.

`basis_first_is_isomorphic` builds the whole basis of Hom(m, n) before it
reads its dimension, and fills in End dimensions with whole bases too, as the
package once did.  decomp.is_isomorphic reads those dimensions off hom_solve
and must reach the same verdict by the same method, with the same witness.
"""

import numpy as np

from quivalg import decomp, exactfield as ef, repmod
from quivalg.decomp import EXHAUSTIVE_LIMIT, IsoResult
from quivalg.repmod import RepMap


def basis_first_is_isomorphic(m, n, seed=0, confidence=40):
    p = m.algebra.p
    if m.dims != n.dims:
        return IsoResult("no", None, "dimension vectors differ")
    if m.is_zero:
        return IsoResult("yes", RepMap(m, n, {}), "both zero")
    if m.equals(n):
        ident = RepMap(m, n, {v: ef.eye(m.dims[v]) for v in m.dims})
        return IsoResult("yes", ident, "structural equality")
    if decomp.fingerprint(m) != decomp.fingerprint(n):
        return IsoResult("no", None, "fingerprints differ")
    homs = repmod.hom_basis(m, n)
    if not homs:
        return IsoResult("no", None, "hom space is zero")
    if any(x._end_dim is not None and x._end_dim != len(homs) for x in (m, n)):
        return IsoResult("no", None, "hom dimension mismatch")
    digest = m.algebra.structural_digest() % (2 ** 31)
    rng = np.random.default_rng([int(seed) % (2 ** 31), digest, 17])
    for _ in range(confidence):
        f = repmod.combine_maps(homs, rng.integers(0, p, size=len(homs)))
        if f.is_invertible():
            return IsoResult("yes", f, "random invertible hom")
    if m._end_dim is None:
        m._end_dim = len(repmod.hom_basis(m, m))
    if n._end_dim is None:
        n._end_dim = len(repmod.hom_basis(n, n))
    if m._end_dim != len(homs) or n._end_dim != len(homs):
        return IsoResult("no", None, "hom dimension mismatch")
    if p ** len(homs) <= EXHAUSTIVE_LIMIT:
        for lead in range(len(homs)):
            for tail in decomp._fp_vectors(p, len(homs) - lead - 1):
                coeffs = np.concatenate([np.zeros(lead, dtype=np.int64), [1], tail])
                f = repmod.combine_maps(homs, coeffs)
                if f.is_invertible():
                    return IsoResult("yes", f, "exhaustive search")
        return IsoResult("no", None, "exhaustive search")
    return IsoResult("inconclusive", None, f"no invertible hom after {confidence} rounds")
