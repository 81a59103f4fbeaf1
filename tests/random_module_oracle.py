"""random_module built from fresh sums, radicals and Hom spaces: the test oracle.

Each attempt builds q and src as stripped direct sums of projectives, rad(q)
as a submodule, the canonical basis of Hom(src, rad q) with hom_basis, and
one random combination of it; the module is q modulo that map's image.
`oracle_random_module` draws from the rng in the same order as
repmod.random_module, whose outputs and rng state it must reproduce bit for
bit.
"""

import numpy as np

from quivalg import exactfield as ef, repmod


def oracle_random_module(algebra, seed, size_bound: int = 12):
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng([int(seed), algebra.structural_digest() % (2 ** 31)])
    verts = algebra.quiver.vertices
    p = algebra.p
    min_proj = min(algebra.projective(v).total_dim for v in verts)
    max_copies = max(2, size_bound // max(min_proj, 1) + 1)
    for _ in range(64):
        n_tgt = int(rng.integers(1, max_copies + 1))
        targets = [verts[int(rng.integers(len(verts)))] for _ in range(n_tgt)]
        q = repmod.direct_sum([algebra.projective(v) for v in targets])[0].strip()
        n_src = int(rng.integers(1, n_tgt + 2))
        sources = [verts[int(rng.integers(len(verts)))] for _ in range(n_src)]
        src = repmod.direct_sum([algebra.projective(v) for v in sources])[0].strip()
        rad, rad_inc = repmod.radical(q)
        homs = repmod.hom_basis(src, rad)
        if not homs:
            if q.total_dim <= size_bound:
                return q
            continue
        f = repmod.combine_maps(homs, rng.integers(0, p, size=len(homs)))
        m = repmod.quotient(q, {v: ef.matmul(f.mats[v], rad_inc.mats[v], p) for v in f.mats})
        if m.total_dim > size_bound or m.is_zero:
            continue
        return m
    return repmod.simple(algebra, verts[0])
