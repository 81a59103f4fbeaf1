"""The commuting-square (Kronecker) system for Hom(m, n): the test oracle.

Its unknowns are the entries of the vertexwise matrices f_v (in vertex order,
each row-major), one equation block per arrow a: s -> t, m(a) f_t = f_s n(a).
`kron_hom_basis` returns kernel_basis of that system as RepMaps, the canonical
basis that repmod.hom_basis must reproduce bit for bit.
"""

import numpy as np

from quivalg import exactfield as ef, repmod


def kron_system(m, n) -> np.ndarray:
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    sizes = [m.dims[v] * n.dims[v] for v in verts]
    offsets = np.cumsum([0] + sizes)
    nvars = int(offsets[-1])
    vidx = {v: i for i, v in enumerate(verts)}
    blocks = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        neq = m.dims[s] * n.dims[t]
        if neq == 0:
            continue
        row = ef.zeros(neq, nvars)
        if sizes[vidx[t]]:
            row[:, offsets[vidx[t]]:offsets[vidx[t] + 1]] = np.kron(
                m.mats[a.name], ef.eye(n.dims[t]))
        if sizes[vidx[s]]:
            row[:, offsets[vidx[s]]:offsets[vidx[s] + 1]] -= np.kron(
                ef.eye(m.dims[s]), n.mats[a.name].T)
        blocks.append(row % p)
    return np.concatenate(blocks, axis=0) if blocks else ef.zeros(0, nvars)


def kron_hom_basis(m, n) -> list:
    verts = m.algebra.quiver.vertices
    system = kron_system(m, n)
    if not system.shape[1]:
        return []
    maps = []
    for row in ef.kernel_basis(system, m.algebra.p):
        mats, off = {}, 0
        for v in verts:
            size = m.dims[v] * n.dims[v]
            mats[v] = row[off:off + size].reshape(m.dims[v], n.dims[v])
            off += size
        maps.append(repmod.RepMap(m, n, mats))
    return maps
