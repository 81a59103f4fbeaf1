"""Split pieces as generalized kernels: the oracle for decomp._split_by.

`_split_by` reads ker g(f) and ker h(f) off the images of h(f) and g(f).
`kernel_pieces` solves the two kernels with kernel_basis instead, as the
package once did; the pieces must agree bit for bit.
"""

from quivalg import decomp, exactfield as ef, fppoly, repmod


def poly_kernel_piece(m, mats, g):
    """The submodule ker g(f) for an endomorphism f given vertexwise."""
    p = m.algebra.p
    rows = {}
    for v in m.algebra.quiver.vertices:
        gv = fppoly.eval_matrix(g, mats[v], p) if m.dims[v] else ef.zeros(0, 0)
        rows[v] = ef.kernel_basis(gv.T, p)
    sub, _ = repmod.submodule(m, rows)
    return sub


def kernel_pieces(m, mats, factors):
    """[ker g(f), ker h(f)], g the first prime power in `factors` (the
    factorization of f's minimal polynomial) and h its cofactor."""
    p = m.algebra.p
    minpoly = decomp._minpoly_of_mats(mats, p)
    g = [1]
    for _ in range(factors[0][1]):
        g = fppoly.mul(g, factors[0][0], p)
    h = fppoly.divmod_poly(minpoly, g, p)[0]
    return [poly_kernel_piece(m, mats, g), poly_kernel_piece(m, mats, h)]
