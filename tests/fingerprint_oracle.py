"""The fingerprint built from submodules and quotients: the test oracle.

Each radical layer is repmod.radical of the one before, each socle layer the
socle of the quotient by the socle before, and the top is m / rad(m).
`quotient_fingerprint` returns the tuple that decomp.fingerprint must
reproduce exactly, entry types included.
"""

from quivalg import exactfield as ef, repmod


def quotient_fingerprint(m) -> tuple:
    p = m.algebra.p
    dims = m.dim_vector()
    tops = repmod.top(m).dim_vector()
    socs = repmod.socle(m)[0].dim_vector()
    rad_series = []
    cur = m
    while not cur.is_zero:
        cur = repmod.radical(cur)[0]
        rad_series.append(cur.dim_vector())
    soc_series = []
    cur = m
    while not cur.is_zero:
        soc, inc = repmod.socle(cur)
        soc_series.append(soc.dim_vector())
        cur = repmod.quotient(cur, inc.mats)
    arrow_ranks = tuple(ef.rank_fp(m.mats[a.name], p) for a in m.algebra.quiver.arrows)
    return (dims, tops, socs, tuple(rad_series), tuple(soc_series), arrow_ranks)
