"""The three-branch phi walk: the oracle for grothendieck's closure rule.

`oracle_phi` is phi as the package computed it before the rank trace had one
closure certificate.  It certified selfinjectivity three ways (the whole
algebra, a selfinjective block covering the generators at depth 0, and one
covering the support at some depth d) and a closed class set under
`orbit_cycle` at depth |seen| + 1, walking the trace that far.  It reads the
same registry caches as the package (syzygy classes and pd answers), and
keeps no phi table: every call walks.
"""

from quivalg import grothendieck as gk, homology
from quivalg.budgets import DEFAULT, BudgetExceeded, Budgets


def _support_vertices(alg, ids) -> set[str]:
    reg = alg.registry()
    verts: set[str] = set()
    for i in ids:
        verts |= reg.rep(i).support()
    return verts


def oracle_phi(m, budgets: Budgets = DEFAULT) -> gk.PhiResult:
    return _walk(m.algebra, gk.subgroup_add(m, budgets), budgets)[0]


def _walk(alg, gens, budgets):
    reg = alg.registry()
    trace = [len(gens)]
    used: set[int] = set()  # the classes whose syzygies the trace read
    pds: list = []  # every pd_class answer the walk read

    def pd_class(eid):
        pds.append(homology.pd_class(alg, eid, budgets))
        return pds[-1]

    def result(value, certified, certificate, note="", pdres=None):
        sure = all(reg.entries[i].syzygy_certified for i in used) \
            and (pdres is None or pdres.certified)
        final = certificate not in ("budget", "depth_budget") \
            and all(r.status != "unknown" for r in pds)
        return gk.PhiResult(value, certified and sure, certificate, trace, note,
                            probabilistic=not sure), final

    if not gens:
        return result(0, True, "rank_zero")
    if homology.selfinjectivity(alg):
        return result(0, True, "theorem_selfinjective", "whole algebra")
    ids0 = [next(iter(v)) for v in gens]
    blk = homology.covering_selfinjective_block(alg, _support_vertices(alg, ids0))
    if blk is not None:
        return result(0, True, "theorem_selfinjective", f"block {'+'.join(sorted(blk))}")
    if len(gens) == 1:
        pdres = pd_class(ids0[0])
        if pdres.status == "infinite":
            return result(0, True, "indec_infinite_pd", pdres.evidence.get("kind", ""),
                          pdres)
    seen = set(ids0)
    value = 0
    depth = 0
    closure_depth = None
    cur = gens
    while True:
        limit = budgets.depth if closure_depth is None else max(
            budgets.depth, len(seen) + 1)
        if depth >= limit:
            break
        depth += 1
        used.update(i for g in cur for i in g)
        try:
            cur = [gk.omega_bar(alg, g, budgets) for g in cur]
        except BudgetExceeded as exc:
            return result(value, False, "budget", str(exc))
        r = gk.lattice_rank_of(cur)
        if r > trace[-1]:
            raise AssertionError("rank trace increased")
        trace.append(r)
        if r < trace[-2]:
            value = depth
        if r == 0:
            return result(value, True, "finite_pd")
        support = {i for g in cur for i in g}
        new = support - seen
        seen |= support
        if closure_depth is None:
            blk = homology.covering_selfinjective_block(
                alg, _support_vertices(alg, support))
            if blk is not None:
                return result(value, True, "theorem_selfinjective",
                              f"block {'+'.join(sorted(blk))} from depth {depth}")
            if not new:
                closure_depth = depth
            elif r == 1:
                # coefficients stay nonnegative, so one certified-infinite-pd
                # class in the support pins the rank at 1 forever
                for eid in sorted(support):
                    pdres = pd_class(eid)
                    if pdres.status == "infinite":
                        return result(value, True, "rank_one_persistent",
                                      f"class {eid} has infinite pd "
                                      f"({pdres.evidence.get('kind')})", pdres)
        if closure_depth is not None and depth >= len(seen) + 1:
            return result(value, True, "orbit_cycle",
                          f"{len(seen)} classes, closed at depth {closure_depth}")
    return result(value, False, "depth_budget")
