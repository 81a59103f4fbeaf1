"""The breadth-first pd search: the oracle for homology's one-pass pd.

`oracle_pd_class` is pd_class as the package computed it before the syzygy
graph had one node record per class.  It walks the graph level by level from
the queried class, keeps its own edge dict, reruns `_find_cycle` on it after
each level, and checks every successor's infinite-pd shortcut as it is
reached.  It reads the same registry caches as the package (syzygy classes
and selfinjective-block verdicts) but keeps no pd answers: every call walks,
and nothing it finds is written to a registry entry.
"""

from quivalg import homology
from quivalg.budgets import DEFAULT, BudgetExceeded, Budgets
from quivalg.homology import PdResult


def _find_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    color: dict[int, int] = {}
    stack_path: list[int] = []

    def dfs(u: int):
        color[u] = 1
        stack_path.append(u)
        for w in sorted(edges.get(u, ())):
            if color.get(w, 0) == 1:
                return stack_path[stack_path.index(w):] + [w]
            if color.get(w, 0) == 0 and w in edges:
                got = dfs(w)
                if got:
                    return got
        color[u] = 2
        stack_path.pop()
        return None

    for node in sorted(edges):
        if color.get(node, 0) == 0:
            got = dfs(node)
            if got:
                return got
    return None


def _infinite_shortcut(alg, entry) -> dict | None:
    if entry.projective:
        return None
    rep = entry.rep
    blk = homology.covering_selfinjective_block(alg, rep.support())
    if blk is not None:
        return {"kind": "selfinjective_block", "vertices": sorted(blk)}
    if not homology.cartan_member(alg, rep.dim_vector()):
        return {"kind": "cartan", "dims": list(rep.dim_vector())}
    return None


def _class_infinite_shortcut(alg, eid: int) -> dict | None:
    return _infinite_shortcut(alg, alg.registry().entries[eid])


def oracle_pd_class(alg, eid: int, budgets: Budgets = DEFAULT) -> PdResult:
    """Projective dimension of a registered class, with certificates."""
    registry = alg.registry()
    entry = registry.entries[eid]
    if entry.projective:
        return PdResult("finite", 0)
    shortcut = _class_infinite_shortcut(alg, eid)
    if shortcut is not None:
        return PdResult("infinite", None, dict(shortcut, **{"class": eid}))
    edges: dict[int, set[int]] = {}
    frontier = {eid}
    depth = 0
    result = None
    while depth < budgets.depth:
        depth += 1
        nxt: set[int] = set()
        for i in sorted(frontier):
            if i not in edges:
                try:
                    items = homology.syzygy_class(alg, i, budgets)
                except BudgetExceeded:
                    result = PdResult("unknown", None, {"kind": "budget"}, depth)
                    break
                succ = {j for j, _ in items if not registry.is_projective(j)}
                edges[i] = succ
                for j in succ:
                    sc = _class_infinite_shortcut(alg, j)
                    if sc is not None:
                        result = PdResult("infinite", None, dict(sc, **{"class": j}))
                        break
                if result:
                    break
            nxt |= edges[i]
        if result:
            break
        cyc = _find_cycle(edges)
        if cyc:
            result = PdResult("infinite", None,
                              {"kind": "cycle", "classes": cyc, "depth": depth})
            break
        if not nxt:
            result = PdResult("finite", depth, None, depth)
            break
        frontier = nxt
    if result is None:
        result = PdResult("unknown", None, {"kind": "depth"}, budgets.depth)
    result.certified = all(registry.entries[i].syzygy_certified for i in edges)
    return result
