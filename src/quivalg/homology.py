"""Syzygies, projective dimension, omega-orbits.

The syzygy of a module is the kernel of its projective cover, read off the
presentation repmod caches per module (the same one hom_basis solves on);
`projective_cover` is repmod's, imported here.  syzygy_class checks the cap
on those rows; on a selfinjective block it registers Omega as one class.
pd returns an honest three-state result: Finite(n) when the syzygy class
multiset empties, InfiniteCertified with evidence (class-graph cycle, a
selfinjective block, the whole algebra included, or a Cartan obstruction), and
Unknown at budget.  A result resting on a probabilistic decomposition of a
syzygy has certified=False.  Selfinjectivity is decided exactly from socles
and Cartan dimensions; only omega_powers splits a recorded sum, by blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import decomp, exactfield as ef, repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import BoundAlgebra, Quiver, Relation, build_algebra
from .repmod import Rep, projective_cover


# ---------------------------------------------------------------------------
# covers and syzygies


def syzygy(m: Rep) -> Rep:
    """Kernel of the projective cover, taken whole (omega_power goes blockwise)."""
    if m.is_zero:
        return repmod.zero_rep(m.algebra)
    cover, _ = projective_cover(m)
    return repmod.submodule(cover, repmod.presentation(m).omega)[0]


def omega_powers(m: Rep, max_dim: int):
    """Omega^0(m), Omega^1(m), ..., each the sum of the syzygies of the
    blocks of the one before; BudgetExceeded as soon as a block of some
    Omega^k is above max_dim (the unit decompose caps), before its syzygy."""
    for k in itertools.count():
        blocks = _blocks(m)
        big = max(b.total_dim for b in blocks)
        if big > max_dim:
            raise BudgetExceeded(f"a block of Omega^{k} has dimension {big} > cap {max_dim}")
        yield m
        m = repmod.direct_sum([syzygy(b) for b in blocks])[0]


def omega_power(m: Rep, n: int, max_dim: int) -> Rep:
    """Omega^n(m), the n-th of omega_powers(m, max_dim): BudgetExceeded as
    soon as a block of some Omega^k, 0 <= k <= n, is above max_dim."""
    return next(itertools.islice(omega_powers(m, max_dim), n, None))


# ---------------------------------------------------------------------------
# structural certificates (selfinjectivity, blocks, Cartan lattice)


def selfinjectivity(alg: BoundAlgebra) -> bool:
    """Whether every indecomposable projective P_v is injective, cached.

    P_v with simple socle S_w is an essential extension of S_w, so it embeds
    in the injective envelope I_w, and is I_w iff dim P_v = dim I_w, the sum
    of the Cartan column of w (Auslander, Reiten and Smalø, Representation
    Theory of Artin Algebras).  A selfinjective algebra has P_v = I_nu(v).
    """
    if "selfinjective" not in alg.cache:
        alg.cache["selfinjective"] = _selfinjectivity_compute(alg)
    return alg.cache["selfinjective"]


def _selfinjectivity_compute(alg: BoundAlgebra) -> bool:
    # P_v is I_nu(v) on a selfinjective algebra, so the projectives' dim
    # vectors (the Cartan rows) are the injectives' (the columns) up to order
    rows = cartan_rows(alg)
    if sorted(map(tuple, rows)) != sorted(zip(*rows)):
        return False
    columns = dict(zip(alg.quiver.vertices, map(sum, zip(*rows))))
    socles = (repmod.socle(alg.projective(v))[0] for v in alg.quiver.vertices)
    # soc P_v = S_w, and P_v embeds in I_w: equal dimensions make it I_w
    return all(soc.total_dim == 1 and sum(row) == columns[next(iter(soc.support()))]
               for soc, row in zip(socles, rows))


def restricted_algebra(alg: BoundAlgebra, vertices: frozenset[str]) -> BoundAlgebra:
    """Subalgebra on a successor-closed vertex set (paths cannot escape)."""
    key = ("restricted", tuple(sorted(vertices)))
    if key in alg.cache:
        return alg.cache[key]
    if alg.quiver.successor_closure(vertices) != frozenset(vertices):
        raise ValueError("vertex set is not successor-closed")
    verts = [v for v in alg.quiver.vertices if v in vertices]
    q = Quiver(verts, [a for a in alg.quiver.arrows if a.source in vertices])
    rels = [Relation(q, rel.words(), alg.p)
            for rel in alg.relations if rel.source in vertices]
    sub = build_algebra(q, rels, alg.p, alg.m_max,
                        name=f"{alg.name}|{'+'.join(verts)}")
    alg.cache[key] = sub
    return sub


def selfinjective_block(alg: BoundAlgebra, vertices) -> bool:
    """Whether `vertices` is successor-closed with selfinjective restriction."""
    vs = frozenset(vertices)
    if not vs or alg.quiver.successor_closure(vs) != vs:
        return False
    if vs == frozenset(alg.quiver.vertices):
        return selfinjectivity(alg)
    return selfinjectivity(restricted_algebra(alg, vs))


def covering_selfinjective_block(alg: BoundAlgebra, support) -> frozenset[str] | None:
    """Successor closure of `support` when it is a selfinjective block."""
    if not support:
        return None
    closure = alg.quiver.successor_closure(support)
    return closure if selfinjective_block(alg, closure) else None


def cartan_rows(alg: BoundAlgebra) -> list[list[int]]:
    if "cartan" not in alg.cache:
        alg.cache["cartan"] = [list(alg.projective(v).dim_vector())
                               for v in alg.quiver.vertices]
    return alg.cache["cartan"]


def cartan_member(alg: BoundAlgebra, dim_vector) -> bool:
    """Whether a dim vector lies in the Z-span of the projective dim vectors,
    reduced against their Hermite basis, which is kept per algebra.

    A module of finite projective dimension always does (alternating sums), so
    non-membership certifies pd = infinity.
    """
    if "cartan_hermite" not in alg.cache:
        alg.cache["cartan_hermite"] = ef.hermite_basis(cartan_rows(alg))
    return ef.in_hermite_span(alg.cache["cartan_hermite"], dim_vector)


# ---------------------------------------------------------------------------
# registry-level syzygy classes


def syzygy_class(alg: BoundAlgebra, eid: int, budgets: Budgets = DEFAULT) -> tuple:
    """decompose(syzygy(representative)) as ((class id, mult), ...), cached.

    Projective summands are retained (K0 consumers drop them; orbit analysis
    keeps them as markers).  Whether the decomposition was certified is kept
    in the entry's syzygy_certified.  The cap is checked on the cached
    presentation's rows, before Omega is built.  Omega of a class whose
    support closure C is a selfinjective block is registered as one class:
    its cover is a sum of P_v, v in C, so it is the same over A_C, where it is
    indecomposable nonprojective (Auslander, Reiten and Smalø, IV.3).  Over a
    selfinjective A those P_v are injective and supported on C: A_C is too.
    """
    registry = alg.registry()
    entry = registry.entries[eid]
    if entry.syzygy is None:
        dim = sum(k.shape[0] for k in repmod.presentation(entry.rep).omega.values())
        if dim > budgets.max_dim:
            raise BudgetExceeded(f"syzygy of class {eid} has dimension {dim} > cap")
        om = syzygy(entry.rep)
        if not om.is_zero and covering_selfinjective_block(alg, entry.rep.support()) is not None:
            entry.syzygy = ((registry.register(om, budgets), 1),)
        else:
            res = decomp.decompose(om, budgets)
            entry.syzygy = res.items
            entry.syzygy_certified = res.certified
    return entry.syzygy


# ---------------------------------------------------------------------------
# projective dimension


@dataclass
class PdResult:
    status: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    evidence: dict | None = None
    depth_reached: int = 0
    certified: bool = True  # False when it rests on a probabilistic syzygy decomposition

    def describe(self) -> str:
        note = "" if self.certified else " (probabilistic)"
        if self.status == "finite":
            return f"pd = {self.value}{note}"
        if self.status == "infinite":
            return f"pd = infinity ({self.evidence.get('kind')}){note}"
        return f"pd unknown at depth {self.depth_reached}"


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


def _class_infinite_shortcut(alg: BoundAlgebra, eid: int) -> dict | None:
    """Evidence that class eid has infinite pd read off the algebra and the
    class's dim vector and support alone, or None.  Those inputs never
    change, so the verdict is taken once per class and kept on its entry."""
    entry = alg.registry().entries[eid]
    if entry.shortcut is False:
        entry.shortcut = _infinite_shortcut(alg, entry)
    return entry.shortcut


def _infinite_shortcut(alg: BoundAlgebra, entry) -> dict | None:
    if entry.projective:
        return None
    rep = entry.rep
    blk = covering_selfinjective_block(alg, rep.support())
    if blk is not None:
        return {"kind": "selfinjective_block", "vertices": sorted(blk)}
    if not cartan_member(alg, rep.dim_vector()):
        return {"kind": "cartan", "dims": list(rep.dim_vector())}
    return None


def pd_class(alg: BoundAlgebra, eid: int, budgets: Budgets = DEFAULT) -> PdResult:
    """Projective dimension of a registered class, with certificates."""
    registry = alg.registry()
    entry = registry.entries[eid]
    if entry.pd is not None:
        if entry.pd.status != "unknown" or (entry.pd.evidence["kind"] == "depth"
                                            and entry.pd.depth_reached >= budgets.depth):
            return entry.pd
    if entry.projective:
        entry.pd = PdResult("finite", 0)
        return entry.pd
    shortcut = _class_infinite_shortcut(alg, eid)
    if shortcut is not None:
        entry.pd = PdResult("infinite", None, dict(shortcut, **{"class": eid}))
        return entry.pd
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
                    items = syzygy_class(alg, i, budgets)
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
    entry.pd = result
    return result


def pd(m: Rep, budgets: Budgets = DEFAULT) -> PdResult:
    """Projective dimension of a module via its class decomposition."""
    res = decomp.decompose(m, budgets)
    registry = m.algebra.registry()
    nonproj = res.nonprojective(registry)
    if not nonproj:
        return PdResult("finite", 0)
    best = 0
    worst_unknown = None
    certified = True
    for eid, _ in nonproj:
        r = pd_class(m.algebra, eid, budgets)
        if r.status == "infinite":
            return r
        if r.status == "unknown":
            worst_unknown = r
        else:
            best = max(best, r.value)
            certified = certified and r.certified
    if worst_unknown is not None:
        return worst_unknown
    return PdResult("finite", best, certified=certified)


# ---------------------------------------------------------------------------
# orbits


@dataclass
class OrbitResult:
    reached: tuple  # class ids, projectives included as markers
    frontier: tuple
    closed: bool
    note: str = ""
    certified: bool = True  # False when a decomposition it rests on is probabilistic


def omega_orbit(alg: BoundAlgebra, seeds, budgets: Budgets = DEFAULT) -> OrbitResult:
    """BFS closure of syzygy classes from the given registered seed ids; a
    closed orbit is certified when every syzygy decomposition it visited is."""
    registry = alg.registry()
    seen = set(seeds)
    frontier = [i for i in sorted(seen) if not registry.is_projective(i)]
    while frontier:
        if len(seen) > budgets.classes:
            return OrbitResult(tuple(sorted(seen)), tuple(frontier), False,
                               "class budget exceeded")
        nxt = []
        for eid in frontier:
            try:
                items = syzygy_class(alg, eid, budgets)
            except BudgetExceeded as exc:
                return OrbitResult(tuple(sorted(seen)), tuple(frontier), False,
                                   str(exc))
            for j, _ in items:
                if j not in seen:
                    seen.add(j)
                    if not registry.is_projective(j):
                        nxt.append(j)
        frontier = sorted(nxt)
    return OrbitResult(tuple(sorted(seen)), (), True,
                       certified=all(registry.entries[i].syzygy_certified for i in seen))


def module_orbit(m: Rep, budgets: Budgets = DEFAULT, shift: int = 0) -> OrbitResult:
    """omega_orbit over the classes of Omega^shift(m); the orbit is certified
    only if that decomposition is too.

    Omega^shift(m) is omega_power's at budgets.max_dim: when a block of some
    Omega^k, k <= shift, is above the cap the orbit is open, with the cap in
    its note, and no block is decomposed.
    """
    try:
        m = omega_power(m, shift, budgets.max_dim)
    except BudgetExceeded as exc:
        return OrbitResult((), (), False, str(exc))
    if m.is_zero:
        return OrbitResult((), (), True, "zero module")
    res = decomp.decompose(m, budgets)
    orbit = omega_orbit(m.algebra, [i for i, _ in res.items], budgets)
    orbit.certified &= res.certified
    return orbit


def _blocks(m: Rep) -> list[Rep]:
    """The blocks of the direct sums m records, in order."""
    return [b for x in m.summands for b in _blocks(x)] if m.summands else [m]


def syzygy_finite_probe(alg: BoundAlgebra, n_shift: int = 1,
                        budgets: Budgets = DEFAULT) -> OrbitResult:
    """Closed(generating class set for K_{n_shift}) or Open: module_orbit of
    the sum of simples at shift n_shift."""
    simples = [repmod.simple(alg, v) for v in alg.quiver.vertices]
    return module_orbit(repmod.direct_sum(simples)[0], budgets, n_shift)
