"""Syzygies, projective dimension, omega-orbits.

The syzygy of a module is the kernel of its projective cover, read off the
presentation repmod caches per module (the same one hom_basis solves on);
`projective_cover` is repmod's, imported here.  syzygy_class checks the cap
on those rows; on a selfinjective block it registers Omega as one class.

Each registry entry is its class's node record in the syzygy graph, each field
filled once: the syzygy's classes and its nonprojective successors
(syzygy_class), the selfinjective block over the class's support (class_block,
read by syzygy_class, pd and phi's closure rule), a flag that pd read its
Cartan verdict, and a decided pd.  pd_class takes the syzygies within the
depth budget breadth first, then settles the answer in one depth-first pass
over the successors, keeping every decided answer it reaches.  pd returns an
honest three-state result: Finite(n) when the syzygy class multiset empties,
InfiniteCertified with evidence (class-graph cycle, a selfinjective block, the
whole algebra included, or a Cartan obstruction), and Unknown at budget.  A
result resting on a probabilistic decomposition of a syzygy has
certified=False.  Selfinjectivity is decided exactly from socles and Cartan
dimensions; only omega_powers splits a recorded sum, by blocks.
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
        if not om.is_zero and class_block(alg, eid) is not None:
            entry.syzygy = ((registry.register(om, budgets), 1),)
        else:
            res = decomp.decompose(om, budgets)
            entry.syzygy = res.items
            entry.syzygy_certified = res.certified
        entry.successors = tuple(j for j, _ in entry.syzygy if not registry.is_projective(j))
    return entry.syzygy


def class_block(alg: BoundAlgebra, eid: int) -> frozenset[str] | None:
    """covering_selfinjective_block of class eid's support, taken once and
    kept on its entry: its support never changes."""
    entry = alg.registry().entries[eid]
    if entry.block is False:
        entry.block = covering_selfinjective_block(alg, entry.rep.support())
    return entry.block


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


def pd_class(alg: BoundAlgebra, eid: int, budgets: Budgets = DEFAULT) -> PdResult:
    """Projective dimension of a registered class, with certificates.

    The syzygies of the classes of undecided pd within budgets.depth steps
    are taken first, breadth first.  Then one depth-first pass over the
    successors settles each class it reaches once: 0 on a projective;
    infinite on a selfinjective block, a dim vector off the Cartan lattice, a
    cycle or a successor of infinite pd; unknown on a class whose syzygy was
    not taken, past budgets.depth or over the cap, unless another successor
    makes it infinite; otherwise 1 + the largest successor pd.  Decided
    answers are kept on their entries; certified follows the syzygies the
    answer rests on, a cycle's on every syzygy around it.
    """
    registry = alg.registry()
    if (known := _known(alg, registry.entries[eid])) is not None:
        return known
    level, reached, capped = [eid], {eid}, {}  # capped: class -> step, from 1
    for step in range(1, budgets.depth + 1):
        if not level:
            break
        nxt = set()
        for i in level:
            if _known(alg, registry.entries[i]) is None:
                try:
                    syzygy_class(alg, i, budgets)
                except BudgetExceeded:
                    capped[i] = step
                    continue
                nxt.update(registry.entries[i].successors)
        level = sorted(nxt - reached)
        reached |= nxt
    path: list[int] = []  # the classes whose successors are being read
    unknown: dict[int, PdResult] = {}  # the classes this pass left unknown

    def leaf(i: int) -> PdResult | None:
        """i's answer without reading its successors, or None."""
        node = registry.entries[i]
        if _known(alg, node) is not None:
            return node.pd
        if i in path:
            cycle = path[path.index(i):]
            return PdResult("infinite", None, {"kind": "cycle", "classes": cycle + [i],
                                               "depth": len(path)}, 0,
                            all(registry.entries[k].syzygy_certified for k in cycle))
        if node.successors is None:
            return PdResult("unknown", None, {"kind": "budget" if i in capped else "depth"},
                            capped.get(i, budgets.depth))
        return unknown.get(i)

    # an explicit stack, so the pass may follow a syzygy chain of any length:
    # (successors, the answers read so far) per class on path, below them eid's
    stack: list[tuple] = [((eid,), [])]
    while True:
        succ, results = stack[-1]
        if len(results) < len(succ) and not (results and results[-1].status == "infinite"):
            j = succ[len(results)]
            if (answer := leaf(j)) is None:
                path.append(j)
                stack.append((registry.entries[j].successors, []))
            else:
                results.append(answer)
            continue
        if not path:
            return results[0]
        node = registry.entries[path.pop()]
        stack.pop()
        certified = node.syzygy_certified and all(r.certified for r in results)
        if results and results[-1].status == "infinite":
            node.pd = PdResult("infinite", None, results[-1].evidence, 0, certified)
        elif open_ := next((r for r in results if r.status == "unknown"), None):
            unknown[node.id] = PdResult("unknown", None, open_.evidence, open_.depth_reached,
                                        certified)
        else:
            value = 1 + max((r.value for r in results), default=0)
            node.pd = PdResult("finite", value, None, value, certified)
        stack[-1][1].append(node.pd or unknown[node.id])


def _known(alg: BoundAlgebra, node) -> PdResult | None:
    """node.pd, read off the node record alone when it is not kept yet: 0 on
    a projective, infinite on a selfinjective block or off the Cartan
    lattice; else None.  These verdicts are read once."""
    if node.pd is None and not node.checked:
        node.checked = True
        if node.projective:
            node.pd = PdResult("finite", 0)
        elif (blk := class_block(alg, node.id)) is not None:
            node.pd = PdResult("infinite", None, {"kind": "selfinjective_block",
                                                  "vertices": sorted(blk), "class": node.id})
        elif not cartan_member(alg, dims := node.rep.dim_vector()):
            node.pd = PdResult("infinite", None, {"kind": "cartan", "dims": list(dims),
                                                  "class": node.id})
    return node.pd


def pd(m: Rep, budgets: Budgets = DEFAULT) -> PdResult:
    """Projective dimension of a module via its class decomposition."""
    res = decomp.decompose(m, budgets)
    best, certified, open_ = 0, True, None
    for eid, _ in res.nonprojective(m.algebra.registry()):
        r = pd_class(m.algebra, eid, budgets)
        if r.status == "infinite":
            return r
        if r.status == "unknown":
            open_ = r
        else:
            best, certified = max(best, r.value), certified and r.certified
    return open_ or PdResult("finite", best, certified=certified)


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
            nxt += [j for j in registry.entries[eid].successors if j not in seen]
            seen.update(j for j, _ in items)  # projectives kept as markers
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
