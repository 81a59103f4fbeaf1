"""Whole-algebra classification and the additivity probe for phi^{-1}(0).

The central theorem being exercised: phi^{-1}(0) is closed under direct sums
iff the algebra is selfinjective or of finite global dimension.  The probe
proves additivity by one of those two routes, or exhibits a certified witness
pair (phi(M1) = phi(M2) = 0 certified, phi(M1+M2) >= 1); it never infers
non-additivity from a failed search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decomp, exactfield as ef, grothendieck, homology, repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import BoundAlgebra
from .repmod import Rep, RepMap

PAIR_BUDGET = 80  # certified phi = 0 pairs phi_zero_probe tries, most promising first


# ---------------------------------------------------------------------------
# global dimension and the infinite locus Q^infinity


@dataclass
class GldimResult:
    status: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    witness: str | None = None  # vertex of an infinite-pd simple

    def describe(self) -> str:
        if self.status == "finite":
            return f"gldim = {self.value}"
        if self.status == "infinite":
            return f"gldim = infinity (simple at {self.witness})"
        return "gldim unknown at budget"


def global_dimension(alg: BoundAlgebra, budgets: Budgets = DEFAULT) -> GldimResult:
    """gldim read off the pd statuses of the simples: q_infinity's gldim."""
    return q_infinity(alg, budgets).gldim


@dataclass
class QInfinity:
    statuses: dict  # vertex -> PdResult
    certified: frozenset  # vertices with certified-infinite pd
    all_decided: bool  # no unknown statuses
    gldim: GldimResult  # the first infinite simple, any unknown, or the largest pd


def q_infinity(alg: BoundAlgebra, budgets: Budgets = DEFAULT) -> QInfinity:
    """Per-vertex pd status of the simples; the certified-infinite locus.

    Each simple's pd is read at budgets.depth first.  The simples it leaves
    unknown are re-read after omega_orbit of their classes, under
    budgets.classes and max_dim: a closed orbit holds the syzygy of every
    class it reached, so pd then settles them with no depth bound.  When
    gldim is finite the orbit of the simples is a finite set of classes.
    """
    simples = {v: repmod.simple(alg, v) for v in alg.quiver.vertices}
    statuses = {v: homology.pd(s, budgets) for v, s in simples.items()}
    if open_ := [v for v, r in statuses.items() if r.status == "unknown"]:
        homology.omega_orbit(alg, [alg.registry().simple_ids[v] for v in open_], budgets)
        statuses.update((v, homology.pd(simples[v], budgets)) for v in open_)
    certified = frozenset(v for v, r in statuses.items() if r.status == "infinite")
    decided = all(r.status != "unknown" for r in statuses.values())
    if certified:
        gldim = GldimResult("infinite", None, next(v for v in statuses if v in certified))
    elif not decided:
        gldim = GldimResult("unknown")
    else:
        gldim = GldimResult("finite", max(r.value for r in statuses.values()))
    return QInfinity(statuses, certified, decided, gldim)


def successors_closed(alg: BoundAlgebra, qinf: QInfinity):
    """Whether every arrow out of the infinite locus stays inside it.

    Returns (status, violating arrow | None) with status in
    {"closed", "violated", "not_decidable"}.
    """
    if not qinf.all_decided:
        return "not_decidable", None
    for a in alg.quiver.arrows:
        if a.source in qinf.certified and a.target not in qinf.certified:
            return "violated", a
    return "closed", None


def simple_socle_check(alg: BoundAlgebra, qinf: QInfinity) -> dict:
    """socle(P_v) simple?, for each vertex in the certified infinite locus."""
    out = {}
    for v in sorted(qinf.certified):
        soc, _ = repmod.socle(alg.projective(v))
        out[v] = soc.total_dim == 1
    return out


# ---------------------------------------------------------------------------
# additivity probe


@dataclass
class AdditivityVerdict:
    kind: str  # "additive_gldim" | "additive_selfinjective" | "witness" | "inconclusive"
    m1: Rep | None = None
    m2: Rep | None = None
    phi1: object = None
    phi2: object = None
    phi12: object = None
    note: str = ""

    def describe(self) -> str:
        if self.kind == "additive_gldim":
            return "phi^{-1}(0) additive: finite global dimension"
        if self.kind == "additive_selfinjective":
            return "phi^{-1}(0) additive: selfinjective algebra"
        if self.kind == "witness":
            return (f"not additive: phi(M1)={self.phi1.value}, "
                    f"phi(M2)={self.phi2.value}, phi(M1+M2)={self.phi12.value} "
                    f"(M1 {dict(self.m1.dims)}, M2 {dict(self.m2.dims)})")
        return f"inconclusive: {self.note}"


def quotient_by_socle_part(alg: BoundAlgebra, v: str, verts) -> Rep | None:
    """P_v modulo one socle copy of S_w for each w in verts.

    None when the socle of P_v has no S_w part for some w in verts.
    """
    proj = alg.projective(v)
    soc, soc_inc = repmod.socle(proj)
    rows = {}
    for w in verts:
        if soc.dims[w] == 0:
            return None
        rows[w] = soc_inc.mats[w][0:1]
    q = repmod.quotient(proj, rows)
    return None if q.total_dim == proj.total_dim else q


def _embed_and_quotient(pool: list, alg: BoundAlgebra, base: Rep,
                        pieces: list, kinc: RepMap, cover: Rep,
                        rng, budgets: Budgets):
    """Add quotients of the cover by sums of syzygy pieces to the pool."""
    p = alg.p
    embeddings = []
    for piece in pieces:
        homs = repmod.hom_basis(piece, base)
        emb = None
        for _ in range(24):
            f = repmod.combine_maps(homs, rng.integers(0, p, size=len(homs))) \
                if homs else None
            if f is not None and f.is_injective():
                emb = f
                break
        embeddings.append(emb)
    n = len(pieces)
    for mask in range(1, 2 ** n):
        chosen = [i for i in range(n) if mask & (1 << i)]
        if any(embeddings[i] is None for i in chosen):
            continue
        rows = {v: np.concatenate(
            [ef.matmul(embeddings[i].mats[v], kinc.mats[v], p) for i in chosen])
            for v in alg.quiver.vertices}
        expected = sum(pieces[i].total_dim for i in chosen)
        try:
            q = repmod.quotient(cover, rows)
        except repmod.NotASubmodule:
            continue
        if cover.total_dim - q.total_dim != expected or q.is_zero:
            continue
        pool.append(q)


def _witness_pool(alg: BoundAlgebra, qinf: QInfinity, budgets: Budgets):
    """Candidate phi-zero modules: infinite-pd simples and projective quotients."""
    rng = np.random.default_rng([budgets.seed % (2 ** 31),
                                 alg.structural_digest() % (2 ** 31), 71])
    pool: list[Rep] = []
    for v in sorted(qinf.certified):
        pool.append(repmod.simple(alg, v))
    # quotients of projectives by subsets of socle copies
    for v in alg.quiver.vertices:
        proj = alg.projective(v)
        soc, _ = repmod.socle(proj)
        verts = [w for w in alg.quiver.vertices if soc.dims[w] > 0]
        for mask in range(1, 2 ** min(len(verts), 3)):
            chosen = tuple(w for i, w in enumerate(verts[:3]) if mask & (1 << i))
            q = quotient_by_socle_part(alg, v, chosen)
            if q is not None and not q.is_zero:
                pool.append(q)
    # quotients of covers by syzygy pieces of infinite-pd simples
    for v in sorted(qinf.certified):
        s = repmod.simple(alg, v)
        cover, _ = homology.projective_cover(s)
        om, kinc = repmod.submodule(cover, repmod.presentation(s).omega)
        if om.is_zero or om.total_dim > budgets.max_dim:
            continue
        pieces, _ = decomp.indecomposable_pieces(om, rng, budgets.confidence)
        reg = alg.registry()
        nonproj = []
        for piece in pieces:
            eid = reg.register(piece, budgets)
            if not reg.is_projective(eid):
                nonproj.append(piece)
        if 0 < len(nonproj) <= 4:
            _embed_and_quotient(pool, alg, om, nonproj, kinc, cover, rng, budgets)
    # dedupe by content, keep first occurrences in order, cap the pool
    seen = set()
    out = []
    for m in pool:
        key = decomp._content(m)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out[:24]


def phi_zero_probe(alg: BoundAlgebra, budgets: Budgets = DEFAULT) -> AdditivityVerdict:
    """Decide additivity of phi^{-1}(0) or search for a certified witness pair."""
    if homology.selfinjectivity(alg):
        return AdditivityVerdict("additive_selfinjective")
    qinf = q_infinity(alg, budgets)
    if qinf.gldim.status == "finite":
        return AdditivityVerdict("additive_gldim")
    pool = _witness_pool(alg, qinf, budgets)
    certified_zero: list[tuple[Rep, object, dict]] = []
    for m in pool:
        try:
            res = grothendieck.phi(m, budgets)
        except BudgetExceeded:
            continue
        if res.certified and res.value == 0:
            vec = grothendieck.class_vector(m, budgets)
            if vec:
                certified_zero.append((m, res, vec))
    reg = alg.registry()
    pairs = []
    for i in range(len(certified_zero)):
        for j in range(i + 1, len(certified_zero)):
            mi, ri, vi = certified_zero[i]
            mj, rj, vj = certified_zero[j]
            if vi == vj:
                continue  # same class content: <add> coincides, no drop possible
            try:
                im_i = grothendieck.omega_bar(alg, vi, budgets)
                im_j = grothendieck.omega_bar(alg, vj, budgets)
            except BudgetExceeded:
                continue
            drop_now = grothendieck.lattice_rank_of([im_i, im_j]) < \
                grothendieck.lattice_rank_of([vi, vj])
            pairs.append((0 if drop_now else 1, i, j))
    pairs.sort()
    for rank_hint, i, j in pairs[:PAIR_BUDGET]:
        mi, ri, _ = certified_zero[i]
        mj, rj, _ = certified_zero[j]
        both = repmod.direct_sum([mi, mj])[0]
        try:
            r12 = grothendieck.phi(both, budgets)
        except BudgetExceeded:
            continue
        if r12.value >= 1:
            return AdditivityVerdict("witness", mi, mj, ri, rj, r12)
    return AdditivityVerdict(
        "inconclusive",
        note=f"no certified witness among {len(certified_zero)} phi-zero candidates")


# ---------------------------------------------------------------------------
# zero Igusa-Todorov subcategory check


@dataclass
class ZeroItReport:
    passed: bool
    add_closed: bool
    omega_closed: bool
    phidim_zero: bool
    details: list

    def failed_axioms(self) -> list:
        out = []
        if not self.add_closed:
            out.append("add-closure")
        if not self.omega_closed:
            out.append("syzygy-closure")
        if not self.phidim_zero:
            out.append("phi-dimension zero")
        return out


def zero_it_check(alg: BoundAlgebra, generators, blocks=(),
                  budgets: Budgets = DEFAULT) -> ZeroItReport:
    """Check the three 0-IT axioms for D = add(generators + block modules).

    A block is a successor-closed vertex set standing for *all* modules
    supported there; blocks must be selfinjective for the phi-dimension
    argument (syzygy classes on a selfinjective block can never merge).
    The finite part is checked exactly: with L the nonprojective generator
    classes outside the blocks, phi-dim(D) = 0 iff the integer matrix of the
    class-level syzygy map on L has full rank (kernel vectors are genuine
    witnesses of phi >= 1 inside D).
    """
    details: list[str] = []
    reg = alg.registry()
    block_sets = [frozenset(b) for b in blocks]
    blocks_ok = True
    for b in block_sets:
        if alg.quiver.successor_closure(b) != b:
            blocks_ok = False
            details.append(f"block {sorted(b)} is not successor-closed")
        elif not homology.selfinjective_block(alg, b):
            blocks_ok = False
            details.append(f"block {sorted(b)} is not selfinjective")

    def in_blocks(rep: Rep) -> bool:
        return any(rep.support() <= b for b in block_sets)

    # add-closure: D is presented as an add-closure, so this verifies the
    # generators decompose cleanly (and records their classes).
    gen_classes: set[int] = set()
    add_closed = True
    for g in generators:
        if g.is_zero:
            continue
        try:
            res = decomp.decompose(g.strip(), budgets)
        except BudgetExceeded:
            add_closed = False
            details.append("a generator exceeds the decomposition budget")
            continue
        gen_classes |= {i for i, _ in res.items}
    allowed = set(gen_classes)

    def class_allowed(eid: int) -> bool:
        if eid in allowed or reg.is_projective(eid):
            return True
        return in_blocks(reg.rep(eid))

    # syzygy-closure on the finite generators (blocks are closed structurally)
    omega_closed = True
    for eid in sorted(gen_classes):
        if reg.is_projective(eid) or in_blocks(reg.rep(eid)):
            continue
        try:
            items = homology.syzygy_class(alg, eid, budgets)
        except BudgetExceeded:
            omega_closed = False
            details.append(f"syzygy of class {eid} exceeds the budget")
            continue
        for j, _ in items:
            if not class_allowed(j):
                omega_closed = False
                details.append(
                    f"syzygy of class {eid} has summand class {j} outside D "
                    f"(dims {dict(reg.rep(j).dims)})")

    # phi-dimension
    phidim_zero = blocks_ok
    if not blocks_ok:
        details.append("phi-dimension argument unavailable without valid blocks")
    if omega_closed and blocks_ok:
        L = sorted(eid for eid in gen_classes
                   if not reg.is_projective(eid) and not in_blocks(reg.rep(eid)))
        if L:
            rows = []
            for eid in L:
                vec = {j: mult for j, mult in homology.syzygy_class(alg, eid, budgets)
                       if not reg.is_projective(j) and not in_blocks(reg.rep(j))}
                rows.append([vec.get(j, 0) for j in L])
            rank = ef.lattice_rank(rows)
            if rank != len(L):
                phidim_zero = False
                details.append(
                    f"class-level syzygy map on {len(L)} non-block classes has "
                    f"rank {rank}: a kernel vector realizes phi >= 1 inside D")
        details.append(f"non-block generator classes: {len(L) if L else 0}")
    elif not omega_closed:
        phidim_zero = False
        details.append("phi-dimension not evaluated: D is not syzygy-closed")
    passed = add_closed and omega_closed and phidim_zero
    return ZeroItReport(passed, add_closed, omega_closed, phidim_zero, details)


# ---------------------------------------------------------------------------
# whole-algebra profile


@dataclass
class AlgebraProfile:
    selfinjective: bool
    qinf: QInfinity
    connected: bool
    successors: str
    socle_simple: dict

    def to_json(self) -> dict:
        return {
            "gldim": {"status": self.qinf.gldim.status, "value": self.qinf.gldim.value,
                      "witness": self.qinf.gldim.witness},
            "selfinjective": self.selfinjective,
            "q_infinity": sorted(self.qinf.certified),
            "q_infinity_decided": self.qinf.all_decided,
            "connected": self.connected,
            "successors_closed": self.successors,
            "simple_socle_on_qinf": {v: bool(b) for v, b in self.socle_simple.items()},
        }


def profile(alg: BoundAlgebra, budgets: Budgets = DEFAULT) -> AlgebraProfile:
    qinf = q_infinity(alg, budgets)
    succ, _ = successors_closed(alg, qinf)
    return AlgebraProfile(
        selfinjective=homology.selfinjectivity(alg),
        qinf=qinf,
        connected=alg.quiver.is_connected(),
        successors=succ,
        socle_simple=simple_socle_check(alg, qinf),
    )
