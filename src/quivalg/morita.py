"""Morita-context gluing of two bound quiver algebras with zero bimodule maps.

A gluing joins algebras A and B along connector arrows (alphas A->B, betas
B->A); the glued ideal always contains the two-sided products that kill
connector compositions (the `generated` set), and may extend it.  The module
also provides the restriction functors to each side, the extension functors
into modules over the opposite glued algebra, the per-module syzygy-splitting
check, the finite-generation probe for the orbit hypothesis, and
proposition-driven classification reports.

Two claims about every module are decided on the radicals of the
projectives, by `nonzero_on_radicals`: Omega(M) lies in rad P0(M) for every
M, and Omega(S_v) = rad P_v, so a set of arrows acts as zero on every syzygy
iff it acts as zero on every rad P_v.  For the connectors of a built gluing
that holds by H3 (every connector composition is zero in C), so Omega_C(M) is
its A-part plus its B-part for every M.  For the arrows out of the B-vertices
it gives the shape of the selfinjective-block LIT entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import decomp, exactfield as ef, homology, repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import Arrow, BoundAlgebra, Quiver, Relation, build_algebra
from .repmod import Rep, RepMap


class H3Violation(RuntimeError):
    """An element of the generated connector ideal survives in the quotient."""


@dataclass
class GluingSpec:
    """Gluing data: two algebras, connector arrows, and the ideal mode.

    Connectors are `Arrow`s, or (name, source, target) triples turned into
    them.  Extra relations are term lists of (coeff, arrow names), as for
    `Relation`; their words may use the arrows of either side and the
    connectors, and `glue` builds them on the union quiver.
    """

    left: BoundAlgebra
    right: BoundAlgebra
    alphas: tuple  # Arrow(name, vA, vB)
    betas: tuple   # Arrow(name, vB, vA)
    mode: str = "generated"  # or "extended"
    extra_relations: tuple = ()  # term lists of (coeff, arrow names)
    name: str = "glued"

    def __post_init__(self):
        self.alphas = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in self.alphas)
        self.betas = tuple(b if isinstance(b, Arrow) else Arrow(*b) for b in self.betas)
        if self.mode not in ("generated", "extended"):
            raise ValueError(f"unknown ideal mode {self.mode!r}")
        if self.mode == "generated" and self.extra_relations:
            raise ValueError("generated mode admits no extra relations")
        if self.left.p != self.right.p:
            raise ValueError("the two algebras use different primes")
        overlap = set(self.left.quiver.vertices) & set(self.right.quiver.vertices)
        if overlap:
            raise ValueError(f"vertex ids shared between sides: {sorted(overlap)}")
        for a in self.alphas:
            if a.source not in self.left.quiver.vertex_index \
                    or a.target not in self.right.quiver.vertex_index:
                raise ValueError(f"alpha connector {a.name} must go A -> B")
        for b in self.betas:
            if b.source not in self.right.quiver.vertex_index \
                    or b.target not in self.left.quiver.vertex_index:
                raise ValueError(f"beta connector {b.name} must go B -> A")


@dataclass
class GluedAlgebra:
    """A built gluing: the algebra C plus side/boundary bookkeeping."""

    algebra: BoundAlgebra
    spec: GluingSpec
    a_vertices: frozenset
    b_vertices: frozenset
    boundary_a: frozenset  # A-vertices sourcing a connector into B
    boundary_b: frozenset  # B-vertices sourcing a connector into A
    t_vertices: frozenset  # connector sources (both kinds)
    flags: dict

    @property
    def left(self) -> BoundAlgebra:
        return self.spec.left

    @property
    def right(self) -> BoundAlgebra:
        return self.spec.right


def _generated_relations(spec: GluingSpec, quiver: Quiver) -> list[Relation]:
    p = spec.left.p
    rels = [Relation(quiver, rel.words(), p)
            for side in (spec.left, spec.right) for rel in side.relations]
    words = [(arr.name, a.name) for a in spec.alphas
             for arr in spec.left.quiver.arrows if arr.target == a.source]
    words += [(arr.name, b.name) for b in spec.betas
              for arr in spec.right.quiver.arrows if arr.target == b.source]
    for a in spec.alphas:
        for b in spec.betas:
            if a.target == b.source:
                words.append((a.name, b.name))
            if b.target == a.source:
                words.append((b.name, a.name))
    return rels + [Relation(quiver, [(1, w)], p) for w in words]


def glue(spec: GluingSpec) -> GluedAlgebra:
    """Build C on the union quiver and verify the connector-ideal containment."""
    verts = spec.left.quiver.vertices + spec.right.quiver.vertices
    quiver = Quiver(verts, spec.left.quiver.arrows + spec.right.quiver.arrows
                    + spec.alphas + spec.betas)
    generated = _generated_relations(spec, quiver)
    extra = [Relation(quiver, terms, spec.left.p) for terms in spec.extra_relations]
    algebra = build_algebra(quiver, generated + extra, spec.left.p,
                            max(spec.left.m_max, spec.right.m_max),
                            name=spec.name)
    for rel in generated:
        if algebra.normal_form(rel.element()):
            raise H3Violation(f"generated element {rel} survives in C")
    a_verts = frozenset(spec.left.quiver.vertices)
    b_verts = frozenset(spec.right.quiver.vertices)
    boundary_a = frozenset(a.source for a in spec.alphas)
    boundary_b = frozenset(b.source for b in spec.betas)
    endpoints_disjoint = all(a.source != b.target for a in spec.alphas
                             for b in spec.betas) and \
        all(b.source != a.target for a in spec.alphas for b in spec.betas)
    flags = {
        "j_empty": not spec.alphas,
        "k_empty": not spec.betas,
        "generated": spec.mode == "generated",
        "endpoints_disjoint": endpoints_disjoint,
        "connected": quiver.is_connected(),
    }
    return GluedAlgebra(algebra, spec, a_verts, b_verts, boundary_a, boundary_b,
                        boundary_a | boundary_b, flags)


# ---------------------------------------------------------------------------
# restriction functors


def pi_a(c: GluedAlgebra, m: Rep) -> Rep:
    """Restriction of a C-module to the A side."""
    return repmod.restrict_rep(c.left, m)


def pi_b(c: GluedAlgebra, m: Rep) -> Rep:
    return repmod.restrict_rep(c.right, m)


# ---------------------------------------------------------------------------
# extension functors into mod C^op


def _side(c: GluedAlgebra, side: str):
    """(side algebra, connectors reversed into it in C^op) for side "a" or "b"."""
    return (c.left, c.spec.betas) if side == "a" else (c.right, c.spec.alphas)


def _incoming_blocks(c: GluedAlgebra, side: str):
    """For each target-side vertex, the connectors feeding it in C^op order."""
    blocks: dict[str, list[Arrow]] = {}
    for con in _side(c, side)[1]:
        blocks.setdefault(con.source, []).append(con)
    return blocks


def _extend(c: GluedAlgebra, m: Rep, side: str) -> Rep:
    """G_A (side "a", along betas) or G_B (side "b", along alphas) on modules."""
    alg, connectors = _side(c, side)
    op = alg.opposite()
    if m.algebra is not op:
        which = "left" if side == "a" else "right"
        raise ValueError(f"g_{side} expects a module over the opposite of the {which} algebra")
    cop = c.algebra.opposite()
    blocks = _incoming_blocks(c, side)
    dims = {v: m.dims[v] for v in op.quiver.vertices}
    offsets: dict[str, dict[str, int]] = {}
    for i, cons in blocks.items():
        off = 0
        offsets[i] = {}
        for con in cons:
            offsets[i][con.name] = off
            off += m.dims[con.target]  # con.target is on this side
        dims[i] = off
    mats = {}
    for arr in cop.quiver.arrows:
        if arr.name in op.quiver.arrow_map:
            mats[arr.name] = m.mats[arr.name]
        elif any(con.name == arr.name for con in connectors):
            # reversed connector: from this side's vertex t(con) into the block at s(con)
            con = next(x for x in connectors if x.name == arr.name)
            src_dim = m.dims[con.target]
            tgt_dim = dims.get(con.source, 0)
            block = ef.zeros(src_dim, tgt_dim)
            off = offsets[con.source][con.name]
            for j in range(src_dim):
                block[j, off + j] = 1
            mats[arr.name] = block
        # the other connectors and the other side's arrows act by zero (default)
    return Rep(cop, dims, mats)


def _extend_map(c: GluedAlgebra, f: RepMap, side: str, gm: Rep, gn: Rep) -> RepMap:
    """The extension functor of `side` on a map f, given its values gm, gn on the ends."""
    mats = {v: f.mats[v] for v in _side(c, side)[0].opposite().quiver.vertices}
    for i, cons in _incoming_blocks(c, side).items():
        mat = ef.zeros(gm.dims[i], gn.dims[i])
        ro = co = 0
        for con in cons:
            blk = f.mats[con.target]
            mat[ro:ro + blk.shape[0], co:co + blk.shape[1]] = blk
            ro += blk.shape[0]
            co += blk.shape[1]
        mats[i] = mat
    return RepMap(gm, gn, mats)


def g_a(c: GluedAlgebra, m: Rep) -> Rep:
    """Extension functor mod A^op -> mod C^op (exact, additive, projective-preserving).

    Vertex spaces: m on the A side; on a B-side vertex fed by reversed beta
    connectors, the direct sum of the sources' spaces; the designated connector
    acts by the identity block, every other new arrow by zero.
    """
    return _extend(c, m, "a")


def g_a_map(c: GluedAlgebra, f: RepMap) -> RepMap:
    return _extend_map(c, f, "a", g_a(c, f.source), g_a(c, f.target))


def g_b(c: GluedAlgebra, m: Rep) -> Rep:
    """Extension functor mod B^op -> mod C^op (mirror of g_a along alphas)."""
    return _extend(c, m, "b")


def g_b_map(c: GluedAlgebra, f: RepMap) -> RepMap:
    return _extend_map(c, f, "b", g_b(c, f.source), g_b(c, f.target))


# ---------------------------------------------------------------------------
# syzygy splitting


@dataclass
class SplitReport:
    ok: bool
    a_dims: dict
    b_dims: dict
    top_clause: str = "skipped"
    detail: str = ""


def one_sided_parts(c: GluedAlgebra, m: Rep):
    """Split m as (pure A-side submodule) + (pure B-side) when possible.

    Returns (a_part, b_part) or None; the parts are the submodules generated
    by the vertex components of each side.
    """
    alg = c.algebra
    rows_a = {v: (ef.eye(m.dims[v]) if v in c.a_vertices else ef.zeros(0, m.dims[v]))
              for v in alg.quiver.vertices}
    rows_b = {v: (ef.eye(m.dims[v]) if v in c.b_vertices else ef.zeros(0, m.dims[v]))
              for v in alg.quiver.vertices}
    a_part, _ = repmod.generated_submodule(m, rows_a)
    b_part, _ = repmod.generated_submodule(m, rows_b)
    pure_a = all(a_part.dims[v] == 0 for v in c.b_vertices)
    pure_b = all(b_part.dims[v] == 0 for v in c.a_vertices)
    if pure_a and pure_b and a_part.total_dim + b_part.total_dim == m.total_dim:
        return a_part, b_part
    return None


def nonzero_on_radicals(alg: BoundAlgebra, arrows):
    """The first (vertex v, arrow name) with the arrow nonzero on rad P_v, or None.

    None means the arrows act as zero on every syzygy over alg, since
    Omega(M) lies in rad P0(M); a hit means they do not on Omega(S_v) = rad P_v.
    """
    for v in alg.quiver.vertices:
        rad = repmod.radical(alg.projective(v))[0]
        for arr in arrows:
            if rad.mats[arr.name].any():
                return v, arr.name
    return None


def verify_syzygy_split(c: GluedAlgebra, m: Rep, budgets: Budgets = DEFAULT) -> SplitReport:
    """Check Omega_C(m) = (A-side part) + (B-side part) on one module.

    Also checks the top clause: for one-sided m, the opposite-side part of
    Omega(m) matches the opposite-side part of Omega(top m) up to isomorphism.
    The claim for every module is `nonzero_on_radicals` on the connectors;
    this per-module check is the tests' oracle of it.
    """
    om = homology.syzygy(m)
    parts = one_sided_parts(c, om)
    if parts is None:
        detail = "syzygy does not split into one-sided parts"
        try:
            res = decomp.decompose(om.strip(), budgets)
            reg = c.algebra.registry()
            bad = [i for i, _ in res.items
                   if reg.rep(i).support() & c.a_vertices
                   and reg.rep(i).support() & c.b_vertices]
            detail += f"; mixed-support classes: {bad}"
        except BudgetExceeded:
            detail += "; decomposition over budget"
        return SplitReport(False, {}, {}, detail=detail)
    a_part, b_part = parts
    top_clause = "skipped"
    support = m.support()
    if support and (support <= c.a_vertices or support <= c.b_vertices):
        om_top = homology.syzygy(repmod.top(m))
        tparts = one_sided_parts(c, om_top)
        if tparts is None:
            top_clause = "mismatch (top syzygy does not split)"
        else:
            mine = b_part if support <= c.a_vertices else a_part
            theirs = tparts[1] if support <= c.a_vertices else tparts[0]
            res = decomp.is_isomorphic(mine, theirs, budgets)
            top_clause = "match" if res.verdict == "yes" else f"mismatch ({res.verdict})"
    return SplitReport(True, dict(a_part.dims), dict(b_part.dims), top_clause)


# ---------------------------------------------------------------------------
# the orbit hypothesis


@dataclass
class H4Report:
    status: str  # "finitely_generated" | "inconclusive"
    variant: str  # "boundary" (B0/A0 cross parts) | "full" (C0 seeded)
    a_orbit: homology.OrbitResult | None
    b_orbit: homology.OrbitResult | None

    def generating_ids(self) -> dict:
        out = {}
        if self.a_orbit is not None:
            out["a"] = list(self.a_orbit.reached)
        if self.b_orbit is not None:
            out["b"] = list(self.b_orbit.reached)
        return out


def check_h4(c: GluedAlgebra, budgets: Budgets = DEFAULT,
             variant: str = "boundary") -> H4Report:
    """Probe finite generation of the connector-orbit subgroup.

    variant="boundary" seeds with the cross parts of Omega_C applied to the
    side semisimples; variant="full" seeds both sides with Omega_C of the sum
    of all simples, each omega_power's at budgets.max_dim: past it both orbits are open.
    """
    alg = c.algebra

    def omega_of_simples(vertices):
        simples = [repmod.simple(alg, v) for v in alg.quiver.vertices if v in vertices]
        return (homology.omega_power(repmod.direct_sum(simples)[0], 1, budgets.max_dim)
                if simples else repmod.zero_rep(alg))

    try:
        if variant == "boundary":
            seed_a = pi_a(c, omega_of_simples(c.b_vertices))
            seed_b = pi_b(c, omega_of_simples(c.a_vertices))
        elif variant == "full":
            om = omega_of_simples(alg.quiver.vertices)
            seed_a, seed_b = pi_a(c, om), pi_b(c, om)
        else:
            raise ValueError(f"unknown H4 variant {variant!r}")
    except BudgetExceeded as exc:
        stop = homology.OrbitResult((), (), False, str(exc))
        return H4Report("inconclusive", variant, stop, stop)
    a_orbit = homology.module_orbit(seed_a, budgets)
    b_orbit = homology.module_orbit(seed_b, budgets)
    settled = all(o.closed and o.certified for o in (a_orbit, b_orbit))
    status = "finitely_generated" if settled else "inconclusive"
    return H4Report(status, variant, a_orbit, b_orbit)


# ---------------------------------------------------------------------------
# classification


@dataclass
class SideStatus:
    """Machine-checked or user-asserted facts about one side of a gluing."""

    syzygy_finite: dict | None = None  # {"n": int, "provenance": ...}
    it_level: dict | None = None       # {"n": int, "provenance": ...}
    lit_level: dict | None = None      # {"n": int, "provenance": ...}


@dataclass
class ClassificationEntry:
    proposition: str
    conclusion: str
    hypotheses: list
    witness: dict | None
    checks: list


@dataclass
class ClassificationReport:
    flags: dict
    entries: list
    notes: list


def _machine_side_status(alg: BoundAlgebra, budgets: Budgets) -> SideStatus:
    probe = homology.syzygy_finite_probe(alg, 1, budgets)
    status = SideStatus()
    if probe.closed and probe.certified:
        status.syzygy_finite = {"n": 1, "provenance": "machine",
                                "classes": list(probe.reached)}
        status.it_level = {"n": 1, "provenance": "machine (syzygy-finite)"}
    return status


def classify_gluing(c: GluedAlgebra, a_status: SideStatus | None = None,
                    b_status: SideStatus | None = None,
                    budgets: Budgets = DEFAULT) -> ClassificationReport:
    """Apply the gluing propositions whose hypotheses verify; report-only."""
    entries: list[ClassificationEntry] = []
    notes: list[str] = []
    a_status = a_status or _machine_side_status(c.left, budgets)
    b_status = b_status or _machine_side_status(c.right, budgets)
    if not c.flags["connected"]:
        notes.append("glued quiver is disconnected; theorems assuming "
                     "connectedness apply blockwise")

    # no connectors: product algebra
    if c.flags["j_empty"] and c.flags["k_empty"]:
        entries.append(ClassificationEntry(
            "product", "C = A x B (no connectors); homological data is blockwise",
            ["J empty", "K empty"], None, []))

    h4_full = check_h4(c, budgets, "full")

    # syzygy-finite gluing
    if a_status.syzygy_finite and b_status.syzygy_finite \
            and h4_full.status == "finitely_generated":
        n = max(a_status.syzygy_finite["n"], b_status.syzygy_finite["n"])
        probe_c = homology.syzygy_finite_probe(c.algebra, n + 1, budgets)
        checks = [f"orbit subgroup finitely generated (full variant): "
                  f"{h4_full.generating_ids()}",
                  f"direct probe of C at shift {n + 1}: "
                  f"{'closed' if probe_c.closed else 'open'}"]
        witness = {
            "predicted_generators": {
                "a_side": list((a_status.syzygy_finite.get("classes") or [])),
                "b_side": list((b_status.syzygy_finite.get("classes") or [])),
                "orbit": h4_full.generating_ids(),
            },
            "c_probe_classes": list(probe_c.reached) if probe_c.closed else None,
        }
        entries.append(ClassificationEntry(
            "syzygy_finite_gluing",
            "C is syzygy finite iff A and B are; both verified here",
            [f"A syzygy finite ({a_status.syzygy_finite['provenance']})",
             f"B syzygy finite ({b_status.syzygy_finite['provenance']})",
             "orbit subgroup finitely generated"],
            witness, checks))

    # Igusa-Todorov gluing
    if a_status.it_level and b_status.it_level \
            and h4_full.status == "finitely_generated":
        n = max(a_status.it_level["n"], b_status.it_level["n"])
        witness = {"module": "V_A + A + W_B + B + (sum of orbit classes)",
                   "orbit_classes": h4_full.generating_ids()}
        entries.append(ClassificationEntry(
            "igusa_todorov_gluing",
            f"C is a {n + 1}-Igusa-Todorov algebra",
            [f"A is {a_status.it_level['n']}-IT ({a_status.it_level['provenance']})",
             f"B is {b_status.it_level['n']}-IT ({b_status.it_level['provenance']})",
             "orbit subgroup finitely generated (full variant)"],
            witness, []))

    # one-directional LIT gluing (alphas only)
    if c.flags["k_empty"] and a_status.it_level and b_status.lit_level:
        b_orbit = h4_full.b_orbit
        if b_orbit is not None and b_orbit.closed and b_orbit.certified:
            n = max(a_status.it_level["n"], b_status.lit_level["n"])
            entries.append(ClassificationEntry(
                "lit_one_directional",
                f"C is a {n + 1}-LIT algebra",
                [f"A is {a_status.it_level['n']}-IT "
                 f"({a_status.it_level['provenance']})",
                 f"B is {b_status.lit_level['n']}-LIT "
                 f"({b_status.lit_level['provenance']})",
                 "connectors go one way (K empty)",
                 "B-side orbit of the C0 seed closed"],
                {"module": "V + W + A + (sum of orbit classes)",
                 "zero_it_class": "the asserted 0-IT subcategory of B"}, []))

    # both-sides LIT gluing (generated mode, endpoint-disjoint)
    if c.flags["generated"] and c.flags["endpoints_disjoint"] \
            and a_status.lit_level and b_status.lit_level:
        n = max(a_status.lit_level["n"], b_status.lit_level["n"])
        entries.append(ClassificationEntry(
            "lit_both_sides",
            f"C is a {n + 1}-LIT algebra",
            [f"A is {a_status.lit_level['n']}-LIT "
             f"({a_status.lit_level['provenance']})",
             f"B is {b_status.lit_level['n']}-LIT "
             f"({b_status.lit_level['provenance']})",
             "ideal equals the generated set",
             "connector endpoints disjoint"],
            {"module": "V1 + V2 + boundary projectives of both sides",
             "zero_it_class": "sums D1 + D2 + P with Di in the asserted classes "
                              "minus side projectives, P projective over C"}, []))

    # opposite gluing (generated mode): C^op inherits IT/LIT one level up
    if c.flags["generated"] and a_status.it_level and b_status.it_level:
        n = max(a_status.it_level["n"], b_status.it_level["n"])
        cop = c.algebra.opposite()
        c0 = repmod.direct_sum([repmod.simple(cop, v) for v in cop.quiver.vertices])[0]
        v3, checks = [], []
        try:
            for om in itertools.islice(homology.omega_powers(c0, budgets.max_dim), 1, n + 1):
                v3.append(dict(om.dims))
        except BudgetExceeded as exc:
            checks.append(f"syzygies of C0 over C^op stop at the cap: {exc}")
        entries.append(ClassificationEntry(
            "opposite_gluing",
            f"C^op is a {n + 1}-Igusa-Todorov algebra",
            [f"A^op is {a_status.it_level['n']}-IT (opposite of: "
             f"{a_status.it_level['provenance']})",
             f"B^op is {b_status.it_level['n']}-IT (opposite of: "
             f"{b_status.it_level['provenance']})",
             "ideal equals the generated set"],
            {"module": "G_A(V1) + G_B(V2) + (syzygies of C0 over C^op up to n)",
             "v3_dims": v3}, checks))

    # selfinjective-block LIT shape over C or C^op: D = modules on the block,
    # V = the opposite-side simples; decided on the projectives' radicals.
    entry = _block_lit_entry(c)
    if entry is not None:
        entries.append(entry)

    return ClassificationReport(dict(c.flags), entries, notes)


def _block_lit_entry(c: GluedAlgebra):
    """LIT witness where the A side is a selfinjective sink block.

    Fires for the glued algebra itself or for its opposite, whichever has
    every A-side path trapped inside the A vertices and every arrow out of a
    B-vertex zero on every rad P_v.  Then each syzygy, inside rad P0, is a
    block module plus B-simples; Omega(S_v) = rad P_v shows the converse.
    """
    a_verts = c.a_vertices
    for which, alg in (("C", c.algebra), ("C^op", c.algebra.opposite())):
        if alg.quiver.successor_closure(a_verts) != a_verts \
                or not homology.selfinjective_block(alg, a_verts):
            continue
        out_of_b = [arr for arr in alg.quiver.arrows if arr.source in c.b_vertices]
        if nonzero_on_radicals(alg, out_of_b) is not None:
            continue
        simple_ids = alg.registry().simple_ids
        return ClassificationEntry(
            "selfinjective_block_lit",
            f"{which} is (1, V, D)-LIT with D = modules supported on the "
            "selfinjective sink block and V = the opposite-side simples",
            ["A-side vertices are successor-closed",
             "restricted block algebra is selfinjective",
             "arrows out of B-vertices vanish on every rad P_v"],
            {"algebra": which, "block": sorted(a_verts),
             "v_simple_classes": sorted(simple_ids[v] for v in c.b_vertices)},
            [f"over {which}, every syzygy lies in rad P0, where the arrows out of "
             "B-vertices act as zero: a block module plus B-side simples"])
    return None
