"""Acceptance battery: desk-scale reproduction of the bundled worked examples.

run_all executes nine criteria against fresh fixture builds and returns a
deterministic report; `quivalg verify-paper` prints one PASS/FAIL line per
criterion.  Criterion 9 re-runs the whole battery a second time and compares
the two payloads byte for byte.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict

import numpy as np

from . import analysis, cli, decomp, exactfield as ef, grothendieck, homology, \
    morita, repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets


def _crit(name: str, passed: bool, summary: str, details=None) -> dict:
    return {"name": name, "passed": bool(passed), "summary": summary,
            "details": details or []}


class Fixtures:
    """Fresh builds of the bundled fixtures (fresh registries per battery run)."""

    def __init__(self):
        self.exA = cli.load_algebra_file("exA.alg")
        self.exB = cli.load_algebra_file("exB.alg")
        self.a2 = cli.load_algebra_file("a2.alg")
        self.nak_si = cli.load_algebra_file("nakayama-selfinj.alg")
        self.nak_a3 = cli.load_algebra_file("nakayama-a3.alg")
        self.exC = cli.load_glue_file("exC.glue")
        self.exCop = cli.load_glue_file("exCop.glue")
        self.remark54 = cli.load_glue_file("remark54.glue")
        self.rsz = cli.load_glue_file("rad-square-zero-pair.glue")


# ---------------------------------------------------------------------------
# criterion 1: the local three-loop algebra


def exterior_dim_oracle(p: int = 101) -> int:
    """Independent degree-wise codimension count for the three-loop ideal."""
    rels = [{(i, i): 1} for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            rels.append({(i, j): 1, (j, i): 1})
    total = 1
    d = 1
    while True:
        words = list(itertools.product(range(3), repeat=d))
        widx = {w: k for k, w in enumerate(words)}
        rows = []
        for rel in rels:
            for pos in range(d - 1):
                for prefix in itertools.product(range(3), repeat=pos):
                    for suffix in itertools.product(range(3), repeat=d - 2 - pos):
                        row = np.zeros(len(words), dtype=np.int64)
                        for w2, c in rel.items():
                            row[widx[prefix + w2 + suffix]] = c
                        rows.append(row)
        rank = ef.rank_fp(np.stack(rows), p) if rows else 0
        codim = len(words) - rank
        total += codim
        if codim == 0:
            return total
        d += 1


def criterion_1(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    A = fx.exA
    ok = True
    oracle = exterior_dim_oracle(A.p)
    dim_ok = A.dim == 8 and oracle == 8
    details.append(f"dim(A) = {A.dim}, independent enumeration = {oracle}")
    ok &= dim_ok
    si = homology.selfinjectivity(A)
    details.append(f"selfinjective: {si}")
    ok &= si
    # local quotients of P0 and 50 random modules all have certified phi = 0
    p0 = A.projective("0")
    quotients = []
    _, soc_inc = repmod.socle(p0)
    quotients.append(repmod.quotient(p0, soc_inc.mats))
    rad1, rad1_inc = repmod.radical(p0)
    quotients.append(repmod.quotient(p0, rad1_inc.mats))
    _, rad2_inc = repmod.radical(rad1)
    quotients.append(repmod.quotient(p0, {v: ef.matmul(rad2_inc.mats[v], rad1_inc.mats[v], A.p)
                                          for v in A.quiver.vertices}))
    rng = np.random.default_rng([budgets.seed, 911])
    for _ in range(5):
        picks = rng.integers(0, 2, size=rad1.dims["0"])
        scales = rng.integers(1, A.p, size=rad1.dims["0"])
        rows = {"0": ef.matmul((picks * scales).reshape(1, -1), rad1_inc.mats["0"], A.p)}
        sub, inc = repmod.generated_submodule(p0, rows)
        if 0 < sub.total_dim < p0.total_dim:
            quotients.append(repmod.quotient(p0, inc.mats))
    bad = 0
    for q in quotients:
        r = grothendieck.phi(q, budgets)
        if not (r.certified and r.value == 0):
            bad += 1
    for i in range(50):
        m = repmod.random_module(A, (budgets.seed << 12) + i, 12)
        r = grothendieck.phi(m, budgets)
        if not (r.certified and r.value == 0):
            bad += 1
    details.append(f"phi = 0 certified on {len(quotients)} local quotients of P0 "
                   f"and 50 random modules; failures: {bad}")
    ok &= bad == 0
    return _crit("1 exterior-type local algebra",
                 ok, f"dim 8, selfinjective, phi == 0 everywhere", details)


# ---------------------------------------------------------------------------
# criterion 2: the radical-square-zero two-vertex algebra


def criterion_2(fx: Fixtures, budgets: Budgets) -> dict:
    B = fx.exB
    details = []
    ok = True
    s1, s2 = repmod.simple(B, "1"), repmod.simple(B, "2")
    target = repmod.direct_sum([s1, s2])[0]
    for v, s in (("1", s1), ("2", s2)):
        om = homology.syzygy(s)
        iso = decomp.is_isomorphic(om, target, budgets)
        details.append(f"Omega(S{v}) ~ S1+S2: {iso.verdict}")
        ok &= iso.verdict == "yes"
    r = grothendieck.phi(repmod.direct_sum([s1, s2])[0], budgets)
    trace_ok = r.value == 1 and r.certified and r.certificate == "orbit_cycle" \
        and list(r.trace[:3]) == [2, 1, 1]
    details.append(r.describe())
    ok &= trace_ok
    gd = analysis.global_dimension(B, budgets)
    details.append(gd.describe())
    ok &= gd.status == "infinite"
    return _crit("2 radical-square-zero algebra", ok,
                 "syzygies of simples, phi trace [2,1,1], infinite gldim", details)


# ---------------------------------------------------------------------------
# criterion 3: glued algebra and its opposite


def criterion_3(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    for label, glued in (("C", fx.exC), ("Cop", fx.exCop)):
        details.append(f"{label}: glue built; connector-ideal containment "
                       f"verified; flags {glued.flags}")
        hit = morita.nonzero_on_radicals(glued.algebra,
                                         glued.spec.alphas + glued.spec.betas)
        details.append(f"{label}: syzygy split holds for every module: every connector "
                       f"acts as zero on rad P_v at every vertex v" if hit is None else
                       f"{label}: connector {hit[1]} is nonzero on rad P_{hit[0]}, "
                       f"so Omega(S_{hit[0]}) does not split")
        ok &= hit is None
    cop = fx.exCop.algebra
    s2 = repmod.simple(cop, "2")
    om_s2 = homology.syzygy(s2)
    target = repmod.direct_sum([repmod.simple(cop, "1"), s2])[0]
    iso1 = decomp.is_isomorphic(om_s2, target, budgets)
    m2 = cli.parse_module_expr(cop, "P1/(S1+S2)")
    om_m2 = homology.syzygy(m2)
    iso2 = decomp.is_isomorphic(om_m2, target, budgets)
    details.append(f"over Cop: Omega(S2) ~ S1+S2: {iso1.verdict}; "
                   f"Omega(P1/(S1+S2)) ~ S1+S2: {iso2.verdict}")
    ok &= iso1.verdict == "yes" and iso2.verdict == "yes"
    pair = repmod.direct_sum([s2, m2])[0]
    r = grothendieck.phi(pair, budgets)
    details.append(f"phi(S2 + P1/(S1+S2)): {r.describe()}")
    ok &= r.value >= 1
    zit = analysis.zero_it_check(
        cop,
        [repmod.simple(cop, "0"), cop.projective("0"),
         repmod.radical(cop.projective("0"))[0]],
        blocks=[["0"]], budgets=budgets)
    details.append(f"zero-IT check on the local block: passed={zit.passed} "
                   f"{zit.failed_axioms()}")
    ok &= zit.passed
    return _crit("3 gluing and opposite", ok,
                 "splitting lemma, syzygy coincidences, block 0-IT class", details)


# ---------------------------------------------------------------------------
# criterion 4: the one-extra-vertex gluing


def criterion_4(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    c = fx.remark54
    alg = c.algebra
    om_sv = homology.syzygy(repmod.simple(alg, "v"))
    iso = decomp.is_isomorphic(om_sv, alg.projective("0"), budgets)
    details.append(f"Omega_C(S_v) ~ P0: {iso.verdict}")
    ok &= iso.verdict == "yes"
    A = c.left
    mism = 0
    for i in range(50):
        m = repmod.random_module(A, (budgets.seed << 14) + i, 10)
        lhs = homology.syzygy(repmod.extend_rep(alg, m))
        rhs = repmod.extend_rep(alg, homology.syzygy(m))
        if not lhs.equals(rhs):
            iso2 = decomp.is_isomorphic(lhs, rhs, budgets)
            if iso2.verdict != "yes":
                mism += 1
    details.append(f"Omega_C = Omega_A on 50 random A-side modules; mismatches {mism}")
    ok &= mism == 0
    verdict = analysis.phi_zero_probe(alg, budgets)
    details.append(verdict.describe())
    witness_ok = (verdict.kind == "witness"
                  and verdict.phi1.certified and verdict.phi1.value == 0
                  and verdict.phi2.certified and verdict.phi2.value == 0
                  and verdict.phi12.certified and verdict.phi12.value == 1)
    if verdict.kind == "witness":
        details.append(f"phi12: {verdict.phi12.describe()}")
    ok &= witness_ok
    return _crit("4 one-vertex extension gluing", ok,
                 "syzygy of the new simple is projective; witness pair certified",
                 details)


# ---------------------------------------------------------------------------
# criterion 5: phi identities on random modules


def criterion_5(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    fixtures = [("a2", fx.a2), ("exB", fx.exB),
                ("nakayama-selfinj", fx.nak_si), ("nakayama-a3", fx.nak_a3)]
    for label, alg in fixtures:
        certified = 0
        checked = 0
        violations = []
        prev = None
        for i in range(100):
            m = repmod.random_module(alg, (budgets.seed << 15) + i, 10)
            try:
                pm = grothendieck.phi(m, budgets)
            except BudgetExceeded:
                prev = None
                continue
            if not pm.certified:
                prev = None
                continue
            certified += 1
            pk2 = grothendieck.phi(repmod.power(m, 2), budgets)
            pk3 = grothendieck.phi(repmod.power(m, 3), budgets)
            pom = grothendieck.phi(homology.syzygy(m), budgets)
            pdres = homology.pd(m, budgets)
            checked += 1
            if pk2.certified and pk2.value != pm.value:
                violations.append(f"{i}: phi(M^2) != phi(M)")
            if pk3.certified and pk3.value != pm.value:
                violations.append(f"{i}: phi(M^3) != phi(M)")
            if pom.certified and pm.value > pom.value + 1:
                violations.append(f"{i}: phi(M) > phi(Omega M) + 1")
            if pdres.status == "finite" and pm.value != pdres.value:
                violations.append(f"{i}: phi(M)={pm.value} != pd(M)={pdres.value}")
            if prev is not None:
                mprev, pprev = prev
                psum = grothendieck.phi(repmod.direct_sum([mprev, m])[0], budgets)
                if psum.certified and pprev.value > psum.value:
                    violations.append(f"{i}: phi(M) > phi(M+N)")
            prev = (m, pm)
            # indecomposable with certified infinite pd has phi = 0
            reg = alg.registry()
            vec = grothendieck.class_vector(m, budgets)
            for eid in vec:
                rclass = homology.pd_class(alg, eid, budgets)
                if rclass.status == "infinite":
                    rphi = grothendieck.phi(reg.rep(eid), budgets)
                    if rphi.certified and rphi.value != 0:
                        violations.append(f"{i}: indec class {eid} pd=inf phi!=0")
        rate = certified / 100.0
        details.append(f"{label}: certification rate {rate:.2f}, "
                       f"{len(violations)} violations")
        details.extend(violations[:4])
        ok &= rate >= 0.9 and not violations
    return _crit("5 phi identity battery", ok,
                 "five phi identities on 4 fixtures x 100 random modules", details)


# ---------------------------------------------------------------------------
# criterion 6: additivity battery with left-right parity


def _phi_zero_pairs_close(alg, budgets: Budgets, n_pairs: int = 100) -> tuple:
    found = 0
    bad = 0
    pool = []
    draw = 0
    while found < n_pairs and draw < 12 * n_pairs:
        if draw % 2 == 0:
            m = repmod.random_module(alg, (budgets.seed << 17) + draw, 10)
        else:
            rng = np.random.default_rng([budgets.seed, draw, 13])
            verts = alg.quiver.vertices
            picks = [verts[int(rng.integers(len(verts)))]
                     for _ in range(1 + int(rng.integers(2)))]
            m = repmod.direct_sum([alg.projective(v) for v in picks])[0]
        draw += 1
        try:
            r = grothendieck.phi(m, budgets)
        except BudgetExceeded:
            continue
        if r.certified and r.value == 0:
            pool.append(m)
        if len(pool) >= 2:
            m1, m2 = pool.pop(0), pool.pop(0)
            r12 = grothendieck.phi(repmod.direct_sum([m1, m2])[0], budgets)
            found += 1
            if not (r12.certified and r12.value == 0):
                bad += 1
    return found, bad


def criterion_6(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    expectations = [
        ("a2", fx.a2, "additive_gldim"),
        ("nakayama-a3", fx.nak_a3, "additive_gldim"),
        ("exA", fx.exA, "additive_selfinjective"),
        ("nakayama-selfinj", fx.nak_si, "additive_selfinjective"),
        ("remark54", fx.remark54.algebra, "witness"),
    ]
    verdicts = {}
    for label, alg, expected in expectations:
        v = analysis.phi_zero_probe(alg, budgets)
        verdicts[label] = (alg, v)
        details.append(f"{label}: {v.kind} (expected {expected})")
        ok &= v.kind == expected
    for label, (alg, v) in verdicts.items():
        if v.kind.startswith("additive"):
            found, bad = _phi_zero_pairs_close(alg, budgets)
            details.append(f"{label}: {found} phi-zero pairs closed, {bad} failures")
            ok &= found >= 100 and bad == 0
    for label, (alg, v) in verdicts.items():
        vop = analysis.phi_zero_probe(alg.opposite(), budgets)
        same = vop.kind == v.kind
        details.append(f"{label}^op: {vop.kind} (direct side: {v.kind})")
        ok &= same
    return _crit("6 additivity theorem battery", ok,
                 "verdicts, closure of phi-zero pairs, left-right parity", details)


# ---------------------------------------------------------------------------
# criterion 7: syzygy-finite gluing reproduction


def criterion_7(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    c = fx.rsz
    probe_a = homology.syzygy_finite_probe(c.left, 1, budgets)
    probe_b = homology.syzygy_finite_probe(c.right, 1, budgets)
    details.append(f"side probes closed: {probe_a.closed}, {probe_b.closed}")
    ok &= all(q.closed and q.certified for q in (probe_a, probe_b))
    probe_c = homology.syzygy_finite_probe(c.algebra, 2, budgets)
    details.append(f"glued probe (shift 2) closed: {probe_c.closed}, "
                   f"classes {list(probe_c.reached)}")
    ok &= probe_c.closed and probe_c.certified
    h4 = morita.check_h4(c, budgets, "full")
    details.append(f"orbit subgroup: {h4.status}")
    ok &= h4.status == "finitely_generated"
    predicted_a = set(probe_a.reached) | set(h4.a_orbit.reached)
    predicted_b = set(probe_b.reached) | set(h4.b_orbit.reached)
    reg = c.algebra.registry()
    areg, breg = c.left.registry(), c.right.registry()
    outside = 0
    mixed = 0
    for i in range(50):
        m = repmod.random_module(c.algebra, (budgets.seed << 18) + i, 10)
        try:
            res = decomp.decompose(homology.omega_power(m, 2, budgets.max_dim), budgets)
        except BudgetExceeded:
            outside += 1
            continue
        for eid, _ in res.items:
            if reg.is_projective(eid):
                continue
            rep = reg.rep(eid)
            supp = rep.support()
            if supp <= c.a_vertices:
                sid = areg.register(repmod.restrict_rep(c.left, rep), budgets)
                if sid not in predicted_a:
                    outside += 1
            elif supp <= c.b_vertices:
                sid = breg.register(repmod.restrict_rep(c.right, rep), budgets)
                if sid not in predicted_b:
                    outside += 1
            else:
                mixed += 1
    details.append(f"50 random second syzygies: {mixed} mixed-support summands, "
                   f"{outside} outside the predicted set")
    ok &= mixed == 0 and outside == 0
    report = morita.classify_gluing(c, budgets=budgets)
    props = [e.proposition for e in report.entries]
    details.append(f"classification entries: {props}")
    ok &= "syzygy_finite_gluing" in props
    return _crit("7 syzygy-finite gluing", ok,
                 "probes closed; second syzygies inside the predicted class set",
                 details)


# ---------------------------------------------------------------------------
# criterion 8: functor contracts


def _check_g_side(c, side: str, budgets: Budgets, details: list) -> bool:
    ok = True
    side_alg = c.left if side == "a" else c.right
    op = side_alg.opposite()
    cop = c.algebra.opposite()
    gfun = morita.g_a if side == "a" else morita.g_b
    restrict = (lambda m: repmod.restrict_rep(op, m))
    mism = proj_bad = exact_bad = commute_bad = 0
    for i in range(20):
        m = repmod.random_module(op, (budgets.seed << 19) + i, 8)
        gm = gfun(c, m)
        if repmod.validate(gm) is not None:
            mism += 1
            continue
        if not restrict(gm).equals(m):
            mism += 1
        # exactness on the cover sequence of m
        cover, epi = homology.projective_cover(m)
        om, kinc = repmod.submodule(cover, repmod.presentation(m).omega)
        gk = gfun(c, om)
        gP = gfun(c, cover)
        gM = gm
        ginc = morita.g_a_map(c, kinc) if side == "a" else morita.g_b_map(c, kinc)
        gepi = morita.g_a_map(c, epi) if side == "a" else morita.g_b_map(c, epi)
        if not ginc.is_injective() or not gepi.is_surjective():
            exact_bad += 1
        else:
            comp = ginc.compose(gepi)
            if not comp.is_zero():
                exact_bad += 1
            else:
                for v in cop.quiver.vertices:
                    if gk.dims[v] + gM.dims[v] != gP.dims[v]:
                        exact_bad += 1
                        break
        # K0-level commuting with the syzygy operator
        try:
            lhs = grothendieck.class_vector(homology.syzygy(gm), budgets)
            rhs_vec = grothendieck.class_vector(homology.syzygy(m), budgets)
            rhs = {}
            opreg = op.registry()
            for eid, mult in rhs_vec.items():
                gv = grothendieck.class_vector(gfun(c, opreg.rep(eid)), budgets)
                for j, k in gv.items():
                    rhs[j] = rhs.get(j, 0) + mult * k
            if lhs != {k: v for k, v in rhs.items() if v}:
                commute_bad += 1
        except BudgetExceeded:
            commute_bad += 1
    for v in op.quiver.vertices:
        gproj = gfun(c, op.projective(v))
        iso = decomp.is_isomorphic(gproj, cop.projective(v), budgets)
        if iso.verdict != "yes":
            proj_bad += 1
    details.append(f"{c.algebra.name} side {side}: retract mismatches {mism}, "
                   f"projectivity failures {proj_bad}, exactness failures "
                   f"{exact_bad}, K0-commute failures {commute_bad}")
    return mism == 0 and proj_bad == 0 and exact_bad == 0 and commute_bad == 0


def criterion_8(fx: Fixtures, budgets: Budgets) -> dict:
    details = []
    ok = True
    ok &= _check_g_side(fx.rsz, "a", budgets, details)
    ok &= _check_g_side(fx.rsz, "b", budgets, details)
    ok &= _check_g_side(fx.remark54, "a", budgets, details)
    return _crit("8 functor contracts", ok,
                 "retraction, projectivity, exactness, K0-commutation", details)


# ---------------------------------------------------------------------------
# criterion 9: infrastructure


def _fuzz_source(rng) -> cli.AlgebraSource:
    nv = int(rng.integers(1, 4))
    vertices = tuple(f"v{i}" for i in range(nv))
    na = int(rng.integers(0, 5))
    arrows = tuple((f"x{i}", vertices[int(rng.integers(nv))],
                    vertices[int(rng.integers(nv))]) for i in range(na))
    rels = []
    quiver_ok_paths = []
    for (an, s, t) in arrows:
        for (bn, s2, t2) in arrows:
            if t == s2:
                quiver_ok_paths.append((an, bn))
    for _ in range(int(rng.integers(0, 3))):
        if not quiver_ok_paths:
            break
        w = quiver_ok_paths[int(rng.integers(len(quiver_ok_paths)))]
        coeff = int(rng.integers(1, 101))
        rels.append(((coeff, w),))
    return cli.AlgebraSource(f"fuzz{int(rng.integers(10 ** 6))}", 101, 12,
                             vertices, arrows, tuple(rels))


def criterion_9(fx: Fixtures, budgets: Budgets, battery_payload: str) -> dict:
    details = []
    ok = True
    rng = np.random.default_rng([budgets.seed, 4242])
    bad = 0
    for _ in range(50):
        src = _fuzz_source(rng)
        text = cli.print_algebra(src)
        back = cli.parse_algebra(text)
        if back != src or cli.print_algebra(back) != text:
            bad += 1
    details.append(f"50 fuzzed DSL round-trips, failures {bad}")
    ok &= bad == 0
    ks_bad = 0
    from collections import Counter

    def classes(x):
        return Counter(dict(decomp.decompose(x.strip(), budgets).items))

    for label, alg in (("exB", fx.exB), ("a2", fx.a2)):
        for i in range(50):
            m = repmod.random_module(alg, (budgets.seed << 20) + i, 8)
            n = repmod.random_module(alg, (budgets.seed << 20) + 1000 + i, 8)
            if classes(m) + classes(n) != classes(repmod.direct_sum([m, n])[0]):
                ks_bad += 1
    details.append(f"100 Krull-Schmidt pairs, failures {ks_bad}")
    ok &= ks_bad == 0
    trace_bad = 0
    for i in range(20):
        m = repmod.random_module(fx.exB, (budgets.seed << 21) + i, 10)
        tr = grothendieck.phi(m, budgets).trace
        if any(tr[j + 1] > tr[j] for j in range(len(tr) - 1)):
            trace_bad += 1
    details.append(f"20 rank traces re-checked non-increasing, failures {trace_bad}")
    ok &= trace_bad == 0
    second = run_battery(budgets)
    deterministic = json.dumps(second, sort_keys=True) == battery_payload
    details.append(f"second battery run identical: {deterministic}")
    ok &= deterministic
    return _crit("9 infrastructure", ok,
                 "DSL round-trip, Krull-Schmidt, monotone traces, determinism",
                 details)


# ---------------------------------------------------------------------------
# driver


def run_battery(budgets: Budgets = DEFAULT) -> list:
    """Criteria 1..8 on fresh fixture builds (deterministic per budgets)."""
    fx = Fixtures()
    return [
        criterion_1(fx, budgets),
        criterion_2(fx, budgets),
        criterion_3(fx, budgets),
        criterion_4(fx, budgets),
        criterion_5(fx, budgets),
        criterion_6(fx, budgets),
        criterion_7(fx, budgets),
        criterion_8(fx, budgets),
    ]


def run_all(budgets: Budgets = DEFAULT) -> tuple[dict, bool]:
    battery = run_battery(budgets)
    payload = json.dumps(battery, sort_keys=True)
    fx = Fixtures()
    crit9 = criterion_9(fx, budgets, payload)
    criteria = battery + [crit9]
    passed = all(c["passed"] for c in criteria)
    report = {
        "criteria": criteria,
        "passed": passed,
        "budgets": asdict(budgets),
    }
    return report, passed
