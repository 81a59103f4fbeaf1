"""Command-line workbench: DSL parsing, command dispatch, JSON reports.

Algebra files are a line-oriented DSL; gluing files reference two algebra
files plus connector and ideal-mode lines; modules cross the boundary as JSON.
Every command honours --seed/--depth-budget/--class-budget/--confidence/
--field and can dump a reproducible JSON report with --json.

Exit codes: 0 success, 1 property/verification failure, 2 inconclusive,
3 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

from . import __version__, analysis, decomp, exactfield, grothendieck, homology, morita, \
    repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import BoundAlgebra, MalformedRelation, NotAdmissible, Quiver, \
    build_algebra, make_path
from .repmod import Rep


class InputError(Exception):
    """Positioned DSL / file error (exit code 3)."""


# ---------------------------------------------------------------------------
# algebra DSL


@dataclass
class AlgebraSource:
    name: str
    p: int
    m_max: int
    vertices: tuple
    arrows: tuple  # (name, source, target)
    relations: tuple  # each a tuple of (coeff, arrow-name tuple)

    def build(self, p_override: int | None = None) -> BoundAlgebra:
        q = Quiver(self.vertices, self.arrows)
        p = self.p if p_override is None else p_override
        try:
            exactfield.check_prime(p)
        except ValueError as exc:
            raise InputError(f"{self.name}: {exc}") from exc
        rels = [[(c, make_path(q, q.arrow_map[w[0]].source, w)) for c, w in terms]
                for terms in self.relations]
        try:
            return build_algebra(q, rels, p, self.m_max, name=self.name)
        except (NotAdmissible, MalformedRelation) as exc:
            raise InputError(f"{self.name}: {exc}") from exc


def parse_algebra(text: str, filename: str = "<input>") -> AlgebraSource:
    """Parse the line-oriented algebra DSL; raises InputError with positions."""
    name = None
    p = None
    m_max = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    relations: list[tuple] = []
    seen_arrows: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        def err(msg: str):
            raise InputError(f"{filename}:{ln}: {msg}")

        if head == "algebra":
            if len(parts) != 6 or parts[2] != "field" or parts[4] != "truncate":
                err("expected: algebra NAME field P truncate M")
            name = parts[1]
            try:
                p = int(parts[3])
                m_max = int(parts[5])
            except ValueError:
                err("field and truncate take integers")
            try:
                exactfield.check_prime(p)
            except ValueError as exc:
                err(str(exc))
        elif head == "vertex":
            for v in parts[1:]:
                if v in vertices:
                    err(f"duplicate vertex {v}")
                vertices.append(v)
        elif head == "arrow":
            # arrow name: v -> w
            rest = line[len("arrow"):].strip()
            if ":" not in rest:
                err("expected: arrow name: v -> w")
            aname, spec = rest.split(":", 1)
            aname = aname.strip()
            bits = spec.split("->")
            if len(bits) != 2:
                err("expected: arrow name: v -> w")
            s, t = bits[0].strip(), bits[1].strip()
            if aname in seen_arrows:
                err(f"duplicate arrow {aname}")
            if s not in vertices:
                err(f"unknown vertex {s}")
            if t not in vertices:
                err(f"unknown vertex {t}")
            seen_arrows.add(aname)
            arrows.append((aname, s, t))
        elif head == "relation":
            terms = _parse_relation_terms(line[len("relation"):], seen_arrows, err)
            relations.append(tuple(terms))
        else:
            err(f"unknown directive {head!r}")
    if name is None:
        raise InputError(f"{filename}: missing `algebra` header line")
    return AlgebraSource(name, p, m_max, tuple(vertices), tuple(arrows),
                         tuple(relations))


def _parse_relation_terms(rest: str, seen_arrows, err):
    toks = rest.replace("+", " + ").replace("-", " - ").split()
    terms = []
    sign = 1
    pending_coeff = None
    for tok in toks:
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        if pending_coeff is None:
            try:
                pending_coeff = sign * int(tok)
                continue
            except ValueError:
                pending_coeff = sign
        path = tuple(tok.split("*"))
        for a in path:
            if a not in seen_arrows:
                err(f"unknown arrow {a!r} in relation")
        terms.append((pending_coeff, path))
        pending_coeff = None
        sign = 1
    if pending_coeff is not None:
        err("dangling coefficient in relation")
    if not terms:
        err("empty relation")
    return terms


def print_algebra(src: AlgebraSource) -> str:
    lines = [f"algebra {src.name} field {src.p} truncate {src.m_max}"]
    if src.vertices:
        lines.append("vertex " + " ".join(src.vertices))
    for aname, s, t in src.arrows:
        lines.append(f"arrow {aname}: {s} -> {t}")
    for terms in src.relations:
        bits = []
        for i, (c, w) in enumerate(terms):
            mag = f"{abs(c)} " + "*".join(w)
            if i == 0:
                bits.append(("-" if c < 0 else "") + mag)
            else:
                bits.append(("- " if c < 0 else "+ ") + mag)
        lines.append("relation " + " ".join(bits))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gluing DSL


@dataclass
class GlueSource:
    name: str
    left: str
    right: str
    alphas: tuple
    betas: tuple
    mode: str
    extra: tuple  # raw relation term tuples


def parse_gluing(text: str, filename: str = "<input>") -> GlueSource:
    name = left = right = None
    alphas: list[tuple] = []
    betas: list[tuple] = []
    mode = None
    extra: list[tuple] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        def err(msg: str):
            raise InputError(f"{filename}:{ln}: {msg}")

        if head == "glue":
            name = parts[1] if len(parts) == 2 else err("expected: glue NAME")
        elif head in ("left", "right"):
            if len(parts) != 2:
                err(f"expected: {head} FILE")
            if head == "left":
                left = parts[1]
            else:
                right = parts[1]
        elif head in ("alpha", "beta"):
            rest = line[len(head):].strip()
            if ":" not in rest or "->" not in rest:
                err(f"expected: {head} name: v -> w")
            aname, spec = rest.split(":", 1)
            bits = spec.split("->")
            if len(bits) != 2:
                err(f"expected: {head} name: v -> w")
            s, t = bits[0].strip(), bits[1].strip()
            (alphas if head == "alpha" else betas).append((aname.strip(), s, t))
        elif head == "ideal":
            if len(parts) != 2 or parts[1] not in ("generated", "extended"):
                err("expected: ideal generated|extended")
            mode = parts[1]
        elif head == "relation":
            terms = _parse_relation_terms(line[len("relation"):],
                                          _AnyArrows(), err)
            extra.append(tuple(terms))
        else:
            err(f"unknown directive {head!r}")
    if name is None or left is None or right is None or mode is None:
        raise InputError(f"{filename}: gluing needs glue/left/right/ideal lines")
    if mode == "generated" and extra:
        raise InputError(f"{filename}: generated mode admits no extra relations")
    return GlueSource(name, left, right, tuple(alphas), tuple(betas), mode,
                      tuple(extra))


class _AnyArrows:
    """Arrow-name validation deferred to glue-build time."""

    def __contains__(self, _name) -> bool:
        return True


# ---------------------------------------------------------------------------
# file loading


def fixtures_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_path(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = os.path.join(fixtures_dir(), os.path.basename(path))
    if os.path.exists(candidate):
        return candidate
    raise InputError(f"no such file: {path}")


def load_algebra_file(path: str, p_override: int | None = None) -> BoundAlgebra:
    path = resolve_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        src = parse_algebra(fh.read(), path)
    return src.build(p_override)


def load_glue_file(path: str, p_override: int | None = None) -> morita.GluedAlgebra:
    path = resolve_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        src = parse_gluing(fh.read(), path)
    base = os.path.dirname(path)
    left = load_algebra_file(os.path.join(base, src.left), p_override)
    right = load_algebra_file(os.path.join(base, src.right), p_override)
    try:
        spec = morita.GluingSpec(left, right, src.alphas, src.betas, src.mode,
                                 tuple(_resolve_extra(left, right, src)),
                                 name=src.name)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return morita.glue(spec)
    except morita.H3Violation as exc:
        raise InputError(f"{path}: {exc}") from exc


def _resolve_extra(left: BoundAlgebra, right: BoundAlgebra, src: GlueSource):
    arrow_source = {}
    for alg in (left, right):
        for a in alg.quiver.arrows:
            arrow_source[a.name] = a.source
    for aname, s, _ in list(src.alphas) + list(src.betas):
        arrow_source[aname.strip()] = s
    out = []
    for terms in src.extra:
        resolved = []
        for c, w in terms:
            if w[0] not in arrow_source:
                raise InputError(f"{src.name}: unknown arrow {w[0]!r} in extra relation")
            resolved.append((c, (arrow_source[w[0]], tuple(w))))
        out.append(resolved)
    return out


def load_any(path: str, p_override: int | None = None):
    """Load an .alg or .glue file by extension."""
    real = resolve_path(path)
    if real.endswith(".glue"):
        return load_glue_file(real, p_override)
    return load_algebra_file(real, p_override)


def underlying_algebra(obj) -> BoundAlgebra:
    return obj.algebra if isinstance(obj, morita.GluedAlgebra) else obj


# ---------------------------------------------------------------------------
# module literals


def parse_module_expr(alg: BoundAlgebra, expr: str) -> Rep:
    """Module literals: S1+S2, P1, rad P1, P1/socle, P1/(S1+S2), or a JSON file."""
    expr = expr.strip()
    if expr.endswith(".json"):
        path = resolve_path(expr)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return Rep.from_json(alg, json.load(fh))
            except ValueError as exc:  # JSONDecodeError is one too
                raise InputError(f"{path}: {exc}") from exc
    terms = _split_top_level(expr, "+")
    mods = [_parse_module_term(alg, t.strip()) for t in terms]
    return repmod.direct_sum(mods)[0] if len(mods) > 1 else mods[0]


def _split_top_level(expr: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_module_term(alg: BoundAlgebra, term: str) -> Rep:
    power = 1
    if "^" in term:
        term, k = term.rsplit("^", 1)
        try:
            power = int(k)
        except ValueError:
            power = 0  # rejected below
        if power < 1:
            raise InputError(f"bad power in module literal {term!r}")
    term = term.strip()
    base: Rep
    if term.startswith("rad "):
        inner = _parse_module_term(alg, term[4:].strip())
        base = repmod.radical(inner)[0]
    elif "/" in term:
        head, tail = term.split("/", 1)
        head, tail = head.strip(), tail.strip()
        if not head.startswith("P"):
            raise InputError(f"quotient literal needs a projective head: {term!r}")
        v = head[1:]
        _require_vertex(alg, v)
        if tail == "socle":
            proj = alg.projective(v)
            _, inc = repmod.socle(proj)
            base = repmod.quotient(proj, inc)[0]
        elif tail.startswith("(") and tail.endswith(")"):
            simple_terms = [t.strip() for t in tail[1:-1].split("+")]
            verts = []
            for t in simple_terms:
                if not t.startswith("S"):
                    raise InputError(f"expected simple summands in {term!r}")
                _require_vertex(alg, t[1:])
                verts.append(t[1:])
            base = analysis.quotient_by_socle_part(alg, v, verts)
            if base is None:
                raise InputError(f"socle of P{v} has no part {'+'.join('S' + w for w in verts)}")
        else:
            raise InputError(f"unsupported quotient literal {term!r}")
    elif term.startswith("S"):
        _require_vertex(alg, term[1:])
        base = repmod.simple(alg, term[1:])
    elif term.startswith("P"):
        _require_vertex(alg, term[1:])
        base = alg.projective(term[1:])
    else:
        raise InputError(f"cannot parse module literal {term!r}")
    return repmod.power(base, power) if power > 1 else base


def _require_vertex(alg: BoundAlgebra, v: str):
    if v not in alg.quiver.vertex_index:
        raise InputError(f"unknown vertex {v!r} (have {list(alg.quiver.vertices)})")


# ---------------------------------------------------------------------------
# reports


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Report:
    command: str
    args: dict
    seed: int
    budgets: dict
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    status: str = "ok"
    version: str = __version__

    def payload(self) -> dict:
        return {
            "tool": "quivalg",
            "version": self.version,
            "command": self.command,
            "args": self.args,
            "seed": self.seed,
            "budgets": self.budgets,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
        }

    def dump(self, path: str, elapsed: float):
        data = self.payload()
        data["timing"] = {"elapsed_seconds": round(elapsed, 3)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


EXIT = {"ok": 0, "fail": 1, "inconclusive": 2}


# ---------------------------------------------------------------------------
# command implementations


def _phi_json(r) -> dict:
    return {"value": r.value, "status": r.status, "certificate": r.certificate,
            "rank_trace": list(r.trace), "note": r.note}


def _pd_json(r) -> dict:
    return {"status": r.status, "value": r.value, "evidence": r.evidence,
            "depth_reached": r.depth_reached}


def cmd_info(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    prof = analysis.profile(alg, budgets)
    rep.results = {
        "name": alg.name,
        "dim": alg.dim,
        "vertices": list(alg.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in alg.quiver.arrows],
        "relations": [str(r) for r in alg.relations],
        "truncation": alg.m,
        "profile": prof.to_json(),
    }
    if isinstance(obj, morita.GluedAlgebra):
        rep.results["gluing_flags"] = dict(obj.flags)


def cmd_projectives(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    rep.results = {v: dict(alg.projective(v).dims) for v in alg.quiver.vertices}


def cmd_simples(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    rep.results = {v: dict(repmod.simple(alg, v).dims) for v in alg.quiver.vertices}


def cmd_syzygy(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    if args.power < 0:
        raise InputError(f"--power must be >= 0, not {args.power}")
    m = parse_module_expr(alg, args.module)
    om = homology.omega_power(m, args.power)
    rep.results = {"module": m.to_json(), "syzygy": om.to_json(),
                   "power": args.power}


def cmd_pd(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    m = parse_module_expr(alg, args.module)
    r = homology.pd(m, budgets)
    rep.results = _pd_json(r)
    if r.status == "unknown":
        rep.status = "inconclusive"


def cmd_phi(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    m = parse_module_expr(alg, args.module)
    r = grothendieck.phi(m, budgets)
    rep.results = _phi_json(r)
    if not r.certified:
        rep.status = "inconclusive"


def cmd_phidim(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    mods = [parse_module_expr(alg, e) for e in args.modules.split(",")]
    r = grothendieck.phi_dim_over(mods, budgets)
    rep.results = {"value": r.value, "status": r.status,
                   "each": [_phi_json(x) for x in r.results]}
    if not r.all_certified:
        rep.status = "inconclusive"


def cmd_decompose(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    m = parse_module_expr(alg, args.module)
    res = decomp.decompose(m.strip(), seed=budgets.seed,
                           confidence=budgets.confidence, budgets=budgets)
    reg = alg.registry()
    rep.results = {
        "classes": [[i, k] for i, k in res.items],
        "status": res.status(),
        "summands": [{"id": i, "dims": dict(reg.rep(i).dims),
                      "projective": reg.is_projective(i)} for i, _ in res.items],
    }


def cmd_iso(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    m = parse_module_expr(alg, args.module)
    n = parse_module_expr(alg, args.other)
    r = decomp.is_isomorphic(m.strip(), n.strip(), seed=budgets.seed,
                             confidence=budgets.confidence)
    rep.results = {"verdict": r.verdict, "method": r.method}
    if r.verdict == "inconclusive":
        rep.status = "inconclusive"


def cmd_gldim(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    r = analysis.global_dimension(alg, budgets)
    rep.results = {"status": r.status, "value": r.value, "witness": r.witness,
                   "via": r.via}
    if r.status == "unknown":
        rep.status = "inconclusive"


def cmd_selfinjective(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    rep.results = {"selfinjective": analysis.is_selfinjective(alg)}


def cmd_opposite(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    op = alg.opposite()
    src = AlgebraSource(
        op.name, op.p, op.m_max, op.quiver.vertices,
        tuple((a.name, a.source, a.target) for a in op.quiver.arrows),
        tuple(tuple((c, k[1]) for c, k in r.terms) for r in op.relations))
    text = print_algebra(src)
    rep.results = {"dim": op.dim, "source": text}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_glue(obj, args, budgets, rep: Report):
    if not isinstance(obj, morita.GluedAlgebra):
        raise InputError("glue expects a .glue file")
    rep.results = {
        "name": obj.algebra.name,
        "dim": obj.algebra.dim,
        "flags": dict(obj.flags),
        "boundary_a": sorted(obj.boundary_a),
        "boundary_b": sorted(obj.boundary_b),
        "t_vertices": sorted(obj.t_vertices),
    }


def cmd_check_h(obj, args, budgets, rep: Report):
    if not isinstance(obj, morita.GluedAlgebra):
        raise InputError("check-h expects a .glue file")
    out = {"h1_h3": "verified at glue time"}
    for variant in ("boundary", "full"):
        h = morita.check_h4(obj, budgets, variant)
        out[f"h4_{variant}"] = {"status": h.status,
                                "generators": h.generating_ids()}
    rep.results = out
    if all(out[f"h4_{v}"]["status"] != "finitely_generated"
           for v in ("boundary", "full")):
        rep.status = "inconclusive"


def cmd_split_check(obj, args, budgets, rep: Report):
    if not isinstance(obj, morita.GluedAlgebra):
        raise InputError("split-check expects a .glue file")
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, not {args.samples}")
    alg = obj.algebra
    failures = []
    for i in range(args.samples):
        m = repmod.random_module(alg, (budgets.seed << 16) + i, 12)
        r = morita.verify_syzygy_split(obj, m, budgets)
        if not r.ok:
            failures.append({"sample": i, "detail": r.detail})
    rep.results = {"samples": args.samples, "failures": failures}
    if failures:
        rep.status = "fail"


def cmd_additivity(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    v = analysis.phi_zero_probe(alg, budgets, seed=budgets.seed)
    rep.results = {"kind": v.kind, "note": v.note}
    if v.kind == "witness":
        rep.results.update({
            "m1": v.m1.to_json(), "m2": v.m2.to_json(),
            "phi1": _phi_json(v.phi1), "phi2": _phi_json(v.phi2),
            "phi12": _phi_json(v.phi12),
        })
    if v.kind == "inconclusive":
        rep.status = "inconclusive"


def cmd_zero_it_check(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    gens = [parse_module_expr(alg, e) for e in args.generators.split(",")] \
        if args.generators else []
    blocks = []
    if args.block:
        for b in args.block:
            blocks.append([v.strip() for v in b.split(",")])
    r = analysis.zero_it_check(alg, gens, blocks, budgets)
    rep.results = {"passed": r.passed, "failed_axioms": r.failed_axioms(),
                   "details": r.details}
    if not r.passed:
        rep.status = "fail"


def cmd_classify(obj, args, budgets, rep: Report):
    if not isinstance(obj, morita.GluedAlgebra):
        raise InputError("classify expects a .glue file")

    def status_from(level, kind):
        return None if level is None else {"n": level, "provenance": "asserted"}

    a_status = b_status = None
    if args.assert_a_it is not None or args.assert_a_lit is not None:
        a_status = morita.SideStatus(
            it_level=status_from(args.assert_a_it, "it"),
            lit_level=status_from(args.assert_a_lit, "lit"))
    if args.assert_b_it is not None or args.assert_b_lit is not None:
        b_status = morita.SideStatus(
            it_level=status_from(args.assert_b_it, "it"),
            lit_level=status_from(args.assert_b_lit, "lit"))
    r = morita.classify_gluing(obj, a_status, b_status, budgets)
    rep.results = {
        "flags": r.flags,
        "notes": r.notes,
        "entries": [{
            "proposition": e.proposition,
            "conclusion": e.conclusion,
            "hypotheses": e.hypotheses,
            "witness": e.witness,
            "checks": e.checks,
        } for e in r.entries],
    }


def cmd_registry(obj, args, budgets, rep: Report):
    if args.action != "dump":
        raise InputError("registry supports only: registry dump")
    alg = underlying_algebra(obj)
    if args.modules:
        for e in args.modules.split(","):
            m = parse_module_expr(alg, e)
            decomp.decompose(m.strip(), seed=budgets.seed,
                             confidence=budgets.confidence, budgets=budgets)
    rep.results = {"entries": alg.registry().dump()}


def cmd_verify_paper(args, budgets, rep: Report):
    from . import verify

    report, passed = verify.run_all(budgets)
    rep.results = report
    rep.status = "ok" if passed else "fail"
    for crit in report["criteria"]:
        mark = "PASS" if crit["passed"] else "FAIL"
        print(f"[{mark}] {crit['name']}: {crit['summary']}")


# ---------------------------------------------------------------------------
# dispatch


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quivalg",
        description="workbench for bound quiver algebras: syzygies, "
                    "decompositions, Igusa-Todorov phi, Morita-context gluings")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--depth-budget", type=int, default=DEFAULT.depth)
    ap.add_argument("--class-budget", type=int, default=DEFAULT.classes)
    ap.add_argument("--confidence", type=int, default=DEFAULT.confidence)
    ap.add_argument("--max-dim", type=int, default=DEFAULT.max_dim)
    ap.add_argument("--field", type=int, default=None,
                    help="override the prime declared in algebra files")
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write the full JSON report here")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def with_file(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("file", help=".alg or .glue file (bundled fixtures resolve by name)")
        return sp

    with_file("info")
    with_file("projectives")
    with_file("simples")
    sp = with_file("syzygy")
    sp.add_argument("--module", required=True)
    sp.add_argument("--power", type=int, default=1)
    sp = with_file("pd")
    sp.add_argument("--module", required=True)
    sp = with_file("phi")
    sp.add_argument("--module", required=True)
    sp = with_file("phidim")
    sp.add_argument("--modules", required=True)
    sp = with_file("decompose")
    sp.add_argument("--module", required=True)
    sp = with_file("iso")
    sp.add_argument("--module", required=True)
    sp.add_argument("--other", required=True)
    with_file("gldim")
    with_file("selfinjective")
    sp = with_file("opposite")
    sp.add_argument("--out", default=None)
    with_file("glue")
    with_file("check-h")
    sp = with_file("split-check")
    sp.add_argument("--samples", type=int, default=100)
    with_file("additivity")
    sp = with_file("zero-it-check")
    sp.add_argument("--generators", default="")
    sp.add_argument("--block", action="append", default=[],
                    help="comma-separated vertex set; repeatable")
    sp = with_file("classify")
    sp.add_argument("--assert-a-it", type=int, default=None)
    sp.add_argument("--assert-b-it", type=int, default=None)
    sp.add_argument("--assert-a-lit", type=int, default=None)
    sp.add_argument("--assert-b-lit", type=int, default=None)
    sp = with_file("registry")
    sp.add_argument("action", choices=["dump"])
    sp.add_argument("--modules", default="")
    sub.add_parser("verify-paper")
    return ap


COMMANDS = {
    "info": cmd_info,
    "projectives": cmd_projectives,
    "simples": cmd_simples,
    "syzygy": cmd_syzygy,
    "pd": cmd_pd,
    "phi": cmd_phi,
    "phidim": cmd_phidim,
    "decompose": cmd_decompose,
    "iso": cmd_iso,
    "gldim": cmd_gldim,
    "selfinjective": cmd_selfinjective,
    "opposite": cmd_opposite,
    "glue": cmd_glue,
    "check-h": cmd_check_h,
    "split-check": cmd_split_check,
    "additivity": cmd_additivity,
    "zero-it-check": cmd_zero_it_check,
    "classify": cmd_classify,
    "registry": cmd_registry,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    budgets = Budgets(depth=args.depth_budget, classes=args.class_budget,
                      confidence=args.confidence, max_dim=args.max_dim,
                      seed=args.seed)
    rep = Report(command=args.cmd, args={k: v for k, v in vars(args).items()
                                         if k not in ("cmd", "json")},
                 seed=args.seed,
                 budgets={"depth": budgets.depth, "classes": budgets.classes,
                          "confidence": budgets.confidence,
                          "max_dim": budgets.max_dim})
    t0 = time.time()
    try:
        if args.cmd == "verify-paper":
            cmd_verify_paper(args, budgets, rep)
        else:
            path = resolve_path(args.file)
            rep.inputs[path] = file_digest(path)
            obj = load_any(path, args.field)
            COMMANDS[args.cmd](obj, args, budgets, rep)
            if args.cmd not in ("verify-paper",):
                _print_human(rep)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"inconclusive (budget): {exc}", file=sys.stderr)
        return 2
    if args.json:
        rep.dump(args.json, time.time() - t0)
    return EXIT.get(rep.status, 1)


def _print_human(rep: Report):
    print(json.dumps(rep.results, indent=2, sort_keys=True, default=str))


if __name__ == "__main__":
    sys.exit(main())
