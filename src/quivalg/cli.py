"""Command-line workbench: DSL parsing, command dispatch, JSON reports.

Algebra files are a line-oriented DSL; gluing files reference two algebra
files plus connector and ideal-mode lines; modules cross the boundary as JSON.
Both DSLs share one line reader and one `name: v -> w` arrow parser.  The
parsers keep relations as the arrow words they read; `Relation` checks them
when the algebra or the gluing is built, and every ValueError raised there
becomes an input error.

Every command honours --seed/--depth-budget/--class-budget/--confidence/
--field and can dump a reproducible JSON report with --json.

Exit codes: 0 success, 1 property/verification failure, 2 inconclusive,
3 input error, usage errors on the command line included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__, analysis, decomp, exactfield, grothendieck, homology, morita, \
    repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import BoundAlgebra, Quiver, build_algebra
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
        """The bound algebra; any ValueError (a bad prime, a malformed or
        inadmissible relation) becomes an InputError."""
        p = self.p if p_override is None else p_override
        try:
            exactfield.check_prime(p)
            return build_algebra(Quiver(self.vertices, self.arrows), self.relations, p,
                                 self.m_max, name=self.name)
        except ValueError as exc:
            raise InputError(f"{self.name}: {exc}") from exc


def _lines(text: str, filename: str):
    """(parts, line, err) for each nonblank line of a DSL file, comments
    stripped; err(msg) raises an InputError carrying the file and line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg: str, ln=ln):
            raise InputError(f"{filename}:{ln}: {msg}")

        yield line.split(), line, err


def _parse_arrow(head: str, line: str, err) -> tuple:
    """`HEAD name: v -> w` as (name, v, w).

    A relation splits its words on whitespace, `*`, `+` and `-`, so a name
    that is empty or holds one of them could never appear in a relation.
    """
    aname, colon, spec = line[len(head):].partition(":")
    bits = spec.split("->")
    if not colon or len(bits) != 2:
        err(f"expected: {head} name: v -> w")
    aname = aname.strip()
    if not aname or any(ch in aname for ch in "*+- \t"):
        err(f"arrow name {aname!r} must be nonempty, with no space, '*', '+' or '-'")
    return aname, bits[0].strip(), bits[1].strip()


def parse_algebra(text: str, filename: str = "<input>") -> AlgebraSource:
    """Parse the line-oriented algebra DSL; raises InputError with positions.

    Relation words are checked when the algebra is built (`Relation`).
    """
    name = None
    p = None
    m_max = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    relations: list[tuple] = []
    for parts, line, err in _lines(text, filename):
        head = parts[0]
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
            aname, s, t = _parse_arrow(head, line, err)
            if any(a[0] == aname for a in arrows):
                err(f"duplicate arrow {aname}")
            if s not in vertices:
                err(f"unknown vertex {s}")
            if t not in vertices:
                err(f"unknown vertex {t}")
            arrows.append((aname, s, t))
        elif head == "relation":
            relations.append(_parse_relation_terms(line[len(head):], err))
        else:
            err(f"unknown directive {head!r}")
    if name is None:
        raise InputError(f"{filename}: missing `algebra` header line")
    return AlgebraSource(name, p, m_max, tuple(vertices), tuple(arrows),
                         tuple(relations))


def _parse_relation_terms(rest: str, err) -> tuple:
    """`c1 w1 + c2 w2 ...` as a tuple of (coeff, arrow-name tuple)."""
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
        terms.append((pending_coeff, tuple(tok.split("*"))))
        pending_coeff = None
        sign = 1
    if pending_coeff is not None:
        err("dangling coefficient in relation")
    if not terms:
        err("empty relation")
    return tuple(terms)


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
    extra: tuple  # relation term tuples of (coeff, arrow names)


def parse_gluing(text: str, filename: str = "<input>") -> GlueSource:
    """Parse the gluing DSL; raises InputError with positions.

    Connector endpoints and relation words are checked when the gluing is
    built (`GluingSpec`, `Relation`).
    """
    name = left = right = None
    alphas: list[tuple] = []
    betas: list[tuple] = []
    mode = None
    extra: list[tuple] = []
    for parts, line, err in _lines(text, filename):
        head = parts[0]
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
            (alphas if head == "alpha" else betas).append(_parse_arrow(head, line, err))
        elif head == "ideal":
            if len(parts) != 2 or parts[1] not in ("generated", "extended"):
                err("expected: ideal generated|extended")
            mode = parts[1]
        elif head == "relation":
            extra.append(_parse_relation_terms(line[len(head):], err))
        else:
            err(f"unknown directive {head!r}")
    if name is None or left is None or right is None or mode is None:
        raise InputError(f"{filename}: gluing needs glue/left/right/ideal lines")
    if mode == "generated" and extra:
        raise InputError(f"{filename}: generated mode admits no extra relations")
    return GlueSource(name, left, right, tuple(alphas), tuple(betas), mode,
                      tuple(extra))


# ---------------------------------------------------------------------------
# file loading


def fixtures_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_path(path: str) -> str:
    """path itself if it exists; a bare file name may also name a bundled fixture."""
    if os.path.exists(path):
        return path
    candidate = os.path.join(fixtures_dir(), path)
    if os.path.basename(path) == path and os.path.isfile(candidate):
        return candidate
    raise InputError(f"no such file: {path}")


def load_algebra_file(path: str, p_override: int | None = None) -> BoundAlgebra:
    path = resolve_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        src = parse_algebra(fh.read(), path)
    return src.build(p_override)


def load_glue_file(path: str, p_override: int | None = None) -> morita.GluedAlgebra:
    """Load a gluing; its `left` and `right` files resolve against its own
    directory only, with no fallback to the bundled fixtures."""
    path = resolve_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        src = parse_gluing(fh.read(), path)
    sides = [os.path.join(os.path.dirname(path), name) for name in (src.left, src.right)]
    for side in sides:
        if not os.path.exists(side):
            raise InputError(f"no such file: {side}")
    left, right = (load_algebra_file(side, p_override) for side in sides)
    try:
        return morita.glue(morita.GluingSpec(left, right, src.alphas, src.betas, src.mode,
                                             src.extra, name=src.name))
    except (ValueError, morita.H3Violation) as exc:
        raise InputError(f"{path}: {exc}") from exc


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
    return repmod.direct_sum(mods)[0]


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
            _, soc_inc = repmod.socle(proj)
            base = repmod.quotient(proj, soc_inc.mats)
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
    return repmod.power(base, power)


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
    out = {"status": r.status, "value": r.value, "evidence": r.evidence,
           "depth_reached": r.depth_reached}
    if not r.certified:
        # only then, so that certified reports keep their payload
        out["certified"] = False
    return out


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
    om = homology.omega_power(m, args.power, budgets.max_dim)
    rep.results = {"module": m.to_json(), "syzygy": om.to_json(),
                   "power": args.power}


def cmd_pd(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    m = parse_module_expr(alg, args.module)
    r = homology.pd(m, budgets)
    rep.results = _pd_json(r)
    if r.status == "unknown" or not r.certified:
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
    res = decomp.decompose(m.strip(), budgets)
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
    r = decomp.is_isomorphic(m, n, budgets)
    rep.results = {"verdict": r.verdict, "method": r.method}
    if r.verdict == "inconclusive":
        rep.status = "inconclusive"


def cmd_gldim(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    r = analysis.global_dimension(alg, budgets)
    rep.results = {"status": r.status, "value": r.value, "witness": r.witness}
    if r.status == "unknown":
        rep.status = "inconclusive"


def cmd_selfinjective(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    rep.results = {"selfinjective": homology.selfinjectivity(alg)}


def cmd_opposite(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    op = alg.opposite()
    src = AlgebraSource(
        op.name, op.p, op.m_max, op.quiver.vertices,
        tuple((a.name, a.source, a.target) for a in op.quiver.arrows),
        tuple(r.words() for r in op.relations))
    text = print_algebra(src)
    rep.results = {"dim": op.dim, "source": text}
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc


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
    hit = morita.nonzero_on_radicals(obj.algebra, obj.spec.alphas + obj.spec.betas)
    if hit is None:
        rep.results = {"holds_for_every_module": True, "reason": (
            "every connector acts as zero on rad P_v at every vertex v, so Omega(M), "
            "inside rad P0(M), is its A-part plus its B-part; for one-sided M the "
            "opposite-side parts of Omega(M) and Omega(top M) both equal P0 there")}
        return
    v, arrow = hit
    rep.results = {"holds_for_every_module": False, "reason": (
        f"connector {arrow} is nonzero on rad P_{v} = Omega(S_{v}), "
        f"which has no one-sided split")}
    rep.status = "fail"


def cmd_additivity(obj, args, budgets, rep: Report):
    alg = underlying_algebra(obj)
    v = analysis.phi_zero_probe(alg, budgets)
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
    blocks = [[v.strip() for v in b.split(",")] for b in args.block]
    for block in blocks:
        for v in block:
            _require_vertex(alg, v)
    r = analysis.zero_it_check(alg, gens, blocks, budgets)
    rep.results = {"passed": r.passed, "failed_axioms": r.failed_axioms(),
                   "details": r.details}
    if not r.passed:
        rep.status = "fail"


def cmd_classify(obj, args, budgets, rep: Report):
    if not isinstance(obj, morita.GluedAlgebra):
        raise InputError("classify expects a .glue file")

    def side_status(side):
        levels = {}
        for kind in ("it", "lit"):
            level = getattr(args, f"assert_{side}_{kind}")
            if level is not None and level < 0:
                raise InputError(f"--assert-{side}-{kind} must be >= 0, not {level}")
            levels[f"{kind}_level"] = (None if level is None
                                       else {"n": level, "provenance": "asserted"})
        return morita.SideStatus(**levels) if any(levels.values()) else None

    r = morita.classify_gluing(obj, side_status("a"), side_status("b"), budgets)
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
    alg = underlying_algebra(obj)
    if args.modules:
        for e in args.modules.split(","):
            m = parse_module_expr(alg, e)
            decomp.decompose(m.strip(), budgets)
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


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors (an unknown command or option, a missing
    or ill-typed argument) exiting 3, as input errors, and not 2, which means
    an inconclusive result; --help still exits 0.  Subcommand parsers are
    made from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    with_file("split-check")
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
    for opt in ("depth_budget", "class_budget", "confidence", "max_dim", "seed"):
        if getattr(args, opt) < 0:
            print(f"input error: --{opt.replace('_', '-')} must be >= 0, "
                  f"not {getattr(args, opt)}", file=sys.stderr)
            return 3
    budgets = Budgets(depth=args.depth_budget, classes=args.class_budget,
                      confidence=args.confidence, max_dim=args.max_dim,
                      seed=args.seed)
    limits = asdict(budgets)
    del limits["seed"]  # the report carries the seed at its top level
    rep = Report(command=args.cmd, args={k: v for k, v in vars(args).items()
                                         if k not in ("cmd", "json")},
                 seed=args.seed, budgets=limits)
    t0 = time.time()
    try:
        if args.cmd == "verify-paper":
            cmd_verify_paper(args, budgets, rep)
        else:
            path = resolve_path(args.file)
            rep.inputs[path] = file_digest(path)
            obj = load_any(path, args.field)
            COMMANDS[args.cmd](obj, args, budgets, rep)
            _print_human(rep)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceeded, MemoryError) as exc:  # memory is a budget too
        why = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
        print(f"inconclusive (budget): {why}", file=sys.stderr)
        return 2
    if args.json:
        rep.dump(args.json, time.time() - t0)
    return EXIT.get(rep.status, 1)


def _print_human(rep: Report):
    print(json.dumps(rep.results, indent=2, sort_keys=True, default=str))

