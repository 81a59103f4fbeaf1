"""The group K0 modulo projectives, the induced syzygy endomorphism, and phi.

phi(M) is the Fitting stabilization index of the induced endomorphism on
<add M>.  The value reported is always a certified lower bound (observed rank
drops are real); the `certified` flag marks when one of the certificates
establishes injectivity for every later depth, pinning the exact value:

  - rank_zero / finite_pd: the trace reaches rank 0 and stays there;
  - orbit_cycle: the class set closes, so the trace is provably constant
    beyond its size (eventual-image argument), and the plateau is inspected;
  - theorem_selfinjective: all classes live on a successor-closed vertex set
    whose restricted algebra is selfinjective, where the syzygy operator is
    injective on classes;
  - indec_infinite_pd: a single class of certified infinite projective
    dimension has phi = 0;
  - rank_one_persistent: generator coefficients stay nonnegative under the
    class-level syzygy map, so once the trace sits at rank 1 with a
    certified-infinite-pd class in its support, it can never reach 0 and no
    further drop is possible.

The trace rests on the decompositions of the syzygies it passes through; when
one of them (or one behind a pd certificate) is only probabilistic, so is the
result: `certified` is False and the status reads "probabilistic".

phi(M) depends only on add M, so each registry keeps a table of answers,
`IsoRegistry.phis`, keyed by M's sorted nonprojective class ids and the
budgets; `phi` reads it after `class_vector` and walks the trace only on a
miss.  The walk reads cached syzygy classes, which never change once set,
pd_class answers and budget stops.  A budget stop, a depth_budget stop or an
unknown pd can become a longer walk once a call with a larger max_dim or
depth has filled the caches, so an answer is stored only when its
certificate is neither `budget` nor `depth_budget` and every pd_class it read
was finite or infinite.  Such a walk rests on fixed data alone, so a re-walk
would give the same value, certificate, trace, note and status.  Every
answer is a fresh PhiResult with its own trace list.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import decomp, exactfield as ef, homology
from .budgets import DEFAULT, BudgetExceeded, Budgets
from .pathalgebra import BoundAlgebra
from .repmod import Rep

K0Vector = dict  # class id -> integer coefficient; projective ids never appear


def class_vector(m: Rep, budgets: Budgets = DEFAULT) -> K0Vector:
    """[m] in K0: nonprojective indecomposable summand classes with multiplicity."""
    res = decomp.decompose(m, budgets)
    reg = m.algebra.registry()
    return {i: k for i, k in res.items if not reg.is_projective(i)}


def omega_bar(alg: BoundAlgebra, vec: K0Vector, budgets: Budgets = DEFAULT) -> K0Vector:
    """Linear extension of the class-level syzygy map, projectives dropped."""
    reg = alg.registry()
    out: dict[int, int] = {}
    for i, c in vec.items():
        for j, mult in homology.syzygy_class(alg, i, budgets):
            if not reg.is_projective(j):
                out[j] = out.get(j, 0) + c * mult
    return {k: v for k, v in out.items() if v}


def subgroup_add(m: Rep, budgets: Budgets = DEFAULT) -> list[K0Vector]:
    """Generators of <add m>: one unit vector per distinct nonprojective class."""
    return [{i: 1} for i in sorted(class_vector(m, budgets))]


def lattice_rank_of(vecs) -> int:
    support = sorted({i for v in vecs for i in v})
    if not support:
        return 0
    rows = [[v.get(i, 0) for i in support] for v in vecs]
    return ef.lattice_rank(rows)


@dataclass
class PhiResult:
    value: int
    certified: bool
    certificate: str
    trace: list
    note: str = ""
    probabilistic: bool = False  # a syzygy decomposition used was probabilistic

    @property
    def status(self) -> str:
        if self.probabilistic:
            return "probabilistic"
        return "certified" if self.certified else "lower_bound"

    def describe(self) -> str:
        tr = ",".join(str(r) for r in self.trace[:8])
        more = ",..." if len(self.trace) > 8 else ""
        return (f"phi = {self.value} ({self.status}: {self.certificate}); "
                f"rank trace [{tr}{more}]")


def _support_vertices(alg: BoundAlgebra, ids) -> set[str]:
    reg = alg.registry()
    verts: set[str] = set()
    for i in ids:
        verts |= reg.rep(i).support()
    return verts


def phi(m: Rep, budgets: Budgets = DEFAULT) -> PhiResult:
    """The (right) Igusa-Todorov function with certification, read from the
    registry's phi table when add m was answered before (see above)."""
    reg = m.algebra.registry()
    gens = subgroup_add(m, budgets)
    key = (tuple(i for g in gens for i in g), budgets)
    got = reg.phis.get(key)
    if got is None:
        got, final = _walk(m.algebra, gens, budgets)
        if not final:
            return got
        reg.phis[key] = got
    return PhiResult(got.value, got.certified, got.certificate, list(got.trace),
                     got.note, got.probabilistic)


def _walk(alg: BoundAlgebra, gens: list[K0Vector], budgets: Budgets
          ) -> tuple[PhiResult, bool]:
    """phi from the rank trace of the generators of <add M>, and whether that
    answer is final: no budget stopped the walk, and every pd_class answer it
    read was finite or infinite."""
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
        return PhiResult(value, certified and sure, certificate, trace, note,
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
            cur = [omega_bar(alg, g, budgets) for g in cur]
        except BudgetExceeded as exc:
            return result(value, False, "budget", str(exc))
        r = lattice_rank_of(cur)
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


@dataclass
class PhiDimResult:
    value: int
    all_certified: bool
    results: list

    @property
    def status(self) -> str:
        return "certified" if self.all_certified else "degraded"


def phi_dim_over(ms, budgets: Budgets = DEFAULT) -> PhiDimResult:
    """max of certified phi values over a list; LowerBound degrades the status."""
    results = [phi(m, budgets) for m in ms]
    value = max((r.value for r in results if r.certified), default=0)
    return PhiDimResult(value, all(r.certified for r in results), results)

