"""The group K0 modulo projectives, the induced syzygy endomorphism, and phi.

phi(M) is the Fitting stabilization index of the induced endomorphism on
<add M> (Igusa and Todorov, Fields Inst. Commun. 45, 2005).  The value is a
certified lower bound (rank drops are real); `certified` marks a certificate
that the rank trace is constant from the last depth walked on:

  - rank_zero / finite_pd: the trace reaches rank 0 and stays there;
  - theorem_selfinjective / orbit_cycle: the classes close modulo
    selfinjective blocks (below) at depth 0 / one depth past k0;
  - indec_infinite_pd: one class, of certified infinite pd, has phi = 0;
  - rank_one_persistent: coefficients stay nonnegative under the class-level
    syzygy map, so a trace at rank 1 with a certified-infinite-pd class in
    its support never reaches 0 and cannot drop again.

The closure.  Let V be the span of the classes whose support closure is a
selfinjective block, F the other classes reached.  A class on the block C has
its syzygy on C, the same over the selfinjective A_C, where Omega is a
bijection on nonprojective indecomposables (stable equivalence; Auslander,
Reiten and Smalo, IV.3); two blocks C, D make one, as C n D is a union of
components of A_C and of A_D.  So Omega-bar maps V into V, injectively.  Let
every syzygy class of F lie in F, V or the projectives, and k0 be the Fitting
index of the induced T on span(F) = span(F u V) / V: ker T^k = ker T^k0 for
k >= k0.  If u in <add M> has Omega-bar^k u = 0, k >= k0, then T^k0 kills
pi u, so Omega-bar^k0 u lies in V, where Omega-bar^(k - k0) is injective: it
is 0.  So the rank is constant from depth k0 on; F empty gives k0 = 0.

A trace resting on a probabilistic syzygy decomposition (its own or a pd
certificate's) is not `certified` either: its status reads "probabilistic".

phi(M) depends only on add M, so each registry keeps a table of answers,
`IsoRegistry.phis`, keyed by M's sorted nonprojective class ids and the
budgets.  A larger max_dim or depth can lengthen a walk that stopped on a
budget or read an unknown pd; every other answer rests on fixed data (cached
syzygy classes and pd answers) and is stored.  Every answer is a fresh
PhiResult with its own trace list.
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
    return ef.lattice_rank([[v.get(i, 0) for i in support] for v in vecs])


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
    """phi from the rank trace of the generators of <add M>, and whether the
    answer is final: no budget stopped it and every pd_class it read was finite
    or infinite.  It stops past _closed's k0, past budgets.depth if need be."""
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
    ids0 = [next(iter(v)) for v in gens]
    if not _free(alg, ids0):
        blk = alg.quiver.successor_closure(set().union(*(reg.rep(i).support() for i in ids0)))
        return result(0, True, "theorem_selfinjective", f"block {'+'.join(sorted(blk))}")
    pdres = pd_class(ids0[0]) if len(gens) == 1 else None
    if pdres is not None and pdres.status == "infinite":
        return result(0, True, "indec_infinite_pd", pdres.evidence.get("kind", ""), pdres)
    seen, value, depth, closed, cur = set(ids0), 0, 0, None, gens
    while closed is not None or depth < budgets.depth:
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
        if closed is None and new and r == 1:
            # coefficients stay nonnegative, so one certified-infinite-pd
            # class in the support pins the rank at 1 forever
            for eid in sorted(support):
                pdres = pd_class(eid)
                if pdres.status == "infinite":
                    note = f"class {eid} has infinite pd ({pdres.evidence.get('kind')})"
                    return result(value, True, "rank_one_persistent", note, pdres)
        if new or closed is None:
            closed = _closed(alg, seen, budgets)
        if closed is not None and depth > closed[1]:
            used.update(closed[0])
            return result(value, True, "orbit_cycle", f"{len(closed[0])} classes closed "
                          f"modulo selfinjective blocks, Fitting index {closed[1]}")
    return result(value, False, "depth_budget")


def _free(alg: BoundAlgebra, ids) -> list[int]:
    """The classes in ids whose support closure is no selfinjective block."""
    return sorted(i for i in ids if homology.class_block(alg, i) is None)


def _closed(alg: BoundAlgebra, seen, budgets: Budgets) -> tuple[list[int], int] | None:
    """(F, k0), k0 ranked over the integers, when the classes seen close modulo
    selfinjective blocks (see above); None otherwise or on a cap."""
    reg, free = alg.registry(), _free(alg, seen)
    rows = []  # rows[n]: T of the n-th class of F
    for f in free:
        try:
            items = homology.syzygy_class(alg, f, budgets)
        except BudgetExceeded:
            return None
        if _free(alg, [j for j in reg.entries[f].successors if j not in free]):
            return None
        rows.append([sum(k for j, k in items if j == g) for g in free])
    ranks, power = [len(free), ef.lattice_rank(rows)], rows  # rank T^k; T^(k + 1)
    while ranks[-1] < ranks[-2]:
        power = [[sum(a * b for a, b in zip(row, c)) for c in zip(*rows)] for row in power]
        ranks.append(ef.lattice_rank(power))
    return free, len(ranks) - 2


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

