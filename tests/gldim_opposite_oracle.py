"""gldim with the opposite-algebra fallback: the oracle for analysis's gldim.

`global_dimension` is gldim as the package computed it before the syzygy
orbit of the simples settled it.  It reads the pd of each simple at
budgets.depth, and when one is left unknown it runs the same pass again over
alg.opposite(): gldim is left-right symmetric for these algebras, so a
certificate over A^op transfers, and `via` says which side decided.  It reads
the same registry caches as the package (syzygy classes and pd answers).
"""

from __future__ import annotations

from dataclasses import dataclass

from quivalg import homology, repmod
from quivalg.budgets import DEFAULT, Budgets


@dataclass
class GldimResult:
    status: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    witness: str | None = None  # vertex of an infinite-pd simple
    via: str = "direct"


@dataclass
class QInfinity:
    statuses: dict  # vertex -> PdResult
    all_decided: bool  # no unknown statuses


def q_infinity(alg, budgets: Budgets = DEFAULT) -> QInfinity:
    """Per-vertex pd status of the simples, read at budgets.depth."""
    statuses = {v: homology.pd(repmod.simple(alg, v), budgets) for v in alg.quiver.vertices}
    return QInfinity(statuses, all(r.status != "unknown" for r in statuses.values()))


def global_dimension(alg, budgets: Budgets = DEFAULT,
                     qinf: QInfinity | None = None) -> GldimResult:
    """gldim read off the pd statuses of the simples (qinf, q_infinity's
    pass when not given), falling back to the opposite algebra.

    Global dimension is left-right symmetric for these algebras (Tor measures
    it from either side), so a certificate over A^op transfers.
    """
    res = _gldim_of(qinf or q_infinity(alg, budgets))
    if res.status == "unknown":
        opres = _gldim_of(q_infinity(alg.opposite(), budgets))
        if opres.status != "unknown":
            res = GldimResult(opres.status, opres.value, opres.witness, "opposite")
    return res


def _gldim_of(qinf: QInfinity) -> GldimResult:
    """Infinite at the first infinite simple, else unknown at any unknown,
    else the largest pd."""
    for v, r in qinf.statuses.items():
        if r.status == "infinite":
            return GldimResult("infinite", None, v)
    if not qinf.all_decided:
        return GldimResult("unknown")
    return GldimResult("finite", max(r.value for r in qinf.statuses.values()))
