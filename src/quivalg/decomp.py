"""Endomorphism algebras, Krull-Schmidt decomposition, iso tests, registry.

Splitting strategy: factor minimal polynomials of endomorphisms; a coprime
factorization induces a direct splitting by generalized kernels.  Locality of
the endomorphism algebra is certified by exhibiting E/rad(E) as a finite field
(an element whose minimal polynomial is irreducible of full degree), with an
exhaustive idempotent search below |F|^dim <= 10^6 and an honest
probabilistic flag otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import exactfield as ef
from . import fppoly
from . import repmod
from .budgets import DEFAULT, BudgetExceeded, Budgets, RegistryAmbiguity
from .repmod import Rep, RepMap

EXHAUSTIVE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# fingerprints


def fingerprint(m: Rep) -> tuple:
    """Isomorphism-invariant fingerprint.

    Components: dim vector, top and socle dim vectors, radical and socle
    series dim vectors, and the rank of each arrow action (conjugation
    preserves all of them).  Hom-space dimensions are deliberately left out:
    they cost a quadratic solve and the remaining invariants discriminate
    well enough that the certified iso test settles collisions.
    """
    if m._fp is not None:
        return m._fp
    p = m.algebra.p
    dims = m.dim_vector()
    tops = repmod.top(m)[0].dim_vector()
    socs = repmod.socle(m)[0].dim_vector()
    rad_series = []
    cur = m
    while not cur.is_zero:
        cur = repmod.radical(cur)[0]
        rad_series.append(cur.dim_vector())
    soc_series = []
    cur = m
    while not cur.is_zero:
        soc, inc = repmod.socle(cur)
        soc_series.append(soc.dim_vector())
        cur = repmod.quotient(cur, inc)[0]
    arrow_ranks = tuple(ef.rank_fp(m.mats[a.name], p)
                        for a in m.algebra.quiver.arrows)
    fp = (dims, tops, socs, tuple(rad_series), tuple(soc_series), arrow_ranks)
    m._fp = fp
    return fp


# ---------------------------------------------------------------------------
# endomorphism algebras


class EndAlgebra:
    """End(M) with a flat coordinate system and composition helpers."""

    def __init__(self, module: Rep):
        self.module = module
        self.p = module.algebra.p
        self.basis = repmod.hom_basis(module, module)
        self.dim = len(self.basis)
        module._end_dim = self.dim
        verts = module.algebra.quiver.vertices
        self._flat_len = sum(module.dims[v] * module.dims[v] for v in verts)
        self._verts = verts
        flats = [self.flatten(f.mats) for f in self.basis]
        self.flat = np.stack(flats) if flats else ef.zeros(0, self._flat_len)
        self.solver = ef.RowSolver(self.flat, self.p) if self.dim else None
        self._identity_mats = {v: ef.eye(module.dims[v]) for v in verts}
        self._structure = None

    def flatten(self, mats: dict[str, np.ndarray]) -> np.ndarray:
        parts = [mats[v].reshape(-1) for v in self._verts]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def coordinates(self, mats: dict[str, np.ndarray]) -> np.ndarray:
        coords = self.solver.coordinates(self.flatten(mats).reshape(1, -1))
        if coords is None:
            raise ValueError("endomorphism outside the computed basis span")
        return coords[0]

    def element(self, coords) -> dict[str, np.ndarray]:
        return repmod.combine_maps(self.basis, coords).mats

    def compose(self, a: dict, b: dict) -> dict:
        return {v: ef.matmul(a[v], b[v], self.p) for v in self._verts}

    def structure_constants(self) -> np.ndarray:
        """c[i, j] = coordinates of basis_i . basis_j (shape dim x dim x dim)."""
        if self._structure is None:
            if self.dim:
                # all dim**2 composites at once, one broadcast product per
                # vertex; row i * dim + j holds basis_i . basis_j
                blocks = []
                for v in self._verts:
                    b = np.stack([f.mats[v] for f in self.basis])
                    blocks.append(((b[:, None] @ b[None, :]) % self.p).reshape(
                        self.dim * self.dim, b.shape[1] * b.shape[2]))
                coords = self.solver.coordinates(np.concatenate(blocks, axis=1))
                if coords is None:
                    raise ValueError("End(M) is not closed under composition")
                self._structure = coords.reshape(self.dim, self.dim, self.dim)
            else:
                self._structure = np.zeros((0, 0, 0), dtype=np.int64)
        return self._structure


def end_algebra(m: Rep) -> EndAlgebra:
    return EndAlgebra(m)


# ---------------------------------------------------------------------------
# splitting


def _minpoly_of_mats(mats: dict[str, np.ndarray], p: int) -> np.ndarray:
    """Minimal polynomial of a vertexwise endomorphism (lcm over vertices)."""
    mu = np.array([1], dtype=np.int64)
    for mat in mats.values():
        if mat.shape[0] == 0:
            continue
        mv = fppoly.min_poly_matrix(mat, p)
        g = fppoly.gcd(mu, mv, p)
        mu = fppoly.divmod_poly(fppoly.mul(mu, mv, p), g, p)[0]
    return fppoly.monic(mu, p)


def _poly_kernel_piece(m: Rep, mats: dict[str, np.ndarray], g: np.ndarray) -> Rep:
    """The submodule ker g(f) for an endomorphism f given vertexwise."""
    p = m.algebra.p
    rows = {}
    for v in m.algebra.quiver.vertices:
        gv = fppoly.eval_matrix(g, mats[v], p) if m.dims[v] else ef.zeros(0, 0)
        rows[v] = ef.kernel_basis(gv.T, p)
    sub, _ = repmod.submodule(m, rows)
    return sub


def _coprime_split(factors, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(q0^e0, product of the other prime powers) for a factor list of length >= 2."""
    q0, e0 = factors[0]
    g = q0
    for _ in range(e0 - 1):
        g = fppoly.mul(g, q0, p)
    h = np.array([1], dtype=np.int64)
    for q, e in factors[1:]:
        for _ in range(e):
            h = fppoly.mul(h, q, p)
    return g, h


def _lift_idempotent(m: Rep, mats: dict[str, np.ndarray], p: int):
    """Newton-lift an idempotent-mod-nilpotents to an exact idempotent."""
    e = dict(mats)
    for _ in range(64):
        sq = {v: ef.matmul(e[v], e[v], p) for v in e}
        if all(np.array_equal(sq[v], e[v]) for v in e):
            return e
        e = {v: (3 * sq[v] - 2 * ef.matmul(sq[v], e[v], p)) % p for v in e}
    return None


def _split_by_idempotent(m: Rep, E: EndAlgebra, S: _QuotientAlgebra, svec):
    """ker e and ker(1 - e) for the exact lift e of an idempotent of S.

    Returns the two pieces, or None when the lift fails or is trivial.
    """
    p = E.p
    e = _lift_idempotent(m, E.element(S.embed(svec)), p)
    if e is None:
        return None
    comp = {v: (ef.eye(m.dims[v]) - e[v]) % p for v in e}
    p1, _ = repmod.submodule(m, {v: ef.kernel_basis(e[v].T, p) for v in e})
    p2, _ = repmod.submodule(m, {v: ef.kernel_basis(comp[v].T, p) for v in comp})
    if p1.total_dim and p2.total_dim and p1.total_dim + p2.total_dim == m.total_dim:
        return [p1, p2]
    return None


class _QuotientAlgebra:
    """E / R for a verified nil ideal R, in E-coordinates."""

    def __init__(self, E: EndAlgebra, rad_rows: np.ndarray):
        self.E = E
        self.p = E.p
        c = E.structure_constants()
        r, pivots, _ = ef.rref(rad_rows, self.p) if rad_rows.size else (ef.zeros(0, E.dim), [], None)
        self.rad_rref = r
        self.rad_pivots = list(pivots)
        self.free = [i for i in range(E.dim) if i not in self.rad_pivots]
        self.dim = len(self.free)
        self._c = c

    def project(self, vec: np.ndarray) -> np.ndarray:
        v = ef.reduce_rows(self.rad_rref, self.rad_pivots, vec.reshape(1, -1), self.p)
        return v[0, self.free]

    def embed(self, svec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.E.dim, dtype=np.int64)
        for c, i in zip(svec, self.free):
            out[i] = int(c) % self.p
        return out

    def identity(self) -> np.ndarray:
        return self.project(self.E.coordinates(self.E._identity_mats))

    def mult(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # contract one index at a time, reducing in between, so that each
        # int64 sum has dim(E) terms of two residues (see ef.MAX_PRIME)
        n = self.E.dim
        left = (self.embed(a) @ self._c.reshape(n, n * n)) % self.p
        return self.project((self.embed(b) @ left.reshape(n, n)) % self.p)


def _radical_rows(E: EndAlgebra) -> np.ndarray:
    """Trace-form radical candidate, verified to be a nil ideal (else empty).

    Valid whenever p > dim E; the verification keeps smaller primes honest.
    """
    p = E.p
    n = E.dim
    c = E.structure_constants()
    # gram[i, j] = trace(L_i L_j) with L_i = c[i]
    gram = np.einsum("iab,jba->ij", c, c) % p
    rad = ef.kernel_basis(gram, p)
    if rad.shape[0] == 0:
        return rad
    try:
        span = ef.RowSolver(ef.row_basis(rad, p), p)
    except ValueError:
        return ef.zeros(0, n)
    # every radical element acts nilpotently (batched squaring of L_r)
    power = np.einsum("ri,ijk->rjk", rad, c) % p
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        power = np.matmul(power, power) % p
    if power.any():
        return ef.zeros(0, n)
    # two-sided ideal: b_i . r and r . b_i stay inside the span
    left = np.einsum("rj,ijk->rik", rad, c) % p
    right = np.einsum("ri,ijk->rjk", rad, c) % p
    products = np.concatenate([left.reshape(-1, n), right.reshape(-1, n)])
    if span.coordinates(products) is None:
        return ef.zeros(0, n)
    return ef.row_basis(rad, p)


def _certify_or_split(m: Rep, E: EndAlgebra, rng, confidence: int):
    """Outcome for a module no random element managed to split.

    Returns ("certified", None), ("probabilistic", None) or ("pieces", [Rep]).
    """
    p = E.p
    if E.dim == 1:
        return ("certified", None)
    rad = _radical_rows(E)
    S = _QuotientAlgebra(E, rad)
    if S.dim == 1:
        return ("certified", None)

    candidates = []
    for i in range(S.dim):
        v = np.zeros(S.dim, dtype=np.int64)
        v[i] = 1
        candidates.append(v)
    for _ in range(confidence):
        candidates.append(rng.integers(0, p, size=S.dim).astype(np.int64))
    for x in candidates:
        mu = fppoly.krylov_minpoly(S.identity(), lambda v: S.mult(v, x), p, S.dim)
        if fppoly.degree(mu) == S.dim and fppoly.is_irreducible(mu, p):
            return ("certified", None)
        factors = fppoly.factor(mu, p, rng)
        if len(factors) >= 2:
            # CRT idempotent in S, lifted to an exact idempotent on M
            g, h = _coprime_split(factors, p)
            gg, u, _ = _xgcd_poly(g, h, p)
            if fppoly.degree(gg) != 0:
                continue
            inv = pow(int(gg[0]), p - 2, p)
            idem_poly = fppoly.mul(fppoly.mul(u, np.array([inv], dtype=np.int64), p), g, p)
            # evaluate at x inside S
            cur = S.identity()
            val = np.zeros(S.dim, dtype=np.int64)
            for coeff in idem_poly:
                val = (val + int(coeff) * cur) % p
                cur = S.mult(cur, x)
            pieces = _split_by_idempotent(m, E, S, val)
            if pieces is not None:
                return ("pieces", pieces)
    if p ** S.dim <= EXHAUSTIVE_LIMIT:
        idem = _exhaustive_idempotent(S)
        if idem is None:
            return ("certified", None)
        pieces = _split_by_idempotent(m, E, S, idem)
        if pieces is not None:
            return ("pieces", pieces)
    return ("probabilistic", None)


def _xgcd_poly(a, b, p):
    """Extended gcd for polynomials over F_p: returns (g, u, v) with ua + vb = g."""
    r0, r1 = fppoly.trim(a % p), fppoly.trim(b % p)
    s0, s1 = np.array([1], dtype=np.int64), np.zeros(0, dtype=np.int64)
    t0, t1 = np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
    while r1.size:
        q, r = fppoly.divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fppoly.add(s0, (-fppoly.mul(q, s1, p)) % p, p)
        t0, t1 = t1, fppoly.add(t0, (-fppoly.mul(q, t1, p)) % p, p)
    return r0, s0, t0


def _exhaustive_idempotent(S: _QuotientAlgebra):
    """Search all of S for a nontrivial idempotent (certified when None)."""
    p = S.p
    one = S.identity()
    zero = np.zeros(S.dim, dtype=np.int64)
    idx = np.zeros(S.dim, dtype=np.int64)
    while True:
        vec = idx.copy()
        if not np.array_equal(vec, zero) and not np.array_equal(vec, one):
            if np.array_equal(S.mult(vec, vec), vec):
                return vec
        i = 0
        while i < S.dim:
            idx[i] += 1
            if idx[i] < p:
                break
            idx[i] = 0
            i += 1
        if i == S.dim:
            return None


def indecomposable_pieces(m: Rep, rng, confidence: int):
    """Split m into indecomposables; returns (pieces, all_certified)."""
    p = m.algebra.p
    if m.is_zero:
        return [], True
    E = end_algebra(m)
    if E.dim == 1:
        return [m], True
    split = None
    for rounds in range(E.dim + confidence):
        if rounds < E.dim:
            f = E.basis[rounds].mats
        else:
            f = E.element(rng.integers(0, p, size=E.dim))
        mu = _minpoly_of_mats(f, p)
        factors = fppoly.factor(mu, p, rng)
        if len(factors) >= 2:
            g, h = _coprime_split(factors, p)
            first = _poly_kernel_piece(m, f, g)
            second = _poly_kernel_piece(m, f, h)
            if first.total_dim + second.total_dim != m.total_dim:
                raise AssertionError("generalized kernels do not exhaust the module")
            split = [first, second]
            break
    if split is None:
        status, split = _certify_or_split(m, E, rng, confidence)
        if status != "pieces":
            return [m], status == "certified"
    out, ok = [], True
    for piece in split:
        sub_pieces, sub_ok = indecomposable_pieces(piece, rng, confidence)
        out.extend(sub_pieces)
        ok = ok and sub_ok
    return out, ok


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    verdict: str  # "yes" | "no" | "inconclusive"
    witness: RepMap | None
    method: str

    @property
    def certified(self) -> bool:
        return self.verdict in ("yes", "no")


def is_isomorphic(m: Rep, n: Rep, seed: int = 0, confidence: int = 40) -> IsoResult:
    """Certified iso test: fingerprints for no, an invertible hom for yes.

    Falls back to exhaustive search of Hom(m, n) when |F|^dim <= 10^6, and
    reports "inconclusive" rather than guessing beyond that.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    p = m.algebra.p
    if m.dims != n.dims:
        return IsoResult("no", None, "dimension vectors differ")
    if m.is_zero:
        return IsoResult("yes", RepMap(m, n, {}), "both zero")
    if m.equals(n):
        ident = RepMap(m, n, {v: ef.eye(m.dims[v]) for v in m.dims})
        return IsoResult("yes", ident, "structural equality")
    if fingerprint(m) != fingerprint(n):
        return IsoResult("no", None, "fingerprints differ")
    homs = repmod.hom_basis(m, n)
    if not homs:
        return IsoResult("no", None, "hom space is zero")
    rng = np.random.default_rng([int(seed) % (2 ** 31), m.algebra.structural_digest() % (2 ** 31), 17])
    for _ in range(confidence):
        f = repmod.combine_maps(homs, rng.integers(0, p, size=len(homs)))
        if f.is_invertible():
            return IsoResult("yes", f, "random invertible hom")
    # an isomorphism M ~ N identifies Hom(M,N) with both endomorphism spaces
    if m._end_dim is None:
        m._end_dim = len(repmod.hom_basis(m, m))
    if n._end_dim is None:
        n._end_dim = len(repmod.hom_basis(n, n))
    if m._end_dim != len(homs) or n._end_dim != len(homs):
        return IsoResult("no", None, "hom dimension mismatch")
    if p ** len(homs) <= EXHAUSTIVE_LIMIT:
        # invertibility is scale-invariant: sweep projective space only
        for lead in range(len(homs)):
            coeffs = np.zeros(len(homs), dtype=np.int64)
            coeffs[lead] = 1
            while True:
                f = repmod.combine_maps(homs, coeffs)
                if f.is_invertible():
                    return IsoResult("yes", f, "exhaustive search")
                i = lead + 1
                while i < len(homs):
                    coeffs[i] += 1
                    if coeffs[i] < p:
                        break
                    coeffs[i] = 0
                    i += 1
                if i == len(homs):
                    break
        return IsoResult("no", None, "exhaustive search")
    return IsoResult("inconclusive", None,
                     f"no invertible hom after {confidence} rounds")


# ---------------------------------------------------------------------------
# registry


class RegistryEntry:
    __slots__ = ("id", "rep", "fp", "projective", "syzygy", "pd", "cache")

    def __init__(self, id_: int, rep: Rep, fp, projective: bool):
        self.id = id_
        self.rep = rep
        self.fp = fp
        self.projective = projective
        self.syzygy = None  # tuple[(id, mult)] once computed
        self.pd = None
        self.cache = {}


class IsoRegistry:
    """Append-only table of isomorphism classes of indecomposables.

    Seeded in canonical order: simples by vertex order, then indecomposable
    projectives by vertex order; discovered classes follow in first-seen order.
    """

    def __init__(self, algebra, confidence: int = 40):
        self.algebra = algebra
        self.confidence = confidence
        self.entries: list[RegistryEntry] = []
        self.buckets: dict[tuple, list[int]] = {}
        self.simple_ids: dict[str, int] = {}
        self.projective_ids: dict[str, int] = {}
        for v in algebra.quiver.vertices:
            self.simple_ids[v] = self.register(repmod.simple(algebra, v))
        for v in algebra.quiver.vertices:
            pid = self.register(algebra.projective(v))
            self.projective_ids[v] = pid
            self.entries[pid].projective = True

    def register(self, m: Rep, seed: int = 0) -> int:
        if m.is_zero:
            raise ValueError("cannot register the zero module")
        fp = fingerprint(m)
        for eid in self.buckets.get(fp, ()):
            res = is_isomorphic(self.entries[eid].rep, m, seed=seed,
                                confidence=self.confidence)
            if res.verdict == "yes":
                return eid
            if res.verdict == "inconclusive":
                raise RegistryAmbiguity(
                    f"iso test inconclusive against class {eid} ({res.method})")
        eid = len(self.entries)
        self.entries.append(RegistryEntry(eid, m, fp, False))
        self.buckets.setdefault(fp, []).append(eid)
        return eid

    def rep(self, eid: int) -> Rep:
        return self.entries[eid].rep

    def is_projective(self, eid: int) -> bool:
        return self.entries[eid].projective

    def dump(self) -> list[dict]:
        out = []
        for e in self.entries:
            out.append({
                "id": e.id,
                "dims": {v: d for v, d in e.rep.dims.items()},
                "fingerprint": repr(e.fp),
                "projective": e.projective,
                "syzygy": None if e.syzygy is None else [[i, m] for i, m in e.syzygy],
            })
        return out


# ---------------------------------------------------------------------------
# decompose


@dataclass
class DecomposeResult:
    items: tuple  # ((class id, multiplicity), ...) sorted by id
    certified: bool
    confidence: int

    def nonprojective(self, registry: IsoRegistry) -> tuple:
        return tuple((i, k) for i, k in self.items if not registry.is_projective(i))

    def status(self) -> str:
        return "certified" if self.certified else f"probabilistic(2^-{self.confidence})"


def _piece_sort_key(piece: Rep):
    return (piece.total_dim, piece.dim_vector(),
            tuple(piece.mats[a].tobytes() for a in sorted(piece.mats)))


def decompose(m: Rep, seed: int = 0, confidence: int = 40,
              budgets: Budgets = DEFAULT, registry: IsoRegistry | None = None
              ) -> DecomposeResult:
    """Indecomposable decomposition of m as registry class ids with multiplicity.

    The dimension cap applies per direct-sum block (the unit of hom-solve
    cost), so recorded sums of small modules decompose even when the total is
    large.
    """
    registry = registry or m.algebra.registry()
    if m.is_zero:
        return DecomposeResult((), True, confidence)
    rng = np.random.default_rng([int(seed) % (2 ** 31),
                                 m.algebra.structural_digest() % (2 ** 31), 23])
    counter: Counter = Counter()
    certified = True
    stack = [m]
    while stack:
        cur = stack.pop()
        if cur.summands:
            stack.extend(cur.summands)
            continue
        if cur.is_zero:
            continue
        cache = cur._decomp
        if cache is not None and cache[0] == (seed, confidence):
            counter.update(dict(cache[1]))
            certified = certified and cache[2]
            continue
        if cur.total_dim > budgets.max_dim:
            raise BudgetExceeded(
                f"module dimension {cur.total_dim} exceeds the cap {budgets.max_dim}")
        got, ok = indecomposable_pieces(cur, rng, confidence)
        got.sort(key=_piece_sort_key)
        local: Counter = Counter()
        for piece in got:
            local[registry.register(piece, seed=seed)] += 1
        cur._decomp = ((seed, confidence), tuple(sorted(local.items())), ok)
        counter.update(local)
        certified = certified and ok
    items = tuple(sorted(counter.items()))
    return DecomposeResult(items, certified, confidence)
