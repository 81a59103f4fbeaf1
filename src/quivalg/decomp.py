"""Endomorphism algebras, Krull-Schmidt decomposition, iso tests, registry.

Splitting strategy: factor minimal polynomials of endomorphisms; a coprime
factorization induces a direct splitting by generalized kernels.  Every split
is such a pair of generalized kernels of one endomorphism of M, including the
lifts to End(M) of elements and idempotents of E/rad(E).  Locality of the
endomorphism algebra is certified by exhibiting E/rad(E) as a finite field
(an element whose minimal polynomial is irreducible of full degree), with an
exhaustive idempotent search below |F|^dim <= 10^6 and an honest
probabilistic flag otherwise.
"""

from __future__ import annotations

import itertools
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


def _minpoly_of_mats(mats: dict[str, np.ndarray], p: int) -> list[int]:
    """Minimal polynomial of a vertexwise endomorphism: that of its block diagonal."""
    n = sum(mat.shape[0] for mat in mats.values())
    diag = ef.zeros(n, n)
    i = 0
    for mat in mats.values():
        k = mat.shape[0]
        diag[i:i + k, i:i + k] = mat
        i += k
    return fppoly.min_poly_matrix(diag, p)


def _poly_kernel_piece(m: Rep, mats: dict[str, np.ndarray], g: list[int]) -> Rep:
    """The submodule ker g(f) for an endomorphism f given vertexwise."""
    p = m.algebra.p
    rows = {}
    for v in m.algebra.quiver.vertices:
        gv = fppoly.eval_matrix(g, mats[v], p) if m.dims[v] else ef.zeros(0, 0)
        rows[v] = ef.kernel_basis(gv.T, p)
    sub, _ = repmod.submodule(m, rows)
    return sub


def _coprime_split(factors, p: int) -> tuple[list[int], list[int]]:
    """(q0^e0, product of the other prime powers) for a factor list of length >= 2."""
    g, h = [1], [1]
    for _ in range(factors[0][1]):
        g = fppoly.mul(g, factors[0][0], p)
    for q, e in factors[1:]:
        for _ in range(e):
            h = fppoly.mul(h, q, p)
    return g, h


def _split_by(m: Rep, f: dict[str, np.ndarray], rng) -> list[Rep] | None:
    """ker g(f) and ker h(f) for coprime g, h with g h the minimal polynomial
    of the endomorphism f (given vertexwise); None when it is a prime power."""
    p = m.algebra.p
    factors = fppoly.factor(_minpoly_of_mats(f, p), p, rng)
    if len(factors) < 2:
        return None
    g, h = _coprime_split(factors, p)
    pieces = [_poly_kernel_piece(m, f, g), _poly_kernel_piece(m, f, h)]
    if pieces[0].total_dim + pieces[1].total_dim != m.total_dim:
        raise AssertionError("generalized kernels do not exhaust the module")
    return pieces


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

    candidates = list(ef.eye(S.dim))
    candidates += [rng.integers(0, p, size=S.dim) for _ in range(confidence)]
    for x in candidates:
        mu = fppoly.krylov_minpoly(S.identity(), lambda v: S.mult(v, x), p, S.dim)
        if fppoly.degree(mu) == S.dim and fppoly.is_irreducible(mu, p):
            return ("certified", None)
        # rad(E) is nil, so the minimal polynomial of x divides that of its
        # lift; when it is reducible the lift splits M
        pieces = _split_by(m, E.element(S.embed(x)), rng)
        if pieces is not None:
            return ("pieces", pieces)
    if p ** S.dim <= EXHAUSTIVE_LIMIT:
        idem = _exhaustive_idempotent(S)
        if idem is None:
            return ("certified", None)
        pieces = _split_by(m, E.element(S.embed(idem)), rng)
        if pieces is not None:
            return ("pieces", pieces)
    return ("probabilistic", None)


def _fp_vectors(p: int, n: int):
    """Every vector of F_p^n as an int64 array, the first coordinate varying fastest."""
    for t in itertools.product(range(p), repeat=n):
        yield np.array(t[::-1], dtype=np.int64)


def _exhaustive_idempotent(S: _QuotientAlgebra):
    """Search all of S for a nontrivial idempotent (certified when None)."""
    one = S.identity()
    for vec in _fp_vectors(S.p, S.dim):
        if vec.any() and not np.array_equal(vec, one) and np.array_equal(S.mult(vec, vec), vec):
            return vec
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
        split = _split_by(m, f, rng)
        if split is not None:
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
            for tail in _fp_vectors(p, len(homs) - lead - 1):
                coeffs = np.concatenate([np.zeros(lead, dtype=np.int64), [1], tail])
                f = repmod.combine_maps(homs, coeffs)
                if f.is_invertible():
                    return IsoResult("yes", f, "exhaustive search")
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
