"""Endomorphism algebras, Krull-Schmidt decomposition, iso tests, registry.

Splitting strategy: factor minimal polynomials of endomorphisms; a coprime
factorization induces a direct splitting by generalized kernels.  One loop,
`_certify_or_split`, factors each candidate once: first E = End(M)'s basis;
if none splits M, the radical J(E), as the radical of the trace form
tr_M(x y) on M (one product of the flattened basis with its vertexwise
transpose, exact for p > dim M and checked by a nilpotency flag on M below
that); then `confidence` random elements of E; then an exhaustive idempotent
search in E/J(E) below |F|^dim <= 10^6, and an honest probabilistic flag
otherwise.  Locality of E is certified, at any step, by exhibiting E/J(E) as
a finite field (a candidate whose minimal polynomial has one irreducible
factor, of degree dim E/J(E)) or, when the flag stalls, by the eigenvalues of
the basis.  A local End(M) thus costs no random draw in the common case.

Krull-Schmidt makes a module's class multiset a function of the module.
`decompose` splits each block, and each piece a split produces, from the
same seeded rng state, so the pieces of any module it splits are a function
of that module's content, seed and confidence; each registry remembers the
decomposition of every block and piece split under that key, and
`decompose` splits each distinct module, block or piece, once.  The seed
and the confidence reach `decompose`, `is_isomorphic` and
`IsoRegistry.register` only inside a `Budgets`, so every seeded search a
command runs reads the one --seed and --confidence it was given.

No work is done for an answer already known, and each shortcut gives the
same pieces, class ids and payloads: a nonzero endomorphism f with
f_v f_v = 0 at every vertex has minimal polynomial x^2, a prime power, so
it is factored with no Krylov sequence and cannot split (_split_by); a
split's pieces ker g(f) and ker h(f) are the images of h(f) and g(f),
already evaluated (_split_by); the iso test reads dim Hom off
repmod.hom_solve and builds a basis only for its random rounds
(is_isomorphic); and a module equal entry for entry to a class
representative is that class (IsoRegistry.content).

End(M)'s basis is kept as arrays, never as RepMaps: EndAlgebra holds one
(dim E, d_v, d_v) stack per vertex where M is nonzero, read off the
canonical rows of repmod.HomSolve, and its elements are dicts of matrices
over those vertices.  The iso test's candidates are combinations of the
canonical rows of Hom(m, n), each viewed as a RepMap only to test it.

End is solved once per block; split pieces are compressed.  A split
M = X + Y comes with the RREF bases of X_v and Y_v inside M_v, which
together form an invertible S_v.  End(X) is the corner of End(M) at the
projection onto X, spanned by the X-diagonal blocks of S_v b S_v^-1 over
End(M)'s basis b (EndAlgebra.corners), so indecomposable_pieces hands each
piece split afresh its End with no Hom solved.  The canonical basis of a
span depends on the span alone, and both the solve and the corner take it
by the same reversed-column RREF (repmod.canonical_rows), so a piece's End
equals hom_solve(X, X).rows() bit for bit and every candidate, rng draw,
piece and class id is the one a solve would give.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace

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

    Both series come from repmod.radical_layers, as row spans inside m with no
    submodule or quotient built.  The radical series is rad^1(m), ...,
    rad^L(m) = 0, and top = dim m - dim rad(m).  The socle series holds the
    layers soc^k(m)/soc^{k-1}(m), k = 1..L, read off the radical layers of
    the dual: soc^k(m) = rad^k(Dm)^perp (Auslander, Reiten and Smalø,
    Representation Theory of Artin Algebras), so each layer is
    dim rad^{k-1}(Dm) - dim rad^k(Dm), and the socle is the first.
    """
    if m._fp is not None:
        return m._fp
    p = m.algebra.p
    dims = m.dim_vector()
    rad_series = repmod.radical_layers(m)
    dual_series = repmod.radical_layers(m, dual=True)
    soc_series = [tuple(a - b for a, b in zip(above, below))
                  for above, below in zip([dims] + dual_series, dual_series)]
    # the zero module's dim vector is its own (zero) top and socle
    tops = tuple(d - r for d, r in zip(dims, rad_series[0])) if rad_series else dims
    socs = soc_series[0] if soc_series else dims
    arrow_ranks = tuple(ef.rank_fp(m.mats[a.name], p)
                        for a in m.algebra.quiver.arrows)
    fp = (dims, tops, socs, tuple(rad_series), tuple(soc_series), arrow_ranks)
    m._fp = fp
    return fp


# ---------------------------------------------------------------------------
# endomorphism algebras


class EndAlgebra:
    """End(M) as its canonical basis, hom_basis(M, M), kept as arrays.

    stacks maps each vertex v where M is nonzero, in quiver order, to the
    (dim, d_v, d_v) stack of the basis elements' matrices at v, read off
    HomSolve.rows with no RepMap built.  An element of E is a dict over the
    same vertices; the vertices where M is zero carry nothing.

    rows, when given, is that canonical basis already known: the rows
    `corners` derives for a summand of a module whose End is solved.  Only a
    block is solved; each split piece inherits its End from its parent's.
    """

    def __init__(self, module: Rep, rows: np.ndarray | None = None):
        self.module = module
        self.p = module.algebra.p
        if rows is None:
            rows = repmod.hom_solve(module, module).rows()
        self.dim = rows.shape[0]
        # a row holds the vertex blocks in quiver order; zero vertices hold none
        self.stacks, off = {}, 0
        for v, d in module.dims.items():
            if d:
                self.stacks[v] = rows[:, off:off + d * d].reshape(self.dim, d, d)
                off += d * d
        module._end_dim = self.dim

    def corners(self, incls: list[RepMap]):
        """A function i -> the canonical rows of End(X_i), for M = X_1 + ... + X_k.

        incls are the summands' inclusions into M, whose bases together form
        one of M_v at every vertex: S_v, their matrices stacked, is
        invertible.  End(X_i) is the Peirce corner of End(M) at the
        projection onto X_i (Assem, Simson and Skowronski, Elements of the
        Representation Theory of Associative Algebras I, I.4), spanned by the
        compressions of End(M)'s basis: the i-th diagonal blocks of
        S_v b S_v^-1, that is B_v b P_v with B_v X_i's basis and P_v the
        columns of S_v^-1 that project onto X_i.  S_v is inverted once, at
        the first call; each call flattens its compressions' nonzero rows in
        vertex order and takes the canonical basis of their span, which is
        hom_solve(X_i, X_i).rows() bit for bit.
        """
        p, inv = self.p, {}

        def rows(i: int) -> np.ndarray:
            if not inv:
                for v in self.stacks:
                    inv[v] = ef.invert(np.concatenate([x.mats[v] for x in incls]), p)
            blocks = []
            for v, b in self.stacks.items():
                k = incls[i].source.dims[v]
                if k:
                    o = sum(x.source.dims[v] for x in incls[:i])
                    blocks.append(_compress(b, incls[i].mats[v], inv[v][:, o:o + k], p))
            flat = np.concatenate(blocks, axis=1)
            return repmod.canonical_rows(flat[flat.any(axis=1)], p)

        return rows

    def basis_element(self, i: int) -> dict[str, np.ndarray]:
        return {v: s[i] for v, s in self.stacks.items()}

    def element(self, coords) -> dict[str, np.ndarray]:
        """The element with the given coordinates, reduced mod p."""
        return {v: ef.matmul(coords, s.reshape(self.dim, -1), self.p).reshape(s.shape[1:])
                for v, s in self.stacks.items()}


def _compress(b: np.ndarray, incl: np.ndarray, proj: np.ndarray, p: int) -> np.ndarray:
    """The products incl b_j proj over a stack b of (d, d) matrices, each
    (k, k) product flattened row-major into one row."""
    n, d = b.shape[:2]
    k = incl.shape[0]
    # every b_j proj, stacked, then incl times them side by side
    right = ef.matmul(b.reshape(n * d, d), proj, p)
    left = ef.matmul(incl, right.reshape(n, d, k).transpose(1, 0, 2).reshape(d, n * k), p)
    return left.reshape(k, n, k).transpose(1, 0, 2).reshape(n, k * k)


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


def _split_by(m: Rep, f: dict[str, np.ndarray], rng):
    """(factors, pieces) for the endomorphism f of m, given vertexwise.

    factors is the factorization of the minimal polynomial of f; pieces is
    [ker g(f), ker h(f)] for g the first prime power of that polynomial and h
    its cofactor, or None when the polynomial is a prime power.

    The pieces are read off the images, with no kernel solved: g h kills
    every f_v and gcd(g, h) = 1, so m_v = ker g(f_v) + ker h(f_v) is direct,
    im h(f_v) lies in ker g(f_v) and has dimension
    dim m_v - dim ker h(f_v) = dim ker g(f_v).  Hence ker g(f) = im h(f) and
    ker h(f) = im g(f), spanned by the rows of h(f_v) and g(f_v); submodule
    takes the RREF of those spans, so the pieces are the kernels' bit for bit.
    The pieces come as a _Split, which also holds their inclusions into m.
    """
    p = m.algebra.p
    # a nonzero f with f_v f_v = 0 at every vertex has minimal polynomial
    # x^2, which factor splits into ([0, 1], 2) with no draw at any p
    if (any(x.any() for x in f.values())
            and not any(ef.matmul(x, x, p).any() for x in f.values())):
        return [([0, 1], 2)], None
    minpoly = _minpoly_of_mats(f, p)
    factors = fppoly.factor(minpoly, p, rng)
    if len(factors) < 2:
        return factors, None
    g = [1]
    for _ in range(factors[0][1]):
        g = fppoly.mul(g, factors[0][0], p)
    h = fppoly.divmod_poly(minpoly, g, p)[0]
    at_g, at_h = {}, {}
    for v in m.algebra.quiver.vertices:
        if m.dims[v]:
            at_g[v] = fppoly.eval_matrix(g, f[v], p)
            at_h[v] = fppoly.eval_matrix(h, f[v], p)
    pieces = _Split([repmod.submodule(m, at_h), repmod.submodule(m, at_g)])
    if pieces[0].total_dim + pieces[1].total_dim != m.total_dim:
        raise AssertionError("generalized kernels do not exhaust the module")
    return factors, pieces


class _Split(list):
    """The pieces of a split, from (submodule, inclusion) pairs, with the
    inclusions kept in `incls` for EndAlgebra.corners."""

    def __init__(self, subs):
        super().__init__(sub for sub, _ in subs)
        self.incls = [incl for _, incl in subs]


def _nilpotent_on(stacks: list[np.ndarray], p: int) -> bool:
    """Whether the span R of the stacked endomorphisms has R^k = 0 for some
    k: the flag M, M R, M R^2, ... reaches 0 rather than stalling."""
    spans = [ef.eye(b.shape[1]) for b in stacks]
    size = sum(b.shape[1] for b in stacks)
    # each stack's matrices side by side: the rows u b_i over every i are one product
    wide = [b.transpose(1, 0, 2).reshape(b.shape[1], -1) for b in stacks]
    while size:
        spans = [ef.row_basis(ef.matmul(u, w, p).reshape(-1, u.shape[1]), p)
                 for u, w in zip(spans, wide)]
        rank = sum(u.shape[0] for u in spans)
        if rank == size:
            return False
        size = rank
    return True


def _trace_radical(E: EndAlgebra):
    """J(E) from the trace form B(x, y) = tr_M(x y) of E = End(M) on M.

    Returns (pivots, pair): J(E), in E-coordinates, has RREF pivot columns
    `pivots`, and y in E lies in J(E) iff row @ pair is zero mod p, with row
    the vertex blocks of y flattened in quiver order.
    The radical R of B is a two-sided ideal (B is symmetric and associative)
    that contains J(E).  For p > dim M, x in R has tr(x^k) = B(x, x^(k-1)) = 0
    for k <= dim M, so x is nilpotent by Newton's identities and R = J(E).
    For smaller p, R = J(E) iff the flag shows R nilpotent; when it stalls,
    ([], None) stands for J = 0, under which y lies in J iff y = 0.
    """
    p = E.p
    stacks = list(E.stacks.values())
    flat = np.concatenate([b.reshape(E.dim, -1) for b in stacks], axis=1)
    pair = np.concatenate([b.transpose(0, 2, 1).reshape(E.dim, -1) for b in stacks], axis=1).T
    # gram[i, j] = sum over vertices of tr(b_i b_j), a sum of
    # sum_v dim(M_v)**2 products (the matmul bound at ef.MAX_PRIME)
    rad, pivots, _ = ef.rref(ef.kernel_basis(ef.matmul(flat, pair, p), p), p)
    if (pivots and p <= E.module.total_dim
            and not _nilpotent_on([ef.matmul(rad, b.reshape(E.dim, -1), p)
                                   .reshape(-1, *b.shape[1:]) for b in stacks], p)):
        return [], None
    return pivots, pair


def _local_by_eigenvalues(E: EndAlgebra, factors) -> bool:
    """Whether every basis element b_i of E has one eigenvalue lambda_i, in
    F_p, and the flag shows the b_i - lambda_i nilpotent.

    factors[i] is the factorization of the minimal polynomial of b_i.  Then
    the b_i - lambda_i generate a nilpotent ideal N with E = F_p + N, so E is
    local.  This certifies a local E whose trace form vanishes, as it does
    when p divides the length of M over E.
    """
    if any(len(fac) != 1 or fppoly.degree(fac[0][0]) != 1 for fac in factors):
        return False
    # each factor is x + c_i, so b_i - lambda_i = b_i + c_i, reduced for the
    # matrix contract (ef.matmul's float bound assumes residues)
    c = np.array([fac[0][0][0] for fac in factors], dtype=np.int64)[:, None, None]
    return _nilpotent_on([(s + c * ef.eye(s.shape[1])) % E.p for s in E.stacks.values()], E.p)


def _certify_or_split(m: Rep, E: EndAlgebra, rng, confidence: int):
    """Split m by an endomorphism, or certify that E = End(m) is local.

    Tries the candidates in the order of the module docstring.  S = E/J(E)
    has as basis E's basis elements off the pivot columns of J(E); x in S
    lifts to E with those coordinates.  Returns ("certified", None),
    ("probabilistic", None) or ("pieces", [Rep]).
    """
    p = E.p
    if E.dim == 1:
        return ("certified", None)
    basis_factors = []
    for i in range(E.dim):
        factors, pieces = _split_by(m, E.basis_element(i), rng)
        if pieces is not None:
            return ("pieces", pieces)
        basis_factors.append(factors)
    pivots, pair = _trace_radical(E)
    free = [i for i in range(E.dim) if i not in pivots]

    def spans_field(factors):
        # J(E) is nilpotent, so the minimal polynomial of the image of x in S
        # divides that of x, a power of one irreducible q: when deg q = dim S,
        # the image generates S, which is then the field F_p[t]/(q)
        return fppoly.degree(factors[0][0]) == len(free)

    if any(map(spans_field, basis_factors)) or (
            pair is None and _local_by_eigenvalues(E, basis_factors)):
        return ("certified", None)
    for _ in range(confidence):
        factors, pieces = _split_by(m, E.element(rng.integers(0, p, size=E.dim)), rng)
        if pieces is not None:
            return ("pieces", pieces)
        if spans_field(factors):
            return ("certified", None)
    if p ** len(free) > EXHAUSTIVE_LIMIT:
        return ("probabilistic", None)

    def lift(x):
        coords = np.zeros(E.dim, dtype=np.int64)
        coords[free] = x
        return E.element(coords)

    def in_radical(y):
        row = np.concatenate([x.reshape(-1) for x in y.values()])
        return not (row.any() if pair is None else ef.matmul(row.reshape(1, -1), pair, p).any())

    # x is a nontrivial idempotent of S iff x != 0, lift^2 - lift lies in J(E)
    # and lift - 1 does not; then the minimal polynomial of the lift has the
    # factors x and x - 1, and the lift splits M
    one = {v: ef.eye(s.shape[1]) for v, s in E.stacks.items()}
    for x in _fp_vectors(p, len(free)):
        f = lift(x)
        if (x.any() and in_radical({v: ef.matmul(f[v], f[v], p) - f[v] for v in f})
                and not in_radical({v: f[v] - one[v] for v in f})):
            return ("pieces", _split_by(m, f, rng)[1])
    return ("certified", None)


def _fp_vectors(p: int, n: int):
    """Every vector of F_p^n as an int64 array, the first coordinate varying fastest."""
    for t in itertools.product(range(p), repeat=n):
        yield np.array(t[::-1], dtype=np.int64)


@dataclass
class _PieceMemo:
    """What `decompose` hands indecomposable_pieces for one call.

    table is the registry's memo and prefix its (seed, confidence); start is
    the seeded rng state every module is split from; split collects
    (key, pieces, certified) for each piece split afresh, to be recorded once
    the block's new leaves are registered.
    """
    table: dict
    prefix: tuple
    start: dict
    split: list


def indecomposable_pieces(m: Rep, rng, confidence: int, memo: _PieceMemo | None = None,
                          end: EndAlgebra | None = None):
    """Split m into indecomposables; returns (pieces, all_certified).

    end is End(m) when it is already known; otherwise it is solved.  Each
    piece split afresh is handed its End, read off end's corners, so a
    block's End is the only one solved below it.

    Without memo, m and its pieces draw in turn from rng's running state.
    With one, m and every piece split afresh start from memo.start, so each
    one's pieces depend on its content, seed and confidence alone; a piece
    whose key is in memo.table is not split, and stands in the result as its
    class ids, each repeated by its multiplicity.
    """
    if m.is_zero:
        return [], True
    if memo is not None:
        rng.bit_generator.state = memo.start
    E = end or EndAlgebra(m)
    status, split = _certify_or_split(m, E, rng, confidence)
    if status != "pieces":
        return [m], status == "certified"
    corner = E.corners(split.incls)
    out, ok = [], True
    for i, piece in enumerate(split):
        key = memo and memo.prefix + (_content(piece),)
        hit = memo and memo.table.get(key)
        if hit:
            sub_pieces, sub_ok = [eid for eid, k in hit[0] for _ in range(k)], hit[1]
        else:
            sub_pieces, sub_ok = indecomposable_pieces(piece, rng, confidence, memo,
                                                       EndAlgebra(piece, corner(i)))
            if memo:
                memo.split.append((key, sub_pieces, sub_ok))
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


def _folded(budgets: Budgets, seed: int | None, confidence: int | None) -> Budgets:
    """budgets with the keyword seed and confidence of decompose and
    is_isomorphic folded in.  Only the benchmark's workloads pass those
    keywords; every call in the package hands its Budgets alone."""
    if seed is None and confidence is None:
        return budgets
    given = {k: v for k, v in (("seed", seed), ("confidence", confidence)) if v is not None}
    return replace(budgets, **given)


def is_isomorphic(m: Rep, n: Rep, budgets: Budgets = DEFAULT, *,
                  seed: int | None = None, confidence: int | None = None) -> IsoResult:
    """Certified iso test: fingerprints for no, an invertible hom for yes.

    The random rounds are seeded by budgets.seed, and there are
    budgets.confidence of them (seed and confidence, when given, replace
    the budgets' own: see _folded).  Falls back to exhaustive search of
    Hom(m, n) when |F|^dim <= 10^6, and reports "inconclusive" rather than
    guessing beyond that.

    dim Hom(m, n) is read off one hom_solve before any basis is assembled:
    "hom space is zero" and a mismatch with a known End dimension need only
    that number.  The basis is assembled from the same solve, as its
    canonical rows, when random combinations must be tried; each candidate is
    one combination of the rows, viewed as a RepMap.  End dimensions filled
    in afterwards come from solves alone.
    """
    budgets = _folded(budgets, seed, confidence)
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
    solve = repmod.hom_solve(m, n)
    if not solve.dim:
        return IsoResult("no", None, "hom space is zero")
    # an isomorphism M ~ N identifies Hom(M,N) with both endomorphism spaces;
    # a known End dimension settles "no" before the random rounds
    if any(x._end_dim is not None and x._end_dim != solve.dim for x in (m, n)):
        return IsoResult("no", None, "hom dimension mismatch")
    rows = solve.rows()
    dim = solve.dim
    rng = np.random.default_rng([int(budgets.seed) % (2 ** 31),
                                 m.algebra.structural_digest() % (2 ** 31), 17])
    for _ in range(budgets.confidence):
        f = solve.map(ef.matmul(rng.integers(0, p, size=dim), rows, p))
        if f.is_invertible():
            return IsoResult("yes", f, "random invertible hom")
    if m._end_dim is None:
        m._end_dim = repmod.hom_solve(m, m).dim
    if n._end_dim is None:
        n._end_dim = repmod.hom_solve(n, n).dim
    if m._end_dim != dim or n._end_dim != dim:
        return IsoResult("no", None, "hom dimension mismatch")
    if p ** dim <= EXHAUSTIVE_LIMIT:
        # invertibility is scale-invariant: sweep projective space only
        for lead in range(dim):
            for tail in _fp_vectors(p, dim - lead - 1):
                coeffs = np.concatenate([np.zeros(lead, dtype=np.int64), [1], tail])
                f = solve.map(ef.matmul(coeffs, rows, p))
                if f.is_invertible():
                    return IsoResult("yes", f, "exhaustive search")
        return IsoResult("no", None, "exhaustive search")
    return IsoResult("inconclusive", None,
                     f"no invertible hom after {budgets.confidence} rounds")


# ---------------------------------------------------------------------------
# registry


def _content(m: Rep) -> tuple:
    """m's dim vector and arrow matrix bytes in quiver arrow order, kept on m
    (its matrices are read-only): equal tuples mean modules equal entry for entry."""
    if m._key is None:
        m._key = m.dim_vector(), tuple(m.mats[a].tobytes() for a in m.algebra.quiver.arrow_map)
    return m._key


class RegistryEntry:
    """A class and its node record in the syzygy graph, filled by homology."""

    __slots__ = ("id", "rep", "fp", "projective", "syzygy", "syzygy_certified", "successors",
                 "block", "checked", "pd")

    def __init__(self, id_: int, rep: Rep, fp, projective: bool):
        self.id = id_
        self.rep = rep
        self.fp = fp
        self.projective = projective
        self.syzygy = None  # tuple[(id, mult)] once computed
        self.syzygy_certified = True  # False when that decomposition is probabilistic
        self.successors = None  # the nonprojective ids of syzygy, in id order
        self.block = False  # not yet taken; then the covering selfinjective block or None
        self.checked = False  # whether homology has read its projective, block and Cartan verdicts
        self.pd = None  # a finite or infinite PdResult; unknown answers are not kept


class IsoRegistry:
    """Append-only table of isomorphism classes of indecomposables.

    Seeded in canonical order: simples by vertex order, then indecomposable
    projectives by vertex order; discovered classes follow in first-seen order.

    `content` maps each class representative's content (its dim vector and
    arrow matrix bytes in quiver arrow order) to its id, and `register`
    looks a module up there before it computes a fingerprint.  The classes
    are pairwise non-isomorphic, so a module equal entry for entry to a
    representative is isomorphic to that class alone: the bucket scan would
    return the same id, as its first "yes" (a structural equality).  The one
    difference is that an earlier entry whose iso test would be inconclusive
    raises no RegistryAmbiguity once the content has certified the class.

    `memo` holds the decompositions `decompose` finished against this
    registry: of every block, and of every piece split below one, leaves
    included.  They are keyed by everything that decides a module's pieces,
    (seed, confidence, content), since each is split from the same seeded
    rng state.  The value is (items, certified), stored only once the
    block's new leaves are all registered, so a RegistryAmbiguity leaves no
    entry for any of its pieces.  Entries are never removed, and every iso
    verdict they rest on is certified, so re-registering equal pieces would
    return the stored ids.

    `phis` holds the phi answers that can no longer change, keyed by the
    sorted nonprojective class ids of add M and the budgets (see
    grothendieck).
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.memo: dict[tuple, tuple] = {}
        self.content: dict[tuple, int] = {}
        self.phis: dict[tuple, object] = {}
        self.entries: list[RegistryEntry] = []
        self.buckets: dict[tuple, list[int]] = {}
        self.simple_ids: dict[str, int] = {}
        self.projective_ids: dict[str, int] = {}
        for v in algebra.quiver.vertices:
            self.simple_ids[v] = self.register(repmod.simple(algebra, v), DEFAULT)
        for v in algebra.quiver.vertices:
            pid = self.register(algebra.projective(v), DEFAULT)
            self.projective_ids[v] = pid
            self.entries[pid].projective = True

    def register(self, m: Rep, budgets: Budgets = DEFAULT) -> int:
        """m's class id, a new class when m is isomorphic to none; the bucket
        scan's iso tests run at the budgets' seed and confidence."""
        if m.is_zero:
            raise ValueError("cannot register the zero module")
        key = _content(m)
        eid = self.content.get(key)
        if eid is not None:
            return eid
        fp = fingerprint(m)
        for eid in self.buckets.get(fp, ()):
            res = is_isomorphic(self.entries[eid].rep, m, budgets)
            if res.verdict == "yes":
                return eid
            if res.verdict == "inconclusive":
                raise RegistryAmbiguity(
                    f"iso test inconclusive against class {eid} ({res.method})")
        eid = len(self.entries)
        self.entries.append(RegistryEntry(eid, m, fp, False))
        self.buckets.setdefault(fp, []).append(eid)
        self.content[key] = eid
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


def decompose(m: Rep, budgets: Budgets = DEFAULT, *, seed: int | None = None,
              confidence: int | None = None) -> DecomposeResult:
    """Indecomposable decomposition of m as registry class ids with multiplicity.

    The seed, the confidence and the dimension cap are the budgets' (seed
    and confidence, when given, replace the budgets' own: see _folded).

    Each direct-sum block is looked up in the memo of m.algebra.registry()
    (see IsoRegistry) first, so a module equal entry for entry to one
    decomposed before with the same seed and confidence costs no End(M),
    split or registration, whatever its size.  The dimension cap applies to the other blocks, each
    on its own (a block is the unit of hom-solve cost): a fresh block over
    the cap raises BudgetExceeded, while recorded sums of small modules
    decompose even when the total is large.

    A fresh block is split by indecomposable_pieces, which looks each piece
    a split produces up in the memo as well: a hit adds its stored classes
    and is not split, solved or registered.  The block and every piece split
    afresh start from one rng state, seeded from the seed and the algebra's
    structural digest, so their pieces depend on their content, seed and
    confidence alone and the registry decides only the class ids.  The
    block's new leaves are registered together, in _piece_sort_key order,
    and then the memo records the block and every piece split below it.  A
    recorded sum of cached blocks builds no rng and takes no digest, and a
    single cached block costs one content key and one lookup.
    """
    budgets = _folded(budgets, seed, confidence)
    seed, confidence = budgets.seed, budgets.confidence
    registry = m.algebra.registry()
    blocks = []  # (items, certified) of each nonzero block
    memo = None
    stack = [m]
    while stack:
        cur = stack.pop()
        if cur.summands:
            stack.extend(cur.summands)
            continue
        key = (seed, confidence, _content(cur))
        got = registry.memo.get(key)
        if got is None:
            if cur.is_zero:  # never recorded, so only a miss can be zero
                continue
            if cur.total_dim > budgets.max_dim:
                raise BudgetExceeded(
                    f"module dimension {cur.total_dim} exceeds the cap {budgets.max_dim}")
            if memo is None:
                rng = np.random.default_rng([int(seed) % (2 ** 31),
                                             m.algebra.structural_digest() % (2 ** 31), 23])
                memo = _PieceMemo(registry.memo, (seed, confidence), rng.bit_generator.state, [])
            pieces, ok = indecomposable_pieces(cur, rng, confidence, memo)
            memo.split.append((key, pieces, ok))
            fresh = sorted((x for x in pieces if isinstance(x, Rep)), key=_piece_sort_key)
            ids = {id(x): registry.register(x, budgets) for x in fresh}
            for k, k_pieces, k_ok in memo.split:
                local = Counter(ids[id(x)] if isinstance(x, Rep) else x for x in k_pieces)
                registry.memo[k] = (tuple(sorted(local.items())), k_ok)
            memo.split.clear()
            got = registry.memo[key]
        blocks.append(got)
    if len(blocks) == 1:
        # a block's stored items are sorted with distinct ids already
        return DecomposeResult(*blocks[0], confidence)
    counter: Counter = Counter()
    for items, _ in blocks:
        counter.update(dict(items))
    return DecomposeResult(tuple(sorted(counter.items())), all(ok for _, ok in blocks),
                           confidence)
