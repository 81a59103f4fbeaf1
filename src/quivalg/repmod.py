"""Modules as bound quiver representations.

A Rep assigns a row-vector space F_p^d to each vertex and a (dim source x
dim target) matrix to each arrow; vectors act on the right, so the matrix of
a path is the left-to-right product of its arrow matrices.  All constructors
return immutable numpy-backed values; every operation is pure.

Hom spaces are solved on the first module's projective presentation
0 -> omega -> P0 ->> m (see hom_solve), which is built once per module and
cached on it, as are the matrices of its paths.  The solve alone gives
dim Hom; HomSolve.rows assembles the canonical basis from it as one array,
and hom_basis returns that basis as RepMaps.  The projective cover and
homology's syzygies read the same cached presentation.

Every matrix here meets ef's contract.  Rep.from_json, where outside
matrices enter, is the only caller of ef.as_matrix; the Rep and RepMap
constructors take contract matrices as given and check only their shapes.
A subspace of m is a dict vertex -> contract rows spanning it inside m_v (a
missing vertex spans 0).  submodule and quotient share one rref per vertex
and one arrow-stability check (_stable_span); quotient then builds only the
complement basis and the projection.  direct_sum builds the block-diagonal
sum and reports each summand's offsets, with no maps.

random_module draws cokernels of random maps between sums of projectives.
The per-vertex data it reads, rad P_t and the canonical bases of
Hom(P_s, rad P_t), are built once per algebra and cached in algebra.cache;
each attempt only assembles them and takes one quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactfield as ef
from .pathalgebra import BoundAlgebra, PathKey, Relation


class NotASubmodule(ValueError):
    """The given subspace family is not stable under the arrow action."""


class Rep:
    """A representation of a bound quiver algebra.

    The dims and the arrow matrices, which meet ef's contract, are taken as
    given (from_json checks and coerces outside input); a missing arrow acts
    by 0.  Each matrix is made read-only.

    Attributes:
        algebra: owning BoundAlgebra.
        dims: dict vertex -> dimension.
        mats: dict arrow name -> int64 matrix of shape (dim source, dim target).
        summands: optional tuple of block summands recorded by direct_sum.
    """

    __slots__ = ("algebra", "dims", "mats", "summands", "_end_dim", "_fp", "_key", "_pres",
                 "_paths")

    def __init__(self, algebra: BoundAlgebra, dims, mats, summands=None):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        self.mats = {}
        for a in algebra.quiver.arrows:
            ds, dt = self.dims[a.source], self.dims[a.target]
            m = mats.get(a.name) if mats else None
            if m is None:
                m = ef.zeros(ds, dt)
            elif m.shape != (ds, dt):
                raise ValueError(f"arrow {a.name}: matrix shape {m.shape} != ({ds}, {dt})")
            m.setflags(write=False)
            self.mats[a.name] = m
        self.summands = tuple(summands) if summands else None
        self._end_dim = None
        self._fp = None
        self._key = None
        self._pres = None
        self._paths = {}

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def support(self) -> frozenset[str]:
        return frozenset(v for v, d in self.dims.items() if d)

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def equals(self, other: "Rep") -> bool:
        """Structural (basis-level) equality, not isomorphism."""
        return (self.algebra is other.algebra and self.dims == other.dims
                and all(np.array_equal(self.mats[a], other.mats[a]) for a in self.mats))

    def strip(self) -> "Rep":
        """Copy without block metadata (forces genuine decomposition later)."""
        return Rep(self.algebra, self.dims, self.mats)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dims": {v: d for v, d in self.dims.items()},
            "maps": {a: self.mats[a].tolist() for a in self.mats},
        }

    @classmethod
    def from_json(cls, algebra: BoundAlgebra, data) -> "Rep":
        """The module `to_json` wrote; ValueError unless data is one over `algebra`.

        Entries may be any integers, reduced mod p here; [] is an empty block.
        """
        if not isinstance(data, dict):
            raise ValueError("a module is a JSON object")
        extra = set(data) - {"algebra", "dims", "maps"}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)}")
        if data.get("algebra") not in (None, algebra.name):
            raise ValueError(
                f"module file targets algebra {data.get('algebra')!r}, not {algebra.name!r}")
        dims, maps = data.get("dims", {}), data.get("maps", {})
        if not isinstance(dims, dict) or not isinstance(maps, dict):
            raise ValueError("dims and maps are JSON objects")
        for keys, known, what in ((dims, algebra.quiver.vertices, "vertices"),
                                  (maps, algebra.quiver.arrow_map, "arrows")):
            extra = set(keys) - set(known)
            if extra:
                raise ValueError(f"unknown {what} {sorted(extra)}")
        for v, d in dims.items():
            if type(d) is not int:
                raise ValueError("dimensions are integers")
            if d < 0:
                raise ValueError(f"negative dimension at vertex {v}")
        if any(np.asarray(mat).size and np.asarray(mat).dtype.kind != "i" for mat in maps.values()):
            raise ValueError("matrix entries are integers")
        arrows = algebra.quiver.arrow_map
        m = cls(algebra, dims, {a: ef.as_matrix(mat, algebra.p, dims.get(arrows[a].source, 0),
                                                dims.get(arrows[a].target, 0))
                                for a, mat in maps.items()})
        bad = validate(m)
        if bad is not None:
            raise ValueError(f"the relation {bad.relation} does not hold")
        return m

    def __repr__(self) -> str:
        dims = ",".join(f"{v}:{d}" for v, d in self.dims.items() if d) or "0"
        return f"Rep({self.algebra.name}; {dims})"


class RepMap:
    """A morphism of representations: one matrix per vertex, rows act left.

    The matrices meet ef's matrix contract (int64, reduced mod p) and are
    taken as given, not coerced again; a missing vertex maps by 0.  Each is
    made read-only; no caller writes into one, or its base, after handing it
    over.
    """

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats):
        self.source = source
        self.target = target
        self.mats = {}
        for v in source.algebra.quiver.vertices:
            ds, dt = source.dims[v], target.dims[v]
            m = mats.get(v) if mats else None
            if m is None:
                m = ef.zeros(ds, dt)
            elif m.shape != (ds, dt):
                raise ValueError(f"vertex {v}: map shape {m.shape} != ({ds}, {dt})")
            m.setflags(write=False)
            self.mats[v] = m

    def compose(self, other: "RepMap") -> "RepMap":
        """self then other (left-to-right, matching the row convention)."""
        p = self.source.algebra.p
        return RepMap(self.source, other.target,
                      {v: ef.matmul(self.mats[v], other.mats[v], p)
                       for v in self.mats})

    def is_injective(self) -> bool:
        p = self.source.algebra.p
        return all(ef.rank_fp(m, p) == m.shape[0] for m in self.mats.values())

    def is_surjective(self) -> bool:
        p = self.source.algebra.p
        return all(ef.rank_fp(m, p) == m.shape[1] for m in self.mats.values())

    def is_invertible(self) -> bool:
        return all(m.shape[0] == m.shape[1] for m in self.mats.values()) \
            and self.is_injective()

    def is_zero(self) -> bool:
        return all(not m.size or not m.any() for m in self.mats.values())

    def __repr__(self) -> str:
        return f"RepMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# basic constructions


def zero_rep(algebra: BoundAlgebra) -> Rep:
    return Rep(algebra, {}, {})


def simple(algebra: BoundAlgebra, v: str) -> Rep:
    """The simple module S_v: one dimension at v, zero maps."""
    if v not in algebra.quiver.vertex_index:
        raise ValueError(f"unknown vertex {v}")
    return Rep(algebra, {v: 1}, {})


def projective(algebra: BoundAlgebra, v: str) -> Rep:
    """The indecomposable projective e_v A realized on the normal-path basis.

    The basis at vertex w is the set of normal paths v -> w; an arrow acts by
    right concatenation followed by reduction.
    """
    paths = algebra.basis_from(v)
    by_vertex: dict[str, list[PathKey]] = {w: [] for w in algebra.quiver.vertices}
    for k in paths:
        by_vertex[algebra.path_target(k)].append(k)
    index = {k: i for w in algebra.quiver.vertices for i, k in enumerate(by_vertex[w])}
    dims = {w: len(by_vertex[w]) for w in algebra.quiver.vertices}
    mats = {}
    for a in algebra.quiver.arrows:
        m = ef.zeros(dims[a.source], dims[a.target])
        for k in by_vertex[a.source]:
            nf = algebra.normal_form({(k[0], k[1] + (a.name,)): 1})
            for nk, c in nf.items():
                m[index[k], index[nk]] = c
        mats[a.name] = m
    rep = Rep(algebra, dims, mats)
    algebra.cache.setdefault("projective_basis", {})[v] = tuple(
        sorted(paths, key=lambda k: (algebra.quiver.vertex_index[algebra.path_target(k)],
                                     index[k])))
    return rep


def path_action(m: Rep, key: PathKey) -> np.ndarray:
    """Matrix of a path acting on m (dims[start] x dims[target])."""
    alg = m.algebra
    start, arrows = key
    cur = ef.eye(m.dims[start])
    v = start
    for a in arrows:
        arrow = alg.quiver.arrow_map[a]
        cur = ef.matmul(cur, m.mats[a], alg.p)
        v = arrow.target
    return cur


@dataclass
class Violation:
    relation: Relation
    value: np.ndarray


def validate(m: Rep) -> Violation | None:
    """Check T_rho = 0 for every generating relation; None when bound."""
    for rel in m.algebra.relations:
        total = ef.zeros(m.dims[rel.source], m.dims[rel.target])
        for c, k in rel.terms:
            total = (total + c * path_action(m, k)) % m.algebra.p
        if total.any():
            return Violation(rel, total)
    return None


def direct_sum(ms) -> tuple[Rep, list[dict[str, int]]]:
    """Block-diagonal sum, and the offset of each summand's block per vertex.

    Summand i fills rows and columns offsets[i][v] .. offsets[i][v] + dim at
    vertex v.  The sum records its summands (see Rep.summands); a single
    summand is returned as itself.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("empty direct sum")
    alg = ms[0].algebra
    if any(x.algebra is not alg for x in ms):
        raise ValueError("summands live over different algebras")
    offs: list[dict[str, int]] = []
    run = {v: 0 for v in alg.quiver.vertices}
    for x in ms:
        offs.append(dict(run))
        for v in alg.quiver.vertices:
            run[v] += x.dims[v]
    if len(ms) == 1:
        return ms[0], offs
    return Rep(alg, run, _block_diagonal(alg, ms, offs, run), summands=ms), offs


def _block_diagonal(alg: BoundAlgebra, ms, offs, dims) -> dict[str, np.ndarray]:
    """The arrow matrices of the sum of ms, summand i at offsets offs[i]."""
    mats = {}
    for a in alg.quiver.arrows:
        m = ef.zeros(dims[a.source], dims[a.target])
        for x, off in zip(ms, offs):
            rs, cs = off[a.source], off[a.target]
            blk = x.mats[a.name]
            m[rs:rs + blk.shape[0], cs:cs + blk.shape[1]] = blk
        mats[a.name] = m
    return mats


def power(m: Rep, k: int) -> Rep:
    if k < 1:
        raise ValueError("power must be >= 1")
    return direct_sum([m] * k)[0]


# ---------------------------------------------------------------------------
# submodules and quotients


def _span_rows(m: Rep, rows: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The row blocks of a vertexwise span in m; a missing vertex spans 0.

    Raises ValueError, naming the vertex, on a block whose width is not dim m_v.
    """
    out = {}
    for v in m.algebra.quiver.vertices:
        r, d = rows.get(v), m.dims[v]
        if r is None:
            r = ef.zeros(0, d)
        elif r.shape[1] != d:
            raise ValueError(f"vertex {v}: rows of width {r.shape[1]}, not dim {d}")
        out[v] = r
    return out


def _stable_span(m: Rep, rows: dict[str, np.ndarray]):
    """The RREF basis of a vertexwise span in m, and the arrow action on it.

    Returns (red, xs): red[v] is (B_v, pivots), the RREF basis of the span at
    v, and xs[a] is the matrix X with X B_t = B_s m_a for each arrow
    a: s -> t.  B_t is the identity on its pivot columns, so X is read off
    those columns of B_s m_a, and the span is stable iff X B_t equals
    B_s m_a; raises NotASubmodule when it is not.
    """
    alg = m.algebra
    p = alg.p
    red = {v: ef.rref(r, p)[:2] for v, r in _span_rows(m, rows).items()}
    xs = {}
    for a in alg.quiver.arrows:
        moved = ef.matmul(red[a.source][0], m.mats[a.name], p)
        basis, piv = red[a.target]
        x = moved[:, piv]
        if not np.array_equal(ef.matmul(x, basis, p), moved):
            raise NotASubmodule(f"span is not stable under arrow {a.name}")
        xs[a.name] = x
    return red, xs


def submodule(m: Rep, rows: dict[str, np.ndarray]) -> tuple[Rep, RepMap]:
    """Submodule spanned vertexwise by the given rows, with its inclusion.

    The basis is the canonical RREF of the spans and the arrow matrices are
    the action on it (_stable_span); raises NotASubmodule when the span is
    not arrow-stable.
    """
    red, xs = _stable_span(m, rows)
    sub = Rep(m.algebra, {v: b.shape[0] for v, (b, _) in red.items()}, xs)
    return sub, RepMap(sub, m, {v: b for v, (b, _) in red.items()})


def generated_submodule(m: Rep, rows: dict[str, np.ndarray]) -> tuple[Rep, RepMap]:
    """Smallest submodule containing the given row spans (arrow-action closure)."""
    alg = m.algebra
    p = alg.p
    spans = {v: ef.row_basis(r, p) for v, r in _span_rows(m, rows).items()}
    changed = True
    while changed:
        changed = False
        for a in alg.quiver.arrows:
            moved = ef.matmul(spans[a.source], m.mats[a.name], p)
            if not moved.size:
                continue
            merged = ef.row_basis(np.concatenate([spans[a.target], moved]), p)
            if merged.shape[0] != spans[a.target].shape[0]:
                spans[a.target] = merged
                changed = True
    return submodule(m, spans)


def quotient(m: Rep, rows: dict[str, np.ndarray]) -> Rep:
    """m modulo the submodule spanned vertexwise by the given rows.

    Shares submodule's span reduction and stability check (_stable_span),
    which raises NotASubmodule, but builds no submodule.  The basis of the
    quotient at v is the classes of the unit vectors on the non-pivot columns
    of the RREF basis B_v, the lexicographically earliest complement, so
    quotients are reproducible.  A vector maps to its residue modulo B_v read
    on those columns; that matrix is the transpose of the canonical kernel
    basis of B_v (ef.rref_kernel).
    """
    alg = m.algebra
    p = alg.p
    red, _ = _stable_span(m, rows)
    frees, projs = {}, {}
    for v, (b, piv) in red.items():
        frees[v] = [c for c in range(m.dims[v]) if c not in piv]
        projs[v] = ef.rref_kernel(b, piv, p).T
    mats = {a.name: ef.matmul(m.mats[a.name][frees[a.source]], projs[a.target], p)
            for a in alg.quiver.arrows}
    return Rep(alg, {v: len(frees[v]) for v in frees}, mats)


def _radical_rows(m: Rep) -> dict[str, np.ndarray]:
    """Vertexwise rows spanning rad(m): the images of all incoming arrows."""
    alg = m.algebra
    rows = {}
    for v in alg.quiver.vertices:
        incoming = [m.mats[a.name] for a in alg.quiver.arrows_in(v)]
        rows[v] = (np.concatenate(incoming, axis=0) if incoming
                   else ef.zeros(0, m.dims[v]))
    return rows


def radical(m: Rep) -> tuple[Rep, RepMap]:
    """rad(m): vertexwise sum of the images of all incoming arrows."""
    return submodule(m, _radical_rows(m))


def socle(m: Rep) -> tuple[Rep, RepMap]:
    """Largest semisimple submodule: vertexwise joint kernel of outgoing arrows."""
    alg = m.algebra
    rows = {}
    for v in alg.quiver.vertices:
        outgoing = [m.mats[a.name] for a in alg.quiver.arrows_out(v)]
        if outgoing:
            stack = np.concatenate(outgoing, axis=1)
            rows[v] = ef.kernel_basis(stack.T, alg.p)
        else:
            rows[v] = ef.eye(m.dims[v])
    return submodule(m, rows)


def top(m: Rep) -> Rep:
    """m / rad(m), from rad(m)'s spanning rows with no submodule built."""
    return quotient(m, _radical_rows(m))


def radical_layers(m: Rep, dual: bool = False) -> list[tuple[int, ...]]:
    """Dim vectors of rad^1(m), rad^2(m), ..., down to the first zero one.

    Each rad^k is kept as vertexwise row spans inside m: rad^{k+1}(m)_v is the
    row span of rad^k(m)_s m(a) over the arrows a: s -> v, one row_basis per
    vertex per layer, with no submodule built.  With dual=True the same loop
    runs on the transposed matrices along the reversed arrows, which is
    rad^k(Dm) with no opposite algebra built.  Its annihilator in m is
    soc^k(m), so dim soc^k(m)_v = dim m_v - dim rad^k(Dm)_v.  The zero module
    gives [].  Raises ValueError when a nonzero layer does not shrink (m is
    not a module over a bound algebra).
    """
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    if dual:
        into = {v: [(a.target, m.mats[a.name].T) for a in alg.quiver.arrows_out(v)]
                for v in verts}
    else:
        into = {v: [(a.source, m.mats[a.name]) for a in alg.quiver.arrows_in(v)]
                for v in verts}
    layer = None  # rad^0(m) = m, on the identity basis
    dims = m.dim_vector()
    out = []
    while any(dims):
        nxt = {}
        for v in verts:
            moved = [mat if layer is None else ef.matmul(layer[s], mat, p)
                     for s, mat in into[v]]
            nxt[v] = ef.row_basis(np.concatenate(moved, axis=0) if moved
                                  else ef.zeros(0, m.dims[v]), p)
        layer = nxt
        shrunk = tuple(layer[v].shape[0] for v in verts)
        if shrunk == dims:
            raise ValueError("nonzero module equals its own radical")
        dims = shrunk
        out.append(dims)
    return out


# ---------------------------------------------------------------------------
# projective presentations and hom spaces


@dataclass
class Presentation:
    """The projective presentation 0 -> omega -> P0 ->> m of a module.

    P0 is the minimal projective cover: one copy of P_v per generator, the
    generators taken in vertex order (see presentation).  Vectors of P0_w are
    rows over the basis of P0_w: the copies in order, each on the normal
    paths from its vertex to w in the order of the basis of P_v at w.

    Attributes:
        gens: dict vertex v -> the columns of m_v that are generators, for
            the vertices where top(m) is nonzero.
        epi: dict vertex w -> the matrix of P0_w ->> m_w.
        sections: dict vertex w -> (rows, inv): the earliest rows of epi_w
            that form a basis of m_w, and the inverse of that block, so the
            section S_w = inv @ (those rows of the identity) has
            S_w @ epi_w = I.
        omega: dict vertex w -> a basis of ker(epi_w), all of the syzygy
            rather than only its generators.
    """

    gens: dict
    epi: dict
    sections: dict
    omega: dict


def _path_plan(alg: BoundAlgebra, v: str):
    """(count, trivial, products, spans) for the normal paths from v, cached.

    Paths are indexed as in the basis of P_v, `trivial` being the index of
    e_v.  A product (i, j, a) makes path i from its prefix j and last arrow a,
    prefixes first; the paths ending at w are the indices in spans[w].
    """
    plans = alg.cache.setdefault("path_plan", {})
    if v not in plans:
        alg.projective(v)
        keys = alg.cache["projective_basis"][v]
        index = {arrows: i for i, (_, arrows) in enumerate(keys)}
        products = [(index[arrows], index[arrows[:-1]], arrows[-1])
                    for _, arrows in sorted(keys, key=lambda k: len(k[1])) if arrows]
        spans = {w: [] for w in alg.quiver.vertices}
        for i, k in enumerate(keys):
            spans[alg.path_target(k)].append(i)
        plans[v] = (len(keys), index[()], products, spans)
    return plans[v]


def _path_stacks(m: Rep, v: str) -> dict[str, np.ndarray]:
    """The matrices m(pi) of the normal paths pi from v, stacked per target.

    Entry w has shape (#paths v -> w, dim m_v, dim m_w), in the order of the
    basis of P_v at w: row c of its i-th matrix is the image in m_w of the
    c-th basis vector of m_v under the i-th basis path of P_v at w.  Normal
    paths are closed under prefixes, so each matrix is one product.  Cached
    in m._paths.
    """
    got = m._paths.get(v)
    if got is None:
        alg = m.algebra
        p = alg.p
        count, trivial, products, spans = _path_plan(alg, v)
        mats = [None] * count
        mats[trivial] = ef.eye(m.dims[v])
        for i, j, a in products:
            mats[i] = ef.matmul(mats[j], m.mats[a], p)
        got = m._paths[v] = {
            w: (np.stack([mats[i] for i in idx]) if idx
                else np.zeros((0, m.dims[v], m.dims[w]), dtype=np.int64))
            for w, idx in spans.items()}
    return got


def presentation(m: Rep) -> Presentation:
    """m's projective presentation, built once per module (cached in m._pres).

    The generators at v are the columns of m_v that are not pivots of the
    incoming arrow images (the earliest-pivot complement of rad(m)), so the
    cover is minimal (its kernel lies in rad P0) and reproducible bit for bit.
    """
    if m._pres is not None:
        return m._pres
    alg = m.algebra
    p = alg.p
    gens: dict[str, list[int]] = {}
    for v in alg.quiver.vertices:
        incoming = alg.quiver.arrows_in(v)
        _, pivots, _ = ef.rref(
            np.concatenate([m.mats[a.name] for a in incoming], axis=0)
            if incoming else ef.zeros(0, m.dims[v]), p)
        cols = [c for c in range(m.dims[v]) if c not in pivots]
        if cols:
            gens[v] = cols
    if not gens and not m.is_zero:
        raise ValueError("nonzero module equals its own radical")
    # the copy of P_v on column c sends its basis path pi to row c of m(pi)
    stacks = {v: _path_stacks(m, v) for v in gens}
    epi, sections, omega = {}, {}, {}
    for w in alg.quiver.vertices:
        d = m.dims[w]
        blocks = [stacks[v][w][:, cols, :].transpose(1, 0, 2)
                  .reshape(len(cols) * stacks[v][w].shape[0], d)
                  for v, cols in gens.items()]
        e = np.concatenate(blocks, axis=0) if blocks else ef.zeros(0, d)
        r, rows, inv = ef.rref(e.T, p, augment=ef.eye(d))
        if len(rows) != d:
            raise AssertionError("projective cover is not surjective")
        epi[w] = e
        sections[w] = (np.array(rows, dtype=np.int64), inv.T)
        omega[w] = ef.rref_kernel(r, rows, p)
    m._pres = Presentation(gens, epi, sections, omega)
    return m._pres


def projective_cover(m: Rep) -> tuple[Rep, RepMap]:
    """Minimal projective cover P(m) ->> m, assembled from m's presentation."""
    alg = m.algebra
    pres = presentation(m)
    parts = [alg.projective(v) for v, cols in pres.gens.items() for _ in cols]
    cover = direct_sum(parts)[0] if parts else zero_rep(alg)
    return cover, RepMap(cover, m, pres.epi)


def _generator_blocks(pres: Presentation, stacks: dict, w: str):
    """(v, copies, first column, paths) per vertex v of generators, in P0_w."""
    col = 0
    for v, cols in pres.gens.items():
        c = stacks[v][w].shape[0]
        yield v, len(cols), col, c
        col += len(cols) * c


@dataclass
class HomSolve:
    """The solved system of Hom(m, n) on m's presentation (see hom_solve).

    ys holds a basis of the solutions y, one per row.  A hom is fixed by the
    images y of m's generators, so dim Hom(m, n) = len(ys) = dim, read with
    no basis built.  pres and stacks (m's presentation, n's path stacks from
    the generator vertices) are what rows() reads; both are None when Hom
    is 0 for lack of shared support or of unknowns.  rows() gives the
    canonical basis as one array, and `map` views a row as a RepMap;
    hom_basis maps every row, and callers that only read or combine the
    maps take the rows.
    """

    m: Rep
    n: Rep
    ys: np.ndarray
    pres: Presentation | None = None
    stacks: dict | None = None

    @property
    def dim(self) -> int:
        return self.ys.shape[0]

    def rows(self) -> np.ndarray:
        """The canonical basis of Hom(m, n) that hom_basis returns, one row
        per map: its vertexwise matrices flattened in vertex order, each
        row-major (the layout `map` reads)."""
        m, n, ys, pres, stacks = self.m, self.n, self.ys, self.pres, self.stacks
        nb = self.dim
        verts = m.algebra.quiver.vertices
        if not nb:
            return ef.zeros(0, sum(m.dims[v] * n.dims[v] for v in verts))
        p = m.algebra.p
        ycols, off = {}, 0
        for v, cols in pres.gens.items():
            ycols[v] = slice(off, off + len(cols) * n.dims[v])
            off += len(cols) * n.dims[v]
        flat = []
        for w in (w for w in verts if m.dims[w] and n.dims[w]):
            # Phi_w(y) on the section's rows only, then S_w's inverse block
            rows, inv = pres.sections[w]
            dw = n.dims[w]
            picked = []
            for v, k, col, c in _generator_blocks(pres, stacks, w):
                t = rows[(rows >= col) & (rows < col + k * c)] - col
                if t.size:
                    yv = ys[:, ycols[v]].reshape(nb, k, n.dims[v])[:, t // c, :]
                    picked.append(ef.matmul(yv.transpose(1, 0, 2), stacks[v][w][t % c], p))
            phi = np.concatenate(picked, axis=0).reshape(m.dims[w], nb * dw)
            fw = ef.matmul(inv, phi, p)
            flat.append(fw.reshape(m.dims[w], nb, dw).transpose(1, 0, 2)
                        .reshape(nb, m.dims[w] * dw))
        flat = np.concatenate(flat, axis=1)
        # when Hom is all of the vertexwise maps, its canonical basis is the identity
        return ef.eye(nb) if nb == flat.shape[1] else canonical_rows(flat, p)

    def map(self, row: np.ndarray) -> RepMap:
        """The hom whose vertexwise matrices, flattened as in `rows`, are row."""
        m, n = self.m, self.n
        mats, off = {}, 0
        for v in m.algebra.quiver.vertices:
            size = m.dims[v] * n.dims[v]
            mats[v] = row[off:off + size].reshape(m.dims[v], n.dims[v])
            off += size
        return RepMap(m, n, mats)


def canonical_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """The canonical basis of the row span of rows: its RREF in reversed
    column order, flipped back, so that each row ends in a 1 (its pivot)
    that no other row has, and the rows are in pivot order.  It depends on
    the span alone, so any spanning set of Hom(m, n), flattened as in
    HomSolve.rows, gives rows().

    A row with a single nonzero entry spans the unit vector of its column,
    which is then a canonical row.  Above RREF_LIST_CELLS cells, where rref
    would pay numpy's per-pivot cost for each of them, such rows are taken
    as they are and only the others, with those columns cleared, are
    reduced.  Most compressed End rows (decomp.EndAlgebra.corners) are such.
    """
    unit = np.count_nonzero(rows, axis=1) == 1 if rows.size > ef.RREF_LIST_CELLS else None
    if unit is None or not unit.any():
        return ef.rref(rows[:, ::-1], p)[0][::-1, ::-1]
    cols = np.flatnonzero(rows[unit].any(axis=0))
    rest = rows[~unit]
    rest[:, cols] = 0
    rest = canonical_rows(rest, p)
    units = ef.zeros(cols.size, rows.shape[1])
    units[np.arange(cols.size), cols] = 1
    pivots = np.concatenate([cols, rows.shape[1] - 1 - np.argmax(rest[:, ::-1] != 0, axis=1)])
    return np.concatenate([units, rest])[np.argsort(pivots)]


def hom_solve(m: Rep, n: Rep) -> HomSolve:
    """Solve for Hom(m, n) on m's projective presentation, with no basis built.

    A hom f is fixed by the images y_j in n of the generators of m.  Any y
    extends to Phi(y): P0 -> n, sending the basis path pi of copy j to
    y_j n(pi); Phi(y) factors through m exactly when it kills omega, and then
    f_w = S_w Phi_w(y).  So the unknowns are y (sum_j dim n at the vertex of
    generator j) and the equations are omega_w Phi_w(y) = 0; the kernel of
    that system is the HomSolve's ys.  Callers that need only dim Hom(m, n)
    stop here; HomSolve.rows assembles the basis from the same solve.
    """
    alg = m.algebra
    if n.algebra is not alg:
        raise ValueError("modules live over different algebras")
    p = alg.p
    verts = alg.quiver.vertices
    if not any(m.dims[v] and n.dims[v] for v in verts):
        return HomSolve(m, n, ef.zeros(0, 0))
    pres = presentation(m)
    nvars = sum(len(cols) * n.dims[v] for v, cols in pres.gens.items())
    if not nvars:
        return HomSolve(m, n, ef.zeros(0, 0))
    stacks = {v: _path_stacks(n, v) for v in pres.gens}

    def equations(w: str) -> np.ndarray:
        """omega_w Phi_w(y) = 0 as rows over the unknowns y."""
        om, dw = pres.omega[w], n.dims[w]
        r = om.shape[0]
        out = []
        for v, k, col, c in _generator_blocks(pres, stacks, w):
            dv = n.dims[v]
            part = ef.matmul(om[:, col:col + k * c].reshape(r * k, c),
                             stacks[v][w].reshape(c, dv * dw), p)
            out.append(part.reshape(r, k, dv, dw).transpose(0, 3, 1, 2).reshape(r * dw, k * dv))
        return np.concatenate(out, axis=1)

    system = [equations(w) for w in verts if pres.omega[w].shape[0] and n.dims[w]]
    ys = ef.kernel_basis(np.concatenate(system, axis=0) if system else ef.zeros(0, nvars), p)
    return HomSolve(m, n, ys, pres, stacks)


def hom_basis(m: Rep, n: Rep) -> list[RepMap]:
    """Basis of Hom(m, n): hom_solve's system, then HomSolve.rows as RepMaps.

    The basis is the canonical one of Hom(m, n) in the entries of the
    vertexwise matrices of f (vertex order, each matrix row-major): the RREF
    of its span in reversed column order, flipped back.  That is the basis
    kernel_basis gives of the commuting-square system on those entries.
    """
    solve = hom_solve(m, n)
    return [solve.map(row) for row in solve.rows()]


def combine_maps(maps: list[RepMap], coeffs) -> RepMap:
    """Linear combination of parallel RepMaps."""
    if not maps:
        raise ValueError("no maps to combine")
    src, tgt = maps[0].source, maps[0].target
    p = src.algebra.p
    c = np.asarray(coeffs, dtype=np.int64) % p
    mats = {}
    for v in src.algebra.quiver.vertices:
        ds, dt = src.dims[v], tgt.dims[v]
        stack = np.array([f.mats[v] for f in maps]).reshape(len(maps), ds * dt)
        mats[v] = ef.matmul(c, stack, p).reshape(ds, dt)
    return RepMap(src, tgt, mats)


# ---------------------------------------------------------------------------
# transport between algebras with shared vertex/arrow names


def extend_rep(big: BoundAlgebra, m: Rep) -> Rep:
    """View a module over a subalgebra as a module over `big` (zeros elsewhere).

    Requires the small algebra's vertices/arrows to be named inside `big`.
    """
    dims = {v: m.dims.get(v, 0) for v in big.quiver.vertices if v in m.dims}
    mats = {a.name: m.mats[a.name] for a in big.quiver.arrows if a.name in m.mats}
    return Rep(big, dims, mats)


def restrict_rep(small: BoundAlgebra, m: Rep) -> Rep:
    """Restrict a module to a subalgebra sharing vertex/arrow names."""
    dims = {v: m.dims[v] for v in small.quiver.vertices}
    mats = {a.name: m.mats[a.name] for a in small.quiver.arrows}
    return Rep(small, dims, mats)


# ---------------------------------------------------------------------------
# random modules


def _random_blocks(algebra: BoundAlgebra):
    """(projective dims, radical dims, Hom blocks) per vertex, built once.

    The dims are (#vertices, #vertices) arrays, row t the dim vector of P_t
    or of rad P_t.  blocks[s][t] reads the canonical basis of
    Hom(P_s, rad P_t) from one hom_basis call as (last, images, spans), or is
    None when that space is 0:
    - last: (k, 3), the position (vertex index, row, column) of each
      element's last nonzero entry in its vertexwise matrices;
    - images: (k, W), each element composed with rad P_t -> P_t, its
      matrices (P_s)_v x (P_t)_v flattened row-major in vertex order;
    - spans: (vertex index, start, stop, rows, columns) of each nonempty
      vertex matrix within a row of images.
    Cached in algebra.cache, so an algebra, its opposite and the same
    presentation loaded at another p each build their own.
    """
    got = algebra.cache.get("random_blocks")
    if got is not None:
        return got
    verts = algebra.quiver.vertices
    p = algebra.p
    projs = [algebra.projective(v) for v in verts]
    rads = [radical(x) for x in projs]
    blocks = []
    for ps in projs:
        row = []
        for pt, (rad, inc) in zip(projs, rads):
            last, images = [], []
            for f in hom_basis(ps, rad):
                vi = max(i for i, v in enumerate(verts) if f.mats[v].any())
                mat = f.mats[verts[vi]]
                last.append((vi, *divmod(int(np.flatnonzero(mat)[-1]), mat.shape[1])))
                images.append(np.concatenate(
                    [ef.matmul(f.mats[v], inc.mats[v], p).ravel() for v in verts]))
            spans, start = [], 0
            for vi, v in enumerate(verts):
                size = ps.dims[v] * pt.dims[v]
                if size:
                    spans.append((vi, start, start + size, ps.dims[v], pt.dims[v]))
                start += size
            row.append((np.array(last, dtype=np.int64), np.array(images, dtype=np.int64), spans)
                       if last else None)
        blocks.append(row)
    got = algebra.cache["random_blocks"] = (
        np.array([x.dim_vector() for x in projs], dtype=np.int64).reshape(len(verts), -1),
        np.array([rad.dim_vector() for rad, _ in rads], dtype=np.int64).reshape(len(verts), -1),
        blocks)
    return got


def _offsets(dims: np.ndarray) -> np.ndarray:
    """Row i: where summand i starts at each vertex, given the summands' dims."""
    return np.cumsum(dims, axis=0) - dims


def random_module(algebra: BoundAlgebra, seed, size_bound: int = 12) -> Rep:
    """Seeded random module: cokernel of a random map between projective sums.

    Each attempt draws sums q = ⊕_i P_{t_i} and src = ⊕_j P_{s_j} of
    indecomposable projectives and a random f: src -> rad(q); the module is
    q modulo the rows of f's image, passed straight to `quotient`.
    Deterministic per (seed, algebra presentation); always bound by the ideal
    because quotients of projectives are.  After 64 attempts that are zero or
    above size_bound it returns the simple at the first vertex.

    f is a random combination of the canonical basis of Hom(src, rad q) that
    hom_basis(src, radical(q)[0]) would return, but each attempt only
    assembles blocks cached per algebra (_random_blocks): for each vertex t
    the dims of rad P_t, and for each pair (s, t) the basis of
    Hom(P_s, rad P_t) ≅ (rad P_t)_s (Yoneda), each element composed with the
    inclusion into P_t and with the position of its last nonzero entry.
    rad(q)'s RREF basis is block-diagonal with rad P_{t_i} in its blocks
    (each block's pivots lie in its own columns), and the block of Hom for
    the pair (j, i) sits on entries of its own.  So the RREF of the span of
    Hom(src, rad q) is the union of the per-block ones, and hom_basis's
    order, by the position of each element's last nonzero entry in the
    vertexwise matrices (vertex, row, column), is the order of the cached
    positions shifted by the offsets of the src and rad q blocks.  The
    coefficients are drawn in that order.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng([int(seed), algebra.structural_digest() % (2 ** 31)])
    verts = algebra.quiver.vertices
    p = algebra.p
    pdims, rdims, blocks = _random_blocks(algebra)
    min_proj = int(pdims.sum(axis=1).min())
    max_copies = max(2, size_bound // max(min_proj, 1) + 1)
    for _ in range(64):
        n_tgt = int(rng.integers(1, max_copies + 1))
        targets = [int(rng.integers(len(verts))) for _ in range(n_tgt)]
        n_src = int(rng.integers(1, n_tgt + 2))
        sources = [int(rng.integers(len(verts))) for _ in range(n_src)]
        qoffs, soffs = _offsets(pdims[targets]), _offsets(pdims[sources])
        roffs = _offsets(rdims[targets])
        qdims, sdims = pdims[targets].sum(axis=0), pdims[sources].sum(axis=0)
        rwidth = rdims[targets].sum(axis=0)
        # map into the radical: the presentation stays minimal, so the
        # cokernel is nonzero and rarely projective.  where: the position of
        # each element's last nonzero entry in a hom src -> rad q, flattened
        start = _offsets(sdims * rwidth)
        pairs, where = [], []
        for j, s in enumerate(sources):
            for i, t in enumerate(targets):
                blk = blocks[s][t]
                if blk is not None:
                    vi, r, c = blk[0].T
                    pairs.append((j, i, *blk))
                    where.append(start[vi] + (r + soffs[j, vi]) * rwidth[vi] + c + roffs[i, vi])
        if not pairs and qdims.sum() > size_bound:
            continue
        qd = dict(zip(verts, qdims.tolist()))
        q = Rep(algebra, qd, _block_diagonal(
            algebra, [algebra.projective(verts[t]) for t in targets],
            [dict(zip(verts, o)) for o in qoffs.tolist()], qd))
        if not pairs:
            return q
        where = np.concatenate(where)
        coeffs = np.empty_like(where)
        coeffs[np.argsort(where)] = rng.integers(0, p, size=where.size)
        rows = [ef.zeros(ds, dq) for ds, dq in zip(sdims.tolist(), qdims.tolist())]
        used = 0
        for j, i, last, images, spans in pairs:
            image = ef.matmul(coeffs[used:used + len(last)], images, p)
            used += len(last)
            for vi, a, b, ds, dt in spans:
                r0, c0 = int(soffs[j, vi]), int(qoffs[i, vi])
                rows[vi][r0:r0 + ds, c0:c0 + dt] = image[a:b].reshape(ds, dt)
        m = quotient(q, dict(zip(verts, rows)))
        if m.total_dim > size_bound or m.is_zero:
            continue
        return m
    # extremely unlucky stream: fall back to a simple module
    return simple(algebra, verts[0])
