"""Modules as bound quiver representations.

A Rep assigns a row-vector space F_p^d to each vertex and a (dim source x
dim target) matrix to each arrow; vectors act on the right, so the matrix of
a path is the left-to-right product of its arrow matrices.  All constructors
return immutable numpy-backed values; every operation is pure.
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

    Attributes:
        algebra: owning BoundAlgebra.
        dims: dict vertex -> dimension.
        mats: dict arrow name -> int64 matrix of shape (dim source, dim target).
        summands: optional tuple of block summands recorded by direct_sum.
    """

    __slots__ = ("algebra", "dims", "mats", "summands", "_end_dim", "_fp", "_decomp")

    def __init__(self, algebra: BoundAlgebra, dims, mats, summands=None):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        for v, d in self.dims.items():
            if d < 0:
                raise ValueError(f"negative dimension at vertex {v}")
        self.mats = {}
        for a in algebra.quiver.arrows:
            ds, dt = self.dims[a.source], self.dims[a.target]
            m = mats.get(a.name) if mats else None
            if m is None:
                m = ef.zeros(ds, dt)
            else:
                m = ef.as_matrix(m, algebra.p, ds, dt)
                if m.shape != (ds, dt):
                    raise ValueError(
                        f"arrow {a.name}: matrix shape {m.shape} != ({ds}, {dt})")
            m.setflags(write=False)
            self.mats[a.name] = m
        self.summands = tuple(summands) if summands else None
        self._end_dim = None
        self._fp = None
        self._decomp = None

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
    def from_json(cls, algebra: BoundAlgebra, data: dict) -> "Rep":
        if data.get("algebra") not in (None, algebra.name):
            raise ValueError(
                f"module file targets algebra {data.get('algebra')!r}, not {algebra.name!r}")
        return cls(algebra, data.get("dims", {}), data.get("maps", {}))

    def __repr__(self) -> str:
        dims = ",".join(f"{v}:{d}" for v, d in self.dims.items() if d) or "0"
        return f"Rep({self.algebra.name}; {dims})"


class RepMap:
    """A morphism of representations: one matrix per vertex, rows act left."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats, check: bool = False):
        self.source = source
        self.target = target
        self.mats = {}
        p = source.algebra.p
        for v in source.algebra.quiver.vertices:
            ds, dt = source.dims[v], target.dims[v]
            m = mats.get(v) if mats else None
            if m is None:
                m = ef.zeros(ds, dt)
            else:
                m = ef.as_matrix(m, p, ds, dt)
                if m.shape != (ds, dt):
                    raise ValueError(f"vertex {v}: map shape {m.shape} != ({ds}, {dt})")
            m.setflags(write=False)
            self.mats[v] = m
        if check and not self.is_valid():
            raise ValueError("matrices do not commute with the arrow action")

    def is_valid(self) -> bool:
        p = self.source.algebra.p
        for a in self.source.algebra.quiver.arrows:
            lhs = ef.matmul(self.source.mats[a.name], self.mats[a.target], p)
            rhs = ef.matmul(self.mats[a.source], self.target.mats[a.name], p)
            if not np.array_equal(lhs, rhs):
                return False
        return True

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


def direct_sum(ms) -> tuple[Rep, list[RepMap], list[RepMap]]:
    """Block-diagonal sum with inclusion and projection maps."""
    ms = list(ms)
    if not ms:
        raise ValueError("empty direct sum")
    alg = ms[0].algebra
    if any(x.algebra is not alg for x in ms):
        raise ValueError("summands live over different algebras")
    dims = {v: sum(x.dims[v] for x in ms) for v in alg.quiver.vertices}
    offs: list[dict[str, int]] = []
    run = {v: 0 for v in alg.quiver.vertices}
    for x in ms:
        offs.append(dict(run))
        for v in alg.quiver.vertices:
            run[v] += x.dims[v]
    mats = {}
    for a in alg.quiver.arrows:
        m = ef.zeros(dims[a.source], dims[a.target])
        for x, off in zip(ms, offs):
            rs, cs = off[a.source], off[a.target]
            blk = x.mats[a.name]
            m[rs:rs + blk.shape[0], cs:cs + blk.shape[1]] = blk
        mats[a.name] = m
    total = Rep(alg, dims, mats, summands=ms)
    incs, projs = [], []
    for x, off in zip(ms, offs):
        inc, proj = {}, {}
        for v in alg.quiver.vertices:
            i = ef.zeros(x.dims[v], dims[v])
            pmat = ef.zeros(dims[v], x.dims[v])
            for j in range(x.dims[v]):
                i[j, off[v] + j] = 1
                pmat[off[v] + j, j] = 1
            inc[v] = i
            proj[v] = pmat
        incs.append(RepMap(x, total, inc))
        projs.append(RepMap(total, x, proj))
    return total, incs, projs


def power(m: Rep, k: int) -> Rep:
    if k < 1:
        raise ValueError("power must be >= 1")
    return direct_sum([m] * k)[0] if k > 1 else m


# ---------------------------------------------------------------------------
# submodules and quotients


def submodule(m: Rep, rows: dict[str, np.ndarray]) -> tuple[Rep, RepMap]:
    """Submodule spanned vertexwise by the given rows.

    The basis is the canonical RREF of the spans; raises NotASubmodule when the
    span is not arrow-stable.
    """
    alg = m.algebra
    p = alg.p
    bases = {}
    for v in alg.quiver.vertices:
        r = rows.get(v)
        r = ef.zeros(0, m.dims[v]) if r is None else ef.as_matrix(r, p, cols=m.dims[v])
        bases[v] = ef.row_basis(r, p)
    dims = {v: bases[v].shape[0] for v in alg.quiver.vertices}
    mats = {}
    for a in alg.quiver.arrows:
        moved = ef.matmul(bases[a.source], m.mats[a.name], p)
        x = ef.solve_left(bases[a.target], moved, p)
        if x is None:
            raise NotASubmodule(f"span is not stable under arrow {a.name}")
        mats[a.name] = x
    sub = Rep(alg, dims, mats)
    inc = RepMap(sub, m, {v: bases[v] for v in bases})
    return sub, inc


def generated_submodule(m: Rep, rows: dict[str, np.ndarray]) -> tuple[Rep, RepMap]:
    """Smallest submodule containing the given row spans (arrow-action closure)."""
    alg = m.algebra
    p = alg.p
    spans = {}
    for v in alg.quiver.vertices:
        r = rows.get(v)
        r = ef.zeros(0, m.dims[v]) if r is None else ef.as_matrix(r, p, cols=m.dims[v])
        spans[v] = ef.row_basis(r, p)
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


def kernel(f: RepMap) -> tuple[Rep, RepMap]:
    """Kernel of f with its inclusion into the source."""
    p = f.source.algebra.p
    rows = {v: ef.kernel_basis(f.mats[v].T, p) for v in f.mats}
    return submodule(f.source, rows)


def quotient(m: Rep, sub: RepMap) -> tuple[Rep, RepMap]:
    """Quotient of m by the image of an injective inclusion map.

    The complement basis is chosen by pivoting on the lexicographically
    earliest independent columns, so quotients are reproducible.
    """
    alg = m.algebra
    p = alg.p
    if sub.target is not m:
        raise ValueError("sub must include into m")
    if not sub.is_injective():
        raise ValueError("sub is not injective vertexwise")
    red, pivots, frees, sections, projs = {}, {}, {}, {}, {}
    for v in alg.quiver.vertices:
        b, piv, _ = ef.rref(sub.mats[v], p)
        red[v], pivots[v] = b, piv
        frees[v] = [c for c in range(m.dims[v]) if c not in piv]
        sec = ef.zeros(len(frees[v]), m.dims[v])
        for i, c in enumerate(frees[v]):
            sec[i, c] = 1
        sections[v] = sec
        residues = ef.reduce_rows(b, piv, ef.eye(m.dims[v]), p)
        projs[v] = residues[:, frees[v]]
    dims = {v: len(frees[v]) for v in alg.quiver.vertices}
    mats = {}
    for a in alg.quiver.arrows:
        moved = ef.matmul(red[a.source], m.mats[a.name], p)
        if ef.reduce_rows(red[a.target], pivots[a.target], moved, p).any():
            raise NotASubmodule(f"image not stable under arrow {a.name}")
        mats[a.name] = ef.matmul(ef.matmul(sections[a.source], m.mats[a.name], p),
                                 projs[a.target], p)
    q = Rep(alg, dims, mats)
    proj = RepMap(m, q, projs)
    return q, proj


def radical(m: Rep) -> tuple[Rep, RepMap]:
    """rad(m): vertexwise sum of the images of all incoming arrows."""
    alg = m.algebra
    rows = {}
    for v in alg.quiver.vertices:
        incoming = [m.mats[a.name] for a in alg.quiver.arrows_in(v)]
        rows[v] = (np.concatenate(incoming, axis=0) if incoming
                   else ef.zeros(0, m.dims[v]))
    return submodule(m, rows)


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


def top(m: Rep) -> tuple[Rep, RepMap]:
    """m / rad(m) with the projection."""
    _, inc = radical(m)
    return quotient(m, inc)


def loewy_length(m: Rep) -> int:
    """Least n with rad^n = 0; zero module has length 0."""
    n = 0
    cur = m
    while not cur.is_zero:
        cur = radical(cur)[0]
        n += 1
    return n


def dualize(m: Rep) -> Rep:
    """k-dual over the opposite algebra: transpose and reattach to reversed arrows."""
    op = m.algebra.opposite()
    mats = {a.name: m.mats[a.name].T for a in m.algebra.quiver.arrows}
    return Rep(op, m.dims, mats)


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(m: Rep, n: Rep) -> list[RepMap]:
    """Basis of Hom(m, n): the solution space of all commuting squares."""
    alg = m.algebra
    if n.algebra is not alg:
        raise ValueError("modules live over different algebras")
    p = alg.p
    verts = alg.quiver.vertices
    sizes = [m.dims[v] * n.dims[v] for v in verts]
    offsets = np.cumsum([0] + sizes)
    nvars = int(offsets[-1])
    if nvars == 0:
        return []
    vidx = {v: i for i, v in enumerate(verts)}
    blocks = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        neq = m.dims[s] * n.dims[t]
        if neq == 0:
            continue
        row = ef.zeros(neq, nvars)
        # T^m_a f_t  contributes kron(T^m_a, I) on f_t's variables
        if sizes[vidx[t]]:
            row[:, offsets[vidx[t]]:offsets[vidx[t] + 1]] = np.kron(
                m.mats[a.name], ef.eye(n.dims[t]))
        # -f_s T^n_a contributes -kron(I, T^n_a^T) on f_s's variables
        if sizes[vidx[s]]:
            row[:, offsets[vidx[s]]:offsets[vidx[s] + 1]] -= np.kron(
                ef.eye(m.dims[s]), n.mats[a.name].T)
        blocks.append(row % p)
    system = np.concatenate(blocks, axis=0) if blocks else ef.zeros(0, nvars)
    basis = ef.kernel_basis(system, p)
    maps = []
    for row in basis:
        mats = {}
        for i, v in enumerate(verts):
            mats[v] = row[offsets[i]:offsets[i + 1]].reshape(m.dims[v], n.dims[v])
        maps.append(RepMap(m, n, mats))
    return maps


def combine_maps(maps: list[RepMap], coeffs) -> RepMap:
    """Linear combination of parallel RepMaps."""
    if not maps:
        raise ValueError("no maps to combine")
    src, tgt = maps[0].source, maps[0].target
    p = src.algebra.p
    # reduced coefficients keep each sum below len(maps) * p**2 (see ef.MAX_PRIME);
    # the RepMap constructor reduces the sums
    c = np.asarray(coeffs, dtype=np.int64) % p
    mats = {}
    for v in src.algebra.quiver.vertices:
        ds, dt = src.dims[v], tgt.dims[v]
        stack = np.array([f.mats[v] for f in maps]).reshape(len(maps), ds * dt)
        mats[v] = (c @ stack).reshape(ds, dt)
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


def random_module(algebra: BoundAlgebra, seed, size_bound: int = 12) -> Rep:
    """Seeded random module: cokernel of a random map between projective sums.

    Deterministic per (seed, algebra presentation); always bound by the ideal
    because quotients of projectives are.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng([int(seed), algebra.structural_digest() % (2 ** 31)])
    verts = algebra.quiver.vertices
    p = algebra.p
    min_proj = min(algebra.projective(v).total_dim for v in verts)
    max_copies = max(2, size_bound // max(min_proj, 1) + 1)
    for _ in range(64):
        n_tgt = int(rng.integers(1, max_copies + 1))
        targets = [verts[int(rng.integers(len(verts)))] for _ in range(n_tgt)]
        parts = [algebra.projective(v) for v in targets]
        q = (parts[0] if len(parts) == 1 else direct_sum(parts)[0]).strip()
        n_src = int(rng.integers(1, n_tgt + 2))
        sources = [verts[int(rng.integers(len(verts)))] for _ in range(n_src)]
        sparts = [algebra.projective(v) for v in sources]
        src = (sparts[0] if len(sparts) == 1 else direct_sum(sparts)[0]).strip()
        # map into the radical: the presentation stays minimal, so the
        # cokernel is nonzero and rarely projective
        rad, rad_inc = radical(q)
        homs = hom_basis(src, rad)
        if not homs:
            if q.total_dim <= size_bound:
                return q
            continue
        f = combine_maps(homs, rng.integers(0, p, size=len(homs)))
        img_rows = {v: ef.matmul(f.mats[v], rad_inc.mats[v], p) for v in f.mats}
        sub, inc = submodule(q, img_rows)
        m, _ = quotient(q, inc)
        if m.total_dim > size_bound or m.is_zero:
            continue
        return m
    # extremely unlucky stream: fall back to a simple module
    return simple(algebra, verts[0])
