"""Algebra families of any size whose answers follow by counting.

- `nakayama(n, L)` is N(n, L): the linear quiver 0 -> 1 -> ... -> n-1 with
  every path of length L zero.  Every indecomposable is uniserial,
  M(i, l) = P_i / rad^l P_i for 1 <= l <= len P_i, with len P_i =
  min(L, n - i), and Omega M(i, l) = M(i + l, len P_i - l) (Auslander,
  Reiten and Smalø, the chapter on Nakayama algebras).  `uniserial_pd`
  counts pd along that rule, and `uniserial` builds M(i, l) by hand, over
  C(n, L) too.
- `cyclic_nakayama(n, L)` is C(n, L): the cyclic quiver on n vertices with
  every path of length L zero, which is selfinjective.
- `radical_square_zero(seed)` is a seeded random quiver with every path of
  length 2 zero.  Such an algebra is selfinjective iff every vertex has
  in-degree = out-degree <= 1 (`rsz_selfinjective`): P_v is S_v over one
  S_w per arrow v -> w, and I_w is S_w under one S_u per arrow u -> w, so
  P_v is some I_w only when v has no arrow in or out (w = v) or v -> w is
  the one arrow out of v and the one into w.
- `ladder(n)` is the radical-square-zero algebra on 0 -> 1 -> ... -> n-1
  with an arrow i -> i + 2 as well.  Omega S_i = S_{i+1} + S_{i+2}, so the
  syzygy graph of the simples has Fibonacci-many paths from S_0, and
  pd S_i = n - 1 - i, the longest path from i to the sink.
"""

import random
from fractions import Fraction

import numpy as np

from quivalg import repmod
from quivalg.pathalgebra import Quiver, build_algebra

P = 3


def nakayama(n: int, length: int):
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    zero = [[(1, tuple(f"a{j}" for j in range(i, i + length)))]
            for i in range(n - length)]
    return build_algebra(Quiver([str(i) for i in range(n)], arrows), zero, P, length,
                         name=f"N({n},{length})")


def cyclic_nakayama(n: int, length: int):
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    zero = [[(1, tuple(f"a{(i + j) % n}" for j in range(length)))] for i in range(n)]
    return build_algebra(Quiver([str(i) for i in range(n)], arrows), zero, P, length,
                         name=f"C({n},{length})")


def projective_length(n: int, length: int, i: int) -> int:
    """len P_i over N(n, L)."""
    return min(length, n - i)


def uniserial_pd(n: int, length: int, i: int, l: int) -> int:
    """pd M(i, l) over N(n, L), by Omega M(i, l) = M(i + l, len P_i - l)."""
    pd = 0
    while l < projective_length(n, length, i):
        i, l = i + l, projective_length(n, length, i) - l
        pd += 1
    return pd


def uniserial_dims(n: int, i: int, l: int) -> tuple[int, ...]:
    """The dim vector of M(i, l) over N(n, L) or C(n, L): one dimension at
    each of the vertices i, i + 1, ..., i + l - 1, taken mod n."""
    dims = [0] * n
    for k in range(l):
        dims[(i + k) % n] += 1
    return tuple(dims)


def uniserial(alg, i: int, l: int):
    """M(i, l) over N(n, L) or C(n, L), built by hand: e_0, ..., e_{l-1} with
    e_k at vertex i + k (mod n), and the arrow out of that vertex sending
    e_k to e_{k+1}."""
    n = len(alg.quiver.vertices)
    at = [(i + k) % n for k in range(l)]
    dims = uniserial_dims(n, i, l)
    mats = {f"a{v}": np.zeros((dims[v], dims[(v + 1) % n]), dtype=np.int64)
            for v in set(at[:-1])}
    for k in range(l - 1):
        mats[f"a{at[k]}"][at[:k].count(at[k]), at[:k + 1].count(at[k + 1])] = 1
    return repmod.Rep(alg, {str(v): d for v, d in enumerate(dims)}, mats)


def radical_square_zero(seed: int):
    """(algebra, arrows as (source, target)) for one seed: on half the seeds
    a partial permutation of 1-6 vertices, so that about half are
    selfinjective, with one arrow added or dropped on a third of those; on
    the others up to 8 arrows drawn at random."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    vs = list(range(n))
    if rng.random() < 0.5:
        moved = rng.sample(vs, rng.randint(0, n))
        image = rng.sample(moved, len(moved))
        edges = list(zip(moved, image))
        if rng.random() < 1 / 3:
            if edges and rng.random() < 0.5:
                edges.pop(rng.randrange(len(edges)))
            else:
                edges.append((rng.choice(vs), rng.choice(vs)))
    else:
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 8))]
    arrows = [(f"x{k}", str(s), str(t)) for k, (s, t) in enumerate(edges)]
    quiver = Quiver([str(v) for v in vs], arrows)
    zero = [[(1, (a, b))] for a, s, t in arrows for b, s2, _ in arrows if s2 == t]
    return build_algebra(quiver, zero, P, 2, name=f"rsz{seed}"), edges


def ladder(n: int):
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    arrows += [(f"b{i}", str(i), str(i + 2)) for i in range(n - 2)]
    zero = [[(1, (a, b))] for a, _, t in arrows for b, s, _ in arrows if s == t]
    return build_algebra(Quiver([str(i) for i in range(n)], arrows), zero, P, 2,
                         name=f"ladder({n})")


def rsz_selfinjective(n: int, edges) -> bool:
    out = [sum(s == v for s, _ in edges) for v in range(n)]
    into = [sum(t == v for _, t in edges) for v in range(n)]
    return all(a == b <= 1 for a, b in zip(out, into))


def rsz_phi(alg, edges, reps, length: int = 0):
    """(trace, phi) over a radical-square-zero algebra, by counting: the
    rank trace of the syzygy map on <add M>, M with the indecomposable
    summand classes reps, to at least `length` entries, and its last drop.

    rad^2 = 0 makes Omega(X) a submodule of rad P(X), semisimple, with
    dim Omega(X)_u = sum over arrows v -> u of dim top(X)_v, less
    dim rad(X)_u; X is projective iff that is zero.  [Omega S_v] is the sum
    of [S_w] over the arrows v -> w, so on the nonprojective simples (the
    sources of arrows) Omega-bar is the arrow-adjacency matrix A, and the
    k-th entry, k >= 1, is the rank of the vectors [Omega X]A^(k-1).  A is
    invertible on its Fitting image, which A^n reaches, n the number of
    nonprojective simples: the trace is constant from entry n + 1 on.
    """
    live = sorted({s for s, _ in edges})
    vectors = []
    for x in reps:
        rad = {v: _rank([row for a in alg.quiver.arrows if a.target == v
                             for row in x.mats[a.name].tolist()], alg.p)
               for v in alg.quiver.vertices}
        omega = {u: sum(x.dims[str(s)] - rad[str(s)] for s, t in edges if t == u)
                 - rad[str(u)] for u in range(len(alg.quiver.vertices))}
        if any(omega.values()):
            vectors.append([omega[u] for u in live])
    trace = [len(vectors)]
    while len(trace) < max(length, len(live) + 2):
        trace.append(_rank(vectors))
        vectors = [[sum(c * edges.count((s, t)) for c, s in zip(row, live)) for t in live]
                   for row in vectors]
    return trace, max((k for k in range(1, len(trace)) if trace[k] < trace[k - 1]), default=0)


def _rank(rows, p: int | None = None) -> int:
    """The rank of integer rows over F_p, or over Q when p is None."""
    field = (lambda c: c % p) if p else Fraction
    rows, rank = [[field(c) for c in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        scale = pow(pivot[col], -1, p) if p else 1 / pivot[col]
        rows[rank + 1:] = [[field(a - r[col] * scale * b) for a, b in zip(r, pivot)]
                           for r in rows[rank + 1:]]
        rank += 1
    return rank
