"""Exact linear algebra over a prime field F_p and over the integers.

The matrix contract: an F_p matrix is a 2-d numpy int64 array with entries
in [0, p).  `as_matrix` is the one coerce-and-reduce step, and it runs only
where outside data enters the package: repmod.Rep.from_json, which reads the
CLI's module files.  Every other function here takes matrices that already
meet the contract, as do the Rep and RepMap constructors and repmod's
submodule, generated_submodule and quotient for their subspace rows; none
re-coerces or re-reduces them.  Row vectors act on the right of arrow
matrices throughout the package.

p must be a prime below MAX_PRIME (see `check_prime`), so that no int64
accumulation in the package overflows.  `matmul` is the package's only
matrix product: no other module uses `@` or a numpy product (as
tests/test_exactfield.py checks), so the choice of route and the bound
that keeps each exact live in it alone.  It sends products of at least
MATMUL_FLOAT_WORK multiply-adds to BLAS in float64 when every sum stays an
exact integer there, k * (p - 1)**2 < 2**53 for inner dimension k
(FLOAT_EXACT), and keeps int64 otherwise.  Integer lattices are handled
fraction-free, by one Hermite form for both rank and membership, so no
rational arithmetic ever appears.

`rref` has two kernels with one pivot rule, so both give the same R, pivots
and augment block bit for bit.  Up to RREF_LIST_CELLS cells (rows times
columns, augment columns included) it eliminates on Python int lists, where
the per-call numpy overhead would cost more than the arithmetic, unless the
input has more than RREF_DENSE_CELLS cells and is more than half nonzero;
otherwise it runs one numpy row operation per pivot with delayed reduction.
Most calls are on sparse matrices of a few rows, so most take the list
kernel.

The numpy kernel works on one int64 array, the augment block concatenated
on the right.  For each pivot it reduces mod p only what a decision reads:
the pivot column (to find the pivot row and the row factors) and the pivot
row, which it scales to a leading 1.  It then subtracts f * (pivot row) from
every hit row as one outer-product update, from the pivot column rightwards
(entries to the left are multiples of p there), with no `% p`.  Every
decision reads exact residues, so R, the pivots and the augment block equal
the list kernel's; the outputs are reduced once at the end.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 101

# Below 2**20 each product of two residues is below 2**40, so sums of up to
# 2**23 such products stay below 2**63.  The int64 accumulations this bounds:
# - matmul, a sum of cols(a) products per entry: cols(a) < 2**23.  The
#   widest is the trace form of End(M) in decomp, a sum of
#   sum_v dim(M_v)**2 products.
# - the numpy rref kernel, which reduces an entry only at the end: each pivot
#   subtracts one product below (p - 1)**2 from it, so it stays within
#   p + ncols * (p - 1)**2 < 2**63 for ncols < 2**23 columns (augment
#   columns excluded, as the number of pivots is at most ncols).
MAX_PRIME = 2 ** 20

# matmul sums k products of residues, each at most (p - 1)**2, per entry: in
# float64 every partial sum is then an integer below 2**53, exact, while
# k * (p - 1)**2 < 2**53 (at MAX_PRIME, k < 2**13; at p = 101, k < 9 * 10**11).
FLOAT_EXACT = 2 ** 53

# matmul runs on BLAS in float64 from this many multiply-adds (output entries
# times inner dimension) when FLOAT_EXACT allows, and in int64, which numpy
# cannot send to BLAS, below it.  Timed at p = 101 with one BLAS thread
# (2-vCPU x86 VM, numpy 2.4, fastest of 5), float64 over int64 was 1.2-1.5
# up to 12x12x12 (1,728) and on stacks of 5x5 and 6x6 products up to 1,250;
# 0.9-1.1 from 2,560 to 4,320, by shape; 0.7-0.85 from 4,096 to 10,368; and
# 0.12-0.13 on the hom systems' (133x841)(841x29) and (227x285)(285x60).
MATMUL_FLOAT_WORK = 4096

# rref runs on Python int lists up to this many cells, rows * (cols + augment
# cols), and with the numpy kernel above it.  Replaying every rref input above
# 256 cells from one seed-0 pass of the battery, phi-stream and large-dense
# benchmark workloads (2-vCPU x86 VM, Python 3.11, numpy 2.4, fastest of 5
# per call), the numpy kernel's time over the list kernel's, summed per
# bucket, was 1.6 at 257-512 cells on battery and phi-stream (1.0 on
# large-dense); at 513-1024, 1.14-1.52 in three of the four 128-cell buckets
# and 0.77-0.79 in 641-768, mostly tall shapes (0.49-0.71 on large-dense);
# 1.06-1.10 at 1025-1536 (0.31); and 0.25-0.66 above 1536.  Single shapes
# scatter around that (tall matrices favour numpy).  Moving the crossover to
# 512 would save about 0.13 s summed over the three passes and slow most
# shapes in between; moving it to 1536 would save under 0.01 s on battery
# and phi-stream and cost 0.04 s on large-dense.  So it stays at 1024.
# Inputs up to it that are dense go to numpy all the same (RREF_DENSE_CELLS);
# the tall 48x16 battery systems that read 0.77-0.79 above no longer occur in
# a seed-0 battery pass.
RREF_LIST_CELLS = 1024

# The list kernel's cost grows with the nonzero entries it updates, the numpy
# kernel's does not, so up to RREF_LIST_CELLS an input above this many cells
# whose entries (augment block included) are more than half nonzero takes the
# numpy kernel.  Dense square inputs, as from is_invertible and from the
# fingerprint ranks of a change-of-basis module, took 3.9 ms on lists against
# 0.76 ms on numpy at 29x29 and 1.41 against 0.46 ms at 20x20 (random full
# matrices at p = 101, fastest of 5); at 10% nonzero the list kernel was as
# fast or faster up to 20x20.
# Replaying every rref input of at least 128 cells from one seed-0 pass of
# each benchmark workload under both routings (2-vCPU x86 VM, one BLAS
# thread, fastest of 3 per call), the rule moved large-dense from 0.353 to
# 0.323 s and left battery (0.236 s) and phi-stream (0.046 s) within 3%.
# Those workloads' inputs at 257-1024 cells are mostly 5-30% nonzero and stay
# on lists.  End to end, a large-dense pass took 1.05x the CPU time without
# the rule (median of 6 rounds at seeds 1-6, best of 5 passes per side).
RREF_DENSE_CELLS = 256


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below MAX_PRIME."""
    if p < 2:
        raise ValueError(f"field size {p} is not prime")
    if p >= MAX_PRIME:
        raise ValueError(f"field size {p} is not below the int64 overflow cap {MAX_PRIME}")
    if any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"field size {p} is not prime")


def as_matrix(m, p: int, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """A new 2-d int64 array of m reduced mod p, supplying a shape for empty input."""
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        if a.size == 0:
            a = a.reshape(rows if rows is not None else 0, cols if cols is not None else 0)
        else:
            raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return np.mod(a, p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product mod p of contract matrices, or of stacks of them (np.matmul's
    batching, a stacked at least as deep as b); a may be a row vector.

    Before the reduction each entry is a sum of k = a.shape[-1] products below
    p**2: exact in int64 while k < 2**23 (see MAX_PRIME), and in float64 while
    k * (p - 1)**2 < FLOAT_EXACT, where products of MATMUL_FLOAT_WORK or more
    multiply-adds run on BLAS.  Both routes give the same int64 array.
    """
    k = a.shape[-1]
    if a.size * b.shape[-1] >= MATMUL_FLOAT_WORK and k * (p - 1) ** 2 < FLOAT_EXACT:
        return np.mod(np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64), p)
    return np.mod(np.matmul(a, b), p)


def rref(m, p: int, augment: np.ndarray | None = None):
    """Row-reduce over F_p.

    Args:
        m: matrix to reduce (not modified); nested lists are accepted.
        p: prime modulus.
        augment: optional block carried along (same row count).

    Returns:
        (R, pivots, A) where R is the reduced row echelon form restricted to
        its nonzero rows, pivots is the list of pivot column indices and A is
        the transformed augment block (None when not supplied).
    """
    a = np.asarray(m, dtype=np.int64)
    aug = None if augment is None else np.asarray(augment, dtype=np.int64)
    cells = a.shape[0] * (a.shape[1] + (0 if aug is None else aug.shape[1]))
    if cells <= RREF_LIST_CELLS and (
            cells <= RREF_DENSE_CELLS
            or 2 * (np.count_nonzero(a) + (0 if aug is None else np.count_nonzero(aug))) <= cells):
        return _rref_lists(a, p, aug)
    return _rref_numpy(a, p, aug)


def _rref_lists(a: np.ndarray, p: int, aug: np.ndarray | None):
    """rref on Python int lists: the augment block rides on the end of each row."""
    nrows, ncols = a.shape
    rows = a.tolist() if aug is None else [r + s for r, s in zip(a.tolist(), aug.tolist())]
    row = 0
    pivots: list[int] = []
    for col in range(ncols):
        if row == nrows:
            break
        for pr in range(row, nrows):
            if rows[pr][col]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr] = rows[row]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            prow = [x * inv % p for x in prow]
        rows[row] = prow
        for r, other in enumerate(rows):
            f = other[col]
            if f and r != row:
                rows[r] = [(x - f * y) % p for x, y in zip(other, prow)]
        pivots.append(col)
        row += 1
    rank = len(pivots)
    r_out = np.array([r[:ncols] for r in rows[:rank]], dtype=np.int64).reshape(rank, ncols)
    if aug is None:
        return r_out, pivots, None
    naug = aug.shape[1]
    a_out = np.array([r[ncols:] for r in rows], dtype=np.int64).reshape(nrows, naug)
    return r_out, pivots, a_out


def _rref_numpy(a: np.ndarray, p: int, aug: np.ndarray | None):
    """rref with delayed reduction (see the module docstring); same pivot rule
    as _rref_lists.  Entries stay residues plus multiples of p until the
    outputs are reduced at the end (the int64 bound is at MAX_PRIME)."""
    nrows, ncols = a.shape
    # one C-ordered working copy, the augment block riding on the right
    w = np.array(a, order="C") if aug is None else np.concatenate([a, aug], axis=1)
    row = 0
    pivots: list[int] = []
    for col in range(ncols):
        if row == nrows:
            break
        factors = w[:, col] % p
        nz = factors[row:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        # left of col, rows from `row` down hold multiples of p: the swap and
        # the pivot row start at col
        prow = w[pr, col:] % p
        if pr != row:
            w[pr, col:] = w[row, col:]
            factors[pr] = factors[row]
        inv = pow(int(prow[0]), p - 2, p)
        if inv != 1:
            prow = prow * inv % p
        w[row, col:] = prow
        factors[row] = 0
        hit = factors.nonzero()[0]
        if hit.size:
            w[hit, col:] -= np.outer(factors[hit], prow)
        pivots.append(col)
        row += 1
    rank = len(pivots)
    if aug is None:
        return w[:rank] % p, pivots, None
    return w[:rank, :ncols] % p, pivots, w[:, ncols:] % p


def rank_fp(m, p: int) -> int:
    """Rank of m over F_p."""
    _, pivots, _ = rref(m, p)
    return len(pivots)


def row_basis(m, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space."""
    r, pivots, _ = rref(m, p)
    return r


def kernel_basis(m, p: int) -> np.ndarray:
    """Basis of {x : m @ x^T = 0}, one row per basis vector.

    Row count is cols(m) - rank(m); the basis is the canonical one obtained
    from the RREF free columns, so it is reproducible bit for bit.
    """
    r, pivots, _ = rref(m, p)
    return rref_kernel(r, pivots, p)


def rref_kernel(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """kernel_basis of a matrix from its rref (R, pivots)."""
    ncols = r.shape[1]
    # most calls have rank 0 or full column rank; both skip the indexing
    # below, whose per-call numpy overhead outweighs the work on tiny inputs
    if not pivots:
        return eye(ncols)
    if len(pivots) == ncols:
        return zeros(0, ncols)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    # one row per free column fc: 1 at fc, -R[j, fc] at the j-th pivot column
    basis = zeros(free.size, ncols)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -r[:, free].T % p
    return basis


def solve(a, b, p: int) -> np.ndarray | None:
    """Solve a @ x = b over F_p; returns one solution or None.

    b may be a matrix (each column solved simultaneously).
    """
    if b.shape[0] != a.shape[0]:
        raise ValueError("incompatible shapes in solve")
    r, pivots, aug = rref(a, p, augment=b)
    # rows of the eliminated system beyond rank must have zero rhs
    if aug[len(pivots):].any():
        return None
    x = zeros(a.shape[1], b.shape[1])
    x[pivots] = aug[: len(pivots)]
    return x


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank_fp(m, p) == m.shape[0]


def invert(m: np.ndarray, p: int) -> np.ndarray | None:
    if m.shape[0] != m.shape[1]:
        return None
    x = solve(m, eye(m.shape[0]), p)
    if x is None:
        return None
    return x if np.array_equal(matmul(m, x, p), eye(m.shape[0])) else None


# ---------------------------------------------------------------------------
# integer lattices


def lattice_rank(rows) -> int:
    """Rank over Q of the subgroup of Z^n generated by the rows: the number
    of rows of its Hermite basis, which are independent over Q."""
    return len(hermite_basis(rows))


def hermite_basis(rows) -> list[list[int]]:
    """Row-style Hermite normal form basis of the lattice generated by rows."""
    mat = [[int(x) for x in row] for row in rows if any(row)]
    if not mat:
        return []
    ncols = len(mat[0])
    basis: list[list[int]] = []
    row = 0
    work = [r[:] for r in mat]
    for col in range(ncols):
        idx = [r for r in range(row, len(work)) if work[r][col]]
        if not idx:
            continue
        # euclidean reduction on the column
        while len(idx) > 1:
            idx.sort(key=lambda r: abs(work[r][col]))
            r0 = idx[0]
            for r in idx[1:]:
                q = work[r][col] // work[r0][col]
                if q:
                    for c in range(ncols):
                        work[r][c] -= q * work[r0][c]
            idx = [r for r in idx if work[r][col]]
        r0 = idx[0]
        work[row], work[r0] = work[r0], work[row]
        if work[row][col] < 0:
            work[row] = [-x for x in work[row]]
        basis.append(row)
        row += 1
        if row == len(work):
            break
    out = [work[r] for r in basis]
    # reduce above-pivot entries for a canonical form
    for i in range(len(out) - 1, -1, -1):
        piv_col = next(c for c in range(ncols) if out[i][c])
        for j in range(i):
            q = out[j][piv_col] // out[i][piv_col]
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return out


def in_lattice(basis_rows, v) -> bool:
    """Whether integer vector v lies in the Z-span of basis_rows."""
    return in_hermite_span(hermite_basis(basis_rows), v)


def in_hermite_span(basis, v) -> bool:
    """Whether integer vector v lies in the Z-span of a Hermite basis, as
    hermite_basis returns it."""
    vec = [int(x) for x in v]
    for row in basis:
        piv = next((c for c in range(len(row)) if row[c]), None)
        if piv is None:
            continue
        if vec[piv] % row[piv] == 0:
            q = vec[piv] // row[piv]
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)
