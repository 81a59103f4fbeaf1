"""Exact linear algebra over a prime field F_p and over the integers.

The matrix contract: an F_p matrix is a 2-d numpy int64 array with entries
in [0, p).  `as_matrix` is the one coerce-and-reduce step; it runs where
data enters the package (the Rep/RepMap constructors, which also serve JSON
input, and the row arguments of submodule construction).  Every other
function here takes and returns matrices that already meet the contract and
does not re-coerce or re-reduce them.  Row vectors act on the right of arrow
matrices throughout the package.

p must be a prime below MAX_PRIME (see `check_prime`), so that no int64
accumulation in the package overflows.  Integer lattices are handled
fraction-free (Bareiss for ranks, Hermite form for membership), so no
rational arithmetic ever appears.

`rref` has two kernels with one pivot rule, so both give the same R, pivots
and augment block bit for bit.  Up to RREF_LIST_CELLS cells (rows times
columns, augment columns included) it eliminates on Python int lists, where
the per-call numpy overhead would cost more than the arithmetic; above that
it runs one numpy row operation per pivot.  Most calls are on matrices of a
few rows, so most take the list kernel.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 101

# The widest int64 accumulation in the package is the trace form of End(M) in
# decomp, a sum of dim(End)**2 products of two residues.  Below 2**20 each
# product is below 2**40, so sums of up to 2**23 products stay below 2**63.
# That allows dim(End) <= 2896; as dim(End) <= (dim M)**2, it covers every
# module of dimension up to 53 (the default decomposition cap is 40).
MAX_PRIME = 2 ** 20

# rref runs on Python int lists up to this many cells, rows * (cols + augment
# cols), and with numpy row operations above it.  On rref inputs sampled from
# the battery, phi-stream and large-dense benchmark workloads (2-vCPU x86 VM,
# Python 3.11, numpy 2.4), the numpy kernel's time over the list kernel's
# summed to 2.3 up to 512 cells, 1.15-1.33 at 513-1024, 0.70-0.93 at
# 1025-2048 and 0.14-0.24 above 4096.  Single shapes scatter around that
# (tall matrices favour numpy), so the crossover is the last bucket edge at
# which the list kernel still won on both sample sets.
RREF_LIST_CELLS = 1024


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
    """Product mod p.  Entries stay below p**2 * cols, safe in int64 for desk sizes."""
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return np.mod(a @ b, p)


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
    if cells <= RREF_LIST_CELLS:
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
    """rref with one numpy row operation per pivot; same pivot rule as _rref_lists."""
    # one C-ordered working copy each: the row operations below walk rows
    a = np.array(a, order="C")
    aug = None if aug is None else np.array(aug, order="C")
    nrows, ncols = a.shape
    row = 0
    pivots: list[int] = []
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
            if aug is not None:
                aug[[row, pr]] = aug[[pr, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        if aug is not None:
            aug[row] = (aug[row] * inv) % p
        factors = a[:, col].copy()
        factors[row] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(factors[hit], a[row])) % p
            if aug is not None:
                aug[hit] = (aug[hit] - np.outer(factors[hit], aug[row])) % p
        pivots.append(col)
        row += 1
    return a[: len(pivots)], pivots, aug


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
    ncols = r.shape[1]
    rows = r.tolist()
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivot_set:
            vec = [0] * ncols
            vec[fc] = 1
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[fc] % p
            basis.append(vec)
    return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)


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


def solve_left(x_rows, target_rows, p: int) -> np.ndarray | None:
    """Solve Y @ x_rows = target_rows over F_p (row-vector convention).

    Used to express rows of `target_rows` in terms of the rows of `x_rows`.
    """
    y = solve(x_rows.T, target_rows.T, p)
    return None if y is None else y.T


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank_fp(m, p) == m.shape[0]


def invert(m: np.ndarray, p: int) -> np.ndarray | None:
    if m.shape[0] != m.shape[1]:
        return None
    x = solve(m, eye(m.shape[0]), p)
    if x is None:
        return None
    return x if np.array_equal(matmul(m, x, p), eye(m.shape[0])) else None


def reduce_rows(basis: np.ndarray, pivots: list[int], vecs: np.ndarray, p: int) -> np.ndarray:
    """Residue of each row of vecs modulo the row space of an RREF basis.

    The residue is zero on every pivot column, and vecs minus the residue
    lies in the row space of basis.
    """
    out = vecs.copy()
    for j, pc in enumerate(pivots):
        factors = out[:, pc].copy()
        hit = np.nonzero(factors)[0]
        if hit.size:
            out[hit] = (out[hit] - np.outer(factors[hit], basis[j])) % p
    return out


class RowSolver:
    """Factorized row-space membership/coordinate queries for a fixed basis.

    Given independent rows B, answers x = c @ B (or None) for many x cheaply.
    """

    def __init__(self, basis_rows: np.ndarray, p: int):
        self.p = p
        self.basis = basis_rows
        n = self.basis.shape[0]
        r, pivots, transform = rref(self.basis, p, augment=eye(n))
        if len(pivots) != n:
            raise ValueError("basis rows are dependent")
        self.pivots = pivots
        # basis[:, pivots] @ transform.T? — transform satisfies R = U B with
        # R[:, pivots] = I, so coordinates of x are x[pivots] @ U.
        self.transform = transform[:n]

    def coordinates(self, vecs: np.ndarray) -> np.ndarray | None:
        """Coordinates of each row of vecs in the basis, or None if any falls outside."""
        if not self.pivots:
            return None if vecs.any() else zeros(vecs.shape[0], 0)
        coords = matmul(vecs[:, self.pivots], self.transform, self.p)
        if not np.array_equal(matmul(coords, self.basis, self.p), vecs):
            return None
        return coords


# ---------------------------------------------------------------------------
# integer lattices


def lattice_rank(rows) -> int:
    """Rank over Q of the subgroup of Z^n generated by the rows.

    Fraction-free Bareiss elimination on python ints; row operations do not
    change the generated subgroup's rank.
    """
    mat = [[int(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pr = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[row], mat[pr] = mat[pr], mat[row]
        for r in range(row + 1, len(mat)):
            if not any(mat[r][col:]):
                continue
            lead = mat[r][col]
            piv = mat[row][col]
            for c in range(col, ncols):
                mat[r][c] = (piv * mat[r][c] - lead * mat[row][c]) // prev
        prev = mat[row][col]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


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
    basis = hermite_basis(basis_rows)
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
