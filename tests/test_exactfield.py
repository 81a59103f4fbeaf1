import ast
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from hom_oracle import kron_system
from quivalg import exactfield as ef, repmod


def test_rank_identity_and_zero():
    assert ef.rank_fp(np.eye(3, dtype=np.int64), 5) == 3
    assert ef.rank_fp(np.zeros((4, 2), dtype=np.int64), 5) == 0


def test_rank_dependent_rows():
    # second row is twice the first over F_5
    assert ef.rank_fp([[1, 2], [2, 4]], 5) == 1


def test_kernel_identity_and_zero():
    assert ef.kernel_basis(np.eye(2, dtype=np.int64), 5).shape == (0, 2)
    assert ef.kernel_basis(np.zeros((2, 3), dtype=np.int64), 5).shape == (3, 3)


def test_kernel_annihilates():
    m = np.array([[1, 1, 0]], dtype=np.int64)
    k = ef.kernel_basis(m, 5)
    assert k.shape[0] == 2
    assert not (m @ k.T % 5).any()


def test_solve_examples():
    b = np.array([[3], [4]], dtype=np.int64)
    x = ef.solve(np.eye(2, dtype=np.int64), b, 5)
    assert np.array_equal(x, b % 5)
    assert ef.solve(np.zeros((2, 2), dtype=np.int64), b, 5) is None
    x = ef.solve(np.array([[2]], dtype=np.int64), np.array([[1]], dtype=np.int64), 5)
    assert x[0, 0] == 3  # 2 * 3 = 6 = 1 mod 5


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(0, 101, size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert ef.rank_fp(m, 101) == ef.rank_fp(m.T, 101)


def test_rank_plus_kernel_dimension():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.integers(0, 101, size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert m.shape[1] == ef.rank_fp(m, 101) + ef.kernel_basis(m, 101).shape[0]


def test_lattice_rank_examples():
    assert ef.lattice_rank([[1, 0], [0, 1]]) == 2
    assert ef.lattice_rank([[1, 1], [2, 2]]) == 1
    assert ef.lattice_rank([]) == 0


def test_lattice_rank_matches_sympy_over_q():
    # the Hermite basis's length is the rank over Q, on full, low-rank and
    # zero rows alike
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows = rng.integers(-3, 4, size=(rng.integers(0, 6), rng.integers(1, 7)))
        if len(rows) > 2 and rng.random() < 0.4:
            rows[-1] = 2 * rows[0] - rows[1]
        want = DomainMatrix.from_list_sympy(*rows.shape, rows.tolist()).rank() if len(rows) else 0
        assert ef.lattice_rank(rows.tolist()) == want


def test_lattice_rank_row_operation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        rows = rng.integers(-5, 6, size=(rng.integers(1, 5), rng.integers(1, 5)))
        base = ef.lattice_rank(rows.tolist())
        mod = [list(r) for r in rows]
        if len(mod) >= 2:
            i, j = rng.integers(0, len(mod), size=2)
            if i != j:
                mod[i] = [a + b for a, b in zip(mod[i], mod[j])]
        k = rng.integers(0, len(mod))
        mod[k] = [-a for a in mod[k]]
        rng.shuffle(mod)
        assert ef.lattice_rank(mod) == base


def test_hermite_membership():
    basis = [[2, 0, 1], [0, 3, 1]]
    assert ef.in_lattice(basis, [2, 3, 2])
    assert ef.in_lattice(basis, [4, 0, 2])
    assert not ef.in_lattice(basis, [1, 0, 0])
    assert not ef.in_lattice(basis, [2, 3, 1])


# ---------------------------------------------------------------------------
# the F_p kernel against sympy's DomainMatrix over GF(p)


def _gf(m, p):
    K = GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in m], m.shape, K)


def _ints(dm, p):
    return np.array([[int(x) % p for x in row] for row in dm.to_list()],
                    dtype=np.int64).reshape(dm.shape)


def _matrices(p, seed):
    """Seeded matrices over F_p: empty shapes, full-rank and low-rank ones."""
    rng = np.random.default_rng(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)]
    shapes += [tuple(int(x) for x in rng.integers(1, 8, size=2)) for _ in range(24)]
    # above the list/numpy crossover of rref
    shapes += [(40, 40), (24, 60), (60, 24), (40, 40)]
    for i, (r, c) in enumerate(shapes):
        if i % 2 and r and c:
            k = int(rng.integers(1, min(r, c) + 1))
            yield (rng.integers(0, p, size=(r, k)) @ rng.integers(0, p, size=(k, c))) % p
        else:
            yield rng.integers(0, p, size=(r, c)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rref_and_rank_match_sympy(p):
    assert max(m.size for m in _matrices(p, p)) > ef.RREF_LIST_CELLS
    for m in _matrices(p, p):
        r, pivots, _ = ef.rref(m, p)
        ref, ref_pivots = _gf(m, p).rref()
        assert list(ref_pivots) == pivots
        assert np.array_equal(r, _ints(ref, p)[: len(pivots)])
        assert ef.rank_fp(m, p) == len(ref_pivots)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_kernel_basis_matches_sympy(p):
    for m in _matrices(p, 10 + p):
        k = ef.kernel_basis(m, p)
        assert k.shape == (m.shape[1] - len(_gf(m, p).rref()[1]), m.shape[1])
        assert not (m @ k.T % p).any()
        if m.shape[0] and m.shape[1]:
            ref = _ints(_gf(m, p).nullspace(), p)
            assert np.array_equal(ef.row_basis(k, p), ef.row_basis(ref, p))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_solve_matches_sympy(p):
    rng = np.random.default_rng(20 + p)
    for m in _matrices(p, 30 + p):
        b = rng.integers(0, p, size=(m.shape[0], 2)).astype(np.int64)
        if rng.integers(2):
            b = (m @ rng.integers(0, p, size=(m.shape[1], 2))) % p
        x = ef.solve(m, b, p)
        aug = np.concatenate([m, b], axis=1)
        ref, ref_pivots = _gf(aug, p).rref()
        if any(pc >= m.shape[1] for pc in ref_pivots):
            assert x is None
            continue
        expected = np.zeros((m.shape[1], 2), dtype=np.int64)
        for j, pc in enumerate(ref_pivots):
            expected[pc] = _ints(ref, p)[j, m.shape[1]:]
        assert np.array_equal(x, expected)
        assert np.array_equal(ef.matmul(m, x, p), b)


# ---------------------------------------------------------------------------
# rref's list kernel (up to RREF_LIST_CELLS) and numpy kernel agree bit for bit

MAX_PRIME_BELOW_CAP = 1048573  # the largest prime below ef.MAX_PRIME


@st.composite
def _rref_inputs(draw):
    """(m, p, augment): full-rank, low-rank and sparse matrices, any shape."""
    p = draw(st.sampled_from([2, 3, 101, MAX_PRIME_BELOW_CAP]))
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    naug = draw(st.none() | st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["full", "low-rank", "sparse"]))
    m = rng.integers(0, p, size=(rows, cols))
    if kind == "low-rank":
        k = int(rng.integers(0, min(rows, cols) + 1))
        m = (rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))) % p
    elif kind == "sparse":
        m = m * (rng.random((rows, cols)) < 0.2)
    aug = None if naug is None else rng.integers(0, p, size=(rows, naug))
    return m.astype(np.int64), p, None if aug is None else aug.astype(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rref_inputs())
@example((np.zeros((0, 0), dtype=np.int64), 2, None))
@example((np.zeros((0, 5), dtype=np.int64), 3, np.zeros((0, 2), dtype=np.int64)))
@example((np.zeros((4, 0), dtype=np.int64), 101, np.ones((4, 3), dtype=np.int64)))
@example((np.eye(3, dtype=np.int64), MAX_PRIME_BELOW_CAP, np.zeros((3, 0), dtype=np.int64)))
@example((np.array([[0, 2], [1, 1]], dtype=np.int64), 3, np.zeros((2, 0), dtype=np.int64)))
def test_rref_list_and_numpy_kernels_agree(case):
    _assert_kernels_agree(*case)


def _assert_kernels_agree(m, p, aug):
    r1, piv1, a1 = ef._rref_lists(m, p, aug)
    r2, piv2, a2 = ef._rref_numpy(m, p, aug)
    assert piv1 == piv2
    assert r1.dtype == r2.dtype == np.int64 and r1.shape == r2.shape == (len(piv1), m.shape[1])
    assert np.array_equal(r1, r2)
    if aug is None:
        assert a1 is None and a2 is None
    else:
        assert a1.dtype == a2.dtype == np.int64 and a1.shape == a2.shape == aug.shape
        assert np.array_equal(a1, a2)


def _tall_sparse(p, seed):
    """120 x 40 at 3-5% density; some with a dense column 0 (a pivot hitting
    every row), some also with a dense row 0 (a pivot row with full support)."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, p, size=(120, 40))
    m *= rng.random((120, 40)) < rng.uniform(0.03, 0.05)
    if seed % 3:
        m[:, 0] = rng.integers(1, p, size=120)
    if seed % 3 == 2:
        m[0] = rng.integers(1, p, size=40)
    return m.astype(np.int64)


@pytest.mark.parametrize("p", [2, 101, MAX_PRIME_BELOW_CAP])
def test_rref_kernels_agree_on_tall_sparse_matrices(p):
    # numpy-kernel pivots that hit many rows, some with a sparse pivot row;
    # the augment block has 120 rows, most of them beyond the rank
    rng = np.random.default_rng(p)
    for seed in range(6):
        m = _tall_sparse(p, seed)
        assert ef.rank_fp(m, p) < m.shape[0]
        _assert_kernels_agree(m, p, None)
        _assert_kernels_agree(m, p, rng.integers(0, p, size=(m.shape[0], 7)))


@pytest.mark.parametrize("p", [2, 101, MAX_PRIME_BELOW_CAP])
def test_rref_kernels_agree_on_dense_squares(p, monkeypatch):
    # 16x16 to 32x32, full and low rank, more than half nonzero, with and
    # without an augment block: rref sends every one of them above
    # RREF_DENSE_CELLS to the numpy kernel, including those within
    # RREF_LIST_CELLS, and both kernels give the same R, pivots and augment
    rng = np.random.default_rng(p)
    calls = []
    numpy_kernel = ef._rref_numpy
    monkeypatch.setattr(ef, "_rref_numpy", lambda *a: calls.append(a) or numpy_kernel(*a))
    below_cap = 0
    for n in range(16, 33, 2):
        full = rng.integers(1, p, size=(n, n))
        full[rng.random((n, n)) < 0.3] = 0
        # the second has rank at most n/2: its rows repeat the first n/2
        for m in (full, full[rng.integers(0, n // 2, size=n)]):
            assert 2 * np.count_nonzero(m) > m.size
            for aug in (None, rng.integers(0, p, size=(n, 4))):
                _assert_kernels_agree(m, p, aug)
                calls.clear()
                ef.rref(m, p, aug)
                cells = n * (n + (0 if aug is None else 4))
                assert bool(calls) == (cells > ef.RREF_DENSE_CELLS)
                below_cap += ef.RREF_DENSE_CELLS < cells <= ef.RREF_LIST_CELLS
    assert below_cap >= 16


def test_rref_keeps_sparse_inputs_below_the_cap_on_lists(monkeypatch):
    # at most half nonzero, or at most RREF_DENSE_CELLS cells: the list kernel
    monkeypatch.setattr(ef, "_rref_numpy", lambda *a: pytest.fail("numpy kernel"))
    rng = np.random.default_rng(5)
    half = np.zeros((32, 32), dtype=np.int64)
    half[:, :16] = rng.integers(1, 101, size=(32, 16))
    for m in (half, rng.integers(1, 101, size=(16, 16)),
              _tall_sparse(101, 0)[:25]):
        ef.rref(m, 101)
    ef.rref(half[:, :24], 101, augment=np.zeros((32, 8), dtype=np.int64))


def test_rref_kernels_agree_on_a_dense_matrix_at_the_largest_prime():
    # 200 pivots each add up to (p - 1)**2 to every unreduced entry: about
    # 200 * 2**40 before the final reduction; the zero corner forces a swap
    p = MAX_PRIME_BELOW_CAP
    rng = np.random.default_rng(7)
    m = rng.integers(0, p, size=(200, 210))
    m[0, 0] = 0
    _assert_kernels_agree(m, p, rng.integers(0, p, size=(200, 3)))


def test_rref_kernels_agree_on_a_hom_system(exA):
    # Hom(A^2, A^3 in another basis) over exA: the commuting-square system
    p = exA.p
    proj = [repmod.projective(exA, v) for v in exA.quiver.vertices]
    m = repmod.direct_sum(proj * 2)[0]
    n = repmod.direct_sum(proj * 3)[0]
    rng = np.random.default_rng(3)
    g = {}
    for v, d in n.dims.items():
        x = rng.integers(0, p, size=(d, d))
        while not ef.is_invertible(x, p):
            x = rng.integers(0, p, size=(d, d))
        g[v] = (x, ef.invert(x, p))
    n = repmod.Rep(exA, n.dims, {
        a.name: ef.matmul(ef.matmul(g[a.source][1], n.mats[a.name], p), g[a.target][0], p)
        for a in exA.quiver.arrows})
    system = kron_system(m, n)
    maps = repmod.hom_basis(m, n)
    assert system.shape[1] >= 300 and system.size > ef.RREF_LIST_CELLS
    assert len(maps) == system.shape[1] - ef.rank_fp(system, p)
    _assert_kernels_agree(system, p, None)


def _kernel_basis_by_loop(m, p):
    """kernel_basis's definition, one free column at a time."""
    r, pivots, _ = ef.rref(m, p)
    ncols = r.shape[1]
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [0] * ncols
            vec[fc] = 1
            for row, pc in zip(r.tolist(), pivots):
                vec[pc] = -row[fc] % p
            basis.append(vec)
    return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_kernel_basis_matches_its_loop_definition(p):
    for m in [*_matrices(p, 60 + p), _tall_sparse(p, 1).T, _tall_sparse(p, 2)]:
        k = ef.kernel_basis(m, p)
        assert k.dtype == np.int64
        assert np.array_equal(k, _kernel_basis_by_loop(m, p))


def _spy_matmul(monkeypatch):
    """The dtypes of the arguments of every np.matmul call."""
    seen, orig = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: seen.append((a.dtype, b.dtype)) or orig(a, b))
    return seen


@pytest.mark.parametrize("p", [2, 101])
def test_matmul_float_route_is_exact(p, monkeypatch):
    # random residue matrices and stacks of them, large enough for BLAS:
    # the product equals the int64 one
    rng = np.random.default_rng(p)
    shapes = [((40, 60), (60, 30)), ((133, 200), (200, 29)), ((5, 12, 30), (5, 30, 12)),
              ((7, 20, 20), (7, 20, 20))]
    for sa, sb in shapes:
        a, b = rng.integers(0, p, size=sa), rng.integers(0, p, size=sb)
        # the extreme residues as well
        a[..., 0, :] = p - 1
        b[..., :, 0] = p - 1
        seen = _spy_matmul(monkeypatch)
        got = ef.matmul(a, b, p)
        monkeypatch.undo()
        assert seen == [(np.float64, np.float64)]
        assert got.dtype == np.int64 and np.array_equal(got, np.matmul(a, b) % p)


def test_matmul_keeps_int64_beyond_the_float_bound(monkeypatch):
    # at the largest prime below the cap, k (p - 1)**2 >= 2**53 for inner
    # dimension k: entries near p - 1 sum past float64's exact range, so the
    # helper must take the int64 route, and the product stays exact
    p = MAX_PRIME_BELOW_CAP
    k = 4 * -(-ef.FLOAT_EXACT // (p - 1) ** 2)  # sums near 2**55
    assert k * (p - 1) ** 2 >= 4 * ef.FLOAT_EXACT and 2 * k * 3 >= ef.MATMUL_FLOAT_WORK
    rng = np.random.default_rng(1)
    a, b = rng.integers(p - 1000, p, size=(2, k)), rng.integers(p - 1000, p, size=(k, 3))
    seen = _spy_matmul(monkeypatch)
    got = ef.matmul(a, b, p)
    monkeypatch.undo()
    assert seen == [(np.int64, np.int64)]
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(got, want.astype(np.int64))
    # the float64 route would not be exact here
    assert not np.array_equal(np.matmul(a.astype(np.float64), b.astype(np.float64)) % p, want)


NUMPY_PRODUCTS = {"matmul", "dot", "tensordot", "einsum", "inner", "vdot"}


def test_matmul_is_the_only_product():
    # ef.matmul picks the int64 or the float64 route and owns the bound that
    # keeps each exact, so no other module in the package multiplies
    # matrices itself: no `@` and no numpy product outside exactfield.py
    found = []
    for path in sorted(pathlib.Path(ef.__file__).parent.glob("*.py")):
        if path.name == "exactfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
    assert not found, found
