import numpy as np
import pytest
from sympy import Poly, symbols

from quivalg import exactfield as ef, fppoly


def _poly(*coeffs):
    return list(coeffs)


def test_divmod_and_gcd():
    p = 101
    f = fppoly.mul(_poly(1, 1), _poly(2, 1), p)  # (x+1)(x+2)
    q, r = fppoly.divmod_poly(f, _poly(1, 1), p)
    assert r == []
    assert np.array_equal(fppoly.monic(q, p), _poly(2, 1))
    g = fppoly.gcd(f, _poly(1, 1), p)
    assert np.array_equal(g, _poly(1, 1))


def test_factor_reassembles():
    p = 101
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        f = fppoly.monic(rng.integers(0, p, size=deg).tolist() + [1], p)
        factors = fppoly.factor(f, p, rng)
        prod = _poly(1)
        for q, e in factors:
            assert fppoly.is_irreducible(q, p)
            for _ in range(e):
                prod = fppoly.mul(prod, q, p)
        assert np.array_equal(prod, f)


def test_factor_with_multiplicity():
    p = 101
    rng = np.random.default_rng(4)
    f = _poly(1, 1)  # x + 1
    f3 = fppoly.mul(fppoly.mul(f, f, p), f, p)
    factors = fppoly.factor(f3, p, rng)
    assert len(factors) == 1
    assert factors[0][1] == 3


def test_irreducibility_small_cases():
    assert fppoly.is_irreducible(_poly(1, 1), 101)
    # x^2 + 1 is irreducible mod 3 but splits mod 5
    assert fppoly.is_irreducible(_poly(1, 0, 1), 3)
    assert not fppoly.is_irreducible(_poly(1, 0, 1), 5)


def test_min_poly_of_matrix():
    p = 101
    nil = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert np.array_equal(fppoly.min_poly_matrix(nil, p), _poly(0, 0, 1))
    ident = np.eye(3, dtype=np.int64)
    assert np.array_equal(fppoly.min_poly_matrix(ident, p), _poly(p - 1, 1))
    assert np.array_equal(fppoly.min_poly_matrix(np.zeros((0, 0), dtype=np.int64), p),
                          _poly(1))


def test_eval_matrix():
    p = 101
    m = np.array([[2, 0], [0, 3]], dtype=np.int64)
    f = _poly(1, 1)  # x + 1
    out = fppoly.eval_matrix(f, m, p)
    assert np.array_equal(out, np.array([[3, 0], [0, 4]]))


def test_factor_p2():
    rng = np.random.default_rng(9)
    f = _poly(1, 1, 1)  # x^2 + x + 1 over F_2: irreducible
    assert fppoly.is_irreducible(f, 2)
    g = fppoly.mul(f, _poly(1, 1), 2)
    factors = fppoly.factor(g, 2, rng)
    assert sorted(fppoly.degree(q) for q, _ in factors) == [1, 2]
    # a linear f is its own factor, with no draw
    for f in ([0, 1], [1, 1]):
        state = rng.bit_generator.state
        assert fppoly.factor(f, 2, rng) == [(f, 1)]
        assert rng.bit_generator.state == state


def test_krylov_minpoly_definition():
    """Monic, annihilates its input, degree at most the dimension."""
    for p in (2, 3, 101):
        rng = np.random.default_rng(p)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            mat = (rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, n))) % p
            mu = fppoly.min_poly_matrix(mat, p)
            assert mu[-1] == 1 and 1 <= fppoly.degree(mu) <= n
            assert not fppoly.eval_matrix(mu, mat, p).any()


def _eval_reference(f, mat, p):
    """f(mat) mod p by Horner on Python int lists."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for c in reversed(f):
        out = [[(sum(out[i][k] * mat[k][j] for k in range(n)) + (c if i == j else 0)) % p
                for j in range(n)] for i in range(n)]
    return out


def _min_poly_reference(mat, p):
    """The monic minimal polynomial of mat on Python int lists: the first
    power mat^d in the span of I, mat, ..., mat^(d-1), by elimination."""
    n = len(mat)
    basis = []  # (pivot, row, coordinates over the powers), each row led by a 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for d in range(n + 1):
        row, coords = [x for r in power for x in r], [0] * d + [1]
        for piv, brow, bco in basis:
            f = row[piv]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, brow)]
                coords = [(x - f * y) % p for x, y in zip(coords, bco + [0] * (d + 1 - len(bco)))]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return coords
        inv = pow(row[lead], p - 2, p)
        basis.append((lead, [x * inv % p for x in row], [x * inv % p for x in coords]))
        power = [[sum(power[i][k] * mat[k][j] for k in range(n)) % p for j in range(n)]
                 for i in range(n)]
    raise AssertionError("no relation among the first n + 1 powers")


def _test_matrices(p, n, rng):
    """A full random matrix, one of rank about n / 2, and a block diagonal
    with a repeated block, whose minimal polynomial has degree below n."""
    k = n // 2
    low = rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, n)) % p
    block = rng.integers(0, p, size=(k, k))
    rep = np.zeros((n, n), dtype=np.int64)
    rep[:k, :k] = rep[k:2 * k, k:2 * k] = block
    return [rng.integers(0, p, size=(n, n)), low, rep]


@pytest.mark.parametrize("p", [2, 3, 101, 1048573])
def test_matrix_polynomials_match_plain_int_references(p, monkeypatch):
    # eval_matrix and min_poly_matrix take every product through ef.matmul:
    # the 5x5 inputs stay on its int64 route, and the 20x20 ones, whose
    # products reach ef.MATMUL_FLOAT_WORK multiply-adds, take float64 as well
    assert 5 ** 3 < ef.MATMUL_FLOAT_WORK <= 20 ** 3
    routes, matmul = set(), np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: routes.add(a.dtype) or matmul(a, b))
    rng = np.random.default_rng(p)
    for n in (5, 20):
        for mat in _test_matrices(p, n, rng):
            ints = mat.tolist()
            mu = fppoly.min_poly_matrix(mat, p)
            assert mu == _min_poly_reference(ints, p)
            f = rng.integers(0, p, size=n + 2).tolist()
            assert fppoly.eval_matrix(f, mat, p).tolist() == _eval_reference(f, ints, p)
            assert not fppoly.eval_matrix(mu, mat, p).any()
    assert routes == {np.dtype(np.int64), np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# factor, gcd and divmod_poly against sympy's Poly over GF(p)

_x = symbols("x")


def _sym(f, p):
    return Poly(list(reversed([int(c) for c in f])) or [0], _x, modulus=p)


def _coeffs(poly, p):
    return fppoly.trim([int(c) % p for c in reversed(poly.all_coeffs())])


def _oracle_polys(p, seed):
    """Random polynomials of degree 0-10, products with repeated factors, and
    (for p = 2, 3) p-th powers, which reach the p-th root branch of factor."""
    rng = np.random.default_rng(seed)
    out = [np.append(rng.integers(0, p, size=d), int(rng.integers(1, p)))
           for d in range(11)]
    for _ in range(12):
        q = np.append(rng.integers(0, p, size=int(rng.integers(1, 4))), 1)
        r = np.append(rng.integers(0, p, size=int(rng.integers(1, 3))), 1)
        out.append(np.convolve(np.convolve(q, q), r) % p)
    if p < 5:
        for _ in range(6):
            q = np.append(rng.integers(0, p, size=int(rng.integers(1, 10 // p))), 1)
            qp = q
            for _ in range(p - 1):
                qp = np.convolve(qp, q) % p
            out.append(qp)
            out.append(np.convolve(qp, [int(rng.integers(p)), 1]) % p)
    return [f.tolist() for f in out]


@pytest.mark.parametrize("p", [2, 3, 101])
def test_factor_matches_sympy(p):
    rng = np.random.default_rng(p)
    for f in _oracle_polys(p, 100 + p):
        got = sorted((tuple(q), e) for q, e in fppoly.factor(f, p, rng))
        _, ref = _sym(f, p).factor_list()
        want = sorted((tuple(fppoly.monic(_coeffs(q, p), p)), e) for q, e in ref)
        assert got == want


@pytest.mark.parametrize("p", [2, 3, 101])
def test_gcd_and_divmod_match_sympy(p):
    polys = _oracle_polys(p, 200 + p)
    for f, g in zip(polys, polys[3:] + polys[:3]):
        want_g = _sym(f, p).gcd(_sym(g, p))
        assert np.array_equal(fppoly.gcd(f, g, p), fppoly.monic(_coeffs(want_g, p), p))
        q, r = fppoly.divmod_poly(f, g, p)
        want_q, want_r = _sym(f, p).div(_sym(g, p))
        assert np.array_equal(q, _coeffs(want_q, p))
        assert np.array_equal(r, _coeffs(want_r, p))


# ---------------------------------------------------------------------------
# factor's output and its random draws, pinned: the equal-degree stage must
# draw rng.integers(0, p, size=n) exactly as before, or the shared generator
# (and with it every later decomposition) would change


def _pinned_polys():
    out = []
    for p in (2, 3, 101):
        rng = np.random.default_rng(1000 + p)
        for _ in range(8):
            f = np.array([1], dtype=np.int64)
            for _ in range(int(rng.integers(1, 4))):
                q = np.append(rng.integers(0, p, size=int(rng.integers(1, 4))), 1)
                for _ in range(int(rng.integers(1, 4))):
                    f = np.convolve(f, q) % p
            out.append((p, f.tolist()))
    return out


PINNED = [
    ([([1, 0, 1, 1], 2), ([1, 1], 6)], 1798679648),
    ([([0, 1], 6)], 641987627),
    ([([1, 1, 0, 1], 2)], 1091818758),
    ([([0, 1], 3), ([1, 1], 1), ([1, 1, 1], 2)], 1303509380),
    ([([0, 1], 3)], 1789690171),
    ([([0, 1], 7), ([1, 1], 2)], 1632340338),
    ([([0, 1], 3), ([1, 1], 1)], 1497525946),
    ([([0, 1], 7), ([1, 1], 3)], 757065744),
    ([([1, 1], 1)], 267585715),
    ([([2, 1, 1], 3)], 817091929),
    ([([1, 1], 2), ([2, 1], 11)], 921743247),
    ([([0, 1], 3), ([1, 1], 3)], 806208500),
    ([([1, 1], 1), ([2, 2, 1], 1)], 734122772),
    ([([2, 1], 3), ([2, 1, 1], 2), ([2, 2, 1], 3)], 2034092794),
    ([([0, 1], 7), ([1, 1], 5), ([1, 0, 1], 1)], 608131280),
    ([([0, 1], 6), ([1, 0, 1], 1), ([1, 1], 1), ([2, 1], 4)], 441961454),
    ([([37, 1], 3), ([78, 9, 1], 3)], 107980197),
    ([([38, 1], 3), ([49, 1], 2), ([55, 1], 3), ([76, 1], 2), ([57, 75, 1], 2),
      ([84, 24, 1], 2)], 367399177),
    ([([9, 1], 1), ([11, 1], 1), ([79, 1], 1), ([66, 91, 1], 3)], 1711330743),
    ([([9, 1], 2), ([64, 43, 73, 1], 1)], 402196132),
    ([([18, 1], 1), ([75, 1], 2)], 754170373),
    ([([40, 1], 2)], 2099789222),
    ([([98, 86, 1], 3)], 1336664629),
    ([([17, 1], 2), ([80, 1], 2), ([83, 1], 2)], 1768393307),
]


def test_factor_output_and_draws_pinned():
    for i, ((p, f), (factors, draw)) in enumerate(zip(_pinned_polys(), PINNED)):
        rng = np.random.default_rng([p, i])
        got = fppoly.factor(f, p, rng)
        assert all(type(c) is int for q, _ in got for c in q)
        assert got == factors
        assert int(rng.integers(0, 2 ** 31)) == draw


def _assert_closed_form_is_the_polynomial_path(f, p, seed):
    # the same factors, and the rng left in the same state; a linear f is
    # its own monic factor, with no draw
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = fppoly.factor(f, p, got_rng)
    assert got == fppoly._factor_by_polynomials(f, p, want_rng), (f, p)
    assert all(type(c) is int for q, _ in got for c in q)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state, (f, p)
    if len(f) == 2:
        assert got == [(fppoly.monic(f, p), 1)], (f, p)
        assert got_rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("p", [3, 5, 7])
def test_linear_and_quadratic_factors_match_the_polynomial_path_exhaustively(p):
    # every monic linear and quadratic over F_p, each with two rng streams
    polys = [[c, 1] for c in range(p)] + [[c0, c1, 1] for c0 in range(p) for c1 in range(p)]
    for i, f in enumerate(polys):
        for seed in (i, [p, i]):
            _assert_closed_form_is_the_polynomial_path(f, p, seed)


@pytest.mark.parametrize("p", [17, 41, 101, 65537])
def test_linear_and_quadratic_factors_match_the_polynomial_path_at_random(p):
    # 17 and 41 are 1 mod 8, so Tonelli-Shanks runs its loop; inputs need
    # not be monic.  Both roots in F_p must come up, or the draws go untested.
    gen = np.random.default_rng(p)
    split = 0
    for i in range(600):
        f = gen.integers(0, p, size=2 + i % 2).tolist()
        f[-1] = int(gen.integers(1, p))
        _assert_closed_form_is_the_polynomial_path(f, p, i)
        split += len(fppoly.factor(f, p, np.random.default_rng(i))) == 2
    assert split > 100
