import numpy as np
import pytest
from sympy import Poly, symbols

from quivalg import fppoly


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
            # the same routine on a single vector: the local minimal polynomial
            v = rng.integers(0, p, size=n).astype(np.int64)
            v[int(rng.integers(n))] = 1
            nu = fppoly.krylov_minpoly(v, lambda w: (w @ mat) % p, p, n)
            assert nu[-1] == 1 and fppoly.degree(nu) <= n
            assert not (v @ fppoly.eval_matrix(nu, mat, p) % p).any()
            assert fppoly.divmod_poly(mu, nu, p)[1] == []  # it divides mu


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
