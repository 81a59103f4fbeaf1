import numpy as np

from quivalg import fppoly


def _poly(*coeffs):
    return np.array(coeffs, dtype=np.int64)


def test_divmod_and_gcd():
    p = 101
    f = fppoly.mul(_poly(1, 1), _poly(2, 1), p)  # (x+1)(x+2)
    q, r = fppoly.divmod_poly(f, _poly(1, 1), p)
    assert not r.size
    assert np.array_equal(fppoly.monic(q, p), _poly(2, 1))
    g = fppoly.gcd(f, _poly(1, 1), p)
    assert np.array_equal(g, _poly(1, 1))


def test_factor_reassembles():
    p = 101
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        f = fppoly.monic(np.concatenate([rng.integers(0, p, size=deg),
                                         [1]]).astype(np.int64), p)
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
            assert not fppoly.mod_poly(mu, nu, p).size  # it divides mu
