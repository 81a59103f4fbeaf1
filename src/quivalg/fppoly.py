"""Univariate polynomial arithmetic and factorization over F_p.

Polynomials are int64 numpy arrays, coefficients low-to-high, trimmed.
Factorization is squarefree + distinct-degree + Cantor-Zassenhaus; the
equal-degree stage draws from a caller-supplied generator so decomposition
runs are reproducible per seed.
"""

from __future__ import annotations

import numpy as np

from . import exactfield as ef


def trim(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.int64)
    nz = np.nonzero(f)[0]
    return f[: nz[-1] + 1] if nz.size else np.zeros(0, dtype=np.int64)


def degree(f: np.ndarray) -> int:
    f = trim(f)
    return len(f) - 1  # -1 for the zero polynomial


def monic(f: np.ndarray, p: int) -> np.ndarray:
    f = trim(f % p)
    if not f.size:
        return f
    inv = pow(int(f[-1]), p - 2, p)
    return (f * inv) % p


def mul(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    f, g = trim(f), trim(g)
    if not f.size or not g.size:
        return np.zeros(0, dtype=np.int64)
    return trim(np.convolve(f, g) % p)


def divmod_poly(f: np.ndarray, g: np.ndarray, p: int):
    f = trim(f % p).copy()
    g = trim(g % p)
    if not g.size:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    inv = pow(int(g[-1]), p - 2, p)
    q = np.zeros(max(len(f) - dg, 0), dtype=np.int64)
    while len(f) - 1 >= dg and f.size:
        shift = len(f) - 1 - dg
        c = (int(f[-1]) * inv) % p
        q[shift] = c
        f[shift: shift + dg + 1] = (f[shift: shift + dg + 1] - c * g) % p
        f = trim(f)
    return trim(q), f


def mod_poly(f, g, p):
    return divmod_poly(f, g, p)[1]


def gcd(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    f, g = trim(f % p), trim(g % p)
    while g.size:
        f, g = g, mod_poly(f, g, p)
    return monic(f, p)


def deriv(f: np.ndarray, p: int) -> np.ndarray:
    f = trim(f)
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    return trim((f[1:] * np.arange(1, len(f))) % p)


def pow_mod(base: np.ndarray, e: int, modulus: np.ndarray, p: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = mod_poly(base, modulus, p)
    while e:
        if e & 1:
            result = mod_poly(mul(result, base, p), modulus, p)
        base = mod_poly(mul(base, base, p), modulus, p)
        e >>= 1
    return result


X = np.array([0, 1], dtype=np.int64)


def add(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=np.int64)
    out[: len(f)] += f
    out[: len(g)] += g
    return trim(out % p)


def _sub_const(f: np.ndarray, c: int, p: int) -> np.ndarray:
    out = f.copy() if f.size else np.zeros(1, dtype=np.int64)
    out[0] = (out[0] - c) % p
    return trim(out)


def _sub_x(f: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(max(len(f), 2), dtype=np.int64)
    out[: len(f)] = f
    out[1] = (out[1] - 1) % p
    return trim(out)


def _pth_root(f: np.ndarray, p: int) -> np.ndarray:
    # over F_p the Frobenius is the identity on coefficients
    return trim(f[::p].copy())


def _distinct_degree(f: np.ndarray, p: int):
    """Split a squarefree monic f into (product-of-degree-d-factors, d) parts."""
    out = []
    h = X.copy()
    d = 0
    f = f.copy()
    while degree(f) > 0:
        d += 1
        if 2 * d > degree(f):
            out.append((f, degree(f)))
            break
        h = pow_mod(h, p, f, p)
        g = gcd(_sub_x(h, p), f, p)
        if degree(g) > 0:
            out.append((g, d))
            f, _ = divmod_poly(f, g, p)
            h = mod_poly(h, f, p)
    return out


def _equal_degree(f: np.ndarray, d: int, p: int, rng) -> list[np.ndarray]:
    """Cantor-Zassenhaus on a squarefree product of degree-d irreducibles."""
    n = degree(f)
    if n == d:
        return [monic(f, p)]
    while True:
        a = trim(rng.integers(0, p, size=n).astype(np.int64))
        if degree(a) < 1:
            continue
        g = gcd(a, f, p)
        if 0 < degree(g) < n:
            break
        if p == 2:
            b = np.zeros(0, dtype=np.int64)
            t = mod_poly(a, f, p)
            for _ in range(d):
                b = add(b, t, p)
                t = pow_mod(t, 2, f, p)
            g = gcd(b, f, p)
        else:
            b = pow_mod(a, (p ** d - 1) // 2, f, p)
            g = gcd(_sub_const(b, 1, p), f, p)
        if 0 < degree(g) < n:
            break
    q1, _ = divmod_poly(f, g, p)
    return _equal_degree(g, d, p, rng) + _equal_degree(q1, d, p, rng)


def factor(f: np.ndarray, p: int, rng) -> list[tuple[np.ndarray, int]]:
    """Full factorization of monic f into (irreducible, multiplicity) pairs."""
    f = monic(f, p)
    if degree(f) <= 0:
        return []
    factors: list[tuple[np.ndarray, int]] = []
    work = f
    while degree(work) > 0:
        d = deriv(work, p)
        if not d.size:
            sub = factor(_pth_root(work, p), p, rng)
            merged = {tuple(q.tolist()): e * p for q, e in sub}
            out: dict[tuple, int] = {}
            for q, e in factors:
                out[tuple(q.tolist())] = out.get(tuple(q.tolist()), 0) + e
            for k, e in merged.items():
                out[k] = out.get(k, 0) + e
            return [(np.array(k, dtype=np.int64), e) for k, e in sorted(out.items())]
        g = gcd(work, d, p)
        sf, _ = divmod_poly(work, g, p)
        for part, deg_d in _distinct_degree(monic(sf, p), p):
            for q in _equal_degree(part, deg_d, p, rng):
                e = 0
                while True:
                    quo, rem = divmod_poly(work, q, p)
                    if rem.size:
                        break
                    work = quo
                    e += 1
                factors.append((q, e))
    factors.sort(key=lambda qe: (degree(qe[0]), tuple(qe[0].tolist())))
    return factors


def is_irreducible(f: np.ndarray, p: int) -> bool:
    f = monic(f, p)
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if _sub_x(pow_mod(X, p ** d, f, p), p).size:
        return False
    primes = {q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))}
    for q in primes:
        h = _sub_x(pow_mod(X, p ** (d // q), f, p), p)
        if degree(gcd(h, f, p)) > 0:
            return False
    return True


def eval_matrix(f: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """Evaluate f at a square matrix (Horner), mod p."""
    n = mat.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(trim(f % p)):
        out = (out @ mat + int(c) * np.eye(n, dtype=np.int64)) % p
    return out


def krylov_minpoly(one: np.ndarray, step, p: int, max_degree: int) -> np.ndarray:
    """Least monic f with f(x) applied to the nonzero vector `one` equal to zero.

    step(v) applies x to v over F_p.  Vectors may have any shape; they are
    compared flattened.  max_degree must bound the dimension of the Krylov
    space of `one`.
    """
    rows = [one.reshape(-1)]
    cur = one
    for k in range(1, max_degree + 1):
        cur = step(cur)
        sol = ef.solve(np.stack(rows).T, cur.reshape(-1, 1), p)
        if sol is not None:
            coeffs = np.zeros(k + 1, dtype=np.int64)
            coeffs[:k] = (-sol[:, 0]) % p
            coeffs[k] = 1
            return trim(coeffs)
        rows.append(cur.reshape(-1))
    raise AssertionError("minimal polynomial not found within the degree bound")


def min_poly_matrix(mat: np.ndarray, p: int) -> np.ndarray:
    """Monic minimal polynomial of a square matrix over F_p."""
    n = mat.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    return krylov_minpoly(np.eye(n, dtype=np.int64), lambda cur: (cur @ mat) % p, p, n)
