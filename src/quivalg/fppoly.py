"""Univariate polynomial arithmetic and factorization over F_p.

The public functions take and return int64 numpy arrays, coefficients
low-to-high, trimmed.  The work happens on Python int lists in the same
layout (the `_` functions): the inputs are small, mostly quadratics, so
per-call numpy overhead would set the time, not arithmetic.
Factorization is squarefree + distinct-degree + Cantor-Zassenhaus; the
equal-degree stage draws from a caller-supplied generator so decomposition
runs are reproducible per seed.
"""

from __future__ import annotations

import numpy as np


def _ints(f) -> list[int]:
    return np.asarray(f, dtype=np.int64).tolist()


def _arr(f: list[int]) -> np.ndarray:
    return np.array(f, dtype=np.int64)


def _poly(f, p: int) -> list[int]:
    """An int64 array (or int sequence) as a reduced, trimmed int list."""
    return _trim([c % p for c in _ints(f)])


# ---------------------------------------------------------------------------
# arithmetic on int lists: every argument and result is reduced mod p and
# trimmed (no trailing zero coefficient); the public functions reduce once


def _trim(f: list[int]) -> list[int]:
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def _monic(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    # the leading coefficient is a product of two units, so nothing to trim
    return [c % p for c in out]


def _divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - dg, 0)
    while len(f) > dg:
        shift = len(f) - 1 - dg
        c = f[-1] * inv % p
        q[shift] = c
        for i, b in enumerate(g, shift):
            f[i] = (f[i] - c * b) % p
        while f and not f[-1]:
            f.pop()
    return q, f


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _add(f: list[int], g: list[int], p: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return _trim([(a + b) % p for a, b in zip(f, g + [0] * (len(f) - len(g)))])


def _deriv(f: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(f)][1:])


def _pow_mod(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    base = _divmod(base, modulus, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), modulus, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), modulus, p)[1]
    return result


def _sub_const(f: list[int], c: int, p: int) -> list[int]:
    out = f[:] if f else [0]
    out[0] = (out[0] - c) % p
    return _trim(out)


def _sub_x(f: list[int], p: int) -> list[int]:
    out = f + [0] * (2 - len(f))
    out[1] = (out[1] - 1) % p
    return _trim(out)


def _pth_root(f: list[int], p: int) -> list[int]:
    # over F_p the Frobenius is the identity on coefficients
    return _trim(f[::p])


# ---------------------------------------------------------------------------
# factorization on int lists


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split a squarefree monic f into (product-of-degree-d-factors, d) parts."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((f, len(f) - 1))
            break
        h = _pow_mod(h, p, f, p)
        g = _gcd(_sub_x(h, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    return out


def _equal_degree(f: list[int], d: int, p: int, rng) -> list[list[int]]:
    """Cantor-Zassenhaus on a squarefree product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [_monic(f, p)]
    while True:
        a = _trim(rng.integers(0, p, size=n).tolist())
        if len(a) < 2:
            continue
        g = _gcd(a, f, p)
        if 0 < len(g) - 1 < n:
            break
        if p == 2:
            b: list[int] = []
            t = _divmod(a, f, p)[1]
            for _ in range(d):
                b = _add(b, t, p)
                t = _pow_mod(t, 2, f, p)
            g = _gcd(b, f, p)
        else:
            b = _pow_mod(a, (p ** d - 1) // 2, f, p)
            g = _gcd(_sub_const(b, 1, p), f, p)
        if 0 < len(g) - 1 < n:
            break
    q1 = _divmod(f, g, p)[0]
    return _equal_degree(g, d, p, rng) + _equal_degree(q1, d, p, rng)


def _factor(f: list[int], p: int, rng) -> list[tuple[list[int], int]]:
    """(irreducible, multiplicity) pairs of monic f."""
    if len(f) < 2:
        return []
    factors: list[tuple[list[int], int]] = []
    work = f
    while len(work) > 1:
        d = _deriv(work, p)
        if not d:
            # work is a p-th power: merge its root's factors, sorted by coefficients
            merged: dict[tuple, int] = {}
            for q, e in factors:
                merged[tuple(q)] = merged.get(tuple(q), 0) + e
            for q, e in _factor(_pth_root(work, p), p, rng):
                merged[tuple(q)] = merged.get(tuple(q), 0) + e * p
            return [(list(k), e) for k, e in sorted(merged.items())]
        sf = _divmod(work, _gcd(work, d, p), p)[0]
        for part, deg_d in _distinct_degree(_monic(sf, p), p):
            for q in _equal_degree(part, deg_d, p, rng):
                e = 0
                while True:
                    quo, rem = _divmod(work, q, p)
                    if rem:
                        break
                    work = quo
                    e += 1
                factors.append((q, e))
    factors.sort(key=lambda qe: (len(qe[0]), qe[0]))
    return factors


def _is_irreducible(f: list[int], p: int) -> bool:
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if _sub_x(_pow_mod([0, 1], p ** d, f, p), p):
        return False
    primes = {q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))}
    for q in primes:
        h = _sub_x(_pow_mod([0, 1], p ** (d // q), f, p), p)
        if len(_gcd(h, f, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# public functions on int64 arrays


def trim(f: np.ndarray) -> np.ndarray:
    return _arr(_trim(_ints(f)))


def degree(f: np.ndarray) -> int:
    return len(_trim(_ints(f))) - 1  # -1 for the zero polynomial


def monic(f: np.ndarray, p: int) -> np.ndarray:
    return _arr(_monic(_poly(f, p), p))


def mul(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    return _arr(_mul(_poly(f, p), _poly(g, p), p))


def divmod_poly(f: np.ndarray, g: np.ndarray, p: int):
    q, r = _divmod(_poly(f, p), _poly(g, p), p)
    return _arr(q), _arr(r)


def mod_poly(f, g, p):
    return _arr(_divmod(_poly(f, p), _poly(g, p), p)[1])


def gcd(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    return _arr(_gcd(_poly(f, p), _poly(g, p), p))


def add(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    return _arr(_add(_poly(f, p), _poly(g, p), p))


def factor(f: np.ndarray, p: int, rng) -> list[tuple[np.ndarray, int]]:
    """Full factorization of monic f into (irreducible, multiplicity) pairs."""
    return [(_arr(q), e) for q, e in _factor(_monic(_poly(f, p), p), p, rng)]


def is_irreducible(f: np.ndarray, p: int) -> bool:
    return _is_irreducible(_monic(_poly(f, p), p), p)


def eval_matrix(f: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """Evaluate f at a square matrix (Horner), mod p."""
    n = mat.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(_poly(f, p)):
        out = (out @ mat + c * np.eye(n, dtype=np.int64)) % p
    return out


def krylov_minpoly(one: np.ndarray, step, p: int, max_degree: int) -> np.ndarray:
    """Least monic f with f(x) applied to the nonzero vector `one` equal to zero.

    step(v) applies x to v over F_p.  Vectors may have any shape; they are
    compared flattened.  max_degree must bound the dimension of the Krylov
    space of `one`.

    The Krylov vectors v_0 = one, v_k = x v_{k-1} are kept in reduced row
    echelon form, each row followed by its coordinates in the v_j, so every
    new vector is reduced once; the first v_k that reduces to zero gives the
    relation v_k - sum c_j v_j = 0, whose coefficients are the answer.
    """
    size = one.size
    rows = np.zeros((max_degree + 1, size + max_degree + 1), dtype=np.int64)
    pivots: list[int] = []
    cur = one
    for k in range(max_degree + 1):
        if k:
            cur = step(cur)
        w = np.zeros(rows.shape[1], dtype=np.int64)
        w[:size] = cur.reshape(-1)
        w[size + k] = 1
        if k:
            w = (w - w[pivots] @ rows[:k]) % p
        nz = np.flatnonzero(w[:size])
        if not nz.size:
            return w[size: size + k + 1]
        pc = int(nz[0])
        w = w * pow(int(w[pc]), p - 2, p) % p
        if k:
            rows[:k] = (rows[:k] - np.outer(rows[:k, pc], w)) % p
        rows[k] = w
        pivots.append(pc)
    raise AssertionError("minimal polynomial not found within the degree bound")


def min_poly_matrix(mat: np.ndarray, p: int) -> np.ndarray:
    """Monic minimal polynomial of a square matrix over F_p."""
    n = mat.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    return krylov_minpoly(np.eye(n, dtype=np.int64), lambda cur: (cur @ mat) % p, p, n)
