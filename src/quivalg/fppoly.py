"""Univariate polynomial arithmetic and factorization over F_p.

A polynomial is a Python int list, coefficients low-to-high, reduced mod p
and trimmed (no trailing zero; [] is the zero polynomial).  Every function
takes and returns that form.  The inputs are small, mostly quadratics, so
plain ints beat per-call numpy overhead.
Factorization is squarefree + distinct-degree + Cantor-Zassenhaus; the
equal-degree stage draws from a caller-supplied generator so decomposition
runs are reproducible per seed.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# arithmetic


def trim(f: list[int]) -> list[int]:
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def degree(f: list[int]) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def monic(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    # the leading coefficient is a product of two units, so nothing to trim
    return [c % p for c in out]


def divmod_poly(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
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


def gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, divmod_poly(f, g, p)[1]
    return monic(f, p)


def _add(f: list[int], g: list[int], p: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return trim([(a + b) % p for a, b in zip(f, g + [0] * (len(f) - len(g)))])


def _deriv(f: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(f)][1:])


def _pow_mod(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    base = divmod_poly(base, modulus, p)[1]
    while e:
        if e & 1:
            result = divmod_poly(mul(result, base, p), modulus, p)[1]
        e >>= 1
        if e:
            base = divmod_poly(mul(base, base, p), modulus, p)[1]
    return result


def _sub_const(f: list[int], c: int, p: int) -> list[int]:
    out = f[:] if f else [0]
    out[0] = (out[0] - c) % p
    return trim(out)


def _sub_x(f: list[int], p: int) -> list[int]:
    out = f + [0] * (2 - len(f))
    out[1] = (out[1] - 1) % p
    return trim(out)


def _pth_root(f: list[int], p: int) -> list[int]:
    # over F_p the Frobenius is the identity on coefficients
    return trim(f[::p])


# ---------------------------------------------------------------------------
# factorization


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
        g = gcd(_sub_x(h, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = divmod_poly(f, g, p)[0]
            h = divmod_poly(h, f, p)[1]
    return out


def _equal_degree(f: list[int], d: int, p: int, rng) -> list[list[int]]:
    """Cantor-Zassenhaus on a squarefree product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [monic(f, p)]
    while True:
        a = trim(rng.integers(0, p, size=n).tolist())
        if len(a) < 2:
            continue
        g = gcd(a, f, p)
        if 0 < len(g) - 1 < n:
            break
        if p == 2:
            b: list[int] = []
            t = divmod_poly(a, f, p)[1]
            for _ in range(d):
                b = _add(b, t, p)
                t = _pow_mod(t, 2, f, p)
            g = gcd(b, f, p)
        else:
            b = _pow_mod(a, (p ** d - 1) // 2, f, p)
            g = gcd(_sub_const(b, 1, p), f, p)
        if 0 < len(g) - 1 < n:
            break
    q1 = divmod_poly(f, g, p)[0]
    return _equal_degree(g, d, p, rng) + _equal_degree(q1, d, p, rng)


def factor(f: list[int], p: int, rng) -> list[tuple[list[int], int]]:
    """Full factorization of f into (monic irreducible, multiplicity) pairs."""
    if len(f) < 2:
        return []
    factors: list[tuple[list[int], int]] = []
    work = monic(f, p)
    while len(work) > 1:
        d = _deriv(work, p)
        if not d:
            # work is a p-th power: merge its root's factors, sorted by coefficients
            merged: dict[tuple, int] = {}
            for q, e in factors:
                merged[tuple(q)] = merged.get(tuple(q), 0) + e
            for q, e in factor(_pth_root(work, p), p, rng):
                merged[tuple(q)] = merged.get(tuple(q), 0) + e * p
            return [(list(k), e) for k, e in sorted(merged.items())]
        sf = divmod_poly(work, gcd(work, d, p), p)[0]
        for part, deg_d in _distinct_degree(monic(sf, p), p):
            for q in _equal_degree(part, deg_d, p, rng):
                e = 0
                while True:
                    quo, rem = divmod_poly(work, q, p)
                    if rem:
                        break
                    work = quo
                    e += 1
                factors.append((q, e))
    factors.sort(key=lambda qe: (len(qe[0]), qe[0]))
    return factors


def is_irreducible(f: list[int], p: int) -> bool:
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
        if len(gcd(h, f, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# matrices


def eval_matrix(f: list[int], mat: np.ndarray, p: int) -> np.ndarray:
    """Evaluate f at a square matrix (Horner), mod p."""
    n = mat.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(f):
        out = (out @ mat + c * np.eye(n, dtype=np.int64)) % p
    return out


def krylov_minpoly(one: np.ndarray, step, p: int, max_degree: int) -> list[int]:
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
            return w[size: size + k + 1].tolist()
        pc = int(nz[0])
        w = w * pow(int(w[pc]), p - 2, p) % p
        if k:
            rows[:k] = (rows[:k] - np.outer(rows[:k, pc], w)) % p
        rows[k] = w
        pivots.append(pc)
    raise AssertionError("minimal polynomial not found within the degree bound")


def min_poly_matrix(mat: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of a square matrix over F_p."""
    n = mat.shape[0]
    if n == 0:
        return [1]
    return krylov_minpoly(np.eye(n, dtype=np.int64), lambda cur: (cur @ mat) % p, p, n)
