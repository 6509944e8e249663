"""Integral lattices of integer quadratic forms: arithmetic mod p,
congruence diagonalization, minimization and LLL reduction.

Every matrix that enters or leaves this module is an integer matrix.  A
rational block g/d enters as its numerator g, since a basis that
diagonalizes or reduces g does the same for g/d, and a basis leaves as
integer columns over one denominator.

The entries of a plain diagonalization are ratios of leading minors; their
squarefree parts carry many primes that have nothing to do with the form.
Every such prime is one more place for the local conditions of
quadratic.py, a larger modulus for its auxiliary prime, and larger numbers
to factor in Legendre's descent: on dense 11-variable blocks the descent
then met 25-digit semiprimes.  So before it builds anything in general,
quadratic.pinch_similarity takes the integral lattice of the block,
removes square factors of its determinant prime by prime (minimization,
Simon, Math. Comp. 74, 2005), and LLL-reduces the result under a positive
majorant of the form; the diagonal entries in that basis are small.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .linalg import ModularSpan, gram


def diagonalize(g: list[list[int]]) -> tuple[list[int], list[list[int]], list[int]]:
    """Congruence diagonalization of a nondegenerate symmetric integer
    matrix g, fraction-free: returns (h, b, s), column j of the basis being
    the integer column b[j] over the integer scale s[j] > 0, and h[j] the
    integer b[j]^T g b[j], so that the basis diagonalizes g with entries
    h[j]/s[j]^2.  The basis has determinant +-1.  The working matrix is the
    integer Gram matrix of the columns b; each column step replaces b[dst]
    by x*b[dst] + y*b[src] and s[dst] by x*s[dst], which moves the column by
    (y*s[src]/(x*s[dst])) times column src, and then divides the column and
    its scale by their common content, taken with the sign of the scale."""
    size = len(g)
    a = [row[:] for row in g]
    b = [[int(i == j) for i in range(size)] for j in range(size)]
    s = [1] * size

    def combine(dst, src, x, y):
        row = [x * u + y * v for u, v in zip(a[dst], a[src])]
        row[dst] = x * row[dst] + y * row[src]
        col = [x * u + y * v for u, v in zip(b[dst], b[src])]
        h = gcd(x * s[dst], *col) * (-1 if x * s[dst] < 0 else 1)
        row = [v // h for v in row]
        row[dst] //= h
        b[dst], s[dst], a[dst] = [v // h for v in col], x * s[dst] // h, row
        for r, v in zip(a, row):
            r[dst] = v

    def swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        a[i], a[j] = a[j], a[i]
        b[i], b[j] = b[j], b[i]
        s[i], s[j] = s[j], s[i]

    for t in range(size):
        if a[t][t] == 0:
            other = next((j for j in range(t + 1, size) if a[j][j]), None)
            if other is not None:
                swap(t, other)
            else:
                off = next((j for j in range(t + 1, size) if a[t][j]), None)
                if off is None:
                    raise ValueError("degenerate block in congruence diagonalization")
                # column t plus column off
                combine(t, off, s[off], s[t])
        for j in range(t + 1, size):
            if a[t][j]:
                # column j minus (a_tj*s_t/(a_tt*s_j)) times column t
                combine(j, t, a[t][t], -a[t][j])
    return [a[t][t] for t in range(size)], b, s


def split_power(a: int, p: int) -> tuple[int, int]:
    """(v_p(a), a / p^v_p(a))."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def legendre_symbol(u: int, p: int) -> int:
    """(u/p) for an odd prime p not dividing u, by Euler's criterion."""
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A root of x^2 = a mod p, by Tonelli-Shanks."""
    a %= p
    if a == 0 or p == 2:
        return a
    if legendre_symbol(a, p) != 1:
        raise RuntimeError("internal: Legendre descent met a non-residue")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if legendre_symbol(z, p) == -1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _isotropic_mod(a: list[list[int]], p: int) -> list[int] | None:
    """A nonzero c with c^T a c = 0 mod p, or None when there is none."""
    r = len(a)
    if p == 2:
        # c^T a c = sum a_ii c_i mod 2: a linear form
        even = next((i for i in range(r) if a[i][i] % 2 == 0), None)
        if even is not None:
            return [int(i == even) for i in range(r)]
        return [int(i < 2) for i in range(r)] if r >= 2 else None
    # diagonalize mod p by symmetric elimination, keeping the basis
    a = [[v % p for v in row] for row in a]
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    diag = []
    for t in range(r):
        if a[t][t] == 0:
            return basis[t]
        inv = pow(a[t][t], -1, p)
        for j in range(t + 1, r):
            f = a[j][t] * inv % p
            if f:
                a[j] = [(v - f * w) % p for v, w in zip(a[j], a[t])]
                for row in a:
                    row[j] = (row[j] - f * row[t]) % p
                basis[j] = [(v - f * w) % p for v, w in zip(basis[j], basis[t])]
        diag.append(a[t][t])

    def combine(coeffs):
        return [sum(c * basis[t][i] for t, c in enumerate(coeffs)) % p for i in range(r)]

    if r == 1:
        return None
    if r == 2:
        if legendre_symbol(-diag[0] * diag[1], p) != 1:
            return None
        # a0*x^2 + a1 = 0
        return combine([sqrt_mod_prime(-diag[1] * pow(diag[0], -1, p), p), 1])
    # a0*x^2 + a1*y^2 = -a2 has a solution with y found for some x
    inv1 = pow(diag[1], -1, p)
    for x in range(p):
        rhs = (-diag[2] - diag[0] * x * x) * inv1 % p
        if rhs == 0 or legendre_symbol(rhs, p) == 1:
            return combine([x, sqrt_mod_prime(rhs, p), 1] + [0] * (r - 3))
    raise RuntimeError("internal: no isotropic vector of a ternary form mod p")


def _rebase(g, basis, new, p: int = 1):
    """The form and the basis on the lattice spanned by the integer rows of
    new (coordinates in the current basis), with the last row taken divided
    by p.  A basis is (cols, den): integer columns over one common
    denominator, so dividing the last column by p multiplies den and every
    other column by p."""
    cols, den = basis
    h = gram(g, new)
    rows = list(zip(*cols))
    cols = [[sum(x * y for x, y in zip(r, v) if y) for r in rows] for v in new]
    if p != 1:
        for row in h:
            row[-1] //= p
        h[-1] = [v // p for v in h[-1]]
        cols = [[v * p for v in col] for col in cols[:-1]] + cols[-1:]
        den *= p
    return h, (cols, den)


def _minimize(g: list[list[int]], det: int,
              primes) -> tuple[list[list[int]], tuple[list[list[int]], int]]:
    """(h, (cols, den)): a rational basis of a lattice on which a rational
    multiple h of the form g (of determinant det) is integral, as integer
    columns over one common denominator, the product of the primes divided
    out (see _rebase), with the square factors of det removed wherever the
    local structure at p allows: where g vanishes mod p on a lattice,
    divide by p; where it has an isotropic vector x mod p^2 inside its
    kernel mod p, adjoin x/p.  primes must contain every prime factor of
    det."""
    k = len(g)
    basis = [[int(i == j) for i in range(k)] for j in range(k)], 1
    for p in primes:
        while split_power(det, p)[0] >= 2:
            span = ModularSpan(k, p)
            for row in g:
                span.insert(dict(enumerate(row)))
            ker, free = span.kernel_rows()
            r = len(ker)
            if r == k:
                g = [[v // p for v in row] for row in g]
                det //= p ** k
                continue
            if 2 * r > k:
                # g vanishes mod p on ker + p*Z^k
                new = ker + [[p * int(i == j) for i in range(k)]
                             for j in range(k) if j not in free]
                g, basis = _rebase(g, basis, new)
                g = [[v // p for v in row] for row in g]
                det //= p ** (2 * r - k)
                continue
            a = [[v // p for v in row] for row in gram(g, ker)]
            c = _isotropic_mod(a, p)
            if c is None:
                break
            x = [sum(ci * vec[i] for ci, vec in zip(c, ker)) % p for i in range(k)]
            i = next(i for i, v in enumerate(x) if v)
            inv = pow(x[i], -1, p)
            # the lattice Z^k + Z*(x/p): e_i gives way to x/p, placed last
            new = [[int(a == b) for a in range(k)] for b in range(k) if b != i]
            new.append([v * inv % p for v in x])
            g, basis = _rebase(g, basis, new, p)
            det //= p * p
    return g, basis


def _lll(g: list[list[int]]) -> list[list[int]]:
    """Integral LLL (delta = 3/4; Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 2.6.7) of Z^k under the positive definite
    integral Gram matrix g; the new basis as integer rows."""
    k = len(g)
    h = [[int(i == j) for j in range(k)] for i in range(k)]
    lam = [[0] * k for _ in range(k)]
    d = [1, g[0][0]] + [0] * (k - 1)  # d[i + 1] belongs to vector i

    def reduce(a, b):
        if 2 * abs(lam[a][b]) > d[b + 1]:
            q = (2 * lam[a][b] + d[b + 1]) // (2 * d[b + 1])
            h[a] = [x - q * y for x, y in zip(h[a], h[b])]
            lam[a][b] -= q * d[b + 1]
            for i in range(b):
                lam[a][i] -= q * lam[b][i]

    t, seen = 1, 0
    while t < k:
        if t > seen:
            seen = t
            gh = [sum(map(mul, row, h[t])) for row in g]  # g is symmetric
            for j in range(t + 1):
                u = sum(map(mul, h[j], gh))
                for i in range(j):
                    u = (d[i + 1] * u - lam[t][i] * lam[j][i]) // d[i]
                if j < t:
                    lam[t][j] = u
                else:
                    d[t + 1] = u
        reduce(t, t - 1)
        if 4 * d[t + 1] * d[t - 1] < 3 * d[t] ** 2 - 4 * lam[t][t - 1] ** 2:
            h[t], h[t - 1] = h[t - 1], h[t]
            for j in range(t - 1):
                lam[t][j], lam[t - 1][j] = lam[t - 1][j], lam[t][j]
            m = lam[t][t - 1]
            b = (d[t - 1] * d[t + 1] + m * m) // d[t]
            for i in range(t + 1, seen + 1):
                old = lam[i][t]
                lam[i][t] = (d[t + 1] * lam[i][t - 1] - m * old) // d[t]
                lam[i][t - 1] = (b * old + m * lam[i][t]) // d[t + 1]
            d[t] = b
            t = max(1, t - 1)
        else:
            for b in range(t - 2, -1, -1):
                reduce(t, b)
            t += 1
    return h


def reduced_basis(g: list[list[int]], det: int,
                  primes: list[int]) -> tuple[list[list[int]], int]:
    """(cols, den): a basis, as integer columns over one denominator, in
    which the nondegenerate symmetric integer matrix g (of determinant det)
    has small minors: the integral lattice of g, minimized and LLL-reduced.
    primes must contain every prime factor of det."""
    g, basis = _minimize(g, det, primes)
    # LLL under the majorant sum |d_t| * y_t^2 of g = sum d_t * y_t^2, the
    # y_t being the coordinates of a diagonal basis: by Cauchy-Binet each
    # leading minor of g is at most the majorant's in absolute value, and
    # the majorant's stay small in an LLL-reduced basis.  For the integer
    # columns b_t of diagonalize, with h_t = b_t^T g b_t, the inverse of
    # B is diag(h)^-1 B^T g, so the majorant B^-T |diag(h)| B^-1 (the
    # scales of the columns cancel) is sum_t (g b_t)(g b_t)^T / |h_t|:
    # integers over lcm |h_t|, divided by their common content with it
    h, b, _ = diagonalize(g)
    den = lcm(*h)
    images = [(den // abs(v), [sum(x * y for x, y in zip(row, col) if y) for row in g])
              for v, col in zip(h, b)]
    majorant = [[sum(w * y[i] * y[j] for w, y in images) for j in range(len(g))]
                for i in range(len(g))]
    content = gcd(den, *(v for row in majorant for v in row))
    return _rebase(g, basis, _lll([[v // content for v in row] for row in majorant]))[1]
