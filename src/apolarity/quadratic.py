"""Rational quadratic forms: local invariants, isotropic vectors, and the
similarity test behind the pinch normalization of tangent products.

normalize_tangent_product reaches the pinch form exactly when its residual
block B (the quadric on a complement of the tangency point inside the
hyperplane) is *similar* to the pinch block N: B is congruent over Q to
c*N for some c in Q*.  Similarity, not isometry, is the right test because
the normal form allows x0 -> a*x0 with x1 -> x1/a^2, which scales N by a;
and it is necessary, because B is an invariant of L*Q up to the scalar in
L*Q = (lam*L)*(Q/lam).  N is <1> for n = 2 and H + I_{n-3} for n >= 3,
with H = [[0, 1/2], [1/2, 0]] the hyperbolic plane.  So:

* n = 2: B = <b> is always similar to N, with c = b.
* n = 3: c*H = H for every c, so B must be isotropic: -det B a square.
* n >= 4: B must be isotropic.  By Witt, B = H + B' with B' unique up to
  isometry, of dimension m = n - 3, and B' = c*I_m must hold.  B' must be
  definite and disc B' = -disc B.  For odd m the discriminant fixes c; for
  even m it must be a square, and the Hasse invariants
  s_p(c*I_m) = (c, -1)_p^(m(m-1)/2) fix c prime by prime.  c needs only -1
  and the primes dividing 2*det B.

Each condition is decided by Hasse-Minkowski (Cassels, Rational Quadratic
Forms, ch. 6): B is diagonalized, its entries are reduced to squarefree
integers, and dimension, discriminant, signature and the Hilbert symbols
(a, b)_p at p | 2*det and at infinity are compared.  c = 1 is chosen
whenever it works.

The congruence is then built, not searched for.  An isotropic vector comes
from Legendre's descent on a ternary form; a diagonal form of dimension >= 4
is first cut down to a ternary one by dropping an entry, or by merging two
entries a1, a2 into a value t = a1*x^2 + a2*y^2 they represent such that
<t, a3, ...> stays isotropic.  t's square class is chosen place by place
and realized with one auxiliary prime from Dirichlet's theorem; (x, y)
then come from Legendre's descent on <a1, a2, -t>.  The hyperbolic plane
the vector spans is split off, and c is represented on what is left m
times, each time through an isotropic vector of B'' + <-c>.  Every step is
a rotation of two entries of a diagonal basis, so the basis stays diagonal
and each entry's factorization stays known.  When the plain
diagonalization does not already show the similarity, all of this runs in
a minimized, LLL-reduced basis, where the entries are small.  B comes in as
an integer matrix over one denominator, every vector of the basis is an
integer column over a denominator with an integer value, and the columns
of the congruence leave as integers over one denominator.

Factoring uses trial division, Pollard's rho in Brent's form, and
Miller-Rabin with bases that make it exact below 3.3*10^24.  FACTOR_BUDGET
bounds the rho steps per number and PRIME_SEARCH the search for the
auxiliary prime; running out of either, or meeting a larger probable
prime, raises BudgetExceeded, which never stands for a proven obstruction.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .lattice import (diagonalize, legendre_symbol, reduced_basis, split_power,
                      sqrt_mod_prime)
from .linalg import gram

FACTOR_BUDGET = 200_000
PRIME_SEARCH = 100_000

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_REAL = -1  # the real place, next to the primes


class NotSimilar(Exception):
    """The block is not similar to the pinch block; the message names the
    local invariant that proves it."""


class BudgetExceeded(Exception):
    """A factoring or search bound ran out before the question was decided."""


# -- factoring -----------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, exact below _MR_EXACT_BELOW; n is odd
    and has no prime factor below 1000."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise BudgetExceeded(f"{n} is a probable prime beyond the range where "
                             "the Miller-Rabin bases prove primality")
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite n by Pollard's rho (Brent)."""
    steps = 0
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 64
            steps += 2 * r
            r *= 2
            if steps > FACTOR_BUDGET:
                raise BudgetExceeded(f"factoring {n} took more than "
                                     f"{FACTOR_BUDGET} rho steps")
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise BudgetExceeded(f"no rho sequence split {n}")


# Factorizations met so far in the current pinch_similarity call, including
# those of products assembled from known primes, which are never factored.
_FACTORS: dict[int, tuple[tuple[int, int], ...]] = {}


def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |n| (n != 0) as ascending (prime, exponent)."""
    n = abs(n)
    if n not in _FACTORS:
        _FACTORS[n] = _factor(n)
    return _FACTORS[n]


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < 1000 ** 2 or _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        f = root if root * root == m else _rho(m)
        stack.extend((f, m // f))
    return tuple(sorted(out.items()))


def _primes(n: int) -> list[int]:
    return [p for p, _ in factorint(n)]


def squarefree_part(a, b: int = 1) -> int:
    """The squarefree integer in the square class of the nonzero rational
    a/b, a an integer or a rational and b > 0 an integer: the primes of odd
    exponent in its numerator and denominator in lowest terms."""
    num, den = a.numerator, a.denominator * b
    common = gcd(num, den)
    s = 1
    for part in (num // common, den // common):
        for p, e in factorint(part):
            if e % 2:
                s *= p
    return s if num > 0 else -s


def _class_product(values) -> int:
    """Squarefree class of a product of squarefree integers, without
    factoring the product: primes of odd total multiplicity."""
    odd: set[int] = set()
    sign = 1
    for v in values:
        sign *= 1 if v > 0 else -1
        odd ^= set(_primes(v))
    product = prod(odd)
    _FACTORS.setdefault(product, tuple((p, 1) for p in sorted(odd)))
    return sign * product


def _root(n: int) -> int | None:
    """The positive square root of n when n is a positive square."""
    if n > 0 and (r := isqrt(n)) * r == n:
        return r
    return None


# -- local invariants ------------------------------------------------------------

def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b at a prime p, or at the real
    place when p == -1 (Serre, A Course in Arithmetic, III.1.2)."""
    if p == _REAL:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = split_power(a, p)
    beta, v = split_power(b, p)
    if p == 2:
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        return -1 if (eps_u * eps_v + alpha * om_v + beta * om_u) % 2 else 1
    sign = -1 if alpha * beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= legendre_symbol(u, p)
    if alpha % 2:
        sign *= legendre_symbol(v, p)
    return sign


def _is_local_square(a: int, p: int) -> bool:
    if p == _REAL:
        return a > 0
    v, u = split_power(a, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else legendre_symbol(u, p) == 1


def _hasse(entries: list[int], p: int) -> int:
    return prod(hilbert_symbol(a, b, p) for a, b in combinations(entries, 2))


def _isotropic_at(entries: list[int], p: int) -> bool:
    """Whether the diagonal form represents 0 over Q_p (or R), by rank:
    Serre, A Course in Arithmetic, IV.2.2, Theorem 6."""
    k = len(entries)
    if k < 2:
        return False
    if p == _REAL:
        return min(entries) < 0 < max(entries)
    d = _class_product(entries)
    if k == 2:
        return _is_local_square(-d, p)
    if k == 3:
        return hilbert_symbol(-1, -d, p) == _hasse(entries, p)
    if k == 4:
        return not _is_local_square(d, p) or _hasse(entries, p) == hilbert_symbol(-1, -1, p)
    return True


def _places(entries: list[int]) -> list[int]:
    """The real place, 2, and the odd primes dividing some entry."""
    odd = {p for a in entries for p in _primes(a) if p > 2}
    return [_REAL, 2] + sorted(odd)


def _place_names(places: list[int]) -> str:
    names = ["R" if p == _REAL else f"Q_{p}" for p in places]
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]


def is_isotropic(entries: list[int]) -> bool:
    """Whether the diagonal form with these squarefree entries represents 0
    over Q (Hasse-Minkowski)."""
    return all(_isotropic_at(entries, p) for p in _places(entries))


# -- Legendre's descent ------------------------------------------------------------

def _sqrt_mod(a: int, n: int) -> int:
    """t with t^2 = a mod n and |t| <= n/2, for squarefree n > 1."""
    t, mod = 0, 1
    for p in _primes(n):
        r = sqrt_mod_prime(a, p)
        # CRT: t = t mod mod, t = r mod p
        t += mod * ((r - t) * pow(mod, -1, p) % p)
        mod *= p
    return t - n if t > n // 2 else t


def _norm_equation(a: int, b: int) -> tuple[int, int, int]:
    """A nontrivial (x, y, z) with a*x^2 + b*y^2 = z^2, for squarefree a, b
    for which one exists, by Lagrange's descent: with t^2 = a mod b and
    t^2 - a = b*k*s^2, a solution (X, Y, Z) for (a, k) gives
    (Z - t*X, k*s*Y, t*Z - a*X) for (a, b), and |k| < |b|."""
    if a == 1:
        return 1, 0, 1
    if b == 1:
        return 0, 1, 1
    if a == -b:
        return 1, 1, 0
    if a < 0 and b < 0:
        raise RuntimeError("internal: Legendre descent on a definite form")
    if abs(a) > abs(b):
        y, x, z = _norm_equation(b, a)
        return x, y, z
    t = _sqrt_mod(a, abs(b))
    m = (t * t - a) // b
    k = squarefree_part(m)
    s = isqrt(m // k)
    x, y, z = _norm_equation(a, k)
    return z - t * x, k * s * y, t * z - a * x


def _ternary_zero(a: int, b: int, c: int) -> tuple[int, int, int]:
    """A nontrivial integer zero of a*x^2 + b*y^2 + c*z^2 (squarefree
    entries, isotropic form).  Multiplying by -w, for w the smallest entry,
    gives A*X^2 + B*Y^2 = (w*W)^2 with A, B the products of w with the
    others; their squarefree parts go to the descent."""
    entries = [a, b, c]
    w = min(range(3), key=lambda i: abs(entries[i]))
    u, v = (i for i in range(3) if i != w)
    big_a, big_b = -entries[u] * entries[w], -entries[v] * entries[w]
    sa = _class_product([-1, entries[u], entries[w]])
    sb = _class_product([-1, entries[v], entries[w]])
    fa, fb = isqrt(big_a // sa), isqrt(big_b // sb)
    x, y, z = _norm_equation(sa, sb)
    out = [0, 0, 0]
    out[u], out[v], out[w] = x * fb * entries[w], y * fa * entries[w], z * fa * fb
    g = gcd(*out)
    return tuple(e // g for e in out)


# -- the diagonal basis and its rotations ---------------------------------------------
#
# A slot is [w, col, s]: the vector col/s, for an integer column col and an
# integer s > 0, with w the integer value of col, so that the vector's value
# is w/s^2.  The vectors of the slots are pairwise orthogonal.  A ratio of
# two values is a square exactly when the product of their w is, so the
# square-class tests run on the w.

def _entry(slot) -> int:
    """The value of a normalized slot, a squarefree integer."""
    w, _, s = slot
    return w // (s * s)


def _normalize(slot, a: int | None = None) -> None:
    """Scale the vector so that its value becomes a, the squarefree integer
    in its square class, factored out unless given: col*|a| has the value
    w*a^2, and w*a is the square of its new denominator."""
    w, col, s = slot
    if a is None:
        a = squarefree_part(w, s * s)
    root = isqrt(w * a)
    col = [abs(a) * v for v in col]
    common = gcd(root, *col)
    s = root // common
    slot[:] = [a * s * s, [v // common for v in col], s]


def _rotate(slots, i: int, j: int, x: int, y: int, r_class: int) -> None:
    """Replace vectors e_i, e_j (squarefree values p, q) by f = x*e_i + y*e_j
    and g = -q*y*e_i + p*x*e_j, with values r = p*x^2 + q*y^2 (in the
    square class r_class) and p*q*r, both over the denominator s_i*s_j."""
    (_, ci, si), (_, cj, sj) = slots[i], slots[j]
    p, q = _entry(slots[i]), _entry(slots[j])
    r, s = p * x * x + q * y * y, si * sj
    slots[i] = [r * s * s, [x * sj * u + y * si * v for u, v in zip(ci, cj)], s]
    slots[j] = [p * q * r * s * s,
                [-q * y * sj * u + p * x * si * v for u, v in zip(ci, cj)], s]
    _normalize(slots[i], r_class)
    _normalize(slots[j], _class_product([p, q, r_class]))


def _class_reps(p: int) -> list[int]:
    """Integers representing every square class of Q_p (or R), units first."""
    if p == _REAL:
        return [1, -1]
    if p == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    n = next(z for z in range(2, p) if legendre_symbol(z, p) == -1)
    return [1, n, p, p * n]


def _merged_value(a: int, b: int, rest: list[int]) -> int:
    """A squarefree t represented by <a, b> with <t, *rest> isotropic, for
    an isotropic <a, b, *rest>.  Its square class is chosen place by place
    among those that make <a, b, -t> and <t, *rest> locally isotropic; the
    choice is realized as sign * (product of primes) * q, q a prime in an
    arithmetic progression (Dirichlet).  At q both forms are then isotropic
    by Hilbert reciprocity, and elsewhere t is a unit."""
    places = _places([a, b] + rest)
    chosen = {}
    for p in places:
        chosen[p] = next(t for t in _class_reps(p)
                         if _isotropic_at([a, b, -t], p) and _isotropic_at([t] + rest, p))
    primes = [p for p in places if p != _REAL]
    t0 = _class_product([chosen[_REAL]] + [p for p in primes if chosen[p] % p == 0])
    # q must fix the unit class of t0 at every prime: its Legendre symbol
    # mod odd p, its residue mod 8
    residues, modulus = [], 1
    for p in primes:
        unit = split_power(chosen[p], p)[1] * split_power(t0, p)[1]
        if p == 2:
            residues.append((unit % 8, 8))
            modulus *= 8
        else:
            residues.append((1 if legendre_symbol(unit, p) == 1 else _class_reps(p)[1], p))
            modulus *= p
    start = 0
    for r, mod in residues:
        start += (modulus // mod) * ((r - start) * pow(modulus // mod, -1, mod) % mod)
    start %= modulus
    if start == 1 and is_isotropic([a, b, -t0]) and is_isotropic([t0] + rest):
        return t0
    for step in range(PRIME_SEARCH):
        q = start + step * modulus
        if q > 1 and q not in primes and factorint(q) == ((q, 1),):
            return _class_product([t0, q])
    raise BudgetExceeded(f"no prime q = {start} mod {modulus} below "
                         f"{start + PRIME_SEARCH * modulus}")


def _hyperbolic_pair(slots, anchor: int | None = None) -> tuple[int, int]:
    """Indices (i, j) of two slots spanning a hyperbolic plane, rotating
    slots when no two entries already do; the form must be isotropic.
    With an anchor, j is the anchor and the anchor slot is never rotated.
    The slot list keeps its order and length."""
    if anchor is None:
        pairs = combinations(range(len(slots)), 2)
    else:
        pairs = ((i, anchor) for i in range(len(slots)) if i != anchor)
    for i, j in pairs:
        if _root(-slots[i][0] * slots[j][0]):
            return i, j
    for slot in slots:
        _normalize(slot)
    free = sorted((i for i in range(len(slots)) if i != anchor),
                  key=lambda i: abs(_entry(slots[i])))
    active = free + [anchor] if anchor is not None else free
    while len(active) > 3:
        i, j = active[0], active[1]
        a, b = _entry(slots[i]), _entry(slots[j])
        rest = [_entry(slots[k]) for k in active[2:]]
        if is_isotropic([a] + rest):
            del active[1]
        elif is_isotropic([b] + rest):
            del active[0]
        else:
            t = _merged_value(a, b, rest)
            x, y, _ = _ternary_zero(a, b, -t)
            _rotate(slots, i, j, x, y, t)
            del active[1]
    i, j, k = active
    x, y, z = _ternary_zero(*(_entry(slots[s]) for s in active))
    if z == 0:
        return i, j
    _rotate(slots, i, j, x, y, -_entry(slots[k]))
    return i, k


# -- similarity to the pinch block ------------------------------------------------

def _similarity_factor(entries: list[int]) -> int:
    """The squarefree c with <entries> similar to c*N, preferring c = 1;
    NotSimilar names the local invariant that rules every c out."""
    k = len(entries)
    if k == 1:
        return entries[0]
    places = _places(entries)
    bad = [p for p in places if not _isotropic_at(entries, p)]
    if bad:
        raise NotSimilar(f"it is anisotropic over {_place_names(bad)}")
    if k == 2:
        return 1
    m = k - 2
    neg = sum(a < 0 for a in entries)
    if 1 < neg < k - 1:
        raise NotSimilar(f"its signature ({k - neg}, {neg}) leaves an indefinite "
                         "complement to a hyperbolic plane")
    sign = 1 if neg == 1 else -1
    disc = _class_product([-1] + entries)  # disc B' = -disc B

    def rest_hasse(p):
        return _hasse(entries, p) * hilbert_symbol(-1, disc, p)

    if m % 2:
        c = disc
    else:
        if disc != 1:
            raise NotSimilar(f"the discriminant of the complement of a hyperbolic "
                             f"plane is {disc} times a square, not a square")
        c = sign
        if m % 4 == 2:
            c *= prod(p for p in places if p > 2 and p % 4 == 3 and rest_hasse(p) == -1)
    power = m * (m - 1) // 2 % 2
    bad = [p for p in places if rest_hasse(p) != hilbert_symbol(c, -1, p) ** power]
    if bad:
        which = ["infinity" if p == _REAL else str(p) for p in bad]
        raise NotSimilar(f"its Hasse invariant at {', '.join(which)} differs from "
                         f"that of H + {c}*I_{m} for every admissible c")
    return c


def _evident_factor(slots) -> int | None:
    """c when the values already show B = c*N: a single value, or two
    spanning a hyperbolic plane and the rest in one square class."""
    w = [v for v, _, _ in slots]
    pair = next(((i, j) for i, j in combinations(range(len(w)), 2)
                 if _root(-w[i] * w[j])), ())
    if len(w) > 1 and not pair:
        return None
    rest = [slot for t, slot in enumerate(slots) if t not in pair]
    if not rest:
        return 1
    (v, _, s), *others = rest
    if any(not _root(v * u) for u, _, _ in others):
        return None
    return squarefree_part(v, s * s)


def pinch_similarity(g: list[list[int]], d: int) -> tuple[int, list[list[int]], int]:
    """(c, cols, den) with C^T (g/d) C = c*N for C the integer columns cols
    over den > 0, N the pinch block of size len(g): <1> for size 1, H + I
    otherwise, and c a squarefree integer, 1 when possible.  g is a
    nondegenerate symmetric integer matrix and d > 0.  Raises NotSimilar
    when no rational c exists, naming the invariant, and BudgetExceeded
    when a bound runs out first."""
    _FACTORS.clear()
    # g/d in lowest terms, so that det g carries no needless power of d
    common = gcd(d, *(v for row in g for v in row))
    g, d = [[v // common for v in row] for row in g], d // common
    # d*b/(d*t) is column b/t of the diagonal basis, of value h/(d*t^2)
    h, b, t = diagonalize(g)
    slots = [[d * v, [d * x for x in col], d * s] for v, col, s in zip(h, b, t)]
    c = _evident_factor(slots)
    if c is None:
        det = prod(h) // prod(t) ** 2
        # the primes of det = d^k * det(g/d), from d and the numerator of det(g/d)
        primes = {p for part in (d, det // gcd(det, d ** len(g))) for p in _primes(part)}
        cols, den = reduced_basis(g, det, sorted(primes))
        h, b, t = diagonalize(gram(g, cols))
        rows = list(zip(*cols))
        slots = [[d * v, [d * sum(x * y for x, y in zip(row, col) if y) for row in rows],
                  d * den * s] for v, col, s in zip(h, b, t)]
        c = _similarity_factor([squarefree_part(w, s * s) for w, _, s in slots])
    out = []  # (integer column, nonzero denominator)
    if len(slots) > 1:
        i, j = _hyperbolic_pair(slots)
        (wi, ci, si), (wj, cj, _) = slots[i], slots[j]
        root = isqrt(-wi * wj)
        # with a, b their values and s = sqrt(-a*b): e_i + (s/b)*e_j and
        # (c/(4a))*(e_i - (s/b)*e_j), (s/b)*e_j being root*cj/(si*wj)
        out.append(([wj * u + root * v for u, v in zip(ci, cj)], si * wj))
        out.append(([c * si * (wj * u - root * v) for u, v in zip(ci, cj)], 4 * wi * wj))
        slots = [slot for k, slot in enumerate(slots) if k not in (i, j)]
    while slots:
        k = next((k for k, (w, _, _) in enumerate(slots) if _root(w * c)), None)
        if k is None:
            slots.append([-c, [], 1])
            k, _ = _hyperbolic_pair(slots, anchor=len(slots) - 1)
            slots.pop()
        w, col, _ = slots.pop(k)
        # the vector over the square root of its value over c
        out.append(([abs(c) * v for v in col], isqrt(w * c)))
    den = lcm(*(e for _, e in out))
    return c, [[v * (den // e) for v in col] for col, e in out], den
