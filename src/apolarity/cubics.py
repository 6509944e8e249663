"""Classification of reducible cubics and explicit power-sum decompositions.

A reducible cubic is a product L*Q of a hyperplane and a quadric.  Writing M
for the symmetric matrix of Q and l for the coefficient vector of L, the
non-degenerate classes are separated by rank(M) and the tangency invariant
l^T adj(M) l:

  TypeA  Q smooth (rank n+1), L not tangent       (l^T adj(M) l != 0)
  TypeB  Q a cone of rank n, L off the vertex
  TypeC  Q smooth, L tangent                      (l^T adj(M) l == 0)

plus Cone (the product uses fewer than n+1 essential variables) and
DegenerateProduct (L divides Q).  The tangent class TypeC is the interesting
one: it admits the pinch normal form x0*(x0*x1 + x2*x3 + x4^2 + ... + xn^2)
(x0*(x0*x1 + x2^2) when n = 2), and this module builds explicit rational
power sums of 2n+1 cubes for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm

from . import linalg
from .apolar import apolar_ideal, essential_variables
from .poly import (AmbientMismatchError, LinearChange, LinearForm, Polynomial,
                   substitute)


class NeedsFieldExtension(Exception):
    """Raised when a construction would require irrational scalings."""


class InvalidChange(ValueError):
    """Raised when a supplied change of coordinates fails its contract."""


class CubicKind(Enum):
    TYPE_A = "TypeA"
    TYPE_B = "TypeB"
    TYPE_C = "TypeC"
    CONE = "Cone"
    DEGENERATE_PRODUCT = "DegenerateProduct"


@dataclass(frozen=True)
class CubicType:
    kind: CubicKind
    essential: int | None = None

    def __str__(self) -> str:
        if self.essential is not None:
            return f"{self.kind.value}(essential={self.essential})"
        return self.kind.value


@dataclass(frozen=True)
class ReducibleCubic:
    """A cubic given as hyperplane times quadric."""

    linear: LinearForm
    quadric: Polynomial

    def __post_init__(self):
        if self.linear.is_zero():
            raise ValueError("linear factor is zero")
        if self.quadric.is_zero() or self.quadric.homogeneous_degree() != 2:
            raise ValueError("quadric factor must be a nonzero form of degree 2")
        if self.linear.nvars != self.quadric.nvars:
            raise AmbientMismatchError("factors live in different ambients")

    @property
    def nvars(self) -> int:
        return self.quadric.nvars

    def form(self) -> Polynomial:
        return self.linear.to_polynomial() * self.quadric

    @classmethod
    def from_polynomials(cls, linear: Polynomial, quadric: Polynomial) -> ReducibleCubic:
        return cls(LinearForm.from_polynomial(linear), quadric)


def quadric_matrix(q: Polynomial) -> list[list[Fraction]]:
    """Symmetric matrix M with q(x) = x^T M x (off-diagonal entries halved)."""
    n = q.nvars
    m = [[Fraction(0)] * n for _ in range(n)]
    for exps, c in q.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            m[i][i] = c
        else:
            i, j = support
            m[i][j] = m[j][i] = c / 2
    return m


def _linear_divides(linear: LinearForm, p: Polynomial) -> bool:
    """Exact divisibility test: p vanishes on the hyperplane {linear = 0}."""
    n = p.nvars
    coeffs = linear.coeffs
    k = next(i for i, c in enumerate(coeffs) if c)
    images = [Polynomial.variable(n, j) for j in range(n)]
    images[k] = Polynomial(n, {
        tuple(1 if t == j else 0 for t in range(n)): -coeffs[j] / coeffs[k]
        for j in range(n) if j != k and coeffs[j]})
    acc = Polynomial.zero(n)
    for exps, coef in p.terms.items():
        term = Polynomial.constant(n, coef)
        for i, e in enumerate(exps):
            if e:
                term = term * images[i] ** e
        acc = acc + term
    return acc.is_zero()


def classify(rc: ReducibleCubic) -> CubicType:
    """Projective class of the product, decided by exact invariants."""
    if rc.nvars < 3:
        raise ValueError("the projective classification needs at least 3 "
                         "variables; binary forms go through decompose_binary")
    if _linear_divides(rc.linear, rc.quadric):
        return CubicType(CubicKind.DEGENERATE_PRODUCT,
                         essential_variables(rc.form()))
    nv = rc.nvars
    ess = essential_variables(rc.form())
    if ess < nv:
        return CubicType(CubicKind.CONE, ess)
    m = quadric_matrix(rc.quadric)
    r = linalg.rank(m)
    if r == nv:
        inv = linalg.inverse(m)
        l = list(rc.linear.coeffs)
        tangency = sum(l[i] * inv[i][j] * l[j]
                       for i in range(nv) for j in range(nv))
        # l^T adj(M) l differs from this by the nonzero factor det(M)
        return CubicType(CubicKind.TYPE_C if tangency == 0 else CubicKind.TYPE_A)
    if r == nv - 1:
        return CubicType(CubicKind.TYPE_B)
    raise ValueError("quadric rank below n for a non-cone product; "
                     "this contradicts the essential-variable count")


# -- power-sum decompositions -----------------------------------------------

@dataclass(frozen=True)
class WaringDecomposition:
    """A sum F = sum c_i * L_i^degree with pairwise independent forms L_i.

    Terms are normalized: forms are monic in their first nonzero coefficient,
    proportional forms are merged, zero coefficients dropped, order canonical.
    """

    degree: int
    nvars: int
    terms: tuple[tuple[Fraction, LinearForm], ...]

    @classmethod
    def assemble(cls, degree: int, nvars: int, raw_terms) -> WaringDecomposition:
        merged: dict[tuple[Fraction, ...], Fraction] = {}
        for coef, form in raw_terms:
            coef = Fraction(coef)
            if coef == 0:
                continue
            if form.is_zero():
                raise ValueError("decomposition term uses the zero form")
            if form.nvars != nvars:
                raise AmbientMismatchError("term ambient differs from the decomposition's")
            scale, monic = form.monic()
            key = monic.coeffs
            merged[key] = merged.get(key, Fraction(0)) + coef * scale ** degree
        terms = tuple((merged[key], LinearForm(key))
                      for key in sorted(merged, reverse=True) if merged[key])
        return cls(degree, nvars, terms)

    def __len__(self) -> int:
        return len(self.terms)

    def expand(self) -> Polynomial:
        acc = Polynomial.zero(self.nvars)
        for coef, form in self.terms:
            acc = acc + form.to_polynomial() ** self.degree * coef
        return acc

    def compose(self, change: LinearChange) -> WaringDecomposition:
        """Decomposition of the substituted form: each L_i becomes L_i o change."""
        if change.nvars != self.nvars:
            raise AmbientMismatchError("change ambient differs from the decomposition's")
        new_terms = []
        for coef, form in self.terms:
            row = [sum(form.coeffs[i] * change.matrix[i][j] for i in range(self.nvars))
                   for j in range(self.nvars)]
            new_terms.append((coef, LinearForm(row)))
        return WaringDecomposition.assemble(self.degree, self.nvars, new_terms)

    def identity_string(self, name: str = "F", prefix: str = "x") -> str:
        """Integer-cleared identity like '6*F = (x0 + x2)^3 + ...'."""
        scale = lcm(*(coef.denominator for coef, _ in self.terms))
        lhs = name if scale == 1 else f"{scale}*{name}"
        pieces = []
        for coef, form in self.terms:
            k = coef * scale
            mag = abs(k)
            body = f"({form.to_string(prefix)})^{self.degree}"
            if mag != 1:
                body = f"{mag}*{body}"
            if not pieces:
                pieces.append(body if k > 0 else "-" + body)
            else:
                pieces.append(("+ " if k > 0 else "- ") + body)
        return f"{lhs} = " + " ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "variables": self.nvars,
            "terms": [{"coefficient": str(c),
                       "form": [str(v) for v in f.coeffs]}
                      for c, f in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> WaringDecomposition:
        degree = int(data["degree"])
        nvars = int(data["variables"])
        terms = [(Fraction(t["coefficient"]), LinearForm(Fraction(v) for v in t["form"]))
                 for t in data["terms"]]
        return cls.assemble(degree, nvars, terms)


def verify_decomposition(form: Polynomial,
                         dec: WaringDecomposition) -> tuple[bool, Polynomial]:
    """Expand the decomposition exactly and compare; returns (ok, residual).

    ok also requires the forms to be pairwise independent, which assembled
    decompositions guarantee by construction.
    """
    if form.nvars != dec.nvars:
        raise AmbientMismatchError("form and decomposition ambients differ")
    residual = form - dec.expand()
    independent = True
    for (_, f1), (_, f2) in itertools.combinations(dec.terms, 2):
        if f1.proportional_to(f2):
            independent = False
    return independent and residual.is_zero(), residual


def normal_form(n: int) -> Polynomial:
    """The tangent (pinch) normal form x0*(x0*x1 + x2*x3 + x4^2 + ... + xn^2);
    for n = 2 the degenerate-pair version x0*(x0*x1 + x2^2)."""
    if n < 2:
        raise ValueError("the normal form needs ambient dimension n >= 2")
    nv = n + 1
    q = {_pair_exps(nv, 0, 1): Fraction(1)}
    if n == 2:
        q[_pair_exps(nv, 2, 2)] = Fraction(1)
    else:
        q[_pair_exps(nv, 2, 3)] = Fraction(1)
        for i in range(4, nv):
            q[_pair_exps(nv, i, i)] = Fraction(1)
    return Polynomial.variable(nv, 0) * Polynomial(nv, q)


def normal_form_pair(n: int) -> ReducibleCubic:
    """The normal form as an explicit (hyperplane, quadric) pair."""
    nf = normal_form(n)
    quadric = Polynomial(n + 1, {(e[0] - 1,) + e[1:]: c
                                 for e, c in nf.terms.items()})
    return ReducibleCubic(LinearForm([1] + [0] * n), quadric)


def split_normal_form(n: int) -> Polynomial:
    """The normal form after splitting the hyperbolic pair:
    y0^2*y1 - y1*y2^2 + y1^2*y3 + y1*(y4^2 + ... + yn^2) for n >= 3,
    and y0^2*y2 + y0*y1^2 for n = 2."""
    if n < 2:
        raise ValueError("the split form needs ambient dimension n >= 2")
    nv = n + 1
    if n == 2:
        terms = {(2, 0, 1): Fraction(1), (1, 2, 0): Fraction(1)}
        return Polynomial(3, terms)
    terms = {}
    terms[_tuple_exps(nv, {0: 2, 1: 1})] = Fraction(1)
    terms[_tuple_exps(nv, {1: 1, 2: 2})] = Fraction(-1)
    terms[_tuple_exps(nv, {1: 2, 3: 1})] = Fraction(1)
    for i in range(4, nv):
        terms[_tuple_exps(nv, {1: 1, i: 2})] = Fraction(1)
    return Polynomial(nv, terms)


def _pair_exps(nv: int, i: int, j: int) -> tuple[int, ...]:
    e = [0] * nv
    e[i] += 1
    e[j] += 1
    return tuple(e)


def _tuple_exps(nv: int, entries: dict[int, int]) -> tuple[int, ...]:
    e = [0] * nv
    for i, v in entries.items():
        e[i] = v
    return tuple(e)


def _unit(nv: int, i: int, scale=1) -> list[Fraction]:
    row = [Fraction(0)] * nv
    row[i] = Fraction(scale)
    return row


def split_change(n: int) -> LinearChange:
    """The substitution turning the pinch form into the split form:
    substitute(normal_form(n), split_change(n)) == split_normal_form(n)."""
    if n < 2:
        raise ValueError("the split form needs ambient dimension n >= 2")
    nv = n + 1
    if n == 2:
        return LinearChange([_unit(3, 0), _unit(3, 2), _unit(3, 1)])
    rows = [_unit(nv, 1), _unit(nv, 3)]
    rows.append([Fraction(int(j in (0, 2))) for j in range(nv)])
    rows.append([Fraction(1) if j == 0 else Fraction(-1) if j == 2 else Fraction(0)
                 for j in range(nv)])
    rows.extend(_unit(nv, i) for i in range(4, nv))
    return LinearChange(rows)


def decompose_type_c_normal(n: int) -> WaringDecomposition:
    """Explicit 2n+1 cubes for the tangent normal form, all rational.

    The n = 2 seed comes from the two-cube identity
    (1/6)[(a+b)^3 + (a-b)^3] = (1/3)a^3 + a*b^2 applied after the shear that
    turns the form into (1/3)a^3 + a^2*c + a*b^2; larger n peel two cubes for
    the y0^2*y1 block and recurse on the leftover in one fewer variable.
    """
    F = normal_form(n)
    nv = n + 1
    if n == 2:
        # shear: x0 = a, x1 = a/3 + c, x2 = b turns F into (1/3)a^3 + a^2 c + a b^2
        shear = LinearChange([[1, 0, 0], [Fraction(1, 3), 0, 1], [0, 1, 0]])
        seed = WaringDecomposition.assemble(3, 3, [
            (Fraction(1, 6), LinearForm([1, 1, 0])),
            (Fraction(1, 6), LinearForm([1, -1, 0])),
            (Fraction(1, 6), LinearForm([1, 0, 1])),
            (Fraction(-1, 6), LinearForm([1, 0, -1])),
            (Fraction(-1, 3), LinearForm([0, 0, 1])),
        ])
        dec = seed.compose(shear.inverse())
    else:
        # split the hyperbolic pair: x2 = y0 + y2, x3 = y0 - y2
        split = split_change(n)
        fy = substitute(F, split)
        assert fy == split_normal_form(n)
        peel = [
            (Fraction(1, 6), LinearForm([1, 1] + [0] * (nv - 2))),
            (Fraction(1, 6), LinearForm([-1, 1] + [0] * (nv - 2))),
        ]  # (1/6)[(y1+y0)^3 + (y1-y0)^3] = y0^2*y1 + (1/3)*y1^3
        if n == 3:
            leftover_terms = [
                (Fraction(-1, 6), LinearForm([0, 1, 1, 0])),
                (Fraction(-1, 6), LinearForm([0, 1, -1, 0])),
                (Fraction(1, 6), LinearForm([0, 1, 0, 1])),
                (Fraction(-1, 6), LinearForm([0, 1, 0, -1])),
                (Fraction(-1, 3), LinearForm([0, 0, 0, 1])),
            ]
            leftover = WaringDecomposition.assemble(3, nv, leftover_terms)
        else:
            inner = decompose_type_c_normal(n - 1)
            embedded = WaringDecomposition.assemble(3, nv, [
                (c, LinearForm(f.coeffs + (Fraction(0),))) for c, f in inner.terms])
            # express the leftover through the smaller normal form: shear the
            # y3 slot, pair -y2^2 with the lowest remaining square y4
            crows = [_unit(nv, 1)]
            row1 = _unit(nv, 3)
            row1[1] = Fraction(-1, 3)
            crows.append(row1)
            row2 = _unit(nv, 4)
            row2[2] = Fraction(-1)
            crows.append(row2)
            row3 = _unit(nv, 4)
            row3[2] = Fraction(1)
            crows.append(row3)
            crows.extend(_unit(nv, j + 1) for j in range(4, nv - 1))
            crows.append(_unit(nv, 0))
            leftover = embedded.compose(LinearChange(crows))
        expected_leftover = fy - WaringDecomposition.assemble(3, nv, peel).expand()
        assert leftover.expand() == expected_leftover
        dec_y = WaringDecomposition.assemble(3, nv, peel + list(leftover.terms))
        dec = dec_y.compose(split.inverse())
    ok, _ = verify_decomposition(F, dec)
    if not ok:
        raise RuntimeError("internal: normal-form decomposition failed verification")
    return dec


# -- normalization of a general tangent product ------------------------------

def _sqrt_fraction(q: Fraction) -> Fraction | None:
    if q <= 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _diagonalize_symmetric(m: list[list[Fraction]]):
    """Congruence diagonalization: returns (diag, basis columns B) with
    B^T m B diagonal.  Requires a nondegenerate symmetric matrix."""
    size = len(m)
    a = [row[:] for row in m]
    basis = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

    def add_col(dst, src, f):
        for i in range(size):
            a[i][dst] += f * a[i][src]
        for j in range(size):
            a[dst][j] += f * a[src][j]
        for i in range(size):
            basis[i][dst] += f * basis[i][src]

    def swap_col(i, j):
        for r in range(size):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(size):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    for t in range(size):
        if a[t][t] == 0:
            swap = next((j for j in range(t + 1, size) if a[j][j]), None)
            if swap is not None:
                swap_col(t, swap)
            else:
                off = next((j for j in range(t + 1, size) if a[t][j]), None)
                if off is None:
                    raise ValueError("degenerate block in congruence diagonalization")
                add_col(t, off, Fraction(1))
        for j in range(t + 1, size):
            if a[t][j]:
                add_col(j, t, -a[t][j] / a[t][t])
    diag = [a[t][t] for t in range(size)]
    cols = [[basis[i][j] for i in range(size)] for j in range(size)]
    return diag, cols


def _bilinear(m, u, v) -> Fraction:
    return sum(u[i] * m[i][j] * v[j] for i in range(len(m)) for j in range(len(m)))


def _small_isotropic_vector(m) -> list[Fraction] | None:
    size = len(m)
    if size > 10:
        return None
    radius = 2 if size <= 5 else 1
    for cand in itertools.product(range(radius, -radius - 1, -1), repeat=size):
        if not any(cand):
            continue
        vec = [Fraction(c) for c in cand]
        if _bilinear(m, vec, vec) == 0:
            return vec
    return None


def _congruence_to_block(m: list[list[Fraction]], hyperbolic: bool):
    """Columns C with C^T m C equal to [[0,1/2],[1/2,0]] + identity when
    hyperbolic, or the identity otherwise.  Raises NeedsFieldExtension when
    no such rational scaling is found."""
    size = len(m)
    diag, cols = _diagonalize_symmetric(m)
    if not hyperbolic:
        out = []
        for t in range(size):
            s = _sqrt_fraction(diag[t])
            if s is None:
                raise NeedsFieldExtension(
                    f"need an irrational scaling sqrt({diag[t]}) to reach the normal form")
            out.append([v / s for v in cols[t]])
        return out

    def scaled(col, s):
        return [v / s for v in col]

    for i, j in itertools.combinations(range(size), 2):
        s = _sqrt_fraction(-diag[i] * diag[j])
        if s is None:
            continue
        rest = [k for k in range(size) if k not in (i, j)]
        roots = [_sqrt_fraction(diag[k]) for k in rest]
        if any(r is None for r in roots):
            continue
        a, b = diag[i], diag[j]
        f2 = [cols[i][r] + (s / b) * cols[j][r] for r in range(size)]
        f3 = [cols[i][r] / (4 * a) - (s / (4 * a * b)) * cols[j][r] for r in range(size)]
        return [f2, f3] + [scaled(cols[k], r) for k, r in zip(rest, roots)]

    iso = _small_isotropic_vector(m)
    if iso is not None:
        partner = next((t for t in range(size)
                        if _bilinear(m, iso, [Fraction(int(r == t)) for r in range(size)])),
                       None)
        if partner is not None:
            u = [Fraction(int(r == partner)) for r in range(size)]
            bval = _bilinear(m, iso, u)
            qU = _bilinear(m, u, u)
            uprime = [u[r] - (qU / (2 * bval)) * iso[r] for r in range(size)]
            f3 = [v / (2 * bval) for v in uprime]
            rows = [[sum(m[r][cidx] * vec[cidx] for cidx in range(size)) for r in range(size)]
                    for vec in (iso, uprime)]
            comp = linalg.kernel_basis(rows, size)
            sub = [[_bilinear(m, u1, u2) for u2 in comp] for u1 in comp]
            inner = _congruence_to_block(sub, hyperbolic=False)
            out = [iso, f3]
            for col in inner:
                out.append([sum(col[k] * comp[k][r] for k in range(len(comp)))
                            for r in range(size)])
            return out
    raise NeedsFieldExtension(
        "no rational hyperbolic pair and square scaling was found; "
        "pass an explicit change of coordinates")


def normalize_tangent_product(rc: ReducibleCubic) -> LinearChange:
    """A rational change carrying a TypeC product to the pinch normal form.

    Best effort: the linear factor is straightened to x0, the tangency point
    of the quadric section is placed at x1, and the residual quadratic block
    is scaled by rational congruence.  Raises NeedsFieldExtension when the
    block cannot be scaled rationally.
    """
    nv = rc.nvars
    n = nv - 1
    lc = list(rc.linear.coeffs)
    k = next(i for i, c in enumerate(lc) if c)
    # columns of the straightening: first column maps x0-dual onto L
    cols = [[Fraction(int(i == k)) / lc[k] for i in range(nv)]]
    for j in range(nv):
        if j == k:
            continue
        col = [Fraction(0)] * nv
        col[j] = Fraction(1)
        col[k] = -lc[j] / lc[k]
        cols.append(col)
    straighten = LinearChange([[cols[j][i] for j in range(nv)] for i in range(nv)])
    q1 = substitute(rc.quadric, straighten)
    m = quadric_matrix(q1)
    msub = [row[1:] for row in m[1:]]
    ker = linalg.kernel_basis(msub, n)
    if len(ker) != 1:
        raise ValueError("the hyperplane section is not a corank-one quadric; "
                         "the product is not of tangent type")
    p = [Fraction(0)] + ker[0]
    mp = linalg.mat_vec(m, p)
    lam = mp[0]
    if any(mp[1:]) or lam == 0:
        raise ValueError("inconsistent tangency data; classify the product first")
    a00 = m[0][0]
    u0 = [Fraction(int(r == 0)) - (a00 / (2 * lam)) * p[r] for r in range(nv)]
    u1 = [v / (2 * lam) for v in p]
    r0 = [m[i][0] for i in range(nv)]
    vbasis = [[Fraction(0)] + w for w in linalg.kernel_basis([r0[1:]], n)]
    qv = [[_bilinear(m, w1, w2) for w2 in vbasis] for w1 in vbasis]
    block = _congruence_to_block(qv, hyperbolic=(n >= 3))
    ucols = [u0, u1]
    for col in block:
        ucols.append([sum(col[r] * vbasis[r][i] for r in range(len(vbasis)))
                      for i in range(nv)])
    mix = LinearChange([[ucols[j][i] for j in range(nv)] for i in range(nv)])
    change = straighten.compose(mix)
    if substitute(rc.form(), change) != normal_form(n):
        raise RuntimeError("internal: normalization self-check failed")
    return change


def decompose_type_c(rc: ReducibleCubic,
                     change: LinearChange | None = None) -> WaringDecomposition:
    """Power-sum decomposition of a tangent product, via the normal form.

    When no change of coordinates is supplied one is searched for over the
    rationals (NeedsFieldExtension when that fails); a supplied change must
    carry the cubic exactly onto the normal form.
    """
    ctype = classify(rc)
    if ctype.kind is not CubicKind.TYPE_C:
        raise ValueError(f"decomposition by normal form needs TypeC, got {ctype}")
    form = rc.form()
    n = rc.nvars - 1
    if change is not None:
        if change.nvars != rc.nvars:
            raise InvalidChange("change of coordinates has the wrong size")
        if substitute(form, change) != normal_form(n):
            raise InvalidChange("the change does not carry the cubic to the normal form")
    else:
        change = normalize_tangent_product(rc)
    dec = decompose_type_c_normal(n).compose(change.inverse())
    ok, _ = verify_decomposition(form, dec)
    if not ok:
        raise RuntimeError("internal: transported decomposition failed verification")
    return dec


# -- binary forms ------------------------------------------------------------

@dataclass(frozen=True)
class BinaryDecomposition:
    """Rank of a binary form, with explicit forms when available over Q."""

    rank: int
    decomposition: WaringDecomposition | None
    generator_degrees: tuple[int, int]
    lower_squarefree: bool


def _binary_coeffs(g: Polynomial) -> list[Fraction]:
    """Coefficient list indexed by the exponent of the first variable."""
    d = g.homogeneous_degree()
    out = [Fraction(0)] * (d + 1)
    for (e0, _), c in g.terms.items():
        out[e0] = c
    return out


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = f
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _univariate_gcd_is_constant(p: list[Fraction]) -> bool:
    """gcd(p, p') constant, i.e. p squarefree."""
    dp = [c * (i + 1) for i, c in enumerate(p[1:])]
    a, b = p, dp
    while b and any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return len(a) == 1


def _squarefree_binary(g: Polynomial) -> bool:
    coeffs = _binary_coeffs(g)
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    d = len(coeffs) - 1
    if lo > 1 or d - hi > 1:
        return False
    core = coeffs[lo:hi + 1]
    return len(core) == 1 or _univariate_gcd_is_constant(core)


def _rational_distinct_roots(g: Polynomial) -> list[LinearForm] | None:
    """Pairwise independent linear forms dual to the roots of a squarefree
    binary operator that splits over Q; None otherwise."""
    if not _squarefree_binary(g):
        return None
    coeffs = _binary_coeffs(g)
    d = len(coeffs) - 1
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    forms = []
    if lo == 1:
        forms.append(LinearForm([0, 1]))  # the operator d0 kills powers of x1
    if d - hi == 1:
        forms.append(LinearForm([1, 0]))
    core = coeffs[lo:hi + 1]
    while len(core) > 1:
        root = _one_rational_root(core)
        if root is None:
            return None
        forms.append(LinearForm([root, 1]))  # factor (d0 - root*d1) kills (root*x0 + x1)^d
        core, rem = _deflate(core, root)
        assert not rem
    return forms


def _one_rational_root(p: list[Fraction]) -> Fraction | None:
    scale = lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    lead, const = ints[-1], ints[0]
    if const == 0:
        return Fraction(0)
    cands = set()
    for pnum in _divisors(abs(const)):
        for pden in _divisors(abs(lead)):
            cands.add(Fraction(pnum, pden))
            cands.add(Fraction(-pnum, pden))
    for cand in sorted(cands):
        if sum(c * cand ** i for i, c in enumerate(p)) == 0:
            return cand
    return None


def _divisors(v: int) -> list[int]:
    out = [i for i in range(1, isqrt(v) + 1) if v % i == 0]
    return sorted(set(out + [v // i for i in out]))


def _deflate(p: list[Fraction], root: Fraction):
    """Synthetic division of p by (t - root), Horner from the top."""
    q = [Fraction(0)] * (len(p) - 1)
    q[-1] = p[-1]
    for i in range(len(p) - 2, 0, -1):
        q[i - 1] = p[i] + q[i] * root
    rem = p[0] + q[0] * root
    return q, rem


def decompose_binary(form: Polynomial) -> BinaryDecomposition:
    """Exact rank of a binary form from the degrees of its two apolar
    generators, plus an explicit decomposition when the relevant generator
    splits into distinct rational roots."""
    if form.nvars != 2:
        raise AmbientMismatchError("binary decomposition needs exactly 2 variables")
    if form.is_zero() or not form.is_homogeneous() or form.degree() < 1:
        raise ValueError("need a nonzero binary form of degree >= 1")
    d = form.homogeneous_degree()
    ideal = apolar_ideal(form)
    gens = sorted(ideal.generators, key=lambda g: g.homogeneous_degree())
    if len(gens) != 2:
        raise RuntimeError("internal: a binary apolar ideal must have two generators")
    ga, gb = gens
    da, db = ga.homogeneous_degree(), gb.homogeneous_degree()
    if da + db != d + 2:
        raise RuntimeError("internal: apolar generator degrees are inconsistent")
    lower_ok = _squarefree_binary(ga)
    rank = da if lower_ok else db
    candidate = ga if lower_ok else gb
    decomposition = None
    forms = _rational_distinct_roots(candidate)
    if forms is not None:
        monos = [(i, d - i) for i in range(d, -1, -1)]
        powers = [f.to_polynomial() ** d for f in forms]
        rows = [[p.coefficient(e) for p in powers] for e in monos]
        rhs = [form.coefficient(e) for e in monos]
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            dec = WaringDecomposition.assemble(
                d, 2, [(c, f) for c, f in zip(sol, forms)])
            ok, _ = verify_decomposition(form, dec)
            if ok:
                decomposition = dec
    return BinaryDecomposition(rank, decomposition, (da, db), lower_ok)
