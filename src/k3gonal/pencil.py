"""Exact algebra of pencils of degree-k binary forms on Sym^2(P^1).

Conventions.  A binary form of degree bound n is a coefficient vector
(c_0, ..., c_n) for sum_i c_i x0^(n-i) x1^i; the affine picture sets x0 = 1,
z = x1, so c is also the affine coefficient list and a drop of the top
coefficients records roots at infinity.  Sym^2(P^1) is the projective plane
with coordinates (e0 : e1 : e2), the unordered pair {x, y} sitting at
(1 : x+y : x*y), read off the monic quadratic
e0 z^2 - e1 z + e2 vanishing on it.  The diagonal is the smooth conic
e1^2 = 4 e0 e2, parametrized by (x0^2 : 2 x0 x1 : x1^2).

A pencil spanned by independent forms f, g cuts out the plane curve of
degree k-1 whose points are the pairs {x, y} contained in a member of the
pencil; concretely the symmetric form

    B(x, y) = (f(x) g(y) - f(y) g(x)) / (x - y)

rewritten in the elementary-symmetric coordinates, where it is read off the
closed form of the complete symmetric polynomial h_n in (e1, e2).
Restricting that curve to the diagonal, which sends each monomial to one
monomial, gives minus the Wronskian f g' - f' g exactly, whose 2(k-1)
projective roots are the ramification points of the degree-k map; all of
this is verified exactly, never by root finding.  Every other smooth conic
the suite meets is the image A(diagonal) under an invertible matrix A, and is
parametrized by A composed with that of the diagonal, so the conic is held as
A alone: a curve meets it where its pullback through the three quadratic
forms (a_i0, 2 a_i1, a_i2) of A's rows vanishes.

Representation.  Forms and curves hold integer coefficients only.  A g^1_k
is projective: scaling a form or a curve changes none of the invariants
checked here (proportionality, squarefreeness, root and intersection counts,
the wedge curve up to the same scale), so integers stand for every case, and
equality and hashing are exact.  A coefficient that is not an int, a
Fraction or a string such as "1/2" included, raises TypeError, and so does
a conic matrix with such an entry; no point is ever evaluated on rationals,
and a Fraction appears only as the transversality rate that
`verification_suite` reports; `fractions` is imported there, and nowhere else.
Products, the Wronskian and the conic pullback run packed
(Kronecker substitution; Harvey 2009): a coefficient list c becomes the one
integer sum_i c_i 2^(B i), so a polynomial product is one big-int product,
and the result is read back as balanced base-2^B digits.  B is one sign bit
above a bound on the result's coefficients proved where it is used; a carry
left above the top slot raises InvariantViolation.  Squarefreeness and
distinct-root counts come from the degree of gcd(a, a') together with
degree-drop bookkeeping at infinity.  That degree is first certified to be
0 by one big-integer gcd, of the two primitive parts evaluated at a power of
2 far above Cauchy's root bound, where any common factor would make that gcd
large (the heuristic gcd of Char-Geddes-Gonnet 1989, used one-sided); any
other outcome falls back to a primitive pseudo-remainder sequence over the
integers (Collins 1967; Brown-Traub 1971).  The membership identity
det(x, y) = (x - y) B(x, y) is checked once, as bihomogeneous polynomials on
P^1 x P^1, with B expanded independently of the h_n closed form; a failure
names the first coefficient that differs, and the suite's random pairs are
only drawn, to keep the seeded stream.  The tables that depend on k alone
are built once per degree and cached: `_wedge_plan` holds the h_n expansion
that `wedge_curve` scatters each w_ij through, and `_identity_plan` the
binomial expansion of every monomial of degree k-1 that `_value_identity`
scatters the curve through.  The two plans share no code or table, so the
identity stays an oracle independent of the closed form.
Seeded sampling draws a form or conic matrix by one `_randints` call, bit
for bit `Random.randint`, and the discarded pairs inline by its rule.
"""

import random
from functools import lru_cache
from itertools import compress
from math import comb, gcd
from operator import neg
from types import MappingProxyType

from .errors import InvariantViolation, _refuse_below, _refuse_over_limit
from .exactmath import _int, _value_class

__all__ = [
    "BinaryForm",
    "Pencil",
    "SymPlaneCurve",
    "wedge_curve",
    "wronskian",
    "diagonal_restriction",
    "conic_intersection",
    "is_squarefree",
    "distinct_root_count",
    "proportional",
    "random_pencil",
    "random_coprime_pencil",
    "random_smooth_conic",
    "verification_suite",
    "PENCIL_MAX_K",
    "PENCIL_MAX_SAMPLES",
]


# -- integer coefficient lists (index = power)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _width(bound: int) -> int:
    """Slot width B for entries of absolute value at most `bound`: its bit
    length plus one sign bit, so that |c| <= bound < 2^(B-1)."""
    return bound.bit_length() + 1


def _pack(cs, width: int) -> int:
    """sum_i cs[i] 2^(width i): the list evaluated at X = 2^width (Kronecker
    substitution); entries may be negative."""
    v = 0
    for c in reversed(cs):
        v = (v << width) + c
    return v


def _unpack(v: int, width: int, n: int) -> list[int]:
    """The n lowest balanced base-2^width digits of v, each in
    [-2^(width-1), 2^(width-1)).

    Inverts `_pack` on lists of n entries in that range, so a product or a
    Horner scheme run on packed integers is read back exactly once the
    width bounds every entry of the result.  Anything left above the top
    slot shows that the bound failed.
    """
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    out = []
    for _ in range(n):
        r = v & mask
        if r >= half:
            out.append(r - full)
            v = (v >> width) + 1
        else:
            out.append(r)
            v >>= width
    if v:
        raise InvariantViolation(
            f"packed polynomial does not fit {n} slots of {width} bits"
        )
    return out


def _mul(a, b) -> list[int]:
    """Product of two nonempty coefficient lists, by one packed int product.

    Entry n of the product sums at most min(len a, len b) terms a_i b_(n-i),
    so it is at most min(len a, len b) max|a| max|b| in absolute value.
    """
    width = _width(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


def _deriv(a) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _horner(cs, x0: int, x1: int) -> int:
    """Homogeneous Horner evaluation of sum_i cs[i] x0^(n-i) x1^i."""
    acc = cs[-1]
    x0p = 1
    for c in cs[-2::-1]:
        x0p *= x0
        acc = acc * x1 + c * x0p
    return acc


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b (b nonzero)."""
    rem = list(a)
    lead, n = b[-1], len(b)
    while len(rem) >= n:
        c, shift = rem[-1], len(rem) - n
        rem = [lead * x for x in rem[:shift]] + [
            lead * x - c * y for x, y in zip(rem[shift:], b)
        ]
        _trim(rem)
    return rem


def _primitive(a: list[int]) -> list[int]:
    g = gcd(*a)
    return a if g <= 1 else [x // g for x in a]


def _prs_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over Q by a primitive PRS over Z (-1 if both zero).

    Each pseudo-remainder is a nonzero constant times the Euclidean
    remainder over Q, so the remainder degrees are the same as Euclid's.
    """
    while b:
        a, b = b, _primitive(_prem(a, b))
    return len(a) - 1


def _gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over Q (-1 if both zero), for trimmed lists.

    Degree 0 is certified by one integer gcd when that is possible; any
    other outcome is decided by the primitive PRS over Z.  Let A and B' be
    the primitive parts of nonzero a and b, m = max |A_i|, and X = 2^w with
    w = bitlen(m) + 32, so X - 1 - m >= 1.  Suppose a and b share a factor
    of positive degree, and take it primitive, h.  By Gauss's lemma h
    divides A and B' in Z[x], so the integer h(X) divides A(X) and B'(X),
    hence their gcd g.  Each root r of A, and so of h, has |r| <= 1 + m
    (Cauchy's bound, the lead of A being at least 1 in absolute value), so
    A(X) is not 0, g > 0, and
    |h(X)| = |lc h| prod |X - r| >= (X - 1 - m)^(deg h) >= X - 1 - m.
    So g < X - 1 - m proves degree 0.
    """
    if a and b:
        a1, b1 = _primitive(a), _primitive(b)
        m = max(map(abs, a1))
        width = m.bit_length() + 32
        if gcd(_pack(a1, width), _pack(b1, width)) < (1 << width) - 1 - m:
            return 0
    return _prs_gcd_degree(a, b)


@_value_class
class BinaryForm:
    """A binary form at a declared degree bound.

    coeffs[i] is the integer coefficient of x0^(bound-i) x1^i.  A zero tail
    means roots at infinity with multiplicity bound - affine_degree.
    """

    bound: int
    coeffs: tuple[int, ...]

    def __init__(self, bound: int, coeffs):
        if _int(bound) < 0:
            _refuse_below("bound", 0, bound)
        coeffs = tuple(map(_int, coeffs))
        if len(coeffs) != bound + 1:
            raise ValueError(
                f"degree bound {bound} needs {bound + 1} coefficients, got {len(coeffs)}"
            )
        self._fill(bound, coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def affine_degree(self) -> int:
        """Degree of the affine part; -1 for the zero form."""
        return len(_trim(list(self.coeffs))) - 1

    @property
    def infinity_multiplicity(self) -> int:
        """Root multiplicity at (0:1); undefined (error) for the zero form."""
        if self.is_zero:
            raise ValueError("the zero form has no root multiplicities")
        return self.bound - self.affine_degree

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm._make(self.bound + other.bound,
                                tuple(_mul(self.coeffs, other.coeffs)))


def proportional(u: BinaryForm, v: BinaryForm) -> bool:
    """True iff u = c*v for a nonzero scalar c (zero ~ zero only)."""
    if u.bound != v.bound:
        raise ValueError("cannot compare forms at different bounds")
    a, b = u.coeffs, v.coeffs
    pivot = next((i for i, x in enumerate(a) if x), None)
    if pivot is None or not b[pivot]:
        return pivot is None and not any(b)
    pa, pb = a[pivot], b[pivot]
    return all(x * pb == y * pa for x, y in zip(a, b))


def is_squarefree(form: BinaryForm) -> bool:
    """Squarefree as a projective divisor, infinity multiplicity included."""
    if form.is_zero:
        return False
    if form.infinity_multiplicity >= 2:
        return False
    a = _trim(list(form.coeffs))
    if len(a) <= 1:
        return True
    return _gcd_degree(a, _deriv(a)) <= 0


def distinct_root_count(form: BinaryForm) -> int:
    """Number of distinct projective roots (degree of the squarefree part)."""
    if form.is_zero:
        raise ValueError("the zero form has no root divisor")
    a = _trim(list(form.coeffs))
    at_infinity = 1 if len(a) <= form.bound else 0
    if len(a) <= 1:
        return at_infinity
    return (len(a) - 1) - _gcd_degree(a, _deriv(a)) + at_infinity


@_value_class
class Pencil:
    """Two independent binary forms of the same degree bound (a g^1_k)."""

    f: BinaryForm
    g: BinaryForm

    def __init__(self, f: BinaryForm, g: BinaryForm):
        if f.bound != g.bound:
            raise ValueError("pencil members must share the degree bound")
        if f.bound < 1:
            _refuse_below("bound", 1, f.bound)
        if f.is_zero or g.is_zero:
            raise ValueError("pencil members must be nonzero forms")
        if proportional(f, g):
            raise ValueError("degenerate pencil: the two forms are proportional")
        self._fill(f, g)

    @property
    def k(self) -> int:
        return self.f.bound


@_value_class
class SymPlaneCurve:
    """A plane curve of declared degree in the coordinates (e0 : e1 : e2).

    Coefficients are stored sparsely as sorted ((a, b, c), integer) terms
    with a+b+c equal to the degree; zero entries are dropped.
    """

    degree: int
    terms: tuple[tuple[tuple[int, int, int], int], ...]

    def __init__(self, degree: int, terms):
        if _int(degree) < 0:
            _refuse_below("degree", 0, degree)
        items = terms.items() if isinstance(terms, dict) else tuple(terms)
        store: dict[tuple[int, int, int], int] = {}
        for expo, value in items:
            a, b, c = map(_int, expo)
            if a < 0 or b < 0 or c < 0 or a + b + c != degree:
                raise ValueError(f"exponent {expo} is not of total degree {degree}")
            store[a, b, c] = store.get((a, b, c), 0) + _int(value)
        self._fill(degree, tuple(sorted(t for t in store.items() if t[1])))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _rows(self) -> list[list[int]]:
        """Coefficients by power c of e2: rows[c][b] is the e0^(d-c-b) e1^b e2^c term."""
        d = self.degree
        rows = [[0] * (d - c + 1) for c in range(d + 1)]
        for (_, b, c), v in self.terms:
            rows[c][b] = v
        return rows

    def _value_at(self, e0, e1, e2):
        """The value at (e0, e1, e2), by Horner in e2 over the rows; `pullback`
        runs it on packed integers."""
        acc = 0
        for row in reversed(self._rows()):
            acc = acc * e2 + _horner(row, e0, e1)
        return acc

    def pullback(self, f0: BinaryForm, f1: BinaryForm, f2: BinaryForm) -> BinaryForm:
        """Substitute binary forms of a common bound for (e0, e1, e2).

        Their coefficient lists m0, m1, m2 are packed at X = 2^B, the nested
        Horner scheme of `_value_at` runs on the three integers, and the
        result is unpacked once.  The result is sum v m0^a m1^b m2^c over the
        terms; the l1 norm is submultiplicative and bounds every coefficient,
        so each coefficient is at most
        sum |v| max(||m0||_1, ||m1||_1, ||m2||_1)^d, and B is sized for that.
        """
        if not f0.bound == f1.bound == f2.bound:
            raise ValueError("pullback forms must share a degree bound")
        d, bound = self.degree, self.degree * f0.bound
        ms = (f0.coeffs, f1.coeffs, f2.coeffs)
        norm = max(sum(map(abs, ms[0])), sum(map(abs, ms[1])), sum(map(abs, ms[2])))
        width = _width(sum(abs(v) for _, v in self.terms) * norm**d)
        value = self._value_at(*(_pack(m, width) for m in ms))
        return BinaryForm._make(bound, tuple(_unpack(value, width, bound + 1)))


@lru_cache(maxsize=32)
def _wedge_plan(k: int) -> tuple[tuple, tuple]:
    """The part of `wedge_curve` that depends on k alone.

    The monomials (a, b, c) of degree k - 1 in sorted order, and for each
    pair i < j the triple (i, j, terms): w_ij adds c w_ij to
    monomials[number] for each (number, c) in terms.  With n = j - i - 1,
    those are the monomials (k - j + l, n - 2l, i + l) for l <= n/2, with
    c = -(-1)^l C(n-l, l).
    """
    d = k - 1
    monomials = tuple(sorted((a, b, d - a - b) for a in range(k) for b in range(k - a)))
    index = {m: number for number, m in enumerate(monomials)}
    pairs = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            n = j - i - 1
            terms = []
            for l in range(n // 2 + 1):
                c = comb(n - l, l)
                terms.append((index[k - j + l, n - 2 * l, i + l], c if l % 2 else -c))
            pairs.append((i, j, tuple(terms)))
    return monomials, tuple(pairs)


def wedge_curve(pencil: Pencil) -> SymPlaneCurve:
    """The degree k-1 plane curve of pairs lying in a member of the pencil.

    With w_ij = f_i g_j - f_j g_i, B(x, y) = -sum_{i<j} w_ij e2^i h_{j-i-1},
    and the complete symmetric polynomial has the closed form
    h_n = sum_l (-1)^l C(n-l, l) e1^(n-2l) e2^l, so each w_ij is written
    straight into the (e0 : e1 : e2) coefficients, through the terms that
    `_wedge_plan` holds for each degree.

    >>> f, g = BinaryForm(3, (0, 0, 0, 1)), BinaryForm(3, (1, 0, 0, 0))
    >>> wedge_curve(Pencil(f, g)).terms  # e1^2 - e0 e2
    (((0, 2, 0), 1), ((1, 0, 1), -1))
    """
    k = pencil.k
    a, b = pencil.f.coeffs, pencil.g.coeffs
    monomials, pairs = _wedge_plan(k)
    acc = [0] * len(monomials)
    for i, j, terms in pairs:
        w = a[i] * b[j] - a[j] * b[i]
        if w:
            for number, c in terms:
                acc[number] += c * w
    curve = SymPlaneCurve._make(k - 1, tuple(compress(zip(monomials, acc), acc)))
    if curve.is_zero:
        raise InvariantViolation("wedge curve vanished for a valid pencil")
    return curve


def wronskian(pencil: Pencil) -> BinaryForm:
    """f g' - f' g at degree bound 2k-2; roots are the ramification points.

    Two packed products.  An entry of f g' sums at most k terms f_i g'_j with
    |g'_j| <= k max|g|, so it is at most k^2 max|f| max|g|, and so is an
    entry of f' g; the width bounds their difference.
    """
    f, g = pencil.f.coeffs, pencil.g.coeffs
    k, bound = pencil.k, 2 * pencil.k - 2
    width = _width(2 * k * k * max(map(abs, f)) * max(map(abs, g)))
    value = (
        _pack(f, width) * _pack(_deriv(g), width)
        - _pack(_deriv(f), width) * _pack(g, width)
    )
    # both products have bound + 2 entries; the top ones cancel, so nothing
    # is left above the bound + 1 slots that _unpack reads
    return BinaryForm._make(bound, tuple(_unpack(value, width, bound + 1)))


def diagonal_restriction(curve: SymPlaneCurve, k: int) -> BinaryForm:
    """Restrict to the diagonal via (e0, e1, e2) = (x0^2, 2 x0 x1, x1^2).

    The substitution sends e0^a e1^b e2^c to the single monomial
    2^b x0^(2a+b) x1^(b+2c), so each term is scattered into its coefficient.
    """
    if curve.degree != k - 1:
        raise ValueError(
            f"curve has degree {curve.degree}, expected k-1 = {k - 1}"
        )
    out = [0] * (2 * curve.degree + 1)
    for (_, b, c), v in curve.terms:
        out[b + 2 * c] += v << b
    return BinaryForm._make(2 * curve.degree, tuple(out))


@lru_cache(maxsize=32)
def _identity_plan(k: int) -> MappingProxyType:
    """For every monomial (a, b, c) of degree k - 1, the entries
    ((k + 1) i + j, C(b, s)) with i = b - s + c and j = s + c that it adds
    to the x1^i y1^j matrix of `_value_identity`, held flat by rows of
    k + 1, one for each s <= b.

    Every monomial, not only those a wedge curve carries, since a wrong
    curve may carry any; the binomials come from Pascal's rule, not from the
    closed form of h_n that `_wedge_plan` expands.
    """
    binoms = [[1]]
    for _ in range(k - 1):
        row = binoms[-1]
        binoms.append([1] + [x + y for x, y in zip(row, row[1:])] + [1])
    n = k + 1
    return MappingProxyType({
        (k - 1 - b - c, b, c): tuple((n * (b - s + c) + s + c, v) for s, v in enumerate(binoms[b]))
        for c in range(k)
        for b in range(k - c)
    })


def _value_identity(pencil: Pencil, curve: SymPlaneCurve) -> str | None:
    """Where det(x, y) = (x - y) curve(x, y) fails as polynomials, or None.

    With x = (x0 : x1), y = (y0 : y1) and det = f(x) g(y) - g(x) f(y), the
    check is det == (x1 y0 - x0 y1) M on P^1 x P^1, coefficient by
    coefficient, where M is the curve at
    (e0, e1, e2) = (x0 y0, x1 y0 + x0 y1, x1 y1), expanded term by term as e0^a e1^b e2^c =
    sum_s C(b, s) x0^(a+s) x1^(b-s+c) y0^(a+b-s) y1^(s+c).  Both sides are
    antisymmetric in x and y, so only the pairs i < j of powers (x1^i, y1^j)
    are compared, i before j in lexicographic order; the first that differs is
    named "at x1^i y1^j".  A curve not of degree k - 1 fails "in degree".

    >>> f, g = BinaryForm(3, (0, 0, 0, 1)), BinaryForm(3, (1, 0, 0, 0))
    >>> curve = wedge_curve(Pencil(f, g))
    >>> _value_identity(Pencil(f, g), curve), _value_identity(Pencil(g, f), curve)
    (None, 'at x1^0 y1^3')
    """
    k = pencil.k
    if curve.degree != k - 1:
        return "in degree"
    # m[n i + j], n = k + 1, multiplies x1^i y1^j (x0 and y0 fill the degree k - 1
    # in each); row and column k stay zero, so row i - 1 at i = 0 reads zeros
    n = k + 1
    m = [0] * (n * n)
    plan = _identity_plan(k)
    for expo, v in curve.terms:
        for at, bs in plan[expo]:
            m[at] += bs * v
    f, g = pencil.f.coeffs, pencil.g.coeffs
    # the x1^i y1^j coefficient of (x1 y0 - x0 y1) M is m[i-1][j] - m[i][j-1]
    for i in range(k):
        fi, gi, up, here = f[i], g[i], n * (i - 1), n * i - 1
        for j in range(i + 1, n):
            if fi * g[j] - gi * f[j] != m[up + j] - m[here + j]:
                return f"at x1^{i} y1^{j}"
    return None


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _conic_forms(a) -> tuple[BinaryForm, BinaryForm, BinaryForm]:
    """The quadratic forms (a_i0, 2 a_i1, a_i2) of A's rows: A composed with
    (x0^2 : 2 x0 x1 : x1^2), a parametrization of the conic A(diagonal)."""
    return tuple(BinaryForm._make(2, (r[0], 2 * r[1], r[2])) for r in a)


def conic_intersection(curve: SymPlaneCurve, a) -> tuple[int, int]:
    """Intersect a plane curve with the smooth conic A(diagonal).

    `a` is an invertible 3x3 matrix A, given by rows; the conic is the image
    of the diagonal e1^2 = 4 e0 e2 under A, parametrized by
    A (x0^2, 2 x0 x1, x1^2).  The curve is pulled back through it to a binary
    form of degree 2*deg(curve), and the result is the pair (total,
    distinct) of intersection counts: total by Bezout, distinct as the
    degree of the squarefree part.  A curve containing the conic
    (identically vanishing pullback) is an error.

    >>> line = wedge_curve(Pencil(BinaryForm(2, (0, 0, 1)), BinaryForm(2, (1, 0, 0))))
    >>> conic_intersection(line, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    (2, 2)
    """
    det = _det3(a)
    # an entry that is not an int makes the determinant one too; this is
    # the only check, as `_conic_forms` builds its forms unchecked
    if type(det) is not int:
        raise TypeError(f"need an integer conic matrix, got {a!r}")
    if det == 0:
        raise ValueError("conic matrix is singular")
    pull = curve.pullback(*_conic_forms(a))
    if pull.is_zero:
        raise ValueError("curve contains the conic")
    total = 2 * curve.degree
    if pull.bound != total:
        raise InvariantViolation("pullback bound disagrees with Bezout degree")
    return total, distinct_root_count(pull)


# -- seeded sampling and the randomized verification suite


def _randints(bits, lo: int, hi: int, n: int) -> list[int]:
    """n calls of `rng.randint(lo, hi)` from `bits = rng.getrandbits`, by
    randint's own rule: the same values, bits consumed and final state."""
    span = hi - lo + 1
    width = span.bit_length()
    out = []
    while len(out) < n:
        if (r := bits(width)) < span:
            out.append(lo + r)
    return out


def _random_form(k: int, rng: random.Random) -> BinaryForm:
    bits = rng.getrandbits
    while True:
        cs = _randints(bits, -9, 9, k + 1)
        if any(cs):
            return BinaryForm._make(k, tuple(cs))


def random_pencil(k: int, rng: random.Random) -> Pencil:
    """A random pencil with small integer coefficients (k >= 1, an int)."""
    if _int(k) < 1:
        _refuse_below("k", 1, k)
    while True:
        f, g = _random_form(k, rng), _random_form(k, rng)
        if not proportional(f, g):  # _random_form draws nonzero forms only
            return Pencil._make(f, g)


def _forms_coprime(f: BinaryForm, g: BinaryForm) -> bool:
    if f.coeffs[-1] == 0 and g.coeffs[-1] == 0:
        return False  # common root at infinity
    return _gcd_degree(_trim(list(f.coeffs)), _trim(list(g.coeffs))) <= 0


def random_coprime_pencil(k: int, rng: random.Random) -> Pencil:
    """A random pencil whose members share no projective root."""
    while True:
        pencil = random_pencil(k, rng)
        if _forms_coprime(pencil.f, pencil.g):
            return pencil


def random_smooth_conic(rng: random.Random) -> list[list[int]]:
    """A random invertible 3x3 integer matrix A, by rows, entries in [-4, 4].

    It stands for the smooth conic A(diagonal), the random projective image
    of the diagonal that `conic_intersection` pulls a curve back to.
    """
    bits = rng.getrandbits
    while True:
        v = _randints(bits, -4, 4, 9)
        a = [v[:3], v[3:6], v[6:]]
        if _det3(a) != 0:
            return a


#: random pairs drawn and discarded per sample: the conic draws that follow
#: them in the stream, and so every seeded output, must stay byte-identical
MEMBERSHIP_POINTS = 100
#: the id 5 p + q of x = (n - 12)/(d + 1) = p/q in lowest terms, at 4 n + d,
#: for the draws n in [0, 24] and d in [0, 3]; as 1 <= q <= 4, two ids are
#: equal exactly when the values are
_PAIR_VALUE = tuple(5 * ((n - 12) // gcd(n - 12, den)) + den // gcd(n - 12, den)
                    for n in range(25) for den in range(1, 5))
# `verification_suite` refuses k and samples past these before it draws: its
# time grows with both (the conic pullback and gcd run at degree 2k - 2), and
# the largest accepted call, k = 16 with 1000 samples, took 0.50-0.72 s in
# process over 5 runs (Python 3.11.7, shared 2-vCPU Intel Xeon Linux machine,
# October 2026)
PENCIL_MAX_K = 16
PENCIL_MAX_SAMPLES = 1000


def verification_suite(k: int, samples: int = 200, seed: int = 0) -> dict:
    """Run the randomized pencil checks at degree k and report counts.

    Per sampled coprime pencil: the wedge curve, of degree k-1 by its
    construction, must have a term free of e0 (the wedge degree law); its
    diagonal restriction must equal minus the Wronskian; det(x, y) must
    equal (x - y) times the curve, a value identity
    checked once as polynomials by `_value_identity`, so at every pair, with
    a failure naming the first coefficient that differs (the MEMBERSHIP_POINTS
    random pairs are only drawn); and a pullback to a random smooth conic with
    fewer than 2(k-1) distinct points (the transversality statistic) must be
    genuinely non-squarefree.  Exact identity failures are collected in
    `failures`; only the transversality rate is statistical.  The counts come
    from `_suite_counts`, and the rate transversal/samples, 1 when no sample
    is drawn, is the one `Fraction` built here.
    """
    from fractions import Fraction
    result = _suite_counts(k, samples, seed)
    transversal = result["transversal"]
    result["transversal_rate"] = Fraction(transversal, samples) if samples else Fraction(1)
    return result


def _suite_counts(k: int, samples: int, seed: int) -> dict:
    """The report of `verification_suite` without its rate: integers and the
    list of failures."""
    if k > PENCIL_MAX_K:
        _refuse_over_limit(f"k={k} is", "PENCIL_MAX_K", PENCIL_MAX_K)
    if samples > PENCIL_MAX_SAMPLES:
        _refuse_over_limit(f"samples={samples} is", "PENCIL_MAX_SAMPLES", PENCIL_MAX_SAMPLES)
    if k < 2:
        _refuse_below("k", 2, k)
    if samples < 0:
        _refuse_below("samples", 0, samples)
    rng = random.Random(f"k3gonal:{seed}:{k}")
    bits, ids = rng.getrandbits, _PAIR_VALUE
    failures: list[str] = []
    transversal = 0
    for index in range(samples):
        pencil = random_coprime_pencil(k, rng)
        curve = wedge_curve(pencil)
        if not any(a == 0 for (a, _, _), _ in curve.terms):
            failures.append(f"sample {index}: wedge degree law")
        diag = diagonal_restriction(curve, k)
        if diag.coeffs != tuple(map(neg, wronskian(pencil).coeffs)):
            failures.append(f"sample {index}: diagonal/Wronskian identity")
        where = _value_identity(pencil, curve)
        if where is not None:
            failures.append(f"sample {index}: membership oracle {where}")
        # each pair x = (nx - 12)/(dx + 1) != y = (ny - 12)/(dy + 1) is drawn by
        # randint's rule for [-12, 12] and [1, 4], (ny, dy) again while y == x
        for _ in range(MEMBERSHIP_POINTS):
            while (nx := bits(5)) >= 25:
                pass
            while (dx := bits(3)) >= 4:
                pass
            x = y = ids[4 * nx + dx]
            while y == x:
                while (ny := bits(5)) >= 25:
                    pass
                while (dy := bits(3)) >= 4:
                    pass
                y = ids[4 * ny + dy]
        a = random_smooth_conic(rng)
        total, distinct = conic_intersection(curve, a)
        if distinct == total:
            transversal += 1
        else:
            pull = curve.pullback(*_conic_forms(a))
            if is_squarefree(pull):
                failures.append(
                    f"sample {index}: non-transversal report with squarefree pullback"
                )
    return {
        "k": k,
        "samples": samples,
        "seed": seed,
        "membership_points": MEMBERSHIP_POINTS,
        "failures": failures,
        "transversal": transversal,
    }
