import random
import re
import time
from fractions import Fraction
from math import comb, gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3gonal import pencil as pencil_module
from k3gonal.errors import InvariantViolation
from k3gonal.pencil import (
    PENCIL_MAX_K,
    BinaryForm,
    Pencil,
    SymPlaneCurve,
    _gcd_degree,
    _horner,
    _mul,
    _pack,
    _primitive,
    _prs_gcd_degree,
    _randints,
    _unpack,
    _value_identity,
    conic_intersection,
    diagonal_restriction,
    distinct_root_count,
    is_squarefree,
    proportional,
    random_coprime_pencil,
    random_pencil,
    random_smooth_conic,
    verification_suite,
    wedge_curve,
    wronskian,
)

import guards

# -- test-local references for the pointwise membership oracle and the
# -- simple-ramification predicate, which the library no longer exports


class _Infinity:
    """Marker for the point at infinity of P^1."""

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def simple_ramification(pencil):
    """True iff the ramification divisor is reduced (Wronskian squarefree)."""
    return is_squarefree(wronskian(pencil))


def _as_point(x):
    """Integer coordinates (x0 : x1) of a rational number or INFINITY."""
    if x is INFINITY:
        return 0, 1
    q = Fraction(x)
    return q.denominator, q.numerator


def divisor_point(x, y):
    """Sym^2 coordinates of the unordered pair {x, y}; INFINITY allowed.

    Normalized so that the first nonzero coordinate is 1.
    """
    a0, a1 = _as_point(x)
    b0, b1 = _as_point(y)
    e = (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)
    lead = next(v for v in e if v)
    return tuple(Fraction(v, lead) for v in e)


def contains_divisor(pencil, x, y):
    """Determinant membership oracle: does some member vanish on {x, y}?

    Evaluates det [[f(x), g(x)], [f(y), g(y)]] projectively; each argument is
    a rational number or INFINITY.  On the diagonal x == y the determinant
    vanishes identically, so the oracle is informative only for x != y.
    """
    f, g = pencil.f.coeffs, pencil.g.coeffs
    p, q = _as_point(x), _as_point(y)
    return _horner(f, *p) * _horner(g, *q) == _horner(g, *p) * _horner(f, *q)


# -- test-local references for pointwise evaluation at rational points and
# -- for a linear change of variables, which the library no longer carries


def eval_proj(form, x0, x1):
    """The form at the projective point (x0 : x1), term by term."""
    n = form.bound
    return sum(c * x0 ** (n - i) * x1**i for i, c in enumerate(form.coeffs))


def evaluate(curve, e0, e1, e2):
    """The curve at the point (e0 : e1 : e2), term by term."""
    return sum(v * e0**a * e1**b * e2**c for (a, b, c), v in curve.terms)


def substitute(form, a, b, c, d):
    """The form under (x0, x1) -> (a x0 + b x1, c x0 + d x1), ad - bc != 0:
    each c_i (a x0 + b x1)^(n-i) (c x0 + d x1)^i expanded binomially."""
    assert a * d - b * c != 0
    n = form.bound
    out = [0] * (n + 1)
    for i, ci in enumerate(form.coeffs):
        for r in range(n - i + 1):
            left = ci * comb(n - i, r) * a ** (n - i - r) * b**r
            for s in range(i + 1):
                out[r + s] += left * comb(i, s) * c ** (i - s) * d**s
    return BinaryForm(n, out)


# frequently used forms: x1^k and x0^k at bound k
def monomial_pencil(k):
    return Pencil(BinaryForm(k, [0] * k + [1]), BinaryForm(k, [1] + [0] * k))


def coefficient(curve, a, b, c):
    """The coefficient of e0^a e1^b e2^c in a curve."""
    return dict(curve.terms).get((a, b, c), 0)


small = st.integers(-6, 6)


def form_strategy(k):
    return st.lists(small, min_size=k + 1, max_size=k + 1).filter(any).map(
        lambda cs: BinaryForm(k, cs)
    )


def test_binary_form_bookkeeping():
    f = BinaryForm(3, (1, 2, 0, 0))
    assert f.affine_degree == 1
    assert f.infinity_multiplicity == 2
    assert eval_proj(f, 1, 2) == 5
    assert eval_proj(f, 0, 1) == 0
    # equal coefficients, from any iterable, give equal, equally hashed forms
    h = BinaryForm(2, (1, 2, 0))
    assert BinaryForm(2, [1, 2, 0]) == h
    assert hash(BinaryForm(2, iter((1, 2, 0)))) == hash(h)
    assert BinaryForm(2, [1, 2, 0]).coeffs == (1, 2, 0)
    # a form is stored as given, not up to scale
    assert BinaryForm(1, (2, 4)) != BinaryForm(1, (1, 2))
    assert eval_proj(h, 2, Fraction(1, 3)) == Fraction(16, 3)
    g = BinaryForm(3, (3, -12, 0, 14))
    for c in (-3, 5, 7, 12):
        scaled = BinaryForm(3, [c * x for x in g.coeffs])
        assert proportional(g, scaled) and proportional(scaled, g)
    assert not proportional(g, BinaryForm(3, (3, -12, 6, 14)))
    zero = BinaryForm(3, (0, 0, 0, 0))
    assert not proportional(g, zero)
    assert proportional(zero, zero)


def test_sym_plane_curve_canonical_form():
    a = SymPlaneCurve(2, {(2, 0, 0): 2, (0, 1, 1): 3})
    b = SymPlaneCurve(
        2,
        [((0, 1, 1), 3), ((2, 0, 0), 1),
         ((2, 0, 0), 1), ((1, 1, 0), 1), ((1, 1, 0), -1)],
    )
    assert a == b and hash(a) == hash(b)
    assert a.terms == (((0, 1, 1), 3), ((2, 0, 0), 2))
    assert coefficient(a, 2, 0, 0) == 2
    assert coefficient(a, 0, 2, 0) == 0
    assert evaluate(a, 1, 2, Fraction(1, 3)) == 4  # 2 + 3 * 2/3
    assert SymPlaneCurve(1, {(1, 0, 0): 2}) != SymPlaneCurve(1, {(1, 0, 0): 1})
    assert SymPlaneCurve(1, {(1, 0, 0): 3, (0, 1, 0): 0}).is_zero is False
    assert SymPlaneCurve(1, {(1, 0, 0): 0}).is_zero


def test_rational_arithmetic_matches_evaluation():
    # products, substitutions and pullbacks of integer forms and curves,
    # checked against direct evaluation at rational points
    rng = random.Random("rational-arithmetic")

    def n():
        return rng.randint(-6, 6)

    def q():
        return Fraction(n(), rng.randint(1, 4))

    for _ in range(30):
        f = BinaryForm(2, [n() for _ in range(3)])
        g = BinaryForm(3, [n() for _ in range(4)])
        m = [n() for _ in range(4)]
        forms = [BinaryForm(2, [n() for _ in range(3)]) for _ in range(3)]
        curve = SymPlaneCurve(
            3, {(a, b, 3 - a - b): n() for a in range(4) for b in range(4 - a)}
        )
        pull = curve.pullback(*forms)
        for _ in range(4):
            x0, x1 = q(), q()
            assert eval_proj(f * g, x0, x1) == eval_proj(f, x0, x1) * eval_proj(g, x0, x1)
            if m[0] * m[3] != m[1] * m[2]:
                assert eval_proj(substitute(g, *m), x0, x1) == eval_proj(
                    g, m[0] * x0 + m[1] * x1, m[2] * x0 + m[3] * x1
                )
            assert eval_proj(pull, x0, x1) == evaluate(
                curve, *(eval_proj(h, x0, x1) for h in forms)
            )


def test_wedge_curve_k2():
    curve = wedge_curve(monomial_pencil(2))
    assert curve.degree == 1
    assert curve.terms == (((0, 1, 0), 1),)  # the line e1 = 0


def test_wedge_curve_k3():
    curve = wedge_curve(monomial_pencil(3))
    assert curve.degree == 2
    # (x^3 - y^3)/(x - y) = e1^2 - e0 e2
    assert coefficient(curve, 0, 2, 0) == 1
    assert coefficient(curve, 1, 0, 1) == -1


def test_wedge_curve_k3_generic():
    f = BinaryForm(3, (1, 1, 0, 1))  # 1 + z + z^3
    g = BinaryForm(3, (0, 1, 1, 0))  # z + z^2
    curve = wedge_curve(Pencil(f, g))
    assert curve.degree == 2 and not curve.is_zero
    # oracle: B(x, y) (x - y) = f(x) g(y) - f(y) g(x) at sample points
    for x, y in [(2, 3), (Fraction(1, 2), -1), (5, Fraction(-2, 3))]:
        lhs = evaluate(curve, 1, x + y, x * y) * (x - y)
        rhs = eval_proj(f, 1, x) * eval_proj(g, 1, y) - eval_proj(f, 1, y) * eval_proj(
            g, 1, x
        )
        assert lhs == rhs


def test_wedge_division_identity_exact():
    # B(x, y) (x - y) == f(x) g(y) - f(y) g(x) at many rational points
    rng = random.Random("wedge-oracle")
    for k in range(2, 6):
        pencil = random_pencil(k, rng)
        curve = wedge_curve(pencil)
        for _ in range(25):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            lhs = evaluate(curve, 1, x + y, x * y) * (x - y)
            rhs = eval_proj(pencil.f, 1, x) * eval_proj(pencil.g, 1, y) - eval_proj(
                pencil.f, 1, y
            ) * eval_proj(pencil.g, 1, x)
            assert lhs == rhs


def test_wronskian_examples():
    w = wronskian(monomial_pencil(2))
    assert w.bound == 2
    assert list(w.coeffs) == [0, -2, 0]  # -2 x0 x1: roots 0 and infinity
    assert distinct_root_count(w) == 2

    w3 = wronskian(monomial_pencil(3))
    assert list(w3.coeffs) == [0, 0, -3, 0, 0]
    assert not is_squarefree(w3)

    f = BinaryForm(3, (1, 1, 0, 1))
    g = BinaryForm(3, (0, 1, 1, 0))
    w = wronskian(Pencil(f, g))
    assert list(w.coeffs) == [1, 2, 1, -2, -1]  # -(z^4 + 2z^3 - z^2 - 2z - 1)


def test_diagonal_restriction_examples():
    line = wedge_curve(monomial_pencil(2))
    d = diagonal_restriction(line, 2)
    assert list(d.coeffs) == [0, 2, 0]  # 2 x0 x1, proportional to the Wronskian
    assert proportional(d, wronskian(monomial_pencil(2)))

    conic = wedge_curve(monomial_pencil(3))
    d3 = diagonal_restriction(conic, 3)
    assert proportional(d3, wronskian(monomial_pencil(3)))

    zero = SymPlaneCurve(1, {})
    assert diagonal_restriction(zero, 2).is_zero


def test_simple_ramification_examples():
    assert simple_ramification(monomial_pencil(2))
    assert not simple_ramification(monomial_pencil(3))
    f = BinaryForm(3, (0, -1, 0, 1))  # z^3 - z
    g = BinaryForm(3, (0, 0, 1, 0))  # z^2
    assert not simple_ramification(Pencil(f, g))  # W = -z^2 (z^2 + 1)


def test_contains_divisor_examples():
    pencil = monomial_pencil(2)
    assert contains_divisor(pencil, 1, -1)
    assert not contains_divisor(pencil, 1, 2)
    # a Wronskian root paired with itself is trivially contained
    assert contains_divisor(pencil, 0, 0)
    assert contains_divisor(pencil, INFINITY, INFINITY)
    # no member of <x1^2, x0^2> vanishes on {0, infinity}
    assert not contains_divisor(pencil, 0, INFINITY)


def test_contains_divisor_at_infinity():
    # pencil of x1^2 and x0 x1 contains the divisor {0, infinity}
    pencil = Pencil(BinaryForm(2, (0, 0, 1)), BinaryForm(2, (0, 1, 0)))
    assert contains_divisor(pencil, 0, INFINITY)
    assert divisor_point(2, INFINITY) == (0, 1, 2)


def test_membership_matches_curve_evaluation():
    rng = random.Random("membership")
    for k in range(2, 6):
        pencil = random_pencil(k, rng)
        curve = wedge_curve(pencil)
        for _ in range(120):
            x = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            y = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            if x == y:
                continue
            on_curve = evaluate(curve, 1, x + y, x * y) == 0
            assert on_curve == contains_divisor(pencil, x, y)


def test_diagonal_points_are_ramification_points():
    # {x0, x0} lies on the wedge curve iff x0 is a Wronskian root
    rng = random.Random("members")
    for k in (2, 3, 4):
        pencil = random_coprime_pencil(k, rng)
        curve = wedge_curve(pencil)
        w = wronskian(pencil)
        for x0 in (Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(0)):
            diag_val = evaluate(curve, 1, 2 * x0, x0 * x0)
            assert (diag_val == 0) == (eval_proj(w, 1, x0) == 0)


# -- test-local reference for conic_intersection: the equation of A(diagonal)
# -- from A's cofactors, parametrized by lines through its point A (1, 0, 0)

#: the matrix of the diagonal itself
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cross(u, v):
    """u x v, whose entries are the signed 2x2 minors of the rows u, v."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _ref_det(m):
    return sum(x * y for x, y in zip(m[0], _cross(m[1], m[2])))


def _ref_conic(a):
    """The conic A(diagonal) as a curve, and the integer point A (1, 0, 0) on it."""
    # matrix of the image conic, up to scale: adj(A)^T M0 adj(A), whose
    # entries pair the rows of adj(A)^T, the cross products of A's rows, by
    # the matrix M0 of e1^2 - 4 e0 e2: u^T M0 v = u1 v1 - 2 (u0 v2 + u2 v0)
    cof = (_cross(a[1], a[2]), _cross(a[2], a[0]), _cross(a[0], a[1]))
    mt = [[u[1] * v[1] - 2 * (u[0] * v[2] + u[2] * v[0]) for v in cof] for u in cof]
    # x^T mt x: the e_r e_s coefficient is mt[r][s], doubled for r != s
    conic = SymPlaneCurve(2, {
        tuple((r == i) + (s == i) for i in range(3)): mt[r][s] * (1 + (r != s))
        for r in range(3) for s in range(r, 3)
    })
    return conic, tuple(a[i][0] for i in range(3))


def _conic_matrix(conic):
    """Integer symmetric matrix M with x^T M x = 2 (conic)(x)."""
    c = dict(conic.terms)
    a00, a11, a22 = (2 * c.get(e, 0) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    a01, a02, a12 = (c.get(e, 0) for e in ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    return [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]


def _conic_parametrization(conic, pt):
    """Degree-2 parametrization of a smooth conic by lines through the
    integer point `pt` on it.

    The line through `pt` in direction V = s*e_i + t*e_j meets the conic
    again at Q(V) * pt - 2 B(pt, V) * V, quadratic in (s, t); the unit
    vectors e_i, e_j off the first nonzero coordinate of `pt` span a
    complement of it, so the map is everywhere defined and hits every point
    of the conic exactly once.
    """
    m = _conic_matrix(conic)
    assert _ref_det(m) != 0 and evaluate(conic, *pt) == 0
    pivot = next(i for i in range(3) if pt[i] != 0)
    i1, i2 = (i for i in range(3) if i != pivot)
    qv = (m[i1][i1], 2 * m[i1][i2], m[i2][i2])
    b1, b2 = (sum(x * y for x, y in zip(pt, m[i])) for i in (i1, i2))
    second = {i1: (b1, b2, 0), i2: (0, b1, b2), pivot: (0, 0, 0)}
    return tuple(
        BinaryForm(2, [pt[i] * x - 2 * y for x, y in zip(qv, second[i])])
        for i in range(3)
    )


def sym2(a, b, c, d):
    """The matrix on (e0, e1, e2) induced by the Mobius map (x0, x1) ->
    (a x0 + b x1, c x0 + d x1): it sends (s^2, 2st, t^2) to
    (x0^2, 2 x0 x1, x1^2) at the image point, so it maps the diagonal onto
    itself with another parametrization."""
    return (
        (a * a, a * b, b * b),
        (2 * a * c, a * d + b * c, 2 * b * d),
        (c * c, c * d, d * d),
    )


def test_conic_intersection_examples():
    line = wedge_curve(monomial_pencil(2))
    assert conic_intersection(line, IDENTITY) == (2, 2)
    conic3 = wedge_curve(monomial_pencil(3))
    total, distinct = conic_intersection(conic3, IDENTITY)
    assert total == 4 and distinct == 2
    # Bezout against the diagonal at several degrees
    rng = random.Random("bezout-diagonal")
    for k in range(2, 7):
        curve = wedge_curve(random_coprime_pencil(k, rng))
        total, _ = conic_intersection(curve, IDENTITY)
        assert total == 2 * (k - 1)


def test_conic_intersection_errors():
    line = wedge_curve(monomial_pencil(2))
    # the conic's forms are built unchecked, so the matrix is checked instead
    for entry in (0.5, Fraction(1, 2), Fraction(2), 2.0):
        with pytest.raises(TypeError, match="integer conic matrix"):
            conic_intersection(line, ((1, 0, 0), (0, 1, 0), (0, 0, entry)))


def test_diagonal_intersection_counts_match_wronskian():
    # two routes to the ramification divisor: pulling the wedge curve back
    # to the diagonal, parametrized through a Mobius map M != I rather than
    # the scatter of diagonal_restriction, and gcd-counting the Wronskian's
    # distinct roots directly
    rng = random.Random("dual-route")
    mobius = sym2(1, -3, 2, 5)
    for k in range(2, 7):
        for _ in range(8):
            pencil = random_coprime_pencil(k, rng)
            curve = wedge_curve(pencil)
            total, distinct = conic_intersection(curve, mobius)
            w = wronskian(pencil)
            assert total == 2 * (k - 1)
            assert distinct == distinct_root_count(w)
            assert (distinct == total) == simple_ramification(pencil)


def test_conic_intersection_bezout_on_samples():
    rng = random.Random("bezout")
    for k in range(2, 7):
        pencil = random_coprime_pencil(k, rng)
        curve = wedge_curve(pencil)
        total, distinct = conic_intersection(curve, random_smooth_conic(rng))
        assert total == 2 * (k - 1)
        assert 1 <= distinct <= total


small_ints = st.integers(-2, 2)


@st.composite
def small_pencil(draw):
    """Pencils with coefficients in [-2, 2], so that tangencies are common."""
    k = draw(st.integers(2, 5))
    form = st.lists(small_ints, min_size=k + 1, max_size=k + 1).filter(any)
    f, g = BinaryForm(k, draw(form)), BinaryForm(k, draw(form))
    assume(not proportional(f, g))
    return Pencil(f, g)


invertible = st.lists(
    st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3
).filter(lambda a: _ref_det(a) != 0)


@given(small_pencil(), invertible)
@example(monomial_pencil(3), IDENTITY)  # tangent: 2 of 4
@example(monomial_pencil(3), sym2(1, -3, 2, 5))
@settings(max_examples=300, deadline=None)
def test_conic_intersection_matches_lines_through_a_point(pencil, a):
    # A composed with the diagonal's parametrization and the parametrization
    # by lines through A (1, 0, 0) differ by a Mobius map, which keeps the
    # count of distinct roots
    curve = wedge_curve(pencil)
    pull = curve.pullback(*_conic_parametrization(*_ref_conic(a)))
    if pull.is_zero:
        with pytest.raises(ValueError, match="contains"):
            conic_intersection(curve, a)
    else:
        want = (2 * curve.degree, _ref_counts(list(pull.coeffs))[0])
        assert conic_intersection(curve, a) == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_diagonal_identity_hypothesis(data):
    k = data.draw(st.integers(2, 5))
    f = data.draw(form_strategy(k))
    g = data.draw(form_strategy(k))
    if proportional(f, g):
        return
    pencil = Pencil(f, g)
    assert proportional(
        diagonal_restriction(wedge_curve(pencil), k), wronskian(pencil)
    )


def test_gl2_covariance_of_wronskian():
    rng = random.Random("mobius")
    mats = [(1, 1, 0, 1), (0, 1, 1, 0), (2, 1, 1, 1), (1, -3, 2, 5)]
    for k in range(2, 6):
        for mat in mats:
            pencil = random_pencil(k, rng)
            transported = substitute(wronskian(pencil), *mat)
            transformed = wronskian(
                Pencil(substitute(pencil.f, *mat), substitute(pencil.g, *mat))
            )
            assert proportional(transported, transformed)


def test_varying_pencil_moves_intersection_points():
    # weak proxy for the no-fixed-point statement: three sampled pencils give
    # pairwise distinct diagonal intersection divisors
    rng = random.Random("variation")
    k = 4
    pulls = []
    for _ in range(3):
        pencil = random_coprime_pencil(k, rng)
        pulls.append(diagonal_restriction(wedge_curve(pencil), k))
    for i in range(3):
        for j in range(i + 1, 3):
            assert not proportional(pulls[i], pulls[j])


def test_verification_suite_small():
    result = verification_suite(3, samples=25, seed=11)
    assert result["failures"] == []
    assert result["transversal_rate"] >= Fraction(95, 100)
    assert result["seed"] == 11


@pytest.mark.parametrize("k, samples, message", [
    (17, 1, "k=17 is over the limit PENCIL_MAX_K = 16"),
    (3, 1001, "samples=1001 is over the limit PENCIL_MAX_SAMPLES = 1000"),
    (17, 1001, "PENCIL_MAX_K"),
    (1, 1001, "PENCIL_MAX_SAMPLES"),
    (1, 1, "need k >= 2"),
    (3, -1, "need samples >= 0"),
])
def test_verification_suite_refuses_before_any_draw(monkeypatch, k, samples, message):
    # every check runs before the Random is seeded, the limits first
    monkeypatch.setattr(pencil_module.random, "Random", lambda *args: pytest.fail("seeded"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(message)):
        verification_suite(k, samples=samples)
    assert time.perf_counter() - start < 0.05


# -- reference oracle: monic Euclid over the rationals


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_rem(a, b):
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        d = len(rem) - len(b)
        for i, y in enumerate(b):
            rem[d + i] -= c * y
        rem = _ref_trim(rem)
    return rem


def _ref_gcd(a, b):
    """Monic gcd over the rationals, by Euclid."""
    while b:
        a, b = b, _ref_rem(a, b)
    return [x / a[-1] for x in a] if a else a


def _ref_counts(coeffs):
    """(distinct projective roots, squarefree) of a nonzero binary form."""
    a = _ref_trim(map(Fraction, coeffs))
    at_infinity = len(coeffs) - len(a)
    if len(a) <= 1:
        return min(at_infinity, 1), at_infinity <= 1
    g = _ref_gcd(a, _ref_trim(i * a[i] for i in range(1, len(a))))
    distinct = (len(a) - 1) - (len(g) - 1) + min(at_infinity, 1)
    return distinct, at_infinity <= 1 and len(g) <= 1


@st.composite
def root_test_form(draw):
    """Integer forms up to bound 8 with 0, 1 or 2 roots at infinity.

    Half are products of small linear factors, drawn with repeats so that
    repeated roots are common.
    """
    tail = draw(st.integers(0, 2))
    if draw(st.booleans()):
        head = draw(st.lists(small, min_size=1, max_size=9 - tail))
        head[-1] = head[-1] or 1
    else:
        factors = draw(st.lists(st.tuples(small, small.filter(bool)), max_size=8 - tail))
        head = [draw(small.filter(bool))]
        for c0, c1 in factors:
            head = [
                (head[i] if i < len(head) else 0) * c0
                + (head[i - 1] if i >= 1 else 0) * c1
                for i in range(len(head) + 1)
            ]
    cs = head + [0] * tail
    return BinaryForm(len(cs) - 1, cs)


@given(root_test_form())
@settings(max_examples=300, deadline=None)
def test_root_counts_match_rational_euclid(form):
    distinct, squarefree = _ref_counts(list(form.coeffs))
    assert distinct_root_count(form) == distinct
    assert is_squarefree(form) == squarefree


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-4, 4), (-12, 12), (1, 4)])
def test_randint_matches_random_randint(lo, hi):
    # the seeded pencil streams rest on _randints consuming randint's bits
    for seed in range(300):
        ours, ref = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        assert _randints(bits, lo, hi, 200) == [
            ref.randint(lo, hi) for _ in range(200)
        ]
        assert ours.getstate() == ref.getstate()


def test_pair_value_ids_name_the_values():
    # the suite tells the discarded pairs' values apart by these ids alone
    ids = pencil_module._PAIR_VALUE
    assert len(ids) == 100
    draws = [(n, d) for n in range(25) for d in range(4)]
    for nx, dx in draws:
        for ny, dy in draws:
            same = (ny - 12) * (dx + 1) == (nx - 12) * (dy + 1)
            assert (ids[4 * nx + dx] == ids[4 * ny + dy]) == same


# -- the public draws against a replay on Random.randint alone


class _Scripted(random.Random):
    """A Random whose getrandbits returns the scripted words first; randint
    then draws through it too."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def getrandbits(self, k):
        return self.script.pop(0) if self.script else super().getrandbits(k)


def _replay_form(rng, k, retries):
    while True:
        cs = [rng.randint(-9, 9) for _ in range(k + 1)]
        if any(cs):
            return cs
        retries["zero form"] += 1


def _replay_pencil(rng, k, retries):
    while True:
        f, g = _replay_form(rng, k, retries), _replay_form(rng, k, retries)
        if any(f[i] * g[j] != f[j] * g[i] for i in range(k + 1) for j in range(i)):
            return f, g
        retries["proportional pair"] += 1


def _replay_coprime_pencil(rng, k, retries):
    while True:
        f, g = _replay_pencil(rng, k, retries)
        # a common projective root: both vanish at infinity, or a common
        # affine factor over the rationals
        if (f[-1] or g[-1]) and len(_ref_gcd(_ref_trim(map(Fraction, f)),
                                             _ref_trim(map(Fraction, g)))) <= 1:
            return f, g
        retries["common root"] += 1


def _replay_conic(rng, retries):
    while True:
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if _ref_det(a):
            return a
        retries["singular matrix"] += 1


def _check_draws(ours, ref, k, retries):
    """Each public draw on `ours` returns what the replay on `ref` gives, and
    leaves the same stream state."""
    pencil = random_pencil(k, ours)
    assert (list(pencil.f.coeffs), list(pencil.g.coeffs)) == _replay_pencil(ref, k, retries)
    assert ours.getstate() == ref.getstate()
    assert random_smooth_conic(ours) == _replay_conic(ref, retries)
    assert ours.getstate() == ref.getstate()
    pencil = random_coprime_pencil(k, ours)
    assert (list(pencil.f.coeffs), list(pencil.g.coeffs)) == _replay_coprime_pencil(
        ref, k, retries
    )
    assert ours.getstate() == ref.getstate()


RETRIES = ("zero form", "proportional pair", "common root", "singular matrix")


def test_public_draws_match_a_randint_replay():
    retries = dict.fromkeys(RETRIES, 0)
    for k in range(1, PENCIL_MAX_K + 1):
        for seed in range(200):
            name = f"k3gonal:{seed}:{k}"
            _check_draws(random.Random(name), random.Random(name), k, retries)
    # the sweep takes every retry path (2, 9, 27 and 128 times)
    assert all(retries.values()), retries


# words r draw -9 + r for a form and -4 + r for a matrix entry; _check_draws
# draws a pencil, a conic and a coprime pencil, in that order
_PENCIL_1 = [10, 11, 10, 12]  # f = (1, 2), g = (1, 3)
_IDENTITY = [5, 4, 4, 4, 5, 4, 4, 4, 5]


@pytest.mark.parametrize("k, script, path", [
    (2, [9, 9, 9], "zero form"),
    (1, [10, 11, 10, 11], "proportional pair"),  # f = g = (1, 2)
    (1, _PENCIL_1 + [5, 6, 7] * 3, "singular matrix"),  # three rows (1, 2, 3)
    # f = 1 + z and g = 1 + 2z at bound 2 both vanish at infinity
    (2, [10] * 3 + [10, 11, 12] + _IDENTITY + [10, 10, 9, 10, 11, 9], "common root"),
])
def test_scripted_retries_match_the_replay(k, script, path):
    retries = dict.fromkeys(RETRIES, 0)
    ours, ref = _Scripted("scripted", script), _Scripted("scripted", script)
    _check_draws(ours, ref, k, retries)
    assert retries[path] == 1
    assert ours.script == ref.script == []


@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_membership_oracle_catches_wrong_curve(monkeypatch, k):
    monkeypatch.setattr(pencil_module, "wedge_curve", guards.membership_breaking_wedge)
    failures = verification_suite(k, samples=20, seed=0)["failures"]
    assert len(failures) == 20
    assert all("membership oracle" in f for f in failures)
    assert not any("Wronskian" in f for f in failures)


def _plan_with_one_wrong_term(plan):
    """`plan` with the coefficient of w_(0,k) on e1^(k-1) raised by one: a
    wrong curve built through a wrong table."""

    def wrong(k):
        monomials, pairs = plan(k)
        i, j, ((number, c), *rest) = pairs[k - 1]
        assert (i, j, monomials[number]) == (0, k, (0, k - 1, 0))
        changed = (i, j, ((number, c + 1), *rest))
        return monomials, (*pairs[: k - 1], changed, *pairs[k:])

    return wrong


@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_membership_oracle_catches_a_wrong_wedge_plan(monkeypatch, k):
    # the identity's own plan shares nothing with the wedge plan, so a fault
    # in the wedge plan is caught, sample by sample
    wrong = _plan_with_one_wrong_term(pencil_module._wedge_plan)
    monkeypatch.setattr(pencil_module, "_wedge_plan", wrong)
    failures = verification_suite(k, samples=20, seed=0)["failures"]
    assert [f for f in failures if "membership oracle" in f] == [
        f"sample {index}: membership oracle at x1^0 y1^{k}" for index in range(20)
    ]


@pytest.mark.parametrize("k", range(2, PENCIL_MAX_K + 1))
def test_diagonal_is_minus_the_wronskian_on_every_basis_pair(k):
    # both sides are bilinear and alternating in (f, g), so the identity holds
    # for every pencil of degree k once it holds on the C(k+1, 2) basis pairs
    basis = [BinaryForm(k, tuple(int(n == i) for n in range(k + 1))) for i in range(k + 1)]
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            pencil = Pencil(basis[i], basis[j])
            diag = diagonal_restriction(wedge_curve(pencil), k)
            assert diag.coeffs == tuple(-c for c in wronskian(pencil).coeffs), (i, j)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_diagonal_check_is_exact_not_up_to_scale(monkeypatch, k):
    # twice the Wronskian is still proportional to the diagonal, but is not
    # minus it, so every sample fails the identity
    monkeypatch.setattr(pencil_module, "wronskian", guards.doubled_wronskian)
    failures = verification_suite(k, samples=5, seed=1)["failures"]
    assert failures == [f"sample {index}: diagonal/Wronskian identity" for index in range(5)]


@pytest.mark.parametrize("k", range(1, PENCIL_MAX_K + 1))
def test_plans_cover_every_monomial(k):
    everything = sorted((a, b, k - 1 - a - b) for a in range(k) for b in range(k - a))
    monomials, pairs = pencil_module._wedge_plan(k)
    assert list(monomials) == everything
    assert [(i, j) for i, j, _ in pairs] == [
        (i, j) for i in range(k + 1) for j in range(i + 1, k + 1)
    ]
    assert sorted(pencil_module._identity_plan(k)) == everything


def test_random_pencil_checks_proportionality_once(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return proportional(u, v)

    monkeypatch.setattr(pencil_module, "proportional", counted)
    pencil = random_pencil(5, random.Random("once"))
    assert calls == [(pencil.f, pencil.g)]
    # the pencil drawn passes every check of the public constructor
    assert Pencil(pencil.f, pencil.g) == pencil


def test_verification_suite_deterministic():
    a = verification_suite(4, samples=10, seed=3)
    b = verification_suite(4, samples=10, seed=3)
    assert a == b


# -- reference oracle: expand B(x, y) and reduce it to (e0 : e1 : e2) term by term


def _ref_symmetric_to_ternary(sym, degree):
    """Strip the lex-largest monomial x^i y^j (i >= j) of a symmetric
    polynomial, emit e0^(d-i) e1^(i-j) e2^j and subtract (x+y)^(i-j) (xy)^j,
    until nothing is left."""
    work = {e: v for e, v in sym.items() if v}
    out = {}
    binom = [[1]]
    while work:
        i, j = max(work)
        assert i >= j and work.get((j, i)) == work[(i, j)] and i <= degree
        c = work[(i, j)]
        out[(degree - i, i - j, j)] = c
        while len(binom) <= i - j:
            prev = binom[-1]
            binom.append([1] + [prev[u] + prev[u + 1] for u in range(len(prev) - 1)] + [1])
        for u, b in enumerate(binom[i - j]):
            key = (u + j, i - u)
            work[key] = work.get(key, 0) - c * b
            if work[key] == 0:
                del work[key]
    return SymPlaneCurve(degree, out)


def _ref_wedge_curve(pencil):
    k = pencil.k
    a, b = pencil.f.coeffs, pencil.g.coeffs
    sym = {}
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            w = a[i] * b[j] - a[j] * b[i]
            # (x^i y^j - x^j y^i)/(x - y) = -sum_{u+v=j-i-1} x^(i+u) y^(i+v)
            for u in range(j - i):
                key = (i + u, j - 1 - u)
                sym[key] = sym.get(key, 0) - w
    return _ref_symmetric_to_ternary(sym, k - 1)


@pytest.mark.parametrize("rational", [False, True])
def test_wedge_curve_matches_term_by_term_reduction(rational):
    # a rational pencil enters as its integer multiple: n/d for d <= 6 times 60
    rng = random.Random(f"wedge-reduction:{rational}")

    def coeff():
        n = rng.randint(-9, 9)
        return n * (60 // rng.randint(1, 6)) if rational else n

    for k in range(1, PENCIL_MAX_K + 1):
        for _ in range(20):
            f = BinaryForm(k, [coeff() for _ in range(k + 1)])
            g = BinaryForm(k, [coeff() for _ in range(k + 1)])
            if f.is_zero or g.is_zero or proportional(f, g):
                continue
            pencil = Pencil(f, g)
            got, want = wedge_curve(pencil), _ref_wedge_curve(pencil)
            assert (got.degree, got.terms) == (want.degree, want.terms)


@pytest.mark.parametrize("sample", [random_pencil, random_coprime_pencil])
@pytest.mark.parametrize("k", [0, -1])
def test_random_pencils_reject_k_below_one(sample, k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"k={k}"):
        sample(k, rng)
    assert rng.getstate() == state


# -- the membership identity as bihomogeneous polynomials


@st.composite
def pencil_at_k(draw, ks=st.integers(1, PENCIL_MAX_K)):
    """A seeded pencil with coefficients in [-9, 9] or one drawn in [-6, 6]."""
    k = draw(ks)
    if draw(st.booleans()):
        return random_pencil(k, random.Random(draw(st.integers(0, 10**6))))
    f, g = draw(form_strategy(k)), draw(form_strategy(k))
    assume(not proportional(f, g))
    return Pencil(f, g)


@given(pencil_at_k())
@settings(max_examples=150, deadline=None)
def test_value_identity_holds_for_the_wedge_curve(pencil):
    assert _value_identity(pencil, wedge_curve(pencil)) is None


def _perturbed(curve, expo, delta):
    """The curve with delta added to the coefficient of e0^a e1^b e2^c."""
    store = dict(curve.terms)
    store[expo] = store.get(expo, 0) + delta
    return SymPlaneCurve(curve.degree, store)


@st.composite
def monomial_change(draw, degree):
    a = draw(st.integers(0, degree))
    b = draw(st.integers(0, degree - a))
    return (a, b, degree - a - b), draw(st.integers(-50, 50).filter(bool))


@given(pencil_at_k(), st.data())
@settings(max_examples=150, deadline=None)
def test_value_identity_fails_after_any_coefficient_change(pencil, data):
    curve = wedge_curve(pencil)
    expo, delta = data.draw(monomial_change(curve.degree))
    assert _value_identity(pencil, _perturbed(curve, expo, delta)) is not None
    # a curve of another degree fails too
    other = SymPlaneCurve(pencil.k, {(0, 0, pencil.k): 1})
    assert _value_identity(pencil, other) == "in degree"


def _poly_mul(a, b):
    """Product of polynomials given as {(i, j): coefficient of x1^i y1^j}."""
    out = {}
    for (i, j), u in a.items():
        for (r, s), v in b.items():
            out[i + r, j + s] = out.get((i + r, j + s), 0) + u * v
    return out


def _identity_sides(pencil, curve):
    """Both sides of det(x, y) = (x1 y0 - x0 y1) M at x0 = y0 = 1, expanded
    by multiplying out each monomial of the curve."""
    f, g = pencil.f.coeffs, pencil.g.coeffs
    k = pencil.k
    det = {(i, j): f[i] * g[j] - g[i] * f[j] for i in range(k + 1) for j in range(k + 1)}
    e0, e1, e2 = {(0, 0): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 1): 1}
    value = {}
    for (a, b, c), v in curve.terms:
        term = {(0, 0): v}
        for factor, n in ((e0, a), (e1, b), (e2, c)):
            for _ in range(n):
                term = _poly_mul(term, factor)
        for key, x in term.items():
            value[key] = value.get(key, 0) + x
    rhs = _poly_mul({(1, 0): 1, (0, 1): -1}, value)
    return det, rhs


@given(pencil_at_k(), st.data())
@settings(max_examples=150, deadline=None)
def test_value_identity_names_the_first_differing_coefficient(pencil, data):
    # one coefficient changed, or a few, so that a row can differ twice
    curve = wedge_curve(pencil)
    changes = data.draw(st.lists(
        monomial_change(curve.degree), min_size=1, max_size=3, unique_by=lambda c: c[0]
    ))
    wrong = curve
    for expo, delta in changes:
        wrong = _perturbed(wrong, expo, delta)
    where = _value_identity(pencil, wrong)
    i, j = map(int, re.fullmatch(r"at x1\^(\d+) y1\^(\d+)", where).groups())
    lhs, rhs = _identity_sides(pencil, wrong)
    order = [(r, s) for r in range(pencil.k) for s in range(r + 1, pencil.k + 1)]
    named = order.index((i, j))
    assert lhs.get((i, j), 0) != rhs.get((i, j), 0)
    for key in order[:named]:
        assert lhs.get(key, 0) == rhs.get(key, 0), key
    # the wedge curve itself makes the two expansions agree everywhere
    lhs, rhs = _identity_sides(pencil, curve)
    assert {e: v for e, v in lhs.items() if v} == {e: v for e, v in rhs.items() if v}


# -- the gcd degree: the evaluation certificate against the PRS

#: the prime 2^30 - 35, the modulus of an earlier certificate; leads and
#: remainders divisible by it stay among the inputs
_PRIME = (1 << 30) - 35


def _int_poly(degree, coefficients=st.integers(-20, 20)):
    """Integer coefficient lists of exact degree (nonzero leading coefficient)."""
    return st.tuples(
        st.lists(coefficients, min_size=degree, max_size=degree),
        coefficients.filter(bool),
    ).map(lambda t: t[0] + [t[1]])


@st.composite
def planted_pair(draw):
    """(a, b, d): a = h u and b = h v share the factor h of degree d."""
    d = draw(st.integers(0, 4))
    h = draw(_int_poly(d))
    u = draw(st.integers(0, 4).flatmap(_int_poly))
    v = draw(st.integers(0, 4).flatmap(_int_poly))
    return _schoolbook(h, u), _schoolbook(h, v), d


def _schoolbook(a, b):
    """Product of two coefficient lists, one term at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _counting_prs():
    calls = []

    def prs(a, b):
        calls.append((a, b))
        return _prs_gcd_degree(a, b)

    return calls, mock.patch.object(pencil_module, "_prs_gcd_degree", prs)


def _evaluation(a, b):
    """(w, g, X - 1 - m) of the certificate in `_gcd_degree`: X = 2^w, g the
    gcd of the values of the primitive parts of nonzero a and b at X, and m
    the largest absolute coefficient of a's."""
    a1, b1 = _primitive(a), _primitive(b)
    m = max(map(abs, a1))
    w = m.bit_length() + 32
    return w, gcd(_pack(a1, w), _pack(b1, w)), (1 << w) - 1 - m


def _primitive_gcd(a, b):
    """The gcd of a and b over Q as a primitive integer list, by `_ref_gcd`."""
    g = _ref_gcd([Fraction(x) for x in a], [Fraction(x) for x in b])
    scale = lcm(*(x.denominator for x in g))
    return _primitive([int(x * scale) for x in g])


def _check_gcd_degree(a, b):
    want = len(_ref_gcd([Fraction(x) for x in a], [Fraction(x) for x in b])) - 1
    assert _prs_gcd_degree(a, b) == want
    # the values at X can only gain common factors, and a common factor of
    # positive degree takes at least X - 1 - m of their gcd
    w, g, bound = _evaluation(a, b)
    h = _pack(_primitive_gcd(a, b), w)
    assert g % h == 0
    assert want == 0 or abs(h) >= bound
    calls, patch = _counting_prs()
    with patch:
        assert _gcd_degree(a, b) == want
    # the PRS runs unless the values certified degree 0
    assert calls == ([] if g < bound else [(a, b)])
    return want


@given(planted_pair())
@settings(max_examples=300, deadline=None)
def test_gcd_degree_agrees_with_prs(pair):
    a, b, d = pair
    assert _check_gcd_degree(a, b) >= d


@given(planted_pair(), st.integers(1, 3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_gcd_degree_when_the_prime_divides_a_lead(pair, multiple, first):
    a, b, _ = pair
    if first:
        a = a[:-1] + [multiple * _PRIME]
    else:
        b = b[:-1] + [multiple * _PRIME]
    _check_gcd_degree(a, b)


def test_gcd_degree_certificate_skips_the_prs():
    # x^2 + 1 and x are coprime, and their values at X have gcd 1, so no PRS runs
    calls, patch = _counting_prs()
    with patch:
        assert _gcd_degree([1, 0, 1], [0, 1]) == 0
        assert _gcd_degree([-1, 0, 1], [1, 1]) == 1  # common factor x + 1
    assert calls == [([-1, 0, 1], [1, 1])]


@st.composite
def intermediate_drop_pair(draw):
    """(a, b): b = h v and a = h (u v + r), where l divides the lead of r.

    The first remainder of a by b is h r, whose leading coefficient vanishes
    mod l, so Euclid mod l and over Q take different degree sequences.
    """
    h = draw(st.integers(0, 3).flatmap(_int_poly))
    v = draw(st.integers(1, 4).flatmap(_int_poly))
    u = draw(st.integers(0, 3).flatmap(_int_poly))
    low = draw(st.lists(st.integers(-20, 20), min_size=len(v) - 2, max_size=len(v) - 2))
    r = low + [draw(st.integers(1, 3)) * _PRIME]
    a = [x + y for x, y in zip(_schoolbook(u, v), r + [0] * len(u))]
    return _schoolbook(h, a), _schoolbook(h, v)


@given(intermediate_drop_pair())
@settings(max_examples=200, deadline=None)
def test_gcd_degree_when_the_prime_divides_an_intermediate_lead(pair):
    a, b = pair
    want = len(_ref_gcd([Fraction(x) for x in a], [Fraction(x) for x in b])) - 1
    assert _gcd_degree(a, b) == _prs_gcd_degree(a, b) == want


def test_gcd_degree_examples_with_an_intermediate_lead_divisible_by_the_prime():
    b = [1, 0, 1]  # x^2 + 1
    a = [1, _PRIME + 1, 0, 1]  # x b + (l x + 1): remainder 1 mod l
    calls, patch = _counting_prs()
    with patch:
        assert _gcd_degree(a, b) == _prs_gcd_degree(a, b) == 0
    assert calls == []  # the values at X certify degree 0
    b = [-1, 0, 1]  # x^2 - 1
    for r, want in (([-2 * _PRIME, _PRIME], 0), ([_PRIME, _PRIME], 1)):
        # x b + l (x - 2) and x b + l (x + 1) vanish mod l on all of b; at X
        # the gcd of the values divides 3 l^2 in the first case, the
        # resultant, and is a multiple of X + 1 in the second
        a = [r[0], r[1] - 1, 0, 1]
        w, g, bound = _evaluation(a, b)
        assert (g < bound) == (want == 0)
        calls.clear()
        with patch:
            assert _gcd_degree(a, b) == _prs_gcd_degree(a, b) == want
        assert calls == ([] if want == 0 else [(a, b)])


_near_powers_of_two = st.tuples(st.integers(0, 140), st.integers(-2, 2)).map(
    lambda t: (1 << t[0]) + t[1]
)
_huge = st.integers(-10**40, 10**40)


@st.composite
def shared_factor_pair(draw):
    """(a, b, h): a = h u and b = h v share h, of degree 1 to 30.

    h is x - c with c up to 10^40 or near a power of 2, or has coefficients
    up to 10^40; u is monic with entries in [-1, 1], so that a root of h
    comes close to Cauchy's bound 1 + m of a; v has entries up to 10^40.
    """
    c = draw(st.one_of(_huge, _near_powers_of_two, _near_powers_of_two.map(int.__neg__)))
    h = draw(st.one_of(st.just([-c, 1]), st.integers(1, 30).flatmap(lambda d: _int_poly(d, _huge))))
    u = draw(st.integers(0, 30).flatmap(lambda d: _int_poly(d, st.integers(-1, 1))))
    u[-1] = 1
    v = draw(st.integers(0, 30 - (len(h) - 1)).flatmap(
        lambda d: _int_poly(d, st.one_of(st.integers(-3, 3), _huge))))
    return _schoolbook(h, u), _schoolbook(h, v), h


@given(shared_factor_pair())
@example(([-5, 1], [-5, -4, 1], [-5, 1]))  # x - 5 and (x - 5)(x + 1)
@example(([-(10**40), 1], [-(10**40), 1 - 10**40, 1], [-(10**40), 1]))
@example(([-(2**33), 1], [2**33, -(2**33) - 1, 1], [-(2**33), 1]))  # v = x - 1
@settings(max_examples=200, deadline=None)
def test_gcd_degree_never_certifies_a_shared_factor(pair):
    a, b, h = pair
    calls, patch = _counting_prs()
    with patch:
        assert _gcd_degree(a, b) >= len(h) - 1
        assert _gcd_degree(b, a) >= len(h) - 1
    assert calls == [(a, b), (b, a)]


def test_gcd_degree_falls_back_when_the_values_share_a_large_factor():
    # x and x + 2^33 are coprime, but at X = 2^33 their values 2^33 and 2^34
    # have gcd X > X - 1 - m, so the PRS decides
    calls, patch = _counting_prs()
    with patch:
        assert _gcd_degree([0, 1], [2**33, 1]) == 0
    assert calls == [([0, 1], [2**33, 1])]


def test_gcd_degree_certifies_every_coprime_pair_of_the_seeded_suites():
    calls, patch = _counting_prs()
    with patch:
        for k in range(2, 17):
            for seed in range(6):
                assert verification_suite(k, samples=20, seed=seed)["failures"] == []
    # the PRS ran only where a common factor exists or an input is zero
    assert calls
    for a, b in calls:
        assert not a or not b or _prs_gcd_degree(a, b) > 0


coefficient_lists = st.one_of(
    st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=20),
    st.lists(st.integers(-3, 3), min_size=1, max_size=20),
    st.lists(st.just(0), min_size=1, max_size=20),
)


@given(coefficient_lists, coefficient_lists)
@example([0], [0])
@example([7], [-3])
@example([0, 0, 0], [10**40, -10**40])
@example([-10**40] * 20, [-10**40] * 20)
def test_packed_product_matches_schoolbook(a, b):
    assert _mul(a, b) == _schoolbook(a, b)
    assert _mul(tuple(a), tuple(b)) == _schoolbook(a, b)


@given(st.integers(1, 200), st.data())
def test_unpack_inverts_pack_on_balanced_digits(width, data):
    half = 1 << (width - 1)
    digit = st.integers(-half, half - 1)
    cs = data.draw(st.lists(st.one_of(digit, st.sampled_from([-half, half - 1])), min_size=1))
    assert _unpack(_pack(cs, width), width, len(cs)) == cs
    # a top digit one past the balanced range leaves a carry above the top slot
    with pytest.raises(InvariantViolation, match="does not fit"):
        _unpack(_pack(cs[:-1] + [half], width), width, len(cs))


def test_pullback_with_huge_coefficients_matches_evaluation():
    # coefficients near 10^30: the slot width reaches hundreds of bits; 2d + 1
    # points pin a form of bound 2d
    rng = random.Random("pullback-huge")

    def q():
        return rng.randint(-10**30, 10**30)

    for d in (0, 1, 2, 5):
        forms = [BinaryForm(2, [q() for _ in range(3)]) for _ in range(3)]
        curve = SymPlaneCurve(
            d, {(a, b, d - a - b): q() for a in range(d + 1) for b in range(d + 1 - a)}
        )
        pull = curve.pullback(*forms)
        assert pull.bound == 2 * d
        for x1 in range(2 * d + 1):
            assert eval_proj(pull, 1, x1) == evaluate(
                curve, *(eval_proj(h, 1, x1) for h in forms)
            )
        f, m = forms[0], [q() for _ in range(4)]
        for x1 in range(5):
            assert eval_proj(f * f, 1, x1) == eval_proj(f, 1, x1) ** 2
            assert eval_proj(substitute(f, *m), 1, x1) == eval_proj(
                f, m[0] + m[1] * x1, m[2] + m[3] * x1
            )


@pytest.mark.parametrize("bound", [1, 3])
def test_pullback_at_other_bounds_matches_evaluation(bound):
    # the packed pullback at bounds other than the conic's
    rng = random.Random(f"pullback-{bound}")

    def n():
        return rng.randint(-6, 6)

    def q():
        return Fraction(n(), rng.randint(1, 4))

    for _ in range(10):
        forms = [BinaryForm(bound, [n() for _ in range(bound + 1)]) for _ in range(3)]
        curve = SymPlaneCurve(
            3, {(a, b, 3 - a - b): n() for a in range(4) for b in range(4 - a)}
        )
        pull = curve.pullback(*forms)
        assert pull.bound == 3 * bound
        for _ in range(4):
            x0, x1 = q(), q()
            assert eval_proj(pull, x0, x1) == evaluate(
                curve, *(eval_proj(h, x0, x1) for h in forms)
            )


# -- the discarded membership pairs: the suite's inlined draws against a
# -- reference drawn through Random.randint


def _draw_pair(rng):
    """A random pair x = nx/dx != y = ny/dy as (nx, dx, ny, dy)."""
    nx, dx = rng.randint(-12, 12), rng.randint(1, 4)
    ny, dy = rng.randint(-12, 12), rng.randint(1, 4)
    while ny * dx == nx * dy:
        ny, dy = rng.randint(-12, 12), rng.randint(1, 4)
    return nx, dx, ny, dy


@pytest.mark.parametrize("k", range(2, 9))
def test_membership_skip_matches_drawn_pairs(monkeypatch, k):
    # the stream state at every conic draw, each after MEMBERSHIP_POINTS pairs
    states = []
    conic = pencil_module.random_smooth_conic

    def recording(rng):
        states.append(rng.getstate())
        return conic(rng)

    monkeypatch.setattr(pencil_module, "random_smooth_conic", recording)
    for seed in range(300):
        states.clear()
        verification_suite(k, samples=3, seed=seed)
        rng = random.Random(f"k3gonal:{seed}:{k}")
        for state in states:
            random_coprime_pencil(k, rng)
            for _ in range(pencil_module.MEMBERSHIP_POINTS):
                _draw_pair(rng)
            assert state == rng.getstate()
            conic(rng)
        assert len(states) == 3
    assert pencil_module.MEMBERSHIP_POINTS == 100
