"""Exact field arithmetic checked against a symbolic oracle.

Every derived constant asserted here was computed first with sympy (the
oracle) and then frozen into the test, so a regression in the hand-rolled
arithmetic cannot hide behind the code under test.
"""

import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyforge.arrangement import AffineSubspace
from polyforge.exactfield import (
    FieldElem,
    as_field,
    as_vector,
    in_cone,
    in_convex_hull,
    lp_feasible,
    Mat,
    Vec,
    mat_det,
    mat_identity,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_rref,
    mat_solve,
    mat_vec,
    rotate,
    rotation_12,
    rotation_34,
    vec_dot,
)
from polyforge.projective import PPConfig, flat_span

SQRT2 = sympy.sqrt(2)
SQRT3 = sympy.sqrt(3)


def to_sympy(x: FieldElem):
    return x.a + x.b * SQRT2 + x.c * SQRT3 + x.d * SQRT2 * SQRT3


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def elems(**kw):
    return st.builds(FieldElem, rationals, rationals, rationals, rationals, **kw)


class TestArithmetic:
    def test_constructor_coerces(self):
        x = FieldElem(1, Fraction(1, 2), "3/4", 0)
        assert x.a == 1 and x.b == Fraction(1, 2) and x.c == Fraction(3, 4)

    def test_known_products(self):
        r2 = FieldElem.sqrt2()
        r3 = FieldElem.sqrt3()
        assert r2 * r2 == FieldElem(2)
        assert r3 * r3 == FieldElem(3)
        assert r2 * r3 == FieldElem(0, 0, 0, 1)
        r6 = FieldElem(0, 0, 0, 1)
        assert r6 * r6 == FieldElem(6)
        # (1+sqrt2)(1-sqrt2) = -1
        assert FieldElem(1, 1) * FieldElem(1, -1) == FieldElem(-1)

    @given(elems(), elems(), elems())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x + y == y + x
        assert x - x == FieldElem(0)

    @given(elems())
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(self, x):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == FieldElem(1)

    @given(elems(), elems())
    @settings(max_examples=40, deadline=None)
    def test_oracle_product(self, x, y):
        got = to_sympy(x * y)
        want = sympy.expand(to_sympy(x) * to_sympy(y))
        assert sympy.simplify(got - want) == 0


class TestSign:
    def test_frozen_values(self):
        # oracle: sympy.sign((3 - 4*sqrt(2))/23) == -1
        assert FieldElem(Fraction(3, 23), Fraction(-4, 23)).sign() == -1
        assert FieldElem(0).sign() == 0
        assert FieldElem(1, -1).sign() == -1          # 1 - sqrt2 < 0
        assert FieldElem(3, -2).sign() == 1           # 3 - 2*sqrt2 > 0
        assert FieldElem(-7, 5).sign() == 1           # 5*sqrt2 > 7
        assert FieldElem(2, 0, -1).sign() == 1        # 2 - sqrt3
        assert FieldElem(0, 5, 0, -2).sign() == 1     # 5*sqrt2 - 2*sqrt6
        assert FieldElem(1, 1, -1, 0).sign() == 1     # 1 + sqrt2 - sqrt3
        assert FieldElem(0, 1, 1, -1).sign() == 1     # sqrt2 + sqrt3 - sqrt6

    def test_frozen_values_against_oracle(self):
        cases = [
            (Fraction(3, 23), Fraction(-4, 23), 0, 0),
            (1, -1, 0, 0), (3, -2, 0, 0), (-7, 5, 0, 0),
            (2, 0, -1, 0), (0, 5, 0, -2), (1, 1, -1, 0), (0, 1, 1, -1),
            (1, 1, 1, -2), (5, -3, 2, -1), (-1, 1, 1, -1),
        ]
        for a, b, c, d in cases:
            x = FieldElem(a, b, c, d)
            expect = int(sympy.sign(to_sympy(x)))
            assert x.sign() == expect, (a, b, c, d)

    @given(elems())
    @settings(max_examples=80, deadline=None)
    def test_oracle_sign(self, x):
        assert x.sign() == int(sympy.sign(to_sympy(x)))

    @given(elems(), elems())
    @settings(max_examples=60, deadline=None)
    def test_sign_is_multiplicative(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()

    @given(elems(), elems())
    @settings(max_examples=60, deadline=None)
    def test_order_consistent(self, x, y):
        if x < y:
            assert not y < x
            assert float(x) <= float(y) + 1e-9

    @given(elems())
    @settings(max_examples=40, deadline=None)
    def test_float_embedding(self, x):
        assert float(x) == pytest.approx(float(to_sympy(x)), abs=1e-9)


class TestSerialization:
    @given(elems())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, x):
        assert FieldElem.from_json(x.to_json()) == x

    @given(st.lists(st.one_of(
        st.fractions().map(str),
        st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 99)).map(
            lambda t: f"{t[0]}/{t[1]}"),
        st.text("0123456789-+/ ._e", max_size=8),
        st.integers(-99, 99)), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_from_json_parses_like_fraction(self, texts):
        # unreduced, zero-denominator and non-canonical coefficients give
        # the value or the error that Fraction gives them
        doc = dict(zip("abcd", texts))

        def outcome(parse):
            try:
                return ("value", parse())
            except (ValueError, ZeroDivisionError) as exc:
                return ("raised", type(exc), str(exc))

        assert (outcome(lambda: FieldElem.from_json(doc))
                == outcome(lambda: FieldElem(*(Fraction(doc[k]) for k in "abcd"))))

    def test_json_shape(self):
        x = FieldElem(Fraction(-3, 4), 2)
        d = x.to_json()
        assert d == {"a": "-3/4", "b": "2", "c": "0", "d": "0"}


class TestMatrices:
    def test_rotation_orders(self):
        r12, r34 = rotation_12(), rotation_34()
        m = mat_identity(5)
        for _ in range(4):
            m = mat_mul(r12, m)
        assert m == mat_identity(5)
        m = mat_identity(5)
        for _ in range(6):
            m = mat_mul(r34, m)
        assert m == mat_identity(5)

    def test_rotation_12_on_seed_direction(self):
        v = tuple(FieldElem(t) for t in (1, 0, 1, 0, 1))
        got = mat_vec(rotation_12(), v)
        assert got == tuple(FieldElem(t) for t in (0, 1, 1, 0, 1))

    def test_rotations_commute(self):
        assert mat_mul(rotation_12(), rotation_34()) == mat_mul(
            rotation_34(), rotation_12()
        )

    def test_det_and_rank(self):
        r34 = rotation_34()
        assert mat_det(r34) == FieldElem(1)
        assert mat_rank(r34) == 5
        rows = [
            [FieldElem(1), FieldElem(2), FieldElem(3)],
            [FieldElem(2), FieldElem(4), FieldElem(6)],
            [FieldElem(0), FieldElem(1), FieldElem(1)],
        ]
        assert mat_rank(rows) == 2
        assert mat_det(rows) == FieldElem(0)

    def test_nullspace_annihilates(self):
        rows = [
            [FieldElem(1), FieldElem(0), FieldElem(-1), FieldElem(2), FieldElem(0)],
            [FieldElem(0), FieldElem(1), FieldElem(1, 1), FieldElem(0), FieldElem(3)],
        ]
        basis = mat_nullspace(rows)
        assert len(basis) == 3
        for v in basis:
            for row in rows:
                assert vec_dot(tuple(row), v).is_zero()

    def test_nullspace_of_full_rank_is_empty(self):
        assert mat_nullspace(mat_identity(4)) == []

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_nullspace_dimension_vs_oracle(self, rat_rows):
        rows = [[FieldElem(q) for q in r] for r in rat_rows]
        basis = mat_nullspace(rows)
        m = sympy.Matrix([[q for q in r] for r in rat_rows])
        assert len(basis) == 4 - m.rank()
        for v in basis:
            for row in rows:
                assert vec_dot(tuple(row), v).is_zero()


# rotation_12()**q * rotation_34()**s for q in 0..3 and s in 0..5: the
# matrix oracle of the block-rotation kernel.
ROTATION_POWERS = {
    (q, s): mat_mul(mat_pow(rotation_12(), q), mat_pow(rotation_34(), s))
    for q in range(4) for s in range(6)}

nonzero_rationals = rationals.filter(bool)
full_elems = st.builds(FieldElem, nonzero_rationals, nonzero_rationals,
                       nonzero_rationals, nonzero_rationals)


class TestRotateAgainstMatrices:
    """rotate(p, q, s) is the matrix product on p, entry for entry."""

    @given(st.lists(full_elems, min_size=5, max_size=5).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_every_power_pair(self, p):
        # negative powers included, and the pairs (1, 1), (1, -1) and
        # (2, 0) that the chain iteration takes
        for q in range(-12, 12):
            for s in range(-12, 12):
                want = mat_vec(ROTATION_POWERS[(q % 4, s % 6)], p)
                got = rotate(p, q, s)
                assert type(got) is tuple
                assert [x._n for x in got] == [x._n for x in want], (q, s)

    def test_mixed_entries_coerced(self):
        p = (1, Fraction(-2, 3), "5/7", FieldElem(1, 2, 3, 4), Fraction(1, 2))
        want = mat_vec(ROTATION_POWERS[(1, 1)], p)
        got = rotate(p, 1, 1)
        assert all(type(x) is FieldElem for x in got)
        assert [x._n for x in got] == [x._n for x in want]


class TestVectors:
    def test_dot_and_scale(self):
        u: Vec = tuple(FieldElem(t) for t in (1, 2, 0, 0, 1))
        v: Vec = tuple(FieldElem(t) for t in (3, -1, 0, 0, 2))
        assert vec_dot(u, v) == FieldElem(3)


class TestFeasibility:
    """Hull and cone membership against brute geometric reasoning."""

    def test_hull_negative_cases(self):
        z = FieldElem(0)
        o = FieldElem(1)
        origin = (z, z)
        assert not in_convex_hull(origin, [(o, z), (z, o)])
        assert not in_convex_hull(origin, [(o, o), (FieldElem(2), FieldElem(3))])
        assert not in_convex_hull((FieldElem(3), z), [(o, z), (FieldElem(2), z)])

    def test_hull_positive_cases(self):
        z = FieldElem(0)
        o = FieldElem(1)
        origin = (z, z)
        assert in_convex_hull(origin, [(o, z), (-o, z)])
        assert in_convex_hull(origin, [(o, z), (-o, o), (-o, -o)])
        assert in_convex_hull((o, o), [origin, (FieldElem(2), FieldElem(2))])

    def test_hull_boundary_is_inside(self):
        z = FieldElem(0)
        o = FieldElem(1)
        assert in_convex_hull((o, z), [(o, z), (z, o), (-o, -o)])

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6),
           st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_hull_soundness_random(self, pts, weights):
        weights = weights[:len(pts)]
        pts = pts[:len(weights)]
        if sum(weights) == 0:
            weights[0] = 1
        total = Fraction(sum(weights))
        fe_pts = [tuple(FieldElem(c) for c in p) for p in pts]
        mix = tuple(
            FieldElem(sum(Fraction(w) * p[i] for w, p in zip(weights, pts)) / total)
            for i in range(2))
        assert in_convex_hull(mix, fe_pts)

    def test_cone_cases(self):
        z = FieldElem(0)
        o = FieldElem(1)
        assert in_cone((o, o), [(o, z), (z, o)])
        assert not in_cone((-o, z), [(o, z), (z, o)])
        assert in_cone((z, z), [(o, z)])


# ---------------------------------------------------------------------------
# The integer-backed kernel against the Fraction-coefficient arithmetic it
# replaced, kept here as a second, independent oracle.


def _ref_sign_q2(a: Fraction, b: Fraction) -> int:
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb:
        return sa
    t = a * a - 2 * b * b
    return ((t > 0) - (t < 0)) * sa


class RefElem:
    """a + b*sqrt2 + c*sqrt3 + d*sqrt6 with four Fraction coefficients."""

    def __init__(self, a=0, b=0, c=0, d=0):
        self.co = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, other):
        return RefElem(*(x + y for x, y in zip(self.co, other.co)))

    def __neg__(self):
        return RefElem(*(-x for x in self.co))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.co
        a2, b2, c2, d2 = other.co
        return RefElem(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def conj_sqrt2(self):
        a, b, c, d = self.co
        return RefElem(a, -b, c, -d)

    def conj_sqrt3(self):
        a, b, c, d = self.co
        return RefElem(a, b, -c, -d)

    def inverse(self):
        y = self * self.conj_sqrt2()
        norm = y * y.conj_sqrt3()
        return self.conj_sqrt2() * y.conj_sqrt3() * RefElem(1 / norm.co[0])

    def sign(self) -> int:
        pa, pb, qa, qb = self.co
        if qa == 0 and qb == 0:
            return _ref_sign_q2(pa, pb)
        if pa == 0 and pb == 0:
            return _ref_sign_q2(qa, qb)
        sp, sq = _ref_sign_q2(pa, pb), _ref_sign_q2(qa, qb)
        if sp == sq:
            return sp
        ta = pa * pa + 2 * pb * pb - 3 * (qa * qa + 2 * qb * qb)
        tb = 2 * pa * pb - 6 * qa * qb
        return _ref_sign_q2(ta, tb) * sp

    def to_json(self) -> dict:
        return dict(zip("abcd", (str(x) for x in self.co)))


wide_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=10 ** 4)


@st.composite
def paired(draw, coeffs=wide_rationals):
    """The same value as a kernel element and as a reference element."""
    co = [draw(st.one_of(st.just(Fraction(0)), coeffs)) for _ in range(4)]
    return FieldElem(*co), RefElem(*co)


def assert_canonical(x: FieldElem):
    # four numerators over one denominator, coprime, denominator positive
    a, b, c, d, q = x._n
    assert q > 0
    assert math.gcd(a, b, c, d, q) == 1


def assert_same(x: FieldElem, r: RefElem):
    assert x.coeffs() == r.co
    assert x.to_json() == r.to_json()
    assert_canonical(x)


class TestKernelAgainstReference:
    @given(paired(), paired())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, xp, yp):
        (x, rx), (y, ry) = xp, yp
        assert_same(x * y, rx * ry)
        assert_same(x + y, rx + ry)
        assert_same(x - y, rx - ry)
        assert_same(-x, -rx)
        assert_same(x.conj_sqrt2(), rx.conj_sqrt2())
        assert_same(x.conj_sqrt3(), rx.conj_sqrt3())

    @given(paired(), st.one_of(st.integers(-50, 50), rationals))
    @settings(max_examples=80, deadline=None)
    def test_mixed_rational_operands(self, xp, q):
        x, rx = xp
        rq = RefElem(q)
        assert_same(x * q, rx * rq)
        assert_same(q * x, rq * rx)
        assert_same(x + q, rx + rq)
        assert_same(q + x, rq + rx)
        assert_same(x - q, rx - rq)
        assert_same(q - x, rq - rx)
        assert (x == q) == (rx.co == rq.co)

    @given(paired())
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, xp):
        x, rx = xp
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        assert_same(x.inverse(), rx.inverse())
        assert sympy.expand(to_sympy(x) * to_sympy(x.inverse())) == 1

    @given(paired())
    @settings(max_examples=150, deadline=None)
    def test_sign(self, xp):
        x, rx = xp
        assert x.sign() == rx.sign() == int(sympy.sign(to_sympy(x)))

    @given(paired(), paired())
    @settings(max_examples=40, deadline=None)
    def test_sum_and_difference_against_sympy(self, xp, yp):
        (x, _), (y, _) = xp, yp
        assert sympy.expand(to_sympy(x + y) - to_sympy(x) - to_sympy(y)) == 0
        assert sympy.expand(to_sympy(x - y) - to_sympy(x) + to_sympy(y)) == 0

    @given(paired(), paired())
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash(self, xp, yp):
        (x, rx), (y, ry) = xp, yp
        assert (x == y) == (rx.co == ry.co)
        assert x == FieldElem(*rx.co)
        assert hash(x) == hash(FieldElem(*rx.co))
        if not y.is_zero():
            # the same value reached through a longer route
            z = (x * y) * y.inverse()
            assert z == x and hash(z) == hash(x)
            assert z._n == x._n

    @given(paired())
    @settings(max_examples=40, deadline=None)
    def test_public_coefficients_are_fractions(self, xp):
        x, rx = xp
        assert all(type(c) is Fraction for c in x.coeffs())
        assert all(type(c) is Fraction for c in (x.a, x.b, x.c, x.d))
        assert (x.a, x.b, x.c, x.d) == rx.co
        assert FieldElem.from_json(rx.to_json()) == x

    def test_canonical_form_of_scaled_inputs(self):
        x = FieldElem(Fraction(2, 6), Fraction(4, 6), 0, Fraction(-8, 6))
        assert x._n == (1, 2, 0, -4, 3)
        assert FieldElem(0)._n == (0, 0, 0, 0, 1)
        assert (x - x)._n == (0, 0, 0, 0, 1)
        assert (FieldElem(Fraction(1, 3)) * 3)._n == (1, 0, 0, 0, 1)
        assert FieldElem(-2, 0, 0, 0).inverse()._n == (-1, 0, 0, 0, 2)

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        xs = [FieldElem(Fraction(3, 7), -2, Fraction(1, 5), 1),
              FieldElem(1, Fraction(-1, 2)), FieldElem(0, 0, 2, Fraction(-5, 3))]

        def refuse(*args, **kwargs):
            raise AssertionError("field arithmetic constructed a Fraction")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        for x in xs:
            for y in xs:
                x * y, x + y, x - y, -x, x / y, x < y, x == y, x != y
                2 * x, x + 1, 1 - x
            x.inverse(), x.sign(), hash(x), abs(x), bool(x), float(x)
            x.conj_sqrt2(), x.conj_sqrt3(), x.to_json()


# ---------------------------------------------------------------------------
# The linear-algebra kernels against a frozen copy of the per-operation code.
#
# These copies normalise after every `*` and `+`, as the kernels first did;
# any faster kernel must agree with them value for value (FieldElem is
# canonical, so equal values have equal stored integers) and raise the same
# errors on the same inputs.


def ref_vec_dot(u, v):
    acc = FieldElem(0)
    for a, b in zip(u, v, strict=True):
        acc = acc + a * b
    return acc


def ref_mat_vec(m, v):
    return tuple(ref_vec_dot(tuple(row), v) for row in m)


def ref_echelon(rows):
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col].inverse()
        prow = work[r] = [x * inv if x else x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


def ref_mat_rank(m):
    return len(ref_echelon(m)[1]) if m else 0


def ref_mat_nullspace(m):
    if not m:
        return []
    ncols = len(m[0])
    rref, pivots = ref_echelon(m)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [FieldElem(0)] * ncols
        v[free] = FieldElem(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][free]
        basis.append(tuple(v))
    return basis


def ref_mat_solve(m, rhs):
    aug = [list(row) + [b] for row, b in zip(m, rhs, strict=True)]
    rref, pivots = ref_echelon(aug)
    ncols = len(m[0])
    if ncols in pivots:
        return None
    x = [FieldElem(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][-1]
    return tuple(x)


def ref_mat_det(m):
    n = len(m)
    work = [list(r) for r in m]
    det = FieldElem(1)
    sign_flip = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return FieldElem(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign_flip = -sign_flip
        prow = work[col]
        det = det * prow[col]
        inv = prow[col].inverse()
        for i in range(col + 1, n):
            if work[i][col]:
                f = work[i][col] * inv
                work[i] = [x - f * y if y else x for x, y in zip(work[i], prow)]
    return det if sign_flip == 1 else -det


def ref_lp_feasible(eq_rows, rhs):
    if not eq_rows:
        return True
    m = len(eq_rows)
    n = len(eq_rows[0])
    zero, one = FieldElem(0), FieldElem(1)
    tab = []
    for row, b in zip(eq_rows, rhs, strict=True):
        r = list(row)
        bb = b
        if bb.sign() < 0:
            r = [-x for x in r]
            bb = -bb
        tab.append(r + [zero] * m + [bb])
    for i in range(m):
        tab[i][n + i] = one
    basis = list(range(n, n + m))
    cost = [zero] * (n + m + 1)
    for i in range(m):
        cost = [c - t for c, t in zip(cost, tab[i])]
    for j in range(n, n + m):
        cost[j] = cost[j] + one
    while True:
        enter = None
        for j in range(n + m):
            if cost[j].sign() < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter].sign() > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or (ratio - best).sign() < 0 or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return cost[-1].is_zero()


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def kernel_elems(coeffs=small_rationals):
    """Entries with many zeros and many rationals, so eliminations both
    skip zero entries and meet unequal denominators."""
    zero = st.just(Fraction(0))
    return st.one_of(
        st.just(FieldElem(0)),
        st.builds(FieldElem, coeffs),
        st.builds(FieldElem, st.one_of(zero, coeffs), st.one_of(zero, coeffs),
                  st.one_of(zero, coeffs), st.one_of(zero, coeffs)),
    )


@st.composite
def kernel_matrices(draw, max_rows=4, max_cols=5, entries=None):
    if entries is None:
        entries = kernel_elems()
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a dependent row: a field multiple of another row plus a third
        k = draw(entries)
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows[draw(st.integers(0, nrows - 1))] = [
            k * x + y for x, y in zip(rows[i], rows[j])]
    return rows


def rational_matrices(max_rows=4, max_cols=5):
    return kernel_matrices(max_rows, max_cols,
                           entries=st.builds(FieldElem, small_rationals))


def same_vec(got, want):
    assert type(got) is tuple and type(want) is tuple
    assert [x._n for x in got] == [x._n for x in want]


def sym_matrix(m):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in m])


def sympy_feasible(a, b) -> bool:
    """{x >= 0 : a x = b} is nonempty iff it has a basic solution: one
    supported on linearly independent columns (Caratheodory)."""
    b = sympy.Matrix(b)
    if b.is_zero_matrix:
        return True
    for k in range(1, a.cols + 1):
        for cols in itertools.combinations(range(a.cols), k):
            sub = a.extract(list(range(a.rows)), list(cols))
            if sub.rank() < k:
                continue
            try:
                sol, _ = sub.gauss_jordan_solve(b)
            except ValueError:
                continue
            if all(v >= 0 for v in sol):
                return True
    return False


class TestKernelsAgainstPerOperationCode:
    @given(kernel_matrices(max_rows=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_vec_dot(self, m, data):
        u = tuple(m[0])
        v = tuple(data.draw(kernel_elems()) for _ in u)
        got = vec_dot(u, v)
        assert got._n == ref_vec_dot(u, v)._n
        assert_canonical(got)
        want = sympy.expand(sum(to_sympy(a) * to_sympy(b) for a, b in zip(u, v)))
        assert sympy.expand(to_sympy(got) - want) == 0

    @given(kernel_matrices(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_mat_vec_and_mat_mul(self, m, data):
        v = tuple(data.draw(kernel_elems()) for _ in m[0])
        same_vec(mat_vec(m, v), ref_mat_vec(m, v))
        cols = [[data.draw(kernel_elems())] for _ in m[0]]
        got = mat_mul(m, cols)
        want = [[ref_vec_dot(tuple(row), tuple(col)) for col in zip(*cols)]
                for row in m]
        assert [[x._n for x in r] for r in got] == [[x._n for x in r] for r in want]

    @given(kernel_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullspace_solve(self, m):
        assert mat_rank(m) == ref_mat_rank(m)
        got = mat_nullspace(m)
        want = ref_mat_nullspace(m)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_vec(g, w)
        rhs = [sum((x for x in row), FieldElem(0)) for row in m]
        sol = mat_solve(m, rhs)
        ref = ref_mat_solve(m, rhs)
        same_vec(sol, ref)
        inconsistent = [FieldElem(0)] * (len(m) - 1) + [FieldElem(1)]
        ref_bad = ref_mat_solve(m, inconsistent)
        bad = mat_solve(m, inconsistent)
        assert (bad is None) == (ref_bad is None)
        if ref_bad is not None:
            same_vec(bad, ref_bad)

    @given(st.integers(1, 4).flatmap(
        lambda n: kernel_matrices(max_rows=n, max_cols=n).filter(
            lambda m: len(m) == len(m[0]))))
    @settings(max_examples=60, deadline=None)
    def test_det(self, m):
        got = mat_det(m)
        assert got._n == ref_mat_det(m)._n
        assert_canonical(got)

    @given(rational_matrices())
    @settings(max_examples=25, deadline=None)
    def test_rational_against_sympy(self, m):
        sm = sym_matrix(m)
        assert mat_rank(m) == sm.rank()
        assert len(mat_nullspace(m)) == len(m[0]) - sm.rank()
        for v in mat_nullspace(m):
            assert all(x.is_zero() for x in mat_vec(m, v))
        if len(m) == len(m[0]):
            assert to_sympy(mat_det(m)) == sm.det()

    @given(st.integers(1, 3).flatmap(
        lambda n: kernel_matrices(max_rows=n, max_cols=n).filter(
            lambda m: len(m) == len(m[0]))))
    @settings(max_examples=15, deadline=None)
    def test_det_against_sympy(self, m):
        want = sympy.expand(sym_matrix(m).det(method="berkowitz"))
        assert sympy.expand(to_sympy(mat_det(m)) - want) == 0

    @given(kernel_matrices(max_rows=3, max_cols=4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_lp_feasible(self, rows, data):
        rhs = [data.draw(kernel_elems()) for _ in rows]
        assert lp_feasible(rows, rhs) == ref_lp_feasible(rows, rhs)

    @given(rational_matrices(max_rows=3, max_cols=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_lp_feasible_against_sympy(self, rows, data):
        rhs = [data.draw(st.builds(FieldElem, small_rationals)) for _ in rows]
        assert lp_feasible(rows, rhs) == sympy_feasible(sym_matrix(rows),
                                                        [to_sympy(x) for x in rhs])

    def test_mixed_rational_entries(self):
        half = Fraction(1, 2)
        u = (FieldElem(1, 1), 3, half, FieldElem(0, 0, 1))
        v = (2, FieldElem(0, half), FieldElem(-1), half)
        assert vec_dot(u, v)._n == ref_vec_dot(u, v)._n
        assert vec_dot((2, 3), (half, 4))._n == ref_vec_dot((2, 3), (half, 4))._n
        m = [[FieldElem(2), 0, FieldElem(1, 1)], [0, FieldElem(3), half],
             [FieldElem(2), FieldElem(3), FieldElem(Fraction(3, 2), 1)]]
        assert mat_rank(m) == ref_mat_rank(m) == 2
        for g, w in zip(mat_nullspace(m), ref_mat_nullspace(m)):
            assert [FieldElem(0) + x for x in g] == [FieldElem(0) + x for x in w]

    def test_same_errors(self):
        one = FieldElem(1)
        for kernel, ref in ((vec_dot, ref_vec_dot),):
            with pytest.raises(ValueError):
                ref((one, one), (one,))
            with pytest.raises(ValueError):
                kernel((one, one), (one,))
            with pytest.raises(TypeError):
                ref((one,), (1.5,))
            with pytest.raises(TypeError):
                kernel((one,), (1.5,))
        with pytest.raises(ValueError):
            mat_vec([[one, one]], (one,))
        with pytest.raises(TypeError):
            mat_rank([[one, one], [one, 1.5]])
        with pytest.raises(TypeError):
            ref_mat_rank([[one, one], [one, 1.5]])
        with pytest.raises(ValueError):
            mat_solve([[one]], [one, one])
        with pytest.raises(ValueError):
            lp_feasible([[one]], [one, one])


# ---------------------------------------------------------------------------
# The coercion boundary: the kernels take FieldElem, int, Fraction (and, via
# as_field, rational strings) in any mix, pivots included, and agree with
# the reference eliminations on the coerced input; floats are refused at
# every public entry.


def plain_forms(x: FieldElem):
    """x itself, or for a rational x its Fraction and, when integral, int."""
    if not x.is_rational():
        return st.just(x)
    f = x.a
    forms = [st.just(x), st.just(f)]
    if f.denominator == 1:
        forms.append(st.just(int(f)))
    return st.one_of(forms)


@st.composite
def mixed_matrices(draw, max_rows=4, max_cols=5, square=False):
    """(m, the same matrix with entries drawn by plain_forms)."""
    if square:
        n = draw(st.integers(1, max_rows))
        m = draw(kernel_matrices(n, n).filter(lambda m: len(m) == len(m[0])))
    else:
        m = draw(kernel_matrices(max_rows, max_cols))
    return m, [[draw(plain_forms(x)) for x in row] for row in m]


def all_field(rows) -> bool:
    return all(type(x) is FieldElem for row in rows for x in row)


class TestMixedInputAgainstReference:
    @given(mixed_matrices(max_rows=2))
    @settings(max_examples=60, deadline=None)
    def test_vec_dot(self, pair):
        m, mixed = pair
        u, v = tuple(m[0]), tuple(m[-1])
        got = vec_dot(tuple(mixed[0]), tuple(mixed[-1]))
        assert type(got) is FieldElem
        assert got._n == ref_vec_dot(u, v)._n

    @given(mixed_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_rref_nullspace_solve(self, pair):
        m, mixed = pair
        assert mat_rank(mixed) == ref_mat_rank(m)
        rref, pivots = mat_rref(mixed)
        want_rref, want_pivots = ref_echelon(m)
        assert pivots == want_pivots
        assert all_field(rref)
        assert [[x._n for x in r] for r in rref] == [[x._n for x in r] for r in want_rref]
        got = mat_nullspace(mixed)
        want = ref_mat_nullspace(m)
        assert all_field(got)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_vec(g, w)
        rhs = [sum((x for x in row), FieldElem(0)) for row in m]
        mixed_rhs = [x.a if x.is_rational() else x for x in rhs]
        same_vec(mat_solve(mixed, mixed_rhs), ref_mat_solve(m, rhs))

    @given(mixed_matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_det(self, pair):
        m, mixed = pair
        got = mat_det(mixed)
        assert type(got) is FieldElem
        assert got._n == ref_mat_det(m)._n

    @given(mixed_matrices(max_rows=3, max_cols=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lp_feasible(self, pair, data):
        rows, mixed = pair
        rhs = [data.draw(kernel_elems()) for _ in rows]
        mixed_rhs = [data.draw(plain_forms(x)) for x in rhs]
        assert lp_feasible(mixed, mixed_rhs) == ref_lp_feasible(rows, rhs)

    def test_int_and_fraction_pivots(self):
        assert mat_rank([[1, 2], [3, 4]]) == 2
        assert mat_det([[1, 2], [3, 4]]) == FieldElem(-2)
        assert mat_nullspace([[Fraction(1, 2), 1]]) == [(FieldElem(-2), FieldElem(1))]
        assert lp_feasible([[1, 1]], [1]) is True
        assert in_cone((0, Fraction(0)), []) and not in_cone((0, 1), [])
        assert in_convex_hull((Fraction(1, 2), 1), [(0, 1), (1, 1)])
        rref, pivots = mat_rref([[2, 4], [0, 0], [1, 3]])
        assert pivots == [0, 1] and all_field(rref)


class TestCoercionPolicy:
    def test_exact_numbers(self):
        assert as_field("3/7") == FieldElem(Fraction(3, 7))
        assert as_field("-6/4")._n == (-3, 0, 0, 0, 2)
        assert as_field(Fraction(5, 10))._n == (1, 0, 0, 0, 2)
        assert as_field(7)._n == (7, 0, 0, 0, 1)
        x = FieldElem(1, 2)
        assert as_field(x) is x
        assert as_vector((1, "1/2", x)) == [FieldElem(1), FieldElem(Fraction(1, 2)), x]
        with pytest.raises(ValueError):
            as_field("sqrt2")
        # the constructor takes each coefficient by the same rule
        assert FieldElem(Fraction(1, 2), "1/3", 0, -1)._n == (3, 2, 0, -6, 6)
        assert FieldElem("-6/4", FieldElem(Fraction(1, 6)))._n == (-9, 1, 0, 0, 6)
        with pytest.raises(TypeError, match="irrational FieldElem"):
            FieldElem(1, FieldElem.sqrt2())

    @pytest.mark.parametrize("value", [1.5, 2.0, complex(1), None, [1], 0.1,
                                       Decimal("0.1"), True, False])
    def test_other_types_name_their_type(self, value):
        for call in (as_field, FieldElem, lambda x: FieldElem(1, x),
                     lambda x: FieldElem(0, 0, 0, x)):
            with pytest.raises(TypeError, match=type(value).__name__):
                call(value)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.lt, operator.le,
                                    operator.gt, operator.ge])
    def test_booleans_are_not_operands(self, op):
        # as_field refuses a bool, and so does every operator, from either side
        for a, b in [(FieldElem(1), True), (True, FieldElem(1)),
                     (FieldElem(3), False), (False, FieldElem(3))]:
            with pytest.raises(TypeError):
                op(a, b)
        assert (FieldElem(1) == True) is False and (False == FieldElem(0)) is False

    @pytest.mark.parametrize("value", [True, False, 0.5, 1.0])
    def test_json_coefficients_are_not_booleans_or_floats(self, value):
        # JSON true would otherwise read as 1, and 0.5 as 1/2
        for key in "abcd":
            data = {"a": "1", "b": "0", "c": "0", "d": "0", key: value}
            with pytest.raises(TypeError, match=type(value).__name__):
                FieldElem.from_json(data)
        assert FieldElem.from_json({"a": 2, "b": "0", "c": "0", "d": "1/2"}) \
            == FieldElem(2, 0, 0, Fraction(1, 2))

    @pytest.mark.parametrize("extra", [{"e": "junk"}, {"A": "0", "e": "1"}])
    @pytest.mark.parametrize("missing", ["", "d"])
    def test_json_keys_other_than_abcd_are_refused(self, extra, missing):
        data = {"a": "1", "b": "0", "c": "0", "d": "0", **extra}
        data.pop(missing, None)
        with pytest.raises(TypeError) as info:
            FieldElem.from_json(data)
        assert str(info.value) == ("coefficient keys other than a, b, c, d: "
                                   + ", ".join(sorted(map(repr, extra))))

    @pytest.mark.parametrize("call", [
        lambda: as_vector([1, 0.5]),
        lambda: vec_dot((FieldElem(1),), (1.5,)),
        lambda: mat_rank([[1.5, 1]]),
        lambda: mat_rref([[FieldElem(1), 0.5]]),
        lambda: mat_nullspace([[1, 0.5]]),
        lambda: mat_solve([[1]], [0.5]),
        lambda: mat_det([[0.5]]),
        lambda: lp_feasible([[1, 1]], [0.5]),
        lambda: in_cone((0.0, 0), []),
        lambda: in_convex_hull((0.5,), [(0,), (1,)]),
        lambda: AffineSubspace(2, [], [0.5, 0]),
        lambda: AffineSubspace(2, [[1.0, 0]], [0, 0]),
        lambda: flat_span([(0.5, 0, 1)]),
        lambda: PPConfig(ambient_dim=2, polytope_vertices=((0.5, 0),),
                         free_points=()),
    ])
    def test_floats_are_refused(self, call):
        with pytest.raises(TypeError, match="float"):
            call()

    def test_affine_subspace_takes_rational_field_elements(self):
        h = AffineSubspace(2, [[FieldElem(1), Fraction(1, 2)]], [FieldElem(3), "1/3"])
        assert h == AffineSubspace(2, [["1", "1/2"]], ["3", "1/3"])
        with pytest.raises(TypeError, match="rational"):
            AffineSubspace(2, [], [FieldElem.sqrt2(), 0])
        with pytest.raises(ValueError, match="length 2"):
            AffineSubspace(2, [], [FieldElem(1)])
