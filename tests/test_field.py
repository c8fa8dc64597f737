"""Exact field arithmetic checked against a symbolic oracle.

Every derived constant asserted here was computed first with sympy (the
oracle) and then frozen into the test, so a regression in the hand-rolled
arithmetic cannot hide behind the code under test.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyforge.exactfield import (
    FieldElem,
    in_cone,
    in_convex_hull,
    Mat,
    Vec,
    mat_det,
    mat_identity,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_vec,
    rotation_12,
    rotation_34,
    vec_dot,
)

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
