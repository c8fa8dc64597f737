"""Exact arithmetic in the real quadratic tower Q(sqrt2, sqrt3).

Elements are stored as (a + b*sqrt2 + c*sqrt3 + d*sqrt6) / q with integer
numerators a, b, c, d and one positive integer denominator q, kept coprime
by a single multi-argument gcd per result.  Equal values therefore have
equal stored integers, and the arithmetic never builds a Fraction; the
coefficients are handed out as Fractions only at the public surface.  All
comparisons go through an exact sign routine on the integers, so no
floating point is ever consulted for a decision.  Floats are available
only as a convenience embedding for display; `as_field` is the package's
one rule for which Python values count as exact numbers.

The module also carries the small amount of exact linear algebra the rest
of the package needs, over FieldElem entries: vectors, matrices,
Gauss-Jordan elimination with one inverse per pivot (rank, determinant,
nullspace, solving), and a phase-1 simplex for feasibility questions over
the field.  The public kernels coerce their input once, on the copy they
make anyway, so every inner loop runs on FieldElem only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

_gcd = math.gcd
_new = object.__new__
_ZERO_N = (0, 0, 0, 0, 1)


def _sign_int(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_q2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt2 for integers a, b."""
    if not b:
        return _sign_int(a)
    if not a:
        return _sign_int(b)
    sa, sb = _sign_int(a), _sign_int(b)
    if sa == sb:
        return sa
    # opposite signs: |a| vs |b|*sqrt2 decided by squaring
    return _sign_int(a * a - 2 * b * b) * sa


def _rat_text(n: int, q: int) -> str:
    """``str(Fraction(n, q))`` for q > 0, without building the Fraction."""
    g = _gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


_CANONICAL_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
_COEFFICIENT_KEYS = frozenset("abcd")


def _parse_rational(x) -> tuple:
    """(numerator, positive denominator) of a JSON coefficient, not
    necessarily in lowest terms.  The form ``str(Fraction)`` writes is
    read with int(), a bool or a float is a TypeError, and anything else
    goes through Fraction(), whose inputs and errors it shares."""
    m = _CANONICAL_RATIONAL(x) if type(x) is str else None
    if m is None:
        if isinstance(x, (bool, float)):
            raise TypeError(f"expected an exact number, got {type(x).__name__}")
        f = Fraction(x)
        return f.numerator, f.denominator
    n, q = m.groups()
    if q is None:
        return int(n), 1
    q = int(q)
    if not q:
        raise ZeroDivisionError(f"Fraction({int(n)}, 0)")
    return int(n), q


def _wrap(n: tuple) -> "FieldElem":
    x = _new(FieldElem)
    x._n = n
    return x


def _elem(a: int, b: int, c: int, d: int, q: int) -> "FieldElem":
    """(a + b*sqrt2 + c*sqrt3 + d*sqrt6) / q for q > 0, in lowest terms."""
    g = _gcd(a, b, c, d, q)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        q //= g
    x = _new(FieldElem)
    x._n = (a, b, c, d, q)
    return x


def _coefficient(i: int, name: str) -> property:
    return property(lambda self: Fraction(self._n[i], self._n[4]),
                    doc=f"The rational coefficient of {name}.")


class FieldElem:
    """An element of Q(sqrt2, sqrt3).

    ``_n`` holds the integers (a, b, c, d, q) of the value
    (a + b*sqrt2 + c*sqrt3 + d*sqrt6) / q, with q > 0 and
    gcd(a, b, c, d, q) = 1.  The constructor takes the coefficients a, b,
    c and d, each an exact number by `as_field`'s rule and rational.
    """

    __slots__ = ("_n",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            self._n = (a, b, c, d, 1)
            return
        ns = [as_field(x)._n for x in (a, b, c, d)]
        if any(n[1] or n[2] or n[3] for n in ns):
            raise TypeError("expected rational coefficients, got an irrational FieldElem")
        q = math.lcm(*(n[4] for n in ns))
        # q is the least common denominator of reduced fractions, so the
        # scaled numerators share no factor with it
        self._n = tuple(n[0] * (q // n[4]) for n in ns) + (q,)

    a = _coefficient(0, "1")
    b = _coefficient(1, "sqrt2")
    c = _coefficient(2, "sqrt3")
    d = _coefficient(3, "sqrt6")

    @classmethod
    def sqrt2(cls) -> "FieldElem":
        return cls(0, 1, 0, 0)

    @classmethod
    def sqrt3(cls) -> "FieldElem":
        return cls(0, 0, 1, 0)

    @classmethod
    def sqrt6(cls) -> "FieldElem":
        return cls(0, 0, 0, 1)

    def coeffs(self):
        a, b, c, d, q = self._n
        return (Fraction(a, q), Fraction(b, q), Fraction(c, q), Fraction(d, q))

    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    def is_rational(self) -> bool:
        n = self._n
        return not (n[1] or n[2] or n[3])

    def __bool__(self) -> bool:
        return self._n != _ZERO_N

    def __eq__(self, other) -> bool:
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n

    def __hash__(self):
        return hash(self._n)

    def __add__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._n
        a2, b2, c2, d2, q2 = other._n
        if q1 == q2:
            return _elem(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _elem(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                     c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, q = self._n
        return _wrap((-a, -b, -c, -d, q))

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._n
        a2, b2, c2, d2, q2 = other._n
        if q1 == q2:
            return _elem(a1 - a2, b1 - b2, c1 - c2, d1 - d2, q1)
        return _elem(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1,
                     c1 * q2 - c2 * q1, d1 * q2 - d2 * q1, q1 * q2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._n
        a2, b2, c2, d2, q2 = other._n
        return _elem(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2,
        )

    __rmul__ = __mul__

    def conj_sqrt2(self) -> "FieldElem":
        """Galois conjugate negating sqrt2 (and hence sqrt6)."""
        a, b, c, d, q = self._n
        return _wrap((a, -b, c, -d, q))

    def conj_sqrt3(self) -> "FieldElem":
        """Galois conjugate negating sqrt3 (and hence sqrt6)."""
        a, b, c, d, q = self._n
        return _wrap((a, b, -c, -d, q))

    def inverse(self) -> "FieldElem":
        a, b, c, d, q = self._n
        if not (a or b or c or d):
            raise ZeroDivisionError("inverse of zero field element")
        # With N = a + b*sqrt2 + c*sqrt3 + d*sqrt6, N * conj2(N) is
        # y0 + y1*sqrt3, and multiplying by its sqrt3-conjugate lands on the
        # nonzero integer norm y0^2 - 3*y1^2.  So q/N is q * conj2(N) *
        # (y0 - y1*sqrt3) / norm.
        y0 = a * a - 2 * b * b + 3 * c * c - 6 * d * d
        y1 = 2 * (a * c - 2 * b * d)
        norm = y0 * y0 - 3 * y1 * y1
        if norm < 0:
            norm, y0, y1 = -norm, -y0, -y1
        return _elem(q * (a * y0 - 3 * c * y1), q * (3 * d * y1 - b * y0),
                     q * (c * y0 - a * y1), q * (b * y1 - d * y0), norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}.

        The denominator is positive, so only the numerator counts.  Writing
        it as p + r*sqrt3 with p, r in Z[sqrt2], the sign reduces to signs
        in Z[sqrt2]: when p and r disagree in sign the comparison p^2 vs
        3*r^2 settles it, and p^2 - 3*r^2 again lives in Z[sqrt2].
        """
        pa, pb, ra, rb, _ = self._n
        if not (ra or rb):
            return _sign_q2(pa, pb)
        if not (pa or pb):
            return _sign_q2(ra, rb)
        sp = _sign_q2(pa, pb)
        if sp == _sign_q2(ra, rb):
            return sp
        # p^2 - 3 r^2 cannot vanish, since sqrt3 is not in Q(sqrt2)
        ta = pa * pa + 2 * pb * pb - 3 * (ra * ra + 2 * rb * rb)
        tb = 2 * pa * pb - 6 * ra * rb
        return _sign_q2(ta, tb) * sp

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        a, b, c, d, q = self._n
        return a / q + b / q * _SQRT2 + c / q * _SQRT3 + d / q * _SQRT6

    def __repr__(self):
        q = self._n[4]
        parts = []
        for n, tag in zip(self._n, ("", "*s2", "*s3", "*s6")):
            if n:
                parts.append(f"{_rat_text(n, q)}{tag}")
        return "FE(" + (" + ".join(parts) if parts else "0") + ")"

    def to_json(self) -> dict:
        a, b, c, d, q = self._n
        return {"a": _rat_text(a, q), "b": _rat_text(b, q),
                "c": _rat_text(c, q), "d": _rat_text(d, q)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldElem":
        extra = data.keys() - _COEFFICIENT_KEYS if isinstance(data, dict) else ()
        if extra:
            raise TypeError("coefficient keys other than a, b, c, d: "
                            + ", ".join(sorted(map(repr, extra))))
        (a, p), (b, r), (c, s), (d, t) = (
            _parse_rational(data[k]) for k in "abcd")
        q = math.lcm(p, r, s, t)
        return _elem(a * (q // p), b * (q // r), c * (q // s), d * (q // t), q)


def _coerce(x):
    """x as a FieldElem when it is an int or a Fraction, else NotImplemented;
    a bool is not a number here, so operators with one raise TypeError."""
    if type(x) is FieldElem:
        return x
    if isinstance(x, int) and type(x) is not bool:
        return _wrap((int(x), 0, 0, 0, 1))
    if isinstance(x, Fraction):
        return _wrap((x.numerator, 0, 0, 0, x.denominator))
    return NotImplemented


def as_field(x) -> FieldElem:
    """x as a FieldElem.  A FieldElem, an int, a Fraction or a rational
    string such as "3/7" is an exact number (a malformed string raises
    Fraction's ValueError); any other type, floats and booleans included,
    is a TypeError naming the type."""
    if type(x) is FieldElem:
        return x
    if isinstance(x, str):
        n, q = _parse_rational(x)
        return _elem(n, 0, 0, 0, q)
    y = _coerce(x)
    if y is NotImplemented:
        raise TypeError("expected a FieldElem, int, Fraction or rational "
                        f"string, got {type(x).__name__}")
    return y


def as_vector(v) -> list:
    """The entries of v as a list of FieldElem, each coerced by as_field."""
    return [x if type(x) is FieldElem else as_field(x) for x in v]


ZERO = FieldElem(0)
ONE = FieldElem(1)

# A vector is a tuple of FieldElem; a matrix is a list of row lists.
Vec = tuple
Mat = list


def vec_dot(u: Vec, v: Vec) -> FieldElem:
    """Sum of products, normalised once.

    The products' numerators are summed over one running denominator and
    the sum is reduced by a single gcd at the end.  Vectors with entries
    that are not FieldElem are coerced by as_vector first.
    """
    sa = sb = sc = sd = 0
    sq = 1
    for x, y in zip(u, v, strict=True):
        if type(x) is not FieldElem or type(y) is not FieldElem:
            return vec_dot(as_vector(u), as_vector(v))
        a1, b1, c1, d1, q1 = x._n
        a2, b2, c2, d2, q2 = y._n
        if not (a1 or b1 or c1 or d1) or not (a2 or b2 or c2 or d2):
            continue
        pa = a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2
        pb = a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2)
        pc = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        pd = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        q = q1 * q2
        if q != sq:
            if sq % q == 0:
                k = sq // q
                pa, pb, pc, pd = pa * k, pb * k, pc * k, pd * k
            elif q % sq == 0:
                k = q // sq
                sa, sb, sc, sd = sa * k, sb * k, sc * k, sd * k
                sq = q
            else:
                sa, sb, sc, sd = sa * q, sb * q, sc * q, sd * q
                pa, pb, pc, pd = pa * sq, pb * sq, pc * sq, pd * sq
                sq *= q
        sa += pa
        sb += pb
        sc += pc
        sd += pd
    return _elem(sa, sb, sc, sd, sq)


def _sub_multiple(xs: list, f: FieldElem, ys: list) -> list:
    """The row update ``[x - f*y if y else x for x, y in zip(xs, ys)]``
    on FieldElem rows.

    Each entry is one integer expression reduced by one gcd, instead of a
    normalised product and a normalised difference.
    """
    fa, fb, fc, fd, fq = f._n
    out = []
    append = out.append
    for x, y in zip(xs, ys):
        ya, yb, yc, yd, yq = y._n
        if not (ya or yb or yc or yd):
            append(x)
            continue
        xa, xb, xc, xd, xq = x._n
        pa = fa * ya + 2 * fb * yb + 3 * fc * yc + 6 * fd * yd
        pb = fa * yb + fb * ya + 3 * (fc * yd + fd * yc)
        pc = fa * yc + fc * ya + 2 * (fb * yd + fd * yb)
        pd = fa * yd + fd * ya + fb * yc + fc * yb
        q = fq * yq
        if q == xq:
            append(_elem(xa - pa, xb - pb, xc - pc, xd - pd, q))
        else:
            append(_elem(xa * q - pa * xq, xb * q - pb * xq,
                         xc * q - pc * xq, xd * q - pd * xq, xq * q))
    return out


def mat_identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(m1: Mat, m2: Mat) -> Mat:
    cols = list(zip(*m2))
    return [[vec_dot(tuple(row), col) for col in cols] for row in m1]


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vec_dot(tuple(row), v) for row in m)


def mat_pow(m: Mat, k: int) -> Mat:
    out = mat_identity(len(m))
    for _ in range(k):
        out = mat_mul(m, out)
    return out


def _pivot(work: Mat, r: int, col: int) -> None:
    """Scale row r of `work` so that its entry in column col is one (unless
    it is one already), and clear column col from every other row."""
    prow = work[r]
    if prow[col]._n != ONE._n:
        inv = prow[col].inverse()
        prow = work[r] = [x * inv if x else x for x in prow]
    for i, row in enumerate(work):
        if i != r and row[col]:
            work[i] = _sub_multiple(row, row[col], prow)


def _echelon(rows: Mat):
    """Row-reduce an as_vector copy of `rows`: (rref rows, pivot columns)."""
    work = [as_vector(r) for r in rows]
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
        _pivot(work, r, col)
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


def mat_rank(m: Mat) -> int:
    if not m:
        return 0
    return len(_echelon(m)[1])


def mat_rref(m: Mat):
    return _echelon(m)


def mat_det(m: Mat) -> FieldElem:
    n = len(m)
    work = [as_vector(r) for r in m]
    det = ONE
    sign_flip = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign_flip = -sign_flip
        prow = work[col]
        det = det * prow[col]
        inv = prow[col].inverse()
        for i in range(col + 1, n):
            if work[i][col]:
                work[i] = _sub_multiple(work[i], work[i][col] * inv, prow)
    return det if sign_flip == 1 else -det


def mat_nullspace(m: Mat) -> list[Vec]:
    """Basis of {x : m @ x = 0}; free variables set to one in column order."""
    if not m:
        return []
    ncols = len(m[0])
    rref, pivots = _echelon(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][free]
        basis.append(tuple(v))
    return basis


def mat_solve(m: Mat, rhs: Vec):
    """One exact solution of m @ x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(m, rhs, strict=True)]
    rref, pivots = _echelon(aug)
    ncols = len(m[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][-1]
    return tuple(x)


def rotation_12() -> Mat:
    """Quarter turn in the first two coordinates of R^5 (order four)."""
    m = mat_identity(5)
    m[0][0], m[0][1] = ZERO, FieldElem(-1)
    m[1][0], m[1][1] = ONE, ZERO
    return m


def rotation_34() -> Mat:
    """Sixth turn in coordinates three and four of R^5 (order six)."""
    half = FieldElem(Fraction(1, 2))
    s3half = FieldElem(0, 0, Fraction(1, 2), 0)
    m = mat_identity(5)
    m[2][2], m[2][3] = half, -s3half
    m[3][2], m[3][3] = s3half, half
    return m


def _half_mix(x: FieldElem, y: FieldElem, sx: int, sy: int) -> FieldElem:
    """(sx*x + sy*sqrt3*y) / 2 for signs sx, sy in {1, -1}: sqrt3 times
    (a + b*sqrt2 + c*sqrt3 + d*sqrt6) / q has numerators (3c, 3d, a, b)."""
    a1, b1, c1, d1, q1 = x._n
    a2, b2, c2, d2, q2 = y._n
    if q1 != q2:
        a1, b1, c1, d1 = a1 * q2, b1 * q2, c1 * q2, d1 * q2
        a2, b2, c2, d2 = a2 * q1, b2 * q1, c2 * q1, d2 * q1
        q1 *= q2
    t = 3 * sy
    return _elem(sx * a1 + t * c2, sx * b1 + t * d2,
                 sx * c1 + sy * a2, sx * d1 + sy * b2, 2 * q1)


def rotate(p: Vec, quarter: int, sixth: int) -> Vec:
    """``rotation_12()**quarter * rotation_34()**sixth * p`` for a 5-vector
    p, computed on the stored integers; powers count modulo the orders 4
    and 6, so negative powers are inverses.

    Both factors are block rotations that fix coordinate 5, and they
    commute.  A quarter turn permutes and negates coordinates 1-2,
    (x1, x2) -> (-x2, x1).  A sixth turn mixes coordinates 3-4 as
    (x3, x4) -> ((x3 - sqrt3*x4)/2, (x4 + sqrt3*x3)/2); its powers are
    entries (+-x +- sqrt3*y)/2, or +-x for a half turn, and each mixed
    entry is one integer expression reduced by one gcd.  Entries that are
    not FieldElem are coerced by as_vector first.
    """
    x1, x2, x3, x4, x5 = p
    if not (type(x1) is type(x2) is type(x3) is type(x4) is type(x5) is FieldElem):
        x1, x2, x3, x4, x5 = as_vector(p)
    quarter %= 4
    if quarter == 1:
        x1, x2 = -x2, x1
    elif quarter == 2:
        x1, x2 = -x1, -x2
    elif quarter == 3:
        x1, x2 = x2, -x1
    # the sixth turn to the power 3 + r is minus its power r
    half_turn, r = divmod(sixth % 6, 3)
    h = -1 if half_turn else 1
    if r == 1:
        x3, x4 = _half_mix(x3, x4, h, -h), _half_mix(x4, x3, h, h)
    elif r == 2:
        x3, x4 = _half_mix(x3, x4, -h, -h), _half_mix(x4, x3, -h, h)
    elif h < 0:
        x3, x4 = -x3, -x4
    return (x1, x2, x3, x4, x5)


def reflection_e4() -> Mat:
    """Reflection negating the fourth coordinate of R^5."""
    m = mat_identity(5)
    m[3][3] = FieldElem(-1)
    return m


def lp_feasible(eq_rows: Sequence[Sequence[FieldElem]], rhs: Sequence[FieldElem]) -> bool:
    """Exact feasibility of {x >= 0 : A x = b} by phase-1 simplex.

    Bland's rule keeps the pivoting finite and deterministic.
    """
    if not eq_rows:
        return True
    m = len(eq_rows)
    n = len(eq_rows[0])

    # tableau rows: [A | I | b] with b >= 0, artificial basis
    tab = []
    for row, b in zip(eq_rows, rhs, strict=True):
        r = as_vector(row)
        bb = as_field(b)
        if bb.sign() < 0:
            r = [-x for x in r]
            bb = -bb
        tab.append(r + [ZERO] * m + [bb])
    for i in range(m):
        tab[i][n + i] = ONE
    basis = list(range(n, n + m))
    # objective: minimize sum of artificials; reduced cost row is the
    # artificial costs minus the sum of the tableau rows, and goes last
    # in the tableau, so that each pivot updates it
    cost = [ZERO] * (n + m + 1)
    for i in range(m):
        cost = [c - t for c, t in zip(cost, tab[i])]
    for j in range(n, n + m):
        cost[j] = cost[j] + ONE
    tab.append(cost)

    while True:
        enter = None
        for j in range(n + m):
            if tab[m][j].sign() < 0:
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
        if leave is None:
            # phase-1 objective is bounded below by zero, so this cannot
            # happen; guard anyway
            raise ArithmeticError("unbounded phase-1 simplex")
        _pivot(tab, leave, enter)
        basis[leave] = enter

    # optimum of the artificial objective is -tab[m][-1]
    return tab[m][-1].is_zero()


def in_convex_hull(point: Vec, points: Sequence[Vec]) -> bool:
    """Is `point` a convex combination of `points`?  Exact."""
    if not points:
        return False
    dim = len(point)
    rows = [[p[i] for p in points] for i in range(dim)]
    rows.append([ONE] * len(points))
    rhs = list(point) + [ONE]
    return lp_feasible(rows, rhs)


def in_cone(point: Vec, rays: Sequence[Vec]) -> bool:
    """Is `point` a nonnegative combination of `rays`?  Exact."""
    if not rays:
        return not any(as_vector(point))
    dim = len(point)
    rows = [[r[i] for r in rays] for i in range(dim)]
    return lp_feasible(rows, list(point))
