"""Cross-bedded cubical torus complexes with exact homogeneous coordinates.

The combinatorial side is a quotient of the unit-cube grid of Z^3 between
two level hyperplanes by a rank-2 lattice, twelve vertices per level.  The
geometric side assigns each vertex a point of the upper half sphere in
gnomonic 5-coordinates (last coordinate 1), built from a chain of squeeze
points and the order-12 screw motion.  All predicates reduce to exact sign
tests; floats appear only in reports.

The screw motion B = R34 R12 is block diagonal: a quarter turn of
coordinates 1-2, a sixth turn of coordinates 3-4, coordinate 5 fixed.
The blocks commute, so B^e = R12^e R34^e, and every screw image is taken
as ``exactfield.rotate(p, e, e)`` on the stored integers.  ``certify``
is the tube's certificate: every predicate but symmetry presupposes the
screw that ``check_symmetric`` proves, and a tube without one is refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .complexcore import CubicalComplex
from .exactfield import (
    ZERO,
    FieldElem,
    as_vector,
    mat_nullspace,
    mat_rank,
    rotate,
    vec_dot,
)


def _fe(a, b=0, den=1):
    return FieldElem(Fraction(a, den), Fraction(b, den))


@dataclass(frozen=True)
class Screw:
    """A screw convention, as powers of B: the vertex at w + (-1, 1, 0)
    is B**tb times the vertex at w, and the vertex at w + (0, -1, 1) is
    B**tc times it."""

    tb: int
    tc: int

    @property
    def powers(self) -> tuple:
        """For the 12 vertices of a level in id order, the power of B that
        moves the level's first vertex, (0, l, 0), onto it.

        Vertex 4*a + c of a level is (a, l - a - c, c), the first vertex
        moved by c steps along (0, -1, 1) and a steps back along (-1, 1, 0).
        """
        return tuple((c * self.tc - a * self.tb) % 12
                     for a in range(3) for c in range(4))


SCREWS = (Screw(tb=4, tc=1), Screw(tb=8, tc=5))

THETA0 = (_fe(-1, 1), _fe(1, -1), _fe(2), _fe(0), _fe(1))
THETA1 = (_fe(1), _fe(0), _fe(1), _fe(0), _fe(1))
KAPPA1 = (_fe(-1), _fe(0), _fe(1), _fe(0), _fe(1))
THETA2 = (_fe(-11, 7, 23), _fe(-9, -11, 23), _fe(16, -6, 23), _fe(0), _fe(1))
THETA3 = (_fe(37, 11, 49), _fe(-11, 6, 49), _fe(22, -12, 49), _fe(0), _fe(1))


# ---------------------------------------------------------------------------
# chain iteration


def mu(a, b):
    """Weight of the chain interpolation, from the first three coordinates.

    Inputs are expected in normalized form (last coordinate 1); the value
    is not invariant under rescaling.
    """
    a1, a2, a3 = a[0], a[1], a[2]
    b1, b2, b3 = b[0], b[1], b[2]
    if not b3:
        raise ValueError("degenerate denominator: third coordinate of b is zero")
    num = (a3 * b3 - 2 * b3 * b3) * b2 + (a3 * b3 - b3 * b3) * b1 - a2 * b3 * b3
    den = (
        2 * (a3 * b3 - b3 * b3) * a1
        - (2 * a3 * b3 - b3 * b3) * a2
        - (2 * a3 * a3 - 3 * a3 * b3 + b3 * b3) * b1
        - (2 * a3 * a3 - 3 * a3 * b3 + 2 * b3 * b3) * b2
    )
    if not den:
        raise ValueError("degenerate denominator in interpolation weight")
    return num / den


def iterate(a, b):
    """Next chain point: mix a with the two screwed images of b."""
    w = mu(a, b)
    rb = rotate(b, 1, 1)
    rb2 = rotate(b, 1, -1)
    half = _fe(1, 0, 2)
    out = [w * ai + (1 - w) * (half * (x + y)) for ai, x, y in zip(a, rb, rb2)]
    if not out[4]:
        raise ValueError("interpolation escaped to infinity")
    inv = out[4].inverse()
    return tuple(x * inv for x in out)


def kappa_chain(n: int) -> list:
    """Squeeze points kappa_0..kappa_n, one per level."""
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    chain = [THETA0]
    if n >= 1:
        chain.append(KAPPA1)
    while len(chain) <= n:
        chain.append(rotate(iterate(chain[-2], chain[-1]), 2, 0))
    return chain


# ---------------------------------------------------------------------------
# torus projections


@dataclass(frozen=True)
class CliffordParams:
    """Squeeze value and the two axis-plane directions of one point."""

    lam: FieldElem
    pi0: tuple | None
    pi2: tuple | None


def clifford_params(p) -> CliffordParams:
    y = as_vector(p[:4])
    denom = y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + y[3] * y[3]
    if not denom:
        raise ValueError("projection undefined on the polar axis")
    lam = 2 * (y[2] * y[2] + y[3] * y[3]) / denom
    pi0 = (y[0], y[1]) if (y[0] or y[1]) else None
    pi2 = (y[2], y[3]) if (y[2] or y[3]) else None
    return CliffordParams(lam, pi0, pi2)


def clifford_lambda_exact(p) -> FieldElem:
    return clifford_params(p).lam


def clifford_lambda(p) -> float:
    return float(clifford_lambda_exact(p))


# ---------------------------------------------------------------------------
# abstract quotient complex


def canonical_rep(w):
    """Unique lattice-class representative with w1 in [0,3) and w3 in [0,4)."""
    w1, w2, w3 = w
    q, m3 = divmod(w3, 4)
    w1 += 2 * q
    w2 += 2 * q
    p, m1 = divmod(w1, 3)
    w2 += 3 * p
    return (m1, w2, m3)


def _shift(w, axis, step=1):
    out = list(w)
    out[axis] += step
    return tuple(out)


def _vid(w) -> int:
    r = canonical_rep(w)
    return 12 * (r[0] + r[1] + r[2]) + 4 * r[0] + r[2]


def _level0_cells():
    """Edges, squares (as corner cycles) and 3-cells (as corners in bit
    order) based on the 12 vertices of level 0, in vertex order."""
    edges, squares, cubes = [], [], []
    for w1 in range(3):
        for w3 in range(4):
            w = (w1, -w1 - w3, w3)
            edges.extend((_vid(w), _vid(_shift(w, ax))) for ax in range(3))
            for i, j in ((0, 1), (0, 2), (1, 2)):
                squares.append((_vid(w), _vid(_shift(w, i)),
                                _vid(_shift(_shift(w, i), j)), _vid(_shift(w, j))))
            corners = []
            for bits in range(8):
                u = w
                for ax in range(3):
                    if (bits >> ax) & 1:
                        u = _shift(u, ax)
                corners.append(_vid(u))
            cubes.append(tuple(corners))
    return tuple(edges), tuple(squares), tuple(cubes)


# The shift w -> w + (0, 1, 0) commutes with the lattice, raises the level
# by one and adds 12 to every vertex id, so the cells based on level l are
# the cells based on level 0 plus 12 l.
_LEVEL0_EDGES, _LEVEL0_SQUARES, _LEVEL0_CUBES = _level0_cells()


class AbstractCCT:
    """Grid cells between level 0 and level `width`, modulo the lattice.

    Vertex ids are dense: level block l occupies ids 12l..12l+11, ordered
    by (w1, w3) within the block.  The 3-cells and the cubical complex are
    built on first read, and the f-vector is counted without them: a
    growing tube needs only the one new 3-cell per width, which
    ``cube_corners`` shifts up from level 0.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.vertex_reps = tuple(
            (w1, level - w1 - w3, w3)
            for level in range(width + 1) for w1 in range(3) for w3 in range(4))
        self.layers = tuple(level for level in range(width + 1) for _ in range(12))

    @cached_property
    def _cubes3(self) -> tuple:
        return tuple(map(self.cube_corners, range(12 * (self.width - 2))))

    @cached_property
    def cubes(self) -> CubicalComplex:
        if self._cubes3:
            cells = [(3, c) for c in self._cubes3]
        elif self.width == 2:
            cells = [(2, (c[0], c[1], c[3], c[2])) for c in self.level_squares(0)]
        else:
            cells = [(1, tuple(sorted(e))) for e in sorted(
                {frozenset((a + 12 * level, b + 12 * level))
                 for level in range(self.width) for a, b in _LEVEL0_EDGES},
                key=sorted)]
        return CubicalComplex(len(self.vertex_reps), cells)

    def cube_corners(self, index: int) -> tuple:
        """Corners, in bit order, of 3-cell `index` of ``cubes``: the cell
        based at vertex `index`."""
        level, j = divmod(range(12 * (self.width - 2))[index], 12)
        return tuple(c + 12 * level for c in _LEVEL0_CUBES[j])

    def level_squares(self, level: int) -> list:
        """Corner cycles of the 36 squares based on `level`, three per
        vertex of the level in vertex order."""
        return [tuple(c + 12 * level for c in cyc) for cyc in _LEVEL0_SQUARES]

    def vertex_id(self, w) -> int:
        if not 0 <= w[0] + w[1] + w[2] <= self.width:
            raise ValueError("vertex outside the level slab")
        return _vid(w)

    def f_vector(self) -> tuple:
        """Twelve vertices per level, and three edges, three squares and
        one 3-cell based at each vertex with room above it: one, two and
        three levels."""
        w = self.width
        return (12 * (w + 1), 36 * w, 36 * max(w - 1, 0), 12 * max(w - 2, 0))

    def boundary_squares(self) -> list:
        """Corner cycles of the squares lying in exactly one 3-cell.

        A square with base level l spanning axes i and j lies in the
        3-cells based at its base vertex and at that vertex moved one step
        back along the third axis, which exist when l <= width - 3 and
        l >= 1 respectively.  So with any 3-cell at all, the boundary
        squares are those based on level 0 and on level width - 2: 36 per
        level, the three based at each vertex of the level in vertex order.
        """
        if self.width < 3:
            return []
        return self.level_squares(0) + self.level_squares(self.width - 2)


def abstract_cct(k: int) -> AbstractCCT:
    return AbstractCCT(k)


# ---------------------------------------------------------------------------
# geometric complexes


@dataclass(frozen=True, eq=False)
class GeoCCT:
    abstract: AbstractCCT
    coords: tuple
    kappas: tuple

    @property
    def width(self) -> int:
        return self.abstract.width

    def __eq__(self, other):
        if not isinstance(other, GeoCCT):
            return NotImplemented
        return (self.width, self.coords, self.kappas) == (
            other.width, other.coords, other.kappas)

    def to_json(self) -> dict:
        return {
            "format": "polyforge/1",
            "kind": "cct",
            "width": self.width,
            "vertices": [[x.to_json() for x in p] for p in self.coords],
            "kappas": [[x.to_json() for x in p] for p in self.kappas],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GeoCCT":
        width = data["width"]
        if type(width) is not int:  # a float, string or boolean is malformed
            raise TypeError(f"width must be an integer, got {width!r}")
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        ab = AbstractCCT(width)
        coords = _points_from_json(data["vertices"], "vertex")
        if len(coords) != len(ab.vertex_reps):
            raise ValueError("vertex count does not match the width")
        kappas = _points_from_json(data["kappas"], "kappa")
        if len(kappas) != width + 1:
            raise ValueError(
                f"{len(kappas)} kappas for width {width}, expected {width + 1}")
        return cls(ab, coords, kappas)


def _points_from_json(points, what: str) -> tuple:
    """Homogeneous 5-coordinate points; a malformed one is named.  A
    coefficient written as four strings a-d, and no other key, is decoded
    once per call and its (immutable) FieldElem shared; only strings make
    the key, because JSON's true, 1 and 1.0 are equal and only 1 exact."""
    memo = {}

    def decode(x):
        if type(x) is dict and len(x) == 4:
            key = (x.get("a"), x.get("b"), x.get("c"), x.get("d"))
            if all(type(v) is str for v in key):
                elem = memo.get(key)
                if elem is None:
                    elem = memo[key] = FieldElem.from_json(x)
                return elem
        return FieldElem.from_json(x)

    out = []
    for i, p in enumerate(points):
        if len(p) != 5:
            raise ValueError(f"{what} {i} has {len(p)} coordinates, not 5")
        try:
            out.append(tuple(decode(x) for x in p))
        except ZeroDivisionError:
            raise ValueError(f"{what} {i} has a zero denominator") from None
    return tuple(out)


def _level_coords(ab: AbstractCCT, level: int, kappa) -> tuple:
    """The 12 vertices of one level: screw images of its squeeze point."""
    powers = (8 * w[0] + w[2] + 5 * level
              for w in ab.vertex_reps[12 * level:12 * level + 12])
    return tuple(rotate(kappa, e, e) for e in powers)


def seed_ct1() -> GeoCCT:
    kappas = tuple(kappa_chain(1))
    ab = AbstractCCT(1)
    coords = _level_coords(ab, 0, kappas[0]) + _level_coords(ab, 1, kappas[1])
    return GeoCCT(ab, coords, kappas)


def seed_ct3() -> GeoCCT:
    return extend(extend(seed_ct1()))


class TubeRecord:
    """What has been proven about the levels of one growing tube.

    A tube's coordinates on a level never depend on its width, so a
    predicate that is a conjunction over levels (symmetry, axis avoidance,
    injectivity, the star conditions) need only be checked on the levels
    a record has not covered yet.  One ``generate`` call, or one
    verification, owns one record and drops it when it returns; an empty
    record makes every check a full one.
    """

    def __init__(self):
        self.symmetric_levels = 0   # levels 0.. that satisfy the mirror relation
        self.screws = SCREWS        # the conventions that hold on all of them
        self.transversal_levels = 0
        self.ray_keys = set()       # double-projection keys of those levels
        self.transversal = True     # verdict through the last level checked

    @property
    def screw(self) -> Screw | None:
        return self.screws[0] if self.screws else None


def generate(n: int, record: TubeRecord | None = None) -> GeoCCT:
    """The tube of width n; `record` keeps what the extensions proved."""
    if n < 1:
        raise ValueError("width must be at least 1")
    record = TubeRecord() if record is None else record
    geo = seed_ct1()
    while geo.width < n:
        geo = extend(geo, record)
    return geo


def reconstruct_cube_corner(t: GeoCCT, cube_index: int, position: int):
    """Rebuild a cube corner as the meet of its three flat quads.

    Each of the three squares at the corner spans a 3-dim linear subspace
    already determined by its other three corners; the meet of the three
    subspaces must be the corner's ray.
    """
    if t.width < 3:
        raise ValueError("reconstruction needs a 3-cell")
    corners = t.abstract.cube_corners(cube_index)
    if not 0 <= position < 8:
        raise ValueError("corner position out of range")
    rows = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        others = [
            corners[position ^ (1 << i)],
            corners[position ^ (1 << j)],
            corners[position ^ (1 << i) ^ (1 << j)],
        ]
        span = [list(t.coords[c]) for c in others]
        comp = mat_nullspace(span)
        if len(comp) != 2:
            raise ValueError("degenerate geometry: quad corners are dependent")
        rows.extend(list(v) for v in comp)
    meet = mat_nullspace(rows)
    if len(meet) != 1:
        raise ValueError("degenerate geometry: quad planes do not meet in a line")
    z = meet[0]
    if not z[4]:
        raise ValueError("degenerate geometry: reconstructed corner at infinity")
    inv = z[4].inverse()
    return tuple(x * inv for x in z)


def extend(t: GeoCCT, record: TubeRecord | None = None) -> GeoCCT:
    """Add one layer.  Wide inputs must pass all predicates first.

    Only the new level's coordinates are computed.  With the `record` of
    the calls that built `t`, the level-wise predicates run on the levels
    it has not covered; without one, on all of `t`.  The new cells form
    one screw orbit, so the first is checked for flatness and corner
    reconstruction and the proven symmetry carries the result to the
    other eleven.
    """
    record = TubeRecord() if record is None else record
    k = t.width
    if k >= 3:
        screw = check_symmetric(t, record)
        if not screw:
            raise ValueError("predicate failure: symmetry")
        if not _transversal_core(t, record):
            raise ValueError("predicate failure: transversality")
        if not _slope_core(t):
            raise ValueError("predicate failure: slope")
        if not _oriented_core(t, screw):
            raise ValueError("predicate failure: orientation")
    nxt = rotate(iterate(t.kappas[k - 1], t.kappas[k]), 2, 0)
    ab = AbstractCCT(k + 1)
    geo = GeoCCT(ab, t.coords + _level_coords(ab, k + 1, nxt), t.kappas + (nxt,))
    if geo.width >= 3:
        if not check_symmetric(geo, record):
            raise ValueError("predicate failure: symmetry")
        idx = 12 * (geo.width - 3)
        corners = ab.cube_corners(idx)
        if mat_rank([list(geo.coords[c]) for c in corners]) != 4:
            raise ValueError("degenerate geometry: new cell is not flat")
        if reconstruct_cube_corner(geo, idx, 7) != geo.coords[corners[7]]:
            raise ValueError("degenerate geometry: corner reconstruction mismatch")
    return geo


# ---------------------------------------------------------------------------
# exact predicates


def _pi0(p):
    return (p[0], p[1])


def _pi2(p):
    return (p[2], p[3])


def _is_zero2(u) -> bool:
    return not (u[0] or u[1])


def _cross2(u, v):
    return vec_dot((u[0], -u[1]), (v[1], v[0]))


def _same_ray(u, v) -> bool:
    if _cross2(u, v):
        return False
    return vec_dot(u, v).sign() > 0


def _ray_canon(u):
    """Hashable canonical form of a nonzero plane ray (positive scaling)."""
    s0 = u[0].sign()
    if s0 == 0:
        return (0, u[1].sign())
    scale = u[0].inverse()
    if s0 < 0:
        scale = -scale
    return (s0, u[1] * scale)


def _in_open_cone(g, a, b) -> bool:
    s = _cross2(a, b).sign()
    if s == 0:
        return False
    return _cross2(a, g).sign() == s and _cross2(g, b).sign() == s


def _origin_in_hull2(pts) -> bool:
    """Exact origin-in-convex-hull for a few plane points.

    Carathéodory in the plane: membership is witnessed by a point, a
    segment, or a triangle, so sign tests on cross products suffice and
    no feasibility solve is needed.
    """
    for p in pts:
        if not (p[0] or p[1]):
            return True
    # cheap separating-axis reject: all on one strict side of an axis
    for c in (0, 1):
        signs = {p[c].sign() for p in pts}
        if 0 not in signs and len(signs) == 1:
            return False
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if not _cross2(pts[i], pts[j]):
                if vec_dot(pts[i], pts[j]).sign() <= 0:
                    return True
    for a, b, c in itertools.combinations(pts, 3):
        s1 = _cross2(a, b).sign()
        s2 = _cross2(b, c).sign()
        s3 = _cross2(c, a).sign()
        if s1 == s2 == s3 == 0:
            continue
        if min(s1, s2, s3) >= 0 or max(s1, s2, s3) <= 0:
            return True
    return False


def _mirror(p: tuple) -> tuple:
    """p under the mirror reflection_e4(), which negates coordinate 3 only."""
    return (p[0], p[1], p[2], -p[3], p[4])


def check_symmetric(t: GeoCCT, record: TubeRecord | None = None) -> Screw | None:
    """Mirror relation plus one of the two consistent screw conventions.

    Returns the first convention that holds on every level (a true value),
    or None.  Each level maps to itself under the mirror and the screw, so
    the check runs level by level; with a `record`, only on the levels it
    has not covered.
    """
    record = TubeRecord() if record is None else record
    ab = t.abstract
    P = t.coords
    while record.screws and record.symmetric_levels <= t.width:
        start = 12 * record.symmetric_levels
        level = list(enumerate(ab.vertex_reps[start:start + 12], start))
        if any(P[ab.vertex_id((w[1], w[0], w[2]))] != _mirror(P[vid])
               for vid, w in level):
            record.screws = ()
            break
        record.screws = tuple(
            screw for screw in record.screws
            if all(P[ab.vertex_id((w[0] - 1, w[1] + 1, w[2]))]
                   == rotate(P[vid], screw.tb, screw.tb)
                   and P[ab.vertex_id((w[0], w[1] - 1, w[2] + 1))]
                   == rotate(P[vid], screw.tc, screw.tc)
                   for vid, w in level))
        record.symmetric_levels += 1
    return record.screw


def _screw_of(t: GeoCCT, record: TubeRecord | None = None) -> Screw:
    """The screw check_symmetric proves on `t` with `record`, which the
    orbit-reduced predicates presuppose; a tube without one is refused."""
    screw = check_symmetric(t, record)
    if not screw:
        raise ValueError("symmetry violation")
    return screw


def _star_ok(t: GeoCCT, vid: int, direction: int) -> bool:
    ab = t.abstract
    w = ab.vertex_reps[vid]
    nb = {ax: ab.vertex_id(_shift(w, ax, direction)) for ax in range(3)}
    cor = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = ab.vertex_id(_shift(_shift(w, i, direction), j, direction))
        cor[(i, j)] = cor[(j, i)] = c
    P = t.coords
    v = P[vid]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        quad = (v, P[nb[i]], P[cor[(i, j)]], P[nb[j]])
        for proj in (_pi0, _pi2):
            if _origin_in_hull2([proj(p) for p in quad]):
                return False
    # role order: the level-axis neighbor almost always plays u, so try
    # those assignments first
    for au, aq, ar in ((2, 0, 1), (2, 1, 0), (0, 1, 2), (0, 2, 1),
                       (1, 0, 2), (1, 2, 0)):
        u, q, r = P[nb[au]], P[nb[aq]], P[nb[ar]]
        tt = P[cor[(au, aq)]]
        ss = P[cor[(au, ar)]]
        pp = P[cor[(aq, ar)]]
        if not (_same_ray(_pi2(ss), _pi2(r))
                and _same_ray(_pi2(pp), _pi2(v))
                and _same_ray(_pi2(v), _pi2(u))
                and _same_ray(_pi2(tt), _pi2(q))):
            continue
        if not (_same_ray(_pi0(tt), _pi0(ss)) and _same_ray(_pi0(q), _pi0(r))):
            continue
        if not _in_open_cone(_pi2(pp), _pi2(ss), _pi2(tt)):
            continue
        if not (_in_open_cone(_pi0(v), _pi0(u), _pi0(pp))
                and _in_open_cone(_pi0(r), _pi0(u), _pi0(pp))):
            continue
        if not _in_open_cone(_pi0(ss), _pi0(u), _pi0(r)):
            continue
        return True
    return False


def check_transversal(t: GeoCCT) -> bool:
    """Axis avoidance, injective double projection, and star conditions."""
    record = TubeRecord()
    _screw_of(t, record)
    return _transversal_core(t, record)


def _transversal_core(t: GeoCCT, record: TubeRecord) -> bool:
    """Transversality through the tube's width, level by level: a new
    level is checked for axis avoidance and injectivity against the ray
    keys of the levels below, and completes the star conditions of the
    middle layer under it.  Only the levels `record` has not covered run.

    The star conditions are orbit-reduced, so `record` must have proven,
    through check_symmetric, a screw on every level of `t`.
    """
    if not record.screws or record.symmetric_levels <= t.width:
        raise ValueError("symmetry violation")
    while record.transversal and record.transversal_levels <= t.width:
        level = record.transversal_levels
        record.transversal = _transversal_level(t, level, record.ray_keys)
        record.transversal_levels += 1
    return record.transversal


def _transversal_level(t: GeoCCT, level: int, seen: set) -> bool:
    """Axis avoidance and injectivity of the 12 points of `level`, then
    the star conditions of the layer between levels level - 2 and level.

    The stars are checked upward from level - 2 and downward from
    `level`, each on the first vertex of its level only: the screw power
    that moves that vertex onto another vertex of its level moves its star
    onto that vertex's star, and acts on the planes pi0 and pi2 as
    rotations, which keep every sign test of _star_ok.
    """
    points = t.coords[12 * level:12 * level + 12]
    for p in points:
        if _is_zero2(_pi0(p)) or _is_zero2(_pi2(p)):
            return False
    for p in points:
        key = (_ray_canon(_pi0(p)), _ray_canon(_pi2(p)))
        if key in seen:
            return False
        seen.add(key)
    if level >= 2:
        for vid, direction in ((12 * (level - 2), +1), (12 * level, -1)):
            if not _star_ok(t, vid, direction):
                return False
    return True


def check_slope_obtuse(t: GeoCCT) -> bool:
    """Sign test for the turning angle at the newest layer.

    The chord from the distinguished top vertex to its screw image spans,
    with the shared lower neighbor, an angle measured at the midpoint ray;
    obtuse means the two tangent projections point against each other.
    """
    _screw_of(t)
    return _slope_core(t)


def _slope_core(t: GeoCCT) -> bool:
    ab = t.abstract
    k = ab.width
    top = range(12 * k, 12 * (k + 1))
    sv = min(top, key=lambda i: t.coords[i])
    image = rotate(t.coords[sv], 8, 8)
    try:
        tv = t.coords.index(image)
    except ValueError:
        raise ValueError("screw image of the top vertex is not a vertex") from None
    down_s = {ab.vertex_id(_shift(ab.vertex_reps[sv], ax, -1)) for ax in range(3)}
    down_t = {ab.vertex_id(_shift(ab.vertex_reps[tv], ax, -1)) for ax in range(3)}
    common = down_s & down_t
    if len(common) != 1:
        raise ValueError("top vertex pair has no unique shared neighbor")
    yu = t.coords[common.pop()][:4]
    ys = t.coords[sv][:4]
    yt = image[:4]
    m = tuple(a + b for a, b in zip(ys, yt))
    w0 = (m[0], m[1], ZERO, ZERO)
    mm = vec_dot(m, m)

    def tangent(x):
        xm = -vec_dot(x, m)
        return tuple(vec_dot((mm, xm), (xi, mi)) for xi, mi in zip(x, m))

    return vec_dot(tangent(w0), tangent(yu)).sign() < 0


def _crosses(zs, w, covectors: list, g) -> bool:
    """Does the ray of g, a direction in w-perp, pass through the open
    spherical quad on zs, four corners in cyclic order spanning w-perp?

    Edge m's covector c_m, cached in covectors[m] from first use, spans the
    nullspace of z_m, z_m+1 and w, signed so that c_m.z_m+2 > 0; g is
    inside iff every c_m.g > 0, and contact raises.  On w-perp, c_m is a
    nonzero form (w is not in w-perp) with kernel span(z_m, z_m+1), as is
    det[z_m, z_m+1, x] in coordinates on three independent corners, so the
    two have one sign up to a constant factor; dependent z_m, z_m+1 zero the
    determinant and widen the nullspace, so both call the cell degenerate.
    """
    for m in range(4):
        if covectors[m] is None:
            c = mat_nullspace([list(zs[m]), list(zs[(m + 1) % 4]), list(w)])
            ref = vec_dot(c[0], zs[(m + 2) % 4]) if len(c) == 1 else ZERO
            if not ref:
                raise ValueError("degenerate boundary cell")
            covectors[m] = c[0] if ref.sign() > 0 else tuple(-x for x in c[0])
        s = vec_dot(covectors[m], g).sign()
        if s == 0:
            raise ValueError("chord touches a boundary cell edge")
        if s < 0:
            return False
    return True


def check_oriented(t: GeoCCT) -> bool:
    """Parity of boundary-cell crossings of the inward chord.

    The chord runs from the distinguished top vertex's direction to its
    axis-plane shadow; an even number of proper crossings with the two
    boundary tori means the complex points at the axis circle.
    """
    return _oriented_core(t, _screw_of(t))


def _oriented_core(t: GeoCCT, screw: Screw) -> bool:
    """check_oriented for a tube on which `screw` holds, orbit-reduced.

    The chord from y to its shadow (y0, y1, 0, 0) spans a plane unless
    pi0(y) or pi2(y) is zero.  The plane meets a cell's hyperplane w-perp
    in the line of g = (w.p1) p0 - (w.p0) p1.  Only the sign of the
    coefficients' product is tested, and g is flipped to a positive p0
    coefficient, so the scale of w does not matter.  A level's boundary
    squares are three screw orbits: the square at vertex j is B^e Q, with
    e = screw.powers[j] and Q the square of its kind at the level's first
    vertex, so its normal is B^e w_Q and its edge covectors B^e c_m.  With
    q = B^-e p0, w.p = w_Q.(B^-e p), and g is decided on Q as
    g' = B^-e g = (w.p1) q - (w.p0) (q0, q1, 0, 0).  Then w_Q.g' = 0, and
    Q's corners span w_Q-perp as w_Q spans their nullspace: no direction
    leaves a cell plane, and every cell has three independent corners.  An
    orbit takes one nullspace for w_Q and, on first use, one per edge for
    c_m.  Squares come in boundary_squares() order, each orbit's Q first,
    so the first error raised is the one a nullspace per square would raise.
    """
    k = t.width
    if k < 3:
        raise ValueError("orientation needs width at least 3")
    y = min(t.coords[12 * k:12 * (k + 1)])
    if _is_zero2(_pi0(y)) or _is_zero2(_pi2(y)):
        raise ValueError("chord endpoints are collinear")
    pulled = [rotate(y, -e, -e)[:4] for e in screw.powers]
    cells = [None] * 3
    crossings = 0
    for i, cyc in enumerate(t.abstract.boundary_squares()):
        j, kind = divmod(i % 36, 3)
        if j == 0:
            zs = [t.coords[c][:4] for c in cyc]
            wcomp = mat_nullspace([list(z) for z in zs])
            if len(wcomp) != 1:
                raise ValueError("degenerate boundary cell span")
            cells[kind] = (zs, wcomp[0], [None] * 4)
        w, q = cells[kind][1], pulled[j]
        wp1 = vec_dot(w[:2], q[:2])
        wp0 = wp1 + vec_dot(w[2:4], q[2:4])
        if not (wp0 or wp1):
            raise ValueError("chord plane lies inside a boundary cell plane")
        if wp0.sign() * wp1.sign() >= 0:
            continue
        if wp1.sign() < 0:
            wp0, wp1 = -wp0, -wp1
        g = tuple(wp1 * x0 - wp0 * x1 for x0, x1 in zip(q, q[:2] + (ZERO, ZERO)))
        if _crosses(*cells[kind], g):
            crossings += 1
    return crossings % 2 == 0


# ---------------------------------------------------------------------------
# convex position


def certify_facet(t: GeoCCT, cube_index: int):
    """Outer normal of one 3-cell, strict on every other vertex."""
    corners = t.abstract.cube_corners(cube_index)
    rows = [list(t.coords[c]) for c in corners]
    null = mat_nullspace(rows)
    if len(null) != 1:
        raise ValueError(f"facet {cube_index} is not flat")
    n = null[0]
    corner_set = set(corners)
    seen = 0
    for vid, p in enumerate(t.coords):
        if vid in corner_set:
            continue
        s = vec_dot(n, p).sign()
        if s == 0:
            raise ValueError(
                f"exposure failure: vertex {vid} lies on facet {cube_index}")
        if seen == 0:
            seen = s
        elif s != seen:
            raise ValueError(
                f"exposure failure: vertex {vid} on the wrong side of facet {cube_index}")
    if seen > 0:
        n = tuple(-x for x in n)
    return n


def check_convex_position(t: GeoCCT, screw: Screw | None = None) -> dict:
    """Outer normal of every 3-cell, keyed by cell index.

    The screw motions act transitively on each level, and the 3-cells
    with base vertices on one level form one orbit.  So certify_facet
    runs on the first cell of each level, and the orthogonal screw matrix
    that moves the base vertex to another cell's base vertex moves the
    normal with it; the vertex set is screw-invariant, so the moved normal
    is strict on the same number of vertices.  Dividing by the absolute
    value of its last nonzero coordinate reproduces the normalisation of
    mat_nullspace.  `screw` is the convention check_symmetric proved; it
    is proven here when not given.
    """
    if t.width < 3:
        raise ValueError("convex position needs width at least 3")
    screw = _screw_of(t) if screw is None else screw
    out = {}
    for base in range(0, 12 * (t.width - 2), 12):
        n = certify_facet(t, base)
        for j, e in enumerate(screw.powers):
            out[base + j] = _carry(n, e)
    return out


def _carry(n, e: int) -> tuple:
    if e == 0:
        return n
    m = rotate(n, e, e)
    scale = abs(next(x for x in reversed(m) if x))
    return m if scale == 1 else tuple(x / scale for x in m)


def certify(t: GeoCCT, record: TubeRecord | None = None) -> tuple:
    """The tube's (name, passed, witness) checks and its outer facet
    normals, None unless convex position passes (its error is then the
    witness).  `record` is the generating fold's, or None for a full
    recomputation.  Below width three, orientation and convex position
    pass as skipped."""
    record = TubeRecord() if record is None else record
    screw = _screw_of(t, record)
    checks = [
        ("symmetry", True, "screw motion invariance"),
        ("transversality", _transversal_core(t, record),
         "tube rays cross every slab cell"),
        ("obtuse-slope", _slope_core(t),
         "consecutive slope vectors at obtuse angles"),
    ]
    if t.width < 3:
        skipped = "skipped: width below three"
        return checks + [("orientation", True, skipped),
                         ("convex-position", True, skipped)], None
    checks.append(("orientation", _oriented_core(t, screw),
                   "all cells tilt toward the core circle"))
    try:
        normals = check_convex_position(t, screw)
    except ValueError as exc:
        return checks + [("convex-position", False, str(exc))], None
    return checks + [("convex-position", True,
                      f"{len(normals)} facets exactly exposed")], normals
