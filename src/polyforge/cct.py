"""Cross-bedded cubical torus complexes with exact homogeneous coordinates.

The combinatorial side is a quotient of the unit-cube grid of Z^3 between
two level hyperplanes by a rank-2 lattice, twelve vertices per level.  The
geometric side assigns each vertex a point of the upper half sphere in
gnomonic 5-coordinates (last coordinate 1), built from a chain of squeeze
points and the order-12 screw motion.  All predicates reduce to exact sign
tests; floats appear only in reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .complexcore import CubicalComplex, _cube_faces
from .exactfield import (
    ZERO,
    FieldElem,
    as_field,
    mat_det,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_solve,
    mat_vec,
    reflection_e4,
    rotation_12,
    rotation_34,
    vec_dot,
)


def _fe(a, b=0, den=1):
    return FieldElem(Fraction(a, den), Fraction(b, den))


R12 = rotation_12()
R34 = rotation_34()
S_MIRROR = reflection_e4()
B_STEP = mat_mul(R34, R12)
B_POW = [mat_pow(B_STEP, j) for j in range(12)]
A_TWIST = B_POW[8]
A_TWIST_INV = B_POW[4]
R12_SQ = mat_mul(R12, R12)
_R12_R34 = mat_mul(R12, R34)
_R12_R34_INV = mat_mul(R12, mat_pow(R34, 5))

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
    rb = mat_vec(_R12_R34, b)
    rb2 = mat_vec(_R12_R34_INV, b)
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
        chain.append(tuple(mat_vec(R12_SQ, iterate(chain[-2], chain[-1]))))
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
    y = [as_field(x) for x in p[:4]]
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


class AbstractCCT:
    """Grid cells between level 0 and level `width`, modulo the lattice.

    Vertex ids are dense: level block l occupies ids 12l..12l+11, ordered
    by (w1, w3) within the block.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        reps = []
        layers = []
        for level in range(width + 1):
            for w1 in range(3):
                for w3 in range(4):
                    reps.append((w1, level - w1 - w3, w3))
                    layers.append(level)
        self.vertex_reps = tuple(reps)
        self.layers = tuple(layers)

        edges = set()
        squares = {}
        cubes3 = []
        for vid, w in enumerate(reps):
            level = layers[vid]
            if level + 1 <= width:
                for ax in range(3):
                    edges.add(frozenset((vid, self.vertex_id(_shift(w, ax)))))
            if level + 2 <= width:
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    cyc = (
                        vid,
                        self.vertex_id(_shift(w, i)),
                        self.vertex_id(_shift(_shift(w, i), j)),
                        self.vertex_id(_shift(w, j)),
                    )
                    squares[frozenset(cyc)] = (cyc, level)
            if level + 3 <= width:
                corners = []
                for bits in range(8):
                    u = w
                    for ax in range(3):
                        if (bits >> ax) & 1:
                            u = _shift(u, ax)
                    corners.append(self.vertex_id(u))
                cubes3.append(tuple(corners))
        self._edge_count = len(edges)
        self._squares = squares
        self._cubes3 = tuple(cubes3)
        if cubes3:
            cells = [(3, c) for c in cubes3]
        elif squares:
            cells = [(2, (c[0], c[1], c[3], c[2])) for c, _ in squares.values()]
        elif edges:
            cells = [(1, tuple(sorted(e))) for e in sorted(edges, key=sorted)]
        else:
            cells = []
        self.cubes = CubicalComplex(len(reps), cells)

    def vertex_id(self, w) -> int:
        r = canonical_rep(w)
        level = r[0] + r[1] + r[2]
        if not 0 <= level <= self.width:
            raise ValueError("vertex outside the level slab")
        return 12 * level + 4 * r[0] + r[2]

    def f_vector(self) -> tuple:
        return (
            len(self.vertex_reps),
            self._edge_count,
            len(self._squares),
            len(self._cubes3),
        )

    def boundary_squares(self) -> list:
        """Corner cycles of the squares lying in exactly one 3-cell."""
        count = dict.fromkeys(self._squares, 0)
        for corners in self._cubes3:
            for fdim, sub in _cube_faces(3, corners):
                if fdim == 2:
                    key = frozenset(sub)
                    if key in count:
                        count[key] += 1
        return [cyc for key, (cyc, _) in self._squares.items() if count[key] == 1]


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
        width = int(data["width"])
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        ab = AbstractCCT(width)
        coords = tuple(
            tuple(FieldElem.from_json(x) for x in p) for p in data["vertices"])
        if len(coords) != len(ab.vertex_reps):
            raise ValueError("vertex count does not match the width")
        kappas = tuple(
            tuple(FieldElem.from_json(x) for x in p) for p in data["kappas"])
        return cls(ab, coords, kappas)


def _geo_from_kappas(kappas) -> GeoCCT:
    ab = AbstractCCT(len(kappas) - 1)
    coords = []
    for vid, w in enumerate(ab.vertex_reps):
        level = ab.layers[vid]
        e = (8 * w[0] + w[2] + 5 * level) % 12
        coords.append(tuple(mat_vec(B_POW[e], kappas[level])))
    return GeoCCT(ab, tuple(coords), tuple(kappas))


def seed_ct1() -> GeoCCT:
    return _geo_from_kappas(kappa_chain(1))


def seed_ct3() -> GeoCCT:
    return extend(extend(seed_ct1()))


def generate(n: int) -> GeoCCT:
    if n < 1:
        raise ValueError("width must be at least 1")
    geo = seed_ct1()
    while geo.width < n:
        geo = extend(geo)
    return geo


def reconstruct_cube_corner(t: GeoCCT, cube_index: int, position: int):
    """Rebuild a cube corner as the meet of its three flat quads.

    Each of the three squares at the corner spans a 3-dim linear subspace
    already determined by its other three corners; the meet of the three
    subspaces must be the corner's ray.
    """
    dim, corners = t.abstract.cubes.cubes[cube_index]
    if dim != 3:
        raise ValueError("reconstruction needs a 3-cell")
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


def extend(t: GeoCCT) -> GeoCCT:
    """Add one layer.  Wide inputs must pass all predicates first."""
    k = t.width
    if k >= 3:
        if not check_symmetric(t):
            raise ValueError("predicate failure: symmetry")
        if not _transversal_core(t):
            raise ValueError("predicate failure: transversality")
        if not _slope_core(t):
            raise ValueError("predicate failure: slope")
        if not _oriented_core(t):
            raise ValueError("predicate failure: orientation")
    nxt = tuple(mat_vec(R12_SQ, iterate(t.kappas[k - 1], t.kappas[k])))
    geo = _geo_from_kappas(t.kappas + (nxt,))
    if geo.width >= 3:
        base = geo.width - 3
        for idx, (dim, corners) in enumerate(geo.abstract.cubes.cubes):
            if geo.abstract.layers[corners[0]] != base:
                continue
            rows = [list(geo.coords[c]) for c in corners]
            if mat_rank(rows) != 4:
                raise ValueError("degenerate geometry: new cell is not flat")
            rebuilt = reconstruct_cube_corner(geo, idx, 7)
            if rebuilt != geo.coords[corners[7]]:
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
    return u[0] * v[1] - u[1] * v[0]


def _same_ray(u, v) -> bool:
    if _cross2(u, v):
        return False
    return (u[0] * v[0] + u[1] * v[1]).sign() > 0


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
                dot = pts[i][0] * pts[j][0] + pts[i][1] * pts[j][1]
                if dot.sign() <= 0:
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


def check_symmetric(t: GeoCCT) -> bool:
    """Mirror relation plus one of the two consistent screw conventions."""
    ab = t.abstract
    for vid, w in enumerate(ab.vertex_reps):
        sid = ab.vertex_id((w[1], w[0], w[2]))
        if t.coords[sid] != tuple(mat_vec(S_MIRROR, t.coords[vid])):
            return False
    for gb, gc in ((A_TWIST_INV, B_STEP), (A_TWIST, B_POW[5])):
        ok = True
        for vid, w in enumerate(ab.vertex_reps):
            tb = ab.vertex_id((w[0] - 1, w[1] + 1, w[2]))
            if t.coords[tb] != tuple(mat_vec(gb, t.coords[vid])):
                ok = False
                break
            tc = ab.vertex_id((w[0], w[1] - 1, w[2] + 1))
            if t.coords[tc] != tuple(mat_vec(gc, t.coords[vid])):
                ok = False
                break
        if ok:
            return True
    return False


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
    if not check_symmetric(t):
        raise ValueError("symmetry violation")
    return _transversal_core(t)


def _transversal_core(t: GeoCCT) -> bool:
    k = t.width
    for p in t.coords:
        if _is_zero2(_pi0(p)) or _is_zero2(_pi2(p)):
            return False
    seen = set()
    for p in t.coords:
        key = (_ray_canon(_pi0(p)), _ray_canon(_pi2(p)))
        if key in seen:
            return False
        seen.add(key)
    for mid in range(1, k):
        for vid in range(12 * (mid - 1), 12 * mid):
            if not _star_ok(t, vid, +1):
                return False
        for vid in range(12 * (mid + 1), 12 * (mid + 2)):
            if not _star_ok(t, vid, -1):
                return False
    return True


def _dot4(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def check_slope_obtuse(t: GeoCCT) -> bool:
    """Sign test for the turning angle at the newest layer.

    The chord from the distinguished top vertex to its screw image spans,
    with the shared lower neighbor, an angle measured at the midpoint ray;
    obtuse means the two tangent projections point against each other.
    """
    if not check_symmetric(t):
        raise ValueError("symmetry violation")
    return _slope_core(t)


def _slope_core(t: GeoCCT) -> bool:
    ab = t.abstract
    k = ab.width
    top = range(12 * k, 12 * (k + 1))
    sv = min(top, key=lambda i: t.coords[i])
    image = tuple(mat_vec(A_TWIST, t.coords[sv]))
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
    mm = _dot4(m, m)

    def tangent(x):
        xm = _dot4(x, m)
        return tuple(mm * xi - xm * mi for xi, mi in zip(x, m))

    return _dot4(tangent(w0), tangent(yu)).sign() < 0


def _ray_crosses_cell(zs, g) -> bool:
    """Does the ray of g pass through the open spherical quad on zs?

    zs are the four corner directions in cyclic order, g a direction in
    their linear span.  Boundary contact raises.
    """
    basis = None
    for pick in itertools.combinations(range(4), 3):
        cand = [list(zs[i]) for i in pick]
        if mat_rank(cand) == 3:
            basis = cand
            break
    if basis is None:
        raise ValueError("degenerate boundary cell")
    cols = [[basis[0][i], basis[1][i], basis[2][i]] for i in range(4)]

    def local(x):
        sol = mat_solve(cols, list(x))
        if sol is None:
            raise ValueError("direction leaves the cell plane")
        return list(sol)

    zl = [local(z) for z in zs]
    gl = local(g)
    for i in range(4):
        a, b = zl[i], zl[(i + 1) % 4]
        ref = mat_det([a, b, zl[(i + 2) % 4]])
        d = mat_det([a, b, gl])
        if ref.sign() == 0:
            raise ValueError("degenerate boundary cell")
        if d.sign() == 0:
            raise ValueError("chord touches a boundary cell edge")
        if d.sign() != ref.sign():
            return False
    return True


def check_oriented(t: GeoCCT) -> bool:
    """Parity of boundary-cell crossings of the inward chord.

    The chord runs from the distinguished top vertex's direction to its
    axis-plane shadow; an even number of proper crossings with the two
    boundary tori means the complex points at the axis circle.
    """
    if not check_symmetric(t):
        raise ValueError("symmetry violation")
    return _oriented_core(t)


def _oriented_core(t: GeoCCT) -> bool:
    ab = t.abstract
    k = ab.width
    if k < 3:
        raise ValueError("orientation needs width at least 3")
    v = min(range(12 * k, 12 * (k + 1)), key=lambda i: t.coords[i])
    y = t.coords[v][:4]
    p0 = y
    p1 = (y[0], y[1], ZERO, ZERO)
    plane_comp = mat_nullspace([list(p0), list(p1)])
    if len(plane_comp) != 2:
        raise ValueError("chord endpoints are collinear")
    crossings = 0
    for cyc in ab.boundary_squares():
        zs = [t.coords[c][:4] for c in cyc]
        wcomp = mat_nullspace([list(z) for z in zs])
        if len(wcomp) != 1:
            raise ValueError("degenerate boundary cell span")
        meet = mat_nullspace([list(r) for r in plane_comp] + [list(wcomp[0])])
        if len(meet) != 1:
            raise ValueError("chord plane lies inside a boundary cell plane")
        g = meet[0]
        coef = mat_solve([[p0[i], p1[i]] for i in range(4)], list(g))
        alpha, beta = coef
        sa, sb = alpha.sign(), beta.sign()
        if sa * sb <= 0:
            continue
        if sa < 0:
            g = tuple(-x for x in g)
        if _ray_crosses_cell(zs, g):
            crossings += 1
    return crossings % 2 == 0


# ---------------------------------------------------------------------------
# convex position


def certify_facet(t: GeoCCT, cube_index: int):
    """Outer normal of one 3-cell, strict on every other vertex."""
    dim, corners = t.abstract.cubes.cubes[cube_index]
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


def check_convex_position(t: GeoCCT) -> dict:
    if t.width < 3:
        raise ValueError("convex position needs width at least 3")
    return {i: certify_facet(t, i) for i in range(len(t.abstract.cubes.cubes))}


def cctp(n: int) -> dict:
    """Vertex data, certificates, and the counting bound for one polytope."""
    if n < 1:
        raise ValueError("width must be at least 1")
    geo = generate(n)
    cert = check_convex_position(geo) if n >= 3 else {}
    return {
        "width": n,
        "vertices": list(geo.coords),
        "layers": list(geo.abstract.layers),
        "kappas": list(geo.kappas),
        "facet_normals": cert,
        "f0": len(geo.coords),
        "realization_space_bound": 4 * 24,
        "realization_space_bound_note":
            "four times the vertex count of the width-1 seed",
    }
