"""Exact projective incidence programs and point configurations.

Everything here works over Q(sqrt2, sqrt3) with no rounding anywhere.
The central abstraction is the straight-line incidence program: a list
of join/meet steps over named points that can be evaluated, serialized,
and replayed against a stored configuration to certify that the stored
coordinates are forced by the declared incidences.

Flats of projective space are represented by row-space matrices in
reduced echelon form, so equality of flats is plain tuple equality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .exactfield import (
    FieldElem,
    ONE,
    ZERO,
    _sub_multiple,
    as_field,
    as_vector,
    in_convex_hull,
    mat_rank,
    mat_rref,
    vec_dot,
)

__all__ = [
    "plane_join",
    "plane_meet",
    "proj_equal",
    "flat_span",
    "flat_meet",
    "flat_rank",
    "IncidenceProgram",
    "evaluate_slp",
    "BASE_FRAME",
    "gadget_add",
    "gadget_mul",
    "gadget_sub",
    "gadget_div",
    "compile_polynomial",
    "poly_eval",
    "lattice_qd",
    "ProjConfig",
    "proj_config",
    "PPConfig",
    "lawrence_extension",
    "lawrence_face_certificate",
    "subdirect_cone",
    "weak_triple_counts",
    "pcctp_counts",
    "FrameDerivation",
    "frame_replay",
    "derive_q3",
    "CoorConfig",
    "coor_config",
    "KConfig",
    "build_k_configuration",
]


def _coerce_point(p):
    pt = tuple(as_vector(p))
    if not pt:
        raise ValueError("empty coordinate tuple")
    return pt


def _is_zero_vec(p) -> bool:
    return all(x.is_zero() for x in p)


# ---------------------------------------------------------------------------
# plane primitives

def plane_join(p, q):
    """Line through two plane points, as a homogeneous triple."""
    return _cross(_coerce_point(p), _coerce_point(q), "join of coincident points")


def plane_meet(l1, l2):
    """Common point of two plane lines, as a homogeneous triple."""
    return _cross(_coerce_point(l1), _coerce_point(l2), "meet of coincident lines")


def _cross(u, v, errmsg):
    if len(u) != 3 or len(v) != 3:
        raise ValueError("plane elements need three coordinates")
    w = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    if _is_zero_vec(w):
        raise ValueError(errmsg)
    return w


def proj_equal(u, v) -> bool:
    """Whether two homogeneous vectors name the same projective point."""
    u, v = _coerce_point(u), _coerce_point(v)
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if _is_zero_vec(u) or _is_zero_vec(v):
        return False
    p = next(j for j, x in enumerate(u) if x)  # then v = (v[p]/u[p])·u
    return bool(v[p]) and all(u[p] * y == x * v[p] for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# flats as canonical row spaces

def flat_span(vectors):
    """Span of the given vectors, canonicalized to reduced echelon rows."""
    rows = [_coerce_point(v) for v in vectors]
    if not rows:
        return ()
    rref, pivots = mat_rref(rows)
    return tuple(tuple(r) for r in rref[: len(pivots)])


def flat_rank(flat) -> int:
    return len(flat)


def flat_meet(f1, f2):
    """Intersection of two flats given by their rows, f1 in reduced echelon
    form (a ValueError names it otherwise).  As f1[s][p_r] = [s = r] at its
    pivot columns p_r, x is in span f1 exactly when its residue
    x - sum_r x[p_r]·f1[r], linear in x, is zero.  With R the residues of
    f2's rows, mu·f2 is in f1 exactly when mu·R = 0, so the meet is spanned
    by mu·f2 over the nullspace basis of R's transpose (mu_f = 1 at a free
    f and -rref[r][f] at pivot r, as in mat_nullspace); flat_span makes it
    canonical."""
    if not f1 or not f2:
        return ()
    rows, pivots = mat_rref(f1)
    if [tuple(r) for r in rows] != [tuple(r) for r in f1]:
        raise ValueError("first operand of flat_meet is not in reduced echelon form")
    f2 = residues = [_coerce_point(w) for w in f2]
    for p, row in zip(pivots, rows):
        residues = [_sub_multiple(w, w[p], row) if w[p] else w for w in residues]
    rref, bound = mat_rref([c for c in zip(*residues) if any(c)])
    free = [f for f in range(len(f2)) if f not in bound]
    meet = [f2[f] for f in free]
    for row, pc in zip(rref, bound):
        meet = [_sub_multiple(x, row[f], f2[pc]) if row[f] else x
                for x, f in zip(meet, free)]
    return flat_span(meet)


# ---------------------------------------------------------------------------
# straight-line incidence programs

_OPS = ("join", "meet")


@dataclass(frozen=True)
class IncidenceProgram:
    """A fixed sequence of join/meet steps over named points.

    Step k produces the value named ``sk``.  Arguments may reference
    program inputs, base points, or earlier steps.  Base points carry
    fixed coordinates; inputs are supplied at evaluation time.
    """

    inputs: tuple
    base: tuple
    steps: tuple
    outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(str(n) for n in self.inputs))
        base = tuple((str(n), _coerce_point(p)) for n, p in self.base)
        object.__setattr__(self, "base", base)
        steps = tuple((op, tuple(str(a) for a in args)) for op, args in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "outputs", tuple(str(n) for n in self.outputs))

        known = []
        for name in self.inputs + tuple(n for n, _ in base):
            if name in known:
                raise ValueError(f"duplicate point name: {name}")
            known.append(name)
        seen = set(known)
        for i, (op, args) in enumerate(steps):
            if op not in _OPS:
                raise ValueError(f"unknown operation: {op}")
            if len(args) < 2:
                raise ValueError("steps need at least two arguments")
            for a in args:
                if a not in seen:
                    raise ValueError(f"step s{i} references unknown name: {a}")
            sid = f"s{i}"
            if sid in seen:
                raise ValueError(f"duplicate point name: {sid}")
            seen.add(sid)
        for out in self.outputs:
            if out not in seen:
                raise ValueError(f"unknown output: {out}")

    def to_json(self) -> dict:
        return {
            "format": "polyforge/1",
            "kind": "slp",
            "inputs": list(self.inputs),
            "base": [
                {"name": n, "point": [x.to_json() for x in p]}
                for n, p in self.base
            ],
            "steps": [{"op": op, "args": list(args)} for op, args in self.steps],
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "IncidenceProgram":
        if data.get("kind") != "slp":
            raise ValueError("not a straight-line program document")
        base = tuple(
            (entry["name"], tuple(FieldElem.from_json(x) for x in entry["point"]))
            for entry in data["base"]
        )
        steps = tuple((s["op"], tuple(s["args"])) for s in data["steps"])
        return cls(tuple(data["inputs"]), base, steps, tuple(data["outputs"]))


def evaluate_slp(prog: IncidenceProgram, inputs, base=None) -> dict:
    """Run a program on exact input points; returns output points by id.

    Degenerate geometry (a join that fails to grow, an empty meet, or an
    output that is not a single point) raises ValueError.
    """
    missing = object()
    named = prog.base if base is None else tuple(base.items())
    named += tuple((name, inputs.get(name, missing)) for name in prog.inputs)
    env = {}
    ambient = None
    for name, p in named:
        if p is missing:
            raise ValueError(f"missing input: {name}")
        p = _coerce_point(p)
        if _is_zero_vec(p):
            raise ValueError(f"zero vector for point {name}")
        if ambient is None:
            ambient = len(p)
        elif len(p) != ambient:
            raise ValueError("inconsistent ambient dimension")
        env[name] = flat_span([p])

    for i, (op, args) in enumerate(prog.steps):
        vals = [env[a] for a in args]
        if op == "join":
            out = flat_span([row for f in vals for row in f])
            if len(out) <= max(len(f) for f in vals):
                raise ValueError(f"degenerate join at step s{i}")
        else:
            out = vals[0]
            for f in vals[1:]:
                out = flat_meet(out, f)
            if not out:
                raise ValueError(f"empty meet at step s{i}")
        env[f"s{i}"] = out

    result = {}
    for out_id in prog.outputs:
        f = env[out_id]
        if len(f) != 1:
            raise ValueError(f"output {out_id} is not a single point")
        result[out_id] = f[0]
    return result


class _ProgramBuilder:
    """Accumulates steps, memoizing repeated joins/meets, and named marks."""

    def __init__(self, inputs, base=()):
        self.inputs = tuple(inputs)
        self.base = tuple(base)
        self.steps = []
        self.outputs = []
        self.names = []
        self._memo = {}

    def _emit(self, op, args):
        key = (op, tuple(sorted(args)))
        if key in self._memo:
            return self._memo[key]
        sid = f"s{len(self.steps)}"
        self.steps.append((op, tuple(args)))
        self._memo[key] = sid
        return sid

    def join(self, *args):
        return self._emit("join", args)

    def meet(self, *args):
        return self._emit("meet", args)

    def mark(self, sid, name=None):
        self.outputs.append(sid)
        self.names.append(sid if name is None else name)
        return sid

    def build(self) -> IncidenceProgram:
        return IncidenceProgram(
            self.inputs, self.base, tuple(self.steps), tuple(self.outputs)
        )

    def derivation(self) -> "FrameDerivation":
        """The built program, its inputs as base and its marks as derived."""
        return FrameDerivation(self.inputs, tuple(self.names), self.build())


# ---------------------------------------------------------------------------
# arithmetic gadgets on the affine line of the plane

# reference frame: origin, unit mark, off-axis anchor, two directions
BASE_FRAME = (
    ("O", _coerce_point((0, 0, 1))),
    ("X1", _coerce_point((1, 0, 1))),
    ("A", _coerce_point((0, 1, 1))),
    ("INFX", _coerce_point((1, 0, 0))),
    ("INFY", _coerce_point((0, 1, 0))),
)

_STD_FRAME = {name: name for name, _ in BASE_FRAME}


def _emit_add(b, x, y, fr=_STD_FRAME):
    # translate x by the offset that carries O to y
    p = b.meet(b.join(y, fr["INFY"]), b.join(fr["A"], fr["INFX"]))
    d = b.meet(b.join(x, fr["A"]), b.join(fr["INFX"], fr["INFY"]))
    return b.meet(b.join(p, d), b.join(fr["O"], fr["INFX"]))


def _emit_mul(b, x, y, fr=_STD_FRAME):
    # scale via similar triangles over the two axes
    linf = b.join(fr["INFX"], fr["INFY"])
    d1 = b.meet(b.join(fr["X1"], fr["A"]), linf)
    q = b.meet(b.join(x, d1), b.join(fr["O"], fr["INFY"]))
    d2 = b.meet(b.join(y, fr["A"]), linf)
    return b.meet(b.join(q, d2), b.join(fr["O"], fr["INFX"]))


def _emit_sub(b, x, y, fr=_STD_FRAME):
    # swapped-port addition: recovers x - y from the same incidences
    p = b.meet(b.join(y, fr["INFY"]), b.join(fr["A"], fr["INFX"]))
    d = b.meet(b.join(p, x), b.join(fr["INFX"], fr["INFY"]))
    return b.meet(b.join(d, fr["A"]), b.join(fr["O"], fr["INFX"]))


def _emit_div(b, x, y, fr=_STD_FRAME):
    # swapped-port multiplication
    linf = b.join(fr["INFX"], fr["INFY"])
    d2 = b.meet(b.join(y, fr["A"]), linf)
    q = b.meet(b.join(x, d2), b.join(fr["O"], fr["INFY"]))
    d1 = b.meet(b.join(fr["X1"], fr["A"]), linf)
    return b.meet(b.join(q, d1), b.join(fr["O"], fr["INFX"]))


def _gadget(emitter) -> IncidenceProgram:
    b = _ProgramBuilder(("x", "y"), BASE_FRAME)
    b.mark(emitter(b, "x", "y"))
    return b.build()


@functools.cache
def gadget_add() -> IncidenceProgram:
    """Program sending (a,0,1), (b,0,1) to (a+b, 0, 1)."""
    return _gadget(_emit_add)


@functools.cache
def gadget_mul() -> IncidenceProgram:
    """Program sending (a,0,1), (b,0,1) to (a*b, 0, 1)."""
    return _gadget(_emit_mul)


@functools.cache
def gadget_sub() -> IncidenceProgram:
    return _gadget(_emit_sub)


@functools.cache
def gadget_div() -> IncidenceProgram:
    return _gadget(_emit_div)


def _rational_coeffs(coeffs) -> list:
    """Polynomial coefficients, each a rational exact number, as Fractions."""
    xs = as_vector(coeffs)
    if not all(x.is_rational() for x in xs):
        raise TypeError("polynomial coefficients must be rational")
    return [x.a for x in xs]


def poly_eval(coeffs, x):
    """Evaluate a polynomial given by ascending coefficients, exactly."""
    x = as_field(x)
    acc = ZERO
    for c in reversed(list(coeffs)):
        acc = acc * x + as_field(c)
    return acc


def _emit_const(b, value: Fraction, consts: dict, fr=_STD_FRAME):
    # integers by repeated addition of the unit, fractions by one division
    if value in consts:
        return consts[value]
    if value == 0:
        cid = fr["O"]
    elif value == 1:
        cid = fr["X1"]
    elif value < 0:
        cid = _emit_sub(b, fr["O"], _emit_const(b, -value, consts, fr), fr)
    elif value.denominator != 1:
        num = _emit_const(b, Fraction(value.numerator), consts, fr)
        den = _emit_const(b, Fraction(value.denominator), consts, fr)
        cid = _emit_div(b, num, den, fr)
    else:
        cid = _emit_add(b, _emit_const(b, value - 1, consts, fr), fr["X1"], fr)
    consts[value] = cid
    return cid


def _emit_horner(b, coeffs, x, fr=_STD_FRAME):
    consts = {}
    acc = _emit_const(b, coeffs[-1], consts, fr)
    for c in reversed(coeffs[:-1]):
        acc = _emit_add(b, _emit_mul(b, acc, x, fr), _emit_const(b, c, consts, fr), fr)
    return acc


def compile_polynomial(coeffs) -> IncidenceProgram:
    """Compile rational coefficients (ascending) into an incidence program.

    The output point is (p(x), 0, 1) for input point (x, 0, 1); a root
    of the polynomial therefore lands exactly on the origin.
    """
    coeffs = _rational_coeffs(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    b = _ProgramBuilder(("x",), BASE_FRAME)
    b.mark(_emit_horner(b, coeffs, "x"))
    return b.build()


# ---------------------------------------------------------------------------
# stock configurations

def lattice_qd(d: int):
    """All points of the cubical lattice {-1,0,1}^d, in lexicographic order."""
    if d < 1:
        raise ValueError("dimension must be at least one")
    return tuple(
        tuple(FieldElem(c) for c in combo)
        for combo in itertools.product((-1, 0, 1), repeat=d)
    )


@dataclass(frozen=True)
class ProjConfig:
    points: tuple
    frame: tuple
    weights: tuple


def proj_config(weights) -> ProjConfig:
    """Weighted box lattice together with its axis frame.

    Coordinate i of the lattice takes the values 0, w_i/2, w_i.  The
    frame collects the origin plus the full and half marks on each axis.
    """
    ws = tuple(as_field(w) for w in weights)
    d = len(ws)
    if d < 3:
        raise ValueError("need at least three coordinates")
    if any(w.sign() <= 0 for w in ws):
        raise ValueError("weights must be positive")
    half = [w / 2 for w in ws]
    points = tuple(
        tuple(half[i] * (FieldElem(q) + 1) for i, q in enumerate(combo))
        for combo in itertools.product((-1, 0, 1), repeat=d)
    )
    zero = tuple(ZERO for _ in range(d))
    frame = [zero]
    for i in range(d):
        axis = list(zero)
        axis[i] = ws[i]
        frame.append(tuple(axis))
        axis = list(zero)
        axis[i] = half[i]
        frame.append(tuple(axis))
    return ProjConfig(points=points, frame=tuple(frame), weights=ws)


# ---------------------------------------------------------------------------
# convex point configurations

def _meta_to_json(value):
    if isinstance(value, FieldElem):
        return {"$field": value.to_json()}
    if isinstance(value, Fraction):
        return {"$frac": str(value)}
    if isinstance(value, (list, tuple)):
        return [_meta_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _meta_to_json(v) for k, v in value.items()}
    return value


def _meta_from_json(value):
    if isinstance(value, dict):
        if set(value) == {"$field"}:
            return FieldElem.from_json(value["$field"])
        if set(value) == {"$frac"}:
            return Fraction(value["$frac"])
        return {k: _meta_from_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_meta_from_json(v) for v in value]
    return value


@dataclass(frozen=True)
class PPConfig:
    """A polytope vertex list plus free points, all validated exactly.

    Every declared vertex must be extreme (outside the hull of the other
    vertices) and every free point must avoid the polytope.
    """

    ambient_dim: int
    polytope_vertices: tuple
    free_points: tuple
    metadata: dict | None = None

    def __post_init__(self):
        verts = tuple(_coerce_point(p) for p in self.polytope_vertices)
        free = tuple(_coerce_point(p) for p in self.free_points)
        object.__setattr__(self, "polytope_vertices", verts)
        object.__setattr__(self, "free_points", free)
        _check_shape(self.ambient_dim, verts, free)
        for i, v in enumerate(verts):
            others = verts[:i] + verts[i + 1:]
            if others and in_convex_hull(v, others):
                raise ValueError(f"point {i} is not a vertex of the polytope")
        for i, r in enumerate(free):
            if in_convex_hull(r, verts):
                raise ValueError(f"free point {i} lies in the polytope")

    def to_json(self) -> dict:
        return {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": self.ambient_dim,
            "polytope_vertices": [
                [x.to_json() for x in p] for p in self.polytope_vertices
            ],
            "free_points": [[x.to_json() for x in p] for p in self.free_points],
            "metadata": _meta_to_json(self.metadata),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PPConfig":
        return cls(**cls.fields_from_json(data))

    @staticmethod
    def fields_from_json(data: dict) -> dict:
        """The constructor's arguments decoded from a document and checked
        for shape, before any check of the geometry: a ValueError here
        means a malformed document, one from the constructor a failed
        vertex or free-point check."""
        if data.get("kind") != "ppconfig":
            raise ValueError("not a point configuration document")
        dim = data["ambient_dim"]
        if type(dim) is not int:
            raise TypeError(f"ambient_dim must be an integer, got {dim!r}")
        verts, free = (tuple(tuple(FieldElem.from_json(x) for x in p)
                             for p in data[key])
                       for key in ("polytope_vertices", "free_points"))
        _check_shape(dim, verts, free)
        return dict(ambient_dim=dim, polytope_vertices=verts, free_points=free,
                    metadata=_meta_from_json(data.get("metadata")))


def _check_shape(dim: int, verts: tuple, free: tuple) -> None:
    """Raise unless there is a vertex and every point has dim coordinates."""
    for p in verts + free:
        if len(p) != dim:
            raise ValueError("point does not match the ambient dimension")
    if not verts:
        raise ValueError("empty vertex list")


def _affine_dim(points) -> int:
    if len(points) < 2:
        return 0
    base = points[0]
    return mat_rank([tuple(a - b for a, b in zip(p, base)) for p in points[1:]])


def lawrence_extension(cfg: PPConfig) -> PPConfig:
    """Replace each free point by a private lifted pair of heights 1 and 2.

    The result is a vertex list in dimension d+k whose combinatorics pin
    down the original configuration; the source polytope survives as the
    face exposed by pushing down every private axis.
    """
    k = len(cfg.free_points)
    if k == 0:
        raise ValueError("no free points to lift")
    d = cfg.ambient_dim
    zero_tail = tuple(ZERO for _ in range(k))
    pts = [p + zero_tail for p in cfg.polytope_vertices]
    for i, r in enumerate(cfg.free_points):
        for height in (ONE, ONE + 1):
            tail = [ZERO] * k
            tail[i] = height
            pts.append(r + tuple(tail))
    dim_out = _affine_dim(pts)
    if dim_out != _affine_dim(cfg.polytope_vertices) + k:
        raise ValueError("degenerate lift: dimension did not grow by the free count")
    return PPConfig(
        ambient_dim=d + k,
        polytope_vertices=tuple(pts),
        free_points=(),
        metadata={
            "kind": "lawrence",
            "source_dim": d,
            "free_count": k,
            "dim": dim_out,
        },
    )


def lawrence_face_certificate(cfg: PPConfig):
    """Exact functional exposing the source polytope inside its lift."""
    meta = cfg.metadata or {}
    if meta.get("kind") != "lawrence":
        raise ValueError("not a lifted configuration")
    d, k = meta["source_dim"], meta["free_count"]
    normal = tuple(ZERO for _ in range(d)) + tuple(-ONE for _ in range(k))
    values = [vec_dot(normal, p) for p in cfg.polytope_vertices]
    on_face = sum(1 for v in values if v == ZERO)
    if on_face != len(cfg.polytope_vertices) - 2 * k:
        raise ValueError("face certificate failed: wrong contact count")
    if any(v.sign() > 0 for v in values):
        raise ValueError("face certificate failed: functional not supporting")
    return normal, ZERO


def subdirect_cone(triple, wedge, apex=None) -> PPConfig:
    """Cone a polytope onto an apex over the wedge hyperplane.

    ``triple`` is (P, Q, R): polytope vertices off the hyperplane, shared
    points on it, and free points spanning it.  The polytope is pulled
    toward the apex until it sits on the lifted copy of the hyperplane,
    which keeps the shared and free points fixed at height zero.
    """
    p_raw, q_raw, r_raw = triple
    normal, offset = wedge
    normal = _coerce_point(normal)
    offset = as_field(offset)
    d = len(normal)
    p_pts = tuple(_coerce_point(p) for p in p_raw)
    q_pts = tuple(_coerce_point(p) for p in q_raw)
    r_pts = tuple(_coerce_point(p) for p in r_raw)
    if not p_pts:
        raise ValueError("empty polytope")
    for p in p_pts + q_pts + r_pts:
        if len(p) != d:
            raise ValueError("point does not match the wedge dimension")

    def height(x):
        return vec_dot(normal, x) - offset

    for q in q_pts + r_pts:
        if height(q) != ZERO:
            raise ValueError("shared points must lie on the wedge hyperplane")
    if _affine_dim(r_pts) != d - 1:
        raise ValueError("free points do not span the wedge hyperplane")
    heights = [height(p) for p in p_pts]
    signs = {h.sign() for h in heights}
    if 0 in signs or len(signs) != 1:
        raise ValueError("wedge meets the polytope")
    if signs == {-1}:
        normal = tuple(-x for x in normal)
        offset = -offset
        heights = [-h for h in heights]

    if apex is None:
        t0 = ONE
        while (offset + t0).sign() <= 0:
            t0 = t0 * 2
        apex_pt = tuple(ZERO for _ in range(d)) + (t0,)
    else:
        apex_pt = _coerce_point(apex)
        if len(apex_pt) != d + 1:
            raise ValueError("apex does not match the lifted dimension")
        if apex_pt[-1] == ZERO:
            raise ValueError("apex must leave the base hyperplane")
    # lifted wedge: points where the excess over the hyperplane equals
    # the extra coordinate; the apex must sit strictly below it
    f_apex = vec_dot(normal, apex_pt[:-1]) - offset - apex_pt[-1]
    if f_apex.sign() >= 0:
        raise ValueError("apex is not separated from the polytope")

    cone_pts = [apex_pt]
    for p, h in zip(p_pts, heights):
        lam = f_apex / (f_apex - h)
        lifted = tuple(
            a + lam * (b - a) for a, b in zip(apex_pt, p + (ZERO,))
        )
        cone_pts.append(lifted)
    free = tuple(q + (ZERO,) for q in q_pts + r_pts)
    return PPConfig(
        ambient_dim=d + 1,
        polytope_vertices=tuple(cone_pts),
        free_points=free,
        metadata={
            "kind": "subdirect",
            "apex": apex_pt,
            "wedge_normal": normal,
            "wedge_offset": offset,
        },
    )


def weak_triple_counts(p_dim: int, p_f0: int, q_f0: int, r_f0: int) -> dict:
    """Dimension and vertex count after coning and lifting a triple."""
    for v in (p_dim, p_f0, q_f0, r_f0):
        if v < 1:
            raise ValueError("counts must be positive")
    return {
        "dim": p_dim + q_f0 + r_f0 + 1,
        "f0": p_f0 + 1 + 2 * q_f0 + 2 * r_f0,
    }


def pcctp_counts(n: int) -> dict:
    """Size of the projectively unique tower polytope over a width-n tube."""
    if n < 1:
        raise ValueError("width must be at least one")
    ring = 24          # vertices of the narrowest curved tube
    anchors = 40       # companion points pinning its coordinates
    counts = weak_triple_counts(4, 12 * (n + 1), ring, anchors)
    counts["width"] = n
    return counts


# ---------------------------------------------------------------------------
# frame derivations

@dataclass(frozen=True)
class FrameDerivation:
    """Names a program's inputs and maps its outputs to point names."""

    base: tuple
    derived: tuple
    program: IncidenceProgram

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(str(n) for n in self.base))
        object.__setattr__(self, "derived", tuple(str(n) for n in self.derived))
        if self.base != self.program.inputs:
            raise ValueError("base names must match the program inputs")
        if len(self.derived) != len(self.program.outputs):
            raise ValueError("derived names must match the program outputs")
        if set(self.base) & set(self.derived):
            raise ValueError("a point cannot be both base and derived")
        if len(set(self.derived)) != len(self.derived):
            raise ValueError("derived names must be distinct")

    def to_json(self) -> dict:
        return {
            "format": "polyforge/1",
            "kind": "frame-derivation",
            "base": list(self.base),
            "derived": list(self.derived),
            "program": self.program.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrameDerivation":
        if data.get("kind") != "frame-derivation":
            raise ValueError("not a frame derivation document")
        return cls(
            tuple(data["base"]),
            tuple(data["derived"]),
            IncidenceProgram.from_json(data["program"]),
        )


def _derive(derivation: FrameDerivation, inputs: dict, chart=lambda p: p) -> dict:
    """The input points followed by every derived point, evaluated from
    them and passed through `chart`."""
    evaluated = evaluate_slp(derivation.program, inputs)
    names = zip(derivation.derived, derivation.program.outputs)
    return {**inputs, **{name: chart(evaluated[sid]) for name, sid in names}}


def frame_replay(points, derivation: FrameDerivation) -> bool:
    """Re-derive every derived point from the base and compare exactly.

    Returns False as soon as a stored point disagrees with the replayed
    one.  Evaluation errors propagate: they indicate a configuration so
    degenerate the incidences no longer make sense.
    """
    replayed = _derive(derivation, {name: points[name] for name in derivation.base})
    return all(name in points and proj_equal(replayed[name], points[name])
               for name in derivation.derived)


@functools.cache
def _q3_build():
    signs = ("p", "m")
    val = {"p": ONE, "m": -ONE}
    corner_names = [f"c{a}{b}{c}" for a in signs for b in signs for c in signs]
    b = _ProgramBuilder(tuple(corner_names) + ("ctr",))

    # face centers from the facet diagonals
    face = {}
    for axis, make in (("x", lambda s, u, v: f"c{s}{u}{v}"),
                       ("y", lambda s, u, v: f"c{u}{s}{v}"),
                       ("z", lambda s, u, v: f"c{u}{v}{s}")):
        for s in signs:
            d1 = b.join(make(s, "p", "p"), make(s, "m", "m"))
            d2 = b.join(make(s, "p", "m"), make(s, "m", "p"))
            face[axis + s] = b.mark(b.meet(d1, d2), f"f{axis}{s}")

    plane = {
        "x": b.join("ctr", face["yp"], face["zp"]),
        "y": b.join("ctr", face["xp"], face["zp"]),
        "z": b.join("ctr", face["xp"], face["yp"]),
    }

    # edge midpoints: the edge line meets the coordinate plane of the
    # direction the edge runs along
    for (a1, a2, free) in (("x", "y", "z"), ("x", "z", "y"), ("y", "z", "x")):
        for s1 in signs:
            for s2 in signs:
                coords = {a1: s1, a2: s2}
                ends = []
                for sf in signs:
                    coords[free] = sf
                    ends.append(f"c{coords['x']}{coords['y']}{coords['z']}")
                b.mark(b.meet(b.join(*ends), plane[free]), f"m{a1}{s1}{a2}{s2}")

    derivation = b.derivation()
    points = {"ctr": _coerce_point((0, 0, 0, 1))}
    for a in signs:
        for bb in signs:
            for c in signs:
                points[f"c{a}{bb}{c}"] = (val[a], val[bb], val[c], ONE)
    return _derive(derivation, points), derivation


def derive_q3():
    """The 27-point cube lattice, derived from its corners and center."""
    points, derivation = _q3_build()
    return dict(points), derivation


# ---------------------------------------------------------------------------
# coordinate windows

@dataclass(frozen=True)
class CoorConfig:
    points: dict
    derivation: FrameDerivation
    certificate: dict


def coor_config(zeta, coeffs, lo, hi) -> CoorConfig:
    """Pin an algebraic number into a plane configuration.

    The configuration holds the 3x3 integer lattice, the point (zeta,0,1),
    and every intermediate point of an incidence evaluation of the given
    polynomial at zeta, which ends exactly at the origin.  The window
    [lo, hi] must bracket zeta; for degree at most four a sign change of
    the polynomial across the window is verified, which together with
    the bracketing isolates the root among the field's real embeddings.
    Root isolation beyond degree four is the caller's responsibility.
    """
    zeta = as_field(zeta)
    coeffs = _rational_coeffs(coeffs)
    stripped = list(coeffs)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    if not stripped:
        raise ValueError("zero polynomial has no isolated roots")
    degree = len(stripped) - 1
    if poly_eval(coeffs, zeta) != ZERO:
        raise ValueError("the target value is not a root of the polynomial")
    lo = as_field(lo)
    hi = as_field(hi)
    if not (lo < zeta < hi):
        raise ValueError("window does not bracket the target value")
    if degree <= 4:
        s_lo = poly_eval(coeffs, lo).sign()
        s_hi = poly_eval(coeffs, hi).sign()
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ValueError("no sign change at the window endpoints")
        endpoint_check = "verified"
        endpoint_signs = (s_lo, s_hi)
    else:
        endpoint_check = "skipped: degree above four"
        endpoint_signs = None

    lattice_names = tuple(f"q{i}{j}" for i in (0, 1, 2) for j in (0, 1, 2))
    b = _ProgramBuilder(("zeta",) + lattice_names)
    infx = b.meet(b.join("q00", "q10"), b.join("q01", "q11"))
    infy = b.meet(b.join("q00", "q01"), b.join("q10", "q11"))
    fr = {"O": "q00", "X1": "q10", "A": "q01", "INFX": infx, "INFY": infy}
    final = _emit_horner(b, coeffs, "zeta", fr)
    for i, (op, _) in enumerate(b.steps):
        if op == "meet":
            b.mark(f"s{i}")
    derivation = b.derivation()

    points = {"zeta": (zeta, ZERO, ONE)}
    for i in (0, 1, 2):
        for j in (0, 1, 2):
            points[f"q{i}{j}"] = _coerce_point((i, j, 1))
    points = _derive(derivation, points)
    if not proj_equal(points[final], _coerce_point((0, 0, 1))):
        raise ValueError("evaluation did not land on the origin")

    certificate = {
        "root": zeta,
        "poly": tuple(coeffs),
        "window": (lo, hi),
        "endpoint_check": endpoint_check,
        "endpoint_signs": endpoint_signs,
    }
    return CoorConfig(points=points, derivation=derivation, certificate=certificate)


# ---------------------------------------------------------------------------
# the rigid 64-point companion configuration

_S3 = FieldElem.sqrt3()
_LAM = FieldElem.sqrt2() - 1


# nine generating points: the x-axis pairs and one y-axis mark over each
# corner of a wide triangle
_K_BASE = (
    ("x1p", _coerce_point((1, 0, -2, 0, 1))),
    ("x1m", _coerce_point((-1, 0, -2, 0, 1))),
    ("y1p", _coerce_point((0, 1, -2, 0, 1))),
    ("x2p", _coerce_point((1, 0, 1, _S3, 1))),
    ("x2m", _coerce_point((-1, 0, 1, _S3, 1))),
    ("y2p", _coerce_point((0, 1, 1, _S3, 1))),
    ("x3p", _coerce_point((1, 0, 1, -_S3, 1))),
    ("x3m", _coerce_point((-1, 0, 1, -_S3, 1))),
    ("y3p", _coerce_point((0, 1, 1, -_S3, 1))),
)

# the one point join/meet steps cannot reach: its coordinate is pinned
# instead by the coplanarity certificate below
_K_SEED = ("ring0_9", _coerce_point((_LAM, _LAM, -2, 0, 1)))

_K_SIX = ("ring1_6", "ring1_7", "ring1_11", "ring0_6", "ring0_1", "ring0_5")
_K_PINNING = (Fraction(-1), Fraction(2), Fraction(1))


@dataclass(frozen=True)
class KConfig:
    """The rigid 64-point configuration around the narrowest tube."""

    points: dict
    derivation: FrameDerivation
    certificate: dict
    ct_vertex_names: tuple
    free_names: tuple


def _chart(p):
    # prefer the affine chart with last coordinate one
    if p[-1] != ZERO:
        inv = p[-1].inverse()
        return tuple(x * inv for x in p)
    return p


def _k_derivation():
    b = _ProgramBuilder(tuple(n for n, _ in _K_BASE) + (_K_SEED[0],))

    others = {1: (2, 3), 2: (1, 3), 3: (1, 2)}

    # stage one: edge midpoints of the triangle, the missing y-axis
    # marks, and the center
    mid = {}
    for i, j in ((2, 3), (1, 3), (1, 2)):
        sid = b.meet(b.join(f"x{i}p", f"x{j}m"), b.join(f"x{i}m", f"x{j}p"))
        mid[(i, j)] = b.mark(sid, f"mid{i}{j}")
    ym = {}
    partner = {1: ((1, 2), "y2p"), 2: ((1, 2), "y1p"), 3: ((1, 3), "y1p")}
    for k in (1, 2, 3):
        edge, anchor = partner[k]
        sid = b.meet(
            b.join(f"x{k}p", f"x{k}m", f"y{k}p"),
            b.join(mid[edge], anchor),
        )
        ym[k] = b.mark(sid, f"y{k}m")
    # the diagonal planes of a single family all share that family's
    # axis direction, so the center needs planes from both families
    center = b.mark(
        b.meet(
            b.join("y1p", ym[1], mid[(2, 3)]),
            b.join("x2p", "x2m", mid[(1, 3)]),
        ),
        "center",
    )

    # stage two: companions over the antipodal triangle corners
    plane_xp = b.join("x1p", "x2p", "x3p")
    plane_xm = b.join("x1m", "x2m", "x3m")
    plane_yp = b.join("y1p", "y2p", "y3p")
    plane_ym = b.join(ym[1], ym[2], ym[3])
    far = {}
    for k in (1, 2, 3):
        far[("x", k, "p")] = b.mark(
            b.meet(plane_xp, b.join(center, f"x{k}m")), f"far_x{k}p")
        far[("x", k, "m")] = b.mark(
            b.meet(plane_xm, b.join(center, f"x{k}p")), f"far_x{k}m")
        far[("y", k, "p")] = b.mark(
            b.meet(plane_yp, b.join(center, ym[k])), f"far_y{k}p")
        far[("y", k, "m")] = b.mark(
            b.meet(plane_ym, b.join(center, f"y{k}p")), f"far_y{k}m")

    # stage three: the inner dodecagon ring at height one
    psi_idx = {(1, "p"): 6, (1, "m"): 0, (2, "p"): 10,
               (2, "m"): 4, (3, "p"): 2, (3, "m"): 8}
    opsit_idx = {(1, "p"): 3, (1, "m"): 9, (2, "p"): 7,
                 (2, "m"): 1, (3, "p"): 11, (3, "m"): 5}
    for k in (1, 2, 3):
        i, j = others[k]
        for s in ("p", "m"):
            sid = b.meet(
                b.join(f"x{k}{s}", far[("x", k, s)]),
                b.join(f"x{i}{s}", f"x{j}{s}"),
            )
            b.mark(sid, f"ring1_{psi_idx[(k, s)]}")
    for k in (1, 2, 3):
        i, j = others[k]
        for s in ("p", "m"):
            near = f"y{k}p" if s == "p" else ym[k]
            sid = b.meet(
                b.join(near, far[("y", k, s)]),
                b.join(far[("y", i, s)], far[("y", j, s)]),
            )
            b.mark(sid, f"ring1_{opsit_idx[(k, s)]}")

    # stage four: the square of ring-zero points over triangle corner one,
    # grown from the single seeded point
    xline = b.join("x1p", "x1m")
    yline = b.join("y1p", ym[1])
    sq_center = b.mark(b.meet(xline, yline), "sq1_center")
    cross_pp = b.mark(
        b.meet(b.join("x1p", "y2p"), b.join("x2p", "y1p")), "cross12_pp")
    cross_pm = b.mark(
        b.meet(b.join("x1p", ym[2]), b.join("x2p", ym[1])), "cross12_pm")
    square_plane = b.join("x1p", "x1m", "y1p", ym[1])
    diag_x = b.meet(b.join(sq_center, mid[(1, 2)], cross_pp), square_plane)
    diag_y = b.meet(b.join(sq_center, mid[(1, 2)], cross_pm), square_plane)
    seed = _K_SEED[0]
    ycut_a = b.mark(b.meet(b.join(seed, "x1m"), yline), "ycut_a")
    sq_mp = b.mark(b.meet(b.join(ycut_a, "x1p"), diag_y), "sq1_mp")
    xcut_a = b.mark(b.meet(b.join(seed, ym[1]), xline), "xcut_a")
    sq_pm = b.mark(b.meet(b.join(xcut_a, "y1p"), diag_y), "sq1_pm")
    ycut_b = b.mark(b.meet(b.join(sq_pm, "x1m"), yline), "ycut_b")
    ring0_3 = b.mark(b.meet(b.join(ycut_b, "x1p"), diag_x), "ring0_3")

    # stage five: transfer the square points to the other corners along
    # shared directions at infinity; every transfer is then a clean
    # line-meets-plane step for any value of the seed parameter
    inf_t = {
        2: b.meet(b.join("x1p", "x2p"), b.join("x1m", "x2m")),
        3: b.meet(b.join("x1p", "x3p"), b.join("x1m", "x3m")),
    }
    inf_alt = {}
    for k in (1, 2, 3):
        inf_alt[k] = b.meet(
            b.join(f"x{k}p", far[("x", k, "p")]),
            b.join(f"x{k}m", far[("x", k, "m")]),
        )
    diag_idx = {(2, "p"): 1, (2, "m"): 7, (3, "p"): 5, (3, "m"): 11}
    for k in (2, 3):
        fam = b.join(f"x{k}p", f"x{k}m", f"y{k}p", ym[k])
        for s, src in (("p", seed), ("m", ring0_3)):
            b.mark(b.meet(fam, b.join(src, inf_t[k])), f"ring0_{diag_idx[(k, s)]}")
    # the companion family over corner k lies along the altitude
    # direction of the corner whose axis runs the same way
    anti_dir = {1: 1, 2: 3, 3: 2}
    anti_idx = {(1, "pm"): 0, (1, "mp"): 6, (2, "pm"): 4,
                (2, "mp"): 10, (3, "pm"): 8, (3, "mp"): 2}
    for k in (1, 2, 3):
        fam = b.join(
            far[("x", k, "p")], far[("x", k, "m")],
            far[("y", k, "p")], far[("y", k, "m")],
        )
        for tag, src in (("pm", sq_pm), ("mp", sq_mp)):
            sid = b.meet(fam, b.join(src, inf_alt[anti_dir[k]]))
            b.mark(sid, f"ring0_{anti_idx[(k, tag)]}")

    # stage six: the four shared directions at infinity
    b.mark(inf_t[2], "inf_t12")
    b.mark(b.meet(b.join("x3p", "x2p"), b.join("x3m", "x2m")), "inf_t23")
    b.mark(b.meet(xline, b.join("x2p", "x2m")), "inf_x")
    b.mark(b.meet(yline, b.join("y2p", ym[2])), "inf_y")

    return b.derivation()


@functools.cache
def _k_build():
    derivation = _k_derivation()
    points = _derive(derivation, dict(_K_BASE + (_K_SEED,)), _chart)

    # the square parameter is the positive root of the pinning polynomial,
    # certified by the rank drop of six ring points
    if poly_eval(_K_PINNING, _LAM) != ZERO:
        raise RuntimeError("square parameter fails its pinning polynomial")
    rank_here = mat_rank([points[n] for n in _K_SIX])
    alt = Fraction(1, 2)
    alt_seed = (_K_SEED[0], _coerce_point((alt, alt, -2, 0, 1)))
    alt_points = _derive(derivation, dict(_K_BASE + (alt_seed,)), _chart)
    rank_alt = mat_rank([alt_points[n] for n in _K_SIX])
    if rank_here != 4 or rank_alt != 5:
        raise RuntimeError("coplanarity certificate failed")
    certificate = {
        "parameter": _LAM,
        "pinning": _K_PINNING,
        "six_points": _K_SIX,
        "rank_at_parameter": rank_here,
        "alternative": alt,
        "rank_at_alternative": rank_alt,
    }

    ring_names = tuple(f"ring0_{j}" for j in range(12)) + tuple(
        f"ring1_{j}" for j in range(12))
    free_names = tuple(n for n in points if n not in set(ring_names))
    return points, derivation, certificate, ring_names, free_names


def build_k_configuration() -> KConfig:
    """Derive the 64-point configuration that makes the tube rigid.

    All but one of the 55 non-generating points are forced from the nine
    generators by joins and meets.  The remaining square point carries
    the quadratic surd; its value is certified by the coplanarity of six
    ring points, which fails for any other parameter choice.
    """
    points, derivation, certificate, ring_names, free_names = _k_build()
    return KConfig(
        points=dict(points),
        derivation=derivation,
        certificate=dict(certificate),
        ct_vertex_names=ring_names,
        free_names=free_names,
    )
