"""Arrangements of rational affine subspaces and their complements.

An arrangement is a list of :class:`AffineSubspace` objects sharing an
ambient dimension.  The intersection poset collects every nonempty
intersection of arrangement members, ordered by reverse inclusion.  The
Betti numbers of the complement are then assembled from reduced homology
ranks of order complexes of lower intervals, one summand per poset node.

A flat is the meet of the members containing it, so its support (the
bitmask of those members) fixes it: the closure records supports from the
meets it takes, and the order is a subset test on them, not elimination.

The poset keeps its strict order and its covers as tables built on first
use, each lower complex is `complexcore.order_complex` on the covers, its
boundary matrices are read off the cover lists of its
`complexcore.FacePoset`, and `gm_betti_all` reads every Betti degree off
one poset.  So does `lefschetz_inequality_check`, for both of its Betti
vectors: a generic hyperplane section's poset is the ambient one without
its point flats, so the section is never built.

Everything here is exact rational arithmetic.  Coordinates are coerced
by :func:`exactfield.as_vector` and must be rational, so the elimination
runs on the package's one exact path; they come back as Fractions only
from ``span_form`` and ``to_json``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexcore import SimplicialComplex, order_complex
from .exactfield import (
    ONE,
    ZERO,
    FieldElem,
    _echelon,
    as_vector,
    mat_nullspace,
    mat_rank,
    mat_solve,
    vec_dot,
)


def _rat_vec(v, n: int) -> list[FieldElem]:
    out = as_vector(v)
    if len(out) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(out)}")
    if not all(x.is_rational() for x in out):
        raise TypeError("expected rational coordinates, got an irrational value")
    return out


class AffineSubspace:
    """An affine flat of R^d given by a point and independent directions.

    Internally the flat is stored as the reduced echelon form of its
    constraint system [A | b] (rows a.x = b spanning the annihilator of
    the direction space), which is a canonical representation: two flats
    are equal iff their stored forms coincide.
    """

    __slots__ = ("ambient_dim", "_canon")

    def __init__(self, ambient_dim: int, basis, offset):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        off = _rat_vec(offset, ambient_dim)
        rows = [_rat_vec(v, ambient_dim) for v in basis]
        normals = mat_nullspace(rows) if rows else _unit_vectors(ambient_dim)
        if len(normals) != ambient_dim - len(rows):
            raise ValueError("direction vectors must be linearly independent")
        aug = [list(a) + [vec_dot(a, off)] for a in normals]
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_canon", _canonicalize(aug))

    def __setattr__(self, name, value):
        raise AttributeError("AffineSubspace is immutable")

    @classmethod
    def _from_canon(cls, ambient_dim: int, canon) -> "AffineSubspace":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ambient_dim", ambient_dim)
        object.__setattr__(obj, "_canon", canon)
        return obj

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self._canon)

    def span_form(self) -> tuple[list[Fraction], list[tuple[Fraction, ...]]]:
        """Recover (offset, basis) deterministically from the canon."""
        n = self.ambient_dim
        if not self._canon:
            offset, basis = [ZERO] * n, _unit_vectors(n)
        else:
            a_rows = [list(row[:n]) for row in self._canon]
            offset = mat_solve(a_rows, [row[n] for row in self._canon])
            basis = mat_nullspace(a_rows)
        return [x.a for x in offset], [tuple(x.a for x in v) for v in basis]

    def contains(self, other: "AffineSubspace") -> bool:
        """Whether other lies in self: meeting them changes nothing."""
        return other.intersect(self) == other

    def intersect(self, other: "AffineSubspace"):
        """The flat self ∩ other, or None when the intersection is empty."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        canon = _canonicalize(self._canon + other._canon)
        return None if canon is None else AffineSubspace._from_canon(self.ambient_dim, canon)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return (self.ambient_dim, self._canon) == (other.ambient_dim, other._canon)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._canon))

    def __repr__(self) -> str:
        return f"AffineSubspace(dim={self.dim}, ambient={self.ambient_dim})"

    def to_json(self) -> dict:
        offset, basis = self.span_form()
        return {
            "basis": [[str(x) for x in v] for v in basis],
            "offset": [str(x) for x in offset],
        }

    @classmethod
    def from_json(cls, data: dict, ambient_dim: int | None = None) -> "AffineSubspace":
        n = ambient_dim if ambient_dim is not None else len(data["offset"])
        return cls(n, data["basis"], data["offset"])


def _unit_vectors(n: int) -> list[tuple[FieldElem, ...]]:
    return [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]


def _canonicalize(aug_rows):
    """The nonzero rows of the reduced echelon form of the system [A | b],
    or None when the system has no solution."""
    if not aug_rows:
        return ()
    rref, pivots = _echelon(aug_rows)
    if len(aug_rows[0]) - 1 in pivots:
        return None
    return tuple(tuple(rref[i]) for i in range(len(pivots)))


def arrangement_to_json(arr: list[AffineSubspace]) -> dict:
    if not arr:
        raise ValueError("arrangement must be nonempty")
    d = arr[0].ambient_dim
    return {"dim": d, "subspaces": [s.to_json() for s in arr]}


def arrangement_from_json(data: dict) -> list[AffineSubspace]:
    d = data["dim"]
    if type(d) is not int:  # a float, string or boolean is malformed
        raise TypeError(f"dim must be an integer, got {d!r}")
    if not data["subspaces"]:
        raise ValueError("arrangement must be nonempty")
    arr = [AffineSubspace.from_json(s, d) for s in data["subspaces"]]
    if any(s.dim == d for s in arr):
        raise ValueError("a member is the whole space")
    return arr


@dataclass(frozen=True)
class IntersectionPoset:
    """Nonempty intersections of an arrangement, by reverse inclusion.

    ``nodes[i] < nodes[j]`` in the poset iff the flat ``nodes[i]``
    strictly contains the flat ``nodes[j]``.  ``supports[i]`` is the
    bitmask of the distinct members, in order of first appearance, that
    contain ``nodes[i]``.
    """

    ambient_dim: int
    nodes: tuple[AffineSubspace, ...]
    supports: tuple[int, ...]

    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def _below(self) -> tuple:
        """The strict order as a table: _below[j] is the set of i with
        nodes[i] < nodes[j].  Every flat is the intersection of the
        members that contain it, so a flat strictly contains another iff
        its support is a proper subset of the other's."""
        sup = self.supports
        return tuple(frozenset(i for i, s in enumerate(sup) if s & t == s != t)
                     for t in sup)

    def less(self, i: int, j: int) -> bool:
        return i in self._below[j]

    @cached_property
    def _covers(self) -> tuple:
        """_covers[j] is the set of i covered by j: below j, and below no
        other flat below j."""
        table = self._below
        return tuple(t.difference(*(table[k] for k in t)) for t in table)

    def lower_complex(self, i: int) -> SimplicialComplex:
        """Order complex of the flats strictly containing ``nodes[i]``."""
        return order_complex(sorted(self._below[i]), self._covers)


def intersection_poset(arr: list[AffineSubspace]) -> IntersectionPoset:
    if not arr:
        raise ValueError("arrangement must be nonempty")
    d = arr[0].ambient_dim
    for s in arr:
        if s.ambient_dim != d:
            raise ValueError("all subspaces must share the ambient dimension")
        if s.dim == d:
            raise ValueError("a member is the whole space")
    # Every flat is an intersection of members, so it is enough that each
    # flat meets each member once: a member meets the members after it
    # (the earlier ones met it already), a new flat meets them all.  The
    # same meets record each flat's support: member k contains the flat iff
    # the meet is the flat; a member's round that meets a later member k
    # inside it gets member k back, the one containment k's side never sees.
    members = list(dict.fromkeys(arr))
    support = {m: 1 << k for k, m in enumerate(members)}
    frontier = [(m, k + 1) for k, m in enumerate(members)]
    while frontier:
        fresh = []
        for flat, start in frontier:
            for k in range(start, len(members)):
                meet = flat.intersect(members[k])
                if meet == flat:
                    support[flat] |= 1 << k
                elif meet == members[k]:
                    support[meet] |= support[flat]
                elif meet is not None and meet not in support:
                    support[meet] = 0
                    fresh.append((meet, 0))
        frontier = fresh
    ordered = sorted(support, key=lambda s: (s.dim, s._canon))
    return IntersectionPoset(d, tuple(ordered), tuple(support[s] for s in ordered))


def betti_reduced_homology(c: SimplicialComplex, k: int) -> int:
    """Rank of the k-th reduced rational homology group of ``c``.

    Computed as dim C_k − rank ∂_k − rank ∂_{k+1} in the augmented chain
    complex, so the empty complex has a single nonzero number, 1 in
    degree −1.
    """
    betti = _reduced_betti_numbers(c)
    return betti[k + 1] if -1 <= k < len(betti) - 1 else 0


def _reduced_betti_numbers(c: SimplicialComplex) -> list:
    """Reduced rational Betti numbers of ``c`` in degrees −1, 0, ...,
    dim c, each boundary rank computed once.

    The chains of degree k are the ids of dimension k in the face poset
    of ``c``, one contiguous range.  Row j of the boundary out of degree
    k is read off down[j]: its entry m is the face with vertex k − m
    dropped, with sign (−1)^(k − m).  A vertex bounds the empty face."""
    p = c.face_poset()
    # the ids of dimension k run from start[k] up to start[k + 1]
    start = [bisect_left(p.dims, k) for k in range(c.dim + 2)]
    # ranks[k + 1] is the rank of the boundary out of degree k
    ranks = [0, min(1, p.size())]
    for k in range(1, len(start) - 1):
        first, width = start[k - 1], start[k] - start[k - 1]
        rows = []
        for j in range(start[k], start[k + 1]):
            row = [ZERO] * width
            for m, i in enumerate(p.down[j]):
                row[i - first] = -ONE if (k - m) % 2 else ONE
            rows.append(row)
        ranks.append(mat_rank(rows))
    ranks.append(0)
    sizes = [1] + [b - a for a, b in zip(start, start[1:])]
    return [n - ranks[k] - ranks[k + 1] for k, n in enumerate(sizes)]


def _poset_betti(poset: IntersectionPoset) -> tuple[list, list]:
    """Betti numbers b_0, ..., b_{d−1} of the complement (b_0 alone when
    d = 0), one lower complex per node, every higher degree being 0; and
    the same sum over the positive-dimensional nodes alone, which is the
    section's vector in ``lefschetz_inequality_check``."""
    d = poset.ambient_dim
    betti = [1] + [0] * (d - 1)
    positive = betti.copy()
    for idx, s in enumerate(poset.nodes):
        for k, b in enumerate(_reduced_betti_numbers(poset.lower_complex(idx)), -1):
            # k >= -1, so the degree is at most d - 1 - dim s
            i = d - 2 - k - s.dim
            if i >= 0:
                betti[i] += b
                if s.dim:
                    positive[i] += b
    return betti, positive


def gm_betti_all(arr: list[AffineSubspace]) -> list:
    """Every Betti number b_0, ..., b_{d−1} of the complement R^d minus
    the union, from one intersection poset; degrees d and up are 0.

    Degree 0 counts the ambient component itself, so a connected
    complement reports 1 there; higher degrees are the poset sum of
    lower-interval homology ranks.
    """
    return _poset_betti(intersection_poset(arr))[0]


def gm_betti(arr: list[AffineSubspace], i: int) -> int:
    """i-th rational Betti number of the complement R^d minus the union,
    entry i of ``gm_betti_all(arr)``."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    betti = gm_betti_all(arr)
    return betti[i] if i < len(betti) else 0


def lefschetz_inequality_check(arr: list[AffineSubspace], hyperplane: AffineSubspace) -> dict:
    """Compare complement Betti numbers before and after a generic slice.

    The hyperplane H must meet every poset flat transversally: positive
    dimensional flats drop dimension by exactly one, zero dimensional
    flats are missed entirely.  The report carries both Betti vectors and
    the per-degree comparison ``ambient[i] >= sliced[i]``.

    Both vectors come from the one poset.  Under these hypotheses
    p ↦ p ∩ H maps the positive-dimensional flats onto the poset of the
    members' slices.  It is one to one: if p ∩ H = p′ ∩ H = q with p ≠ p′,
    the flat r = p ∩ p′ holds q, so it is no point flat (those miss H),
    and dim r = dim q + 1 = dim p = dim p′ makes r both p and p′; applied
    to p ∩ p′ and p′, this shows it keeps the order both ways.  It is
    onto: a nonempty meet of slices is (∩ m_k) ∩ H = p ∩ H for the flat
    p = ∩ m_k.  So p ∩ H has the lower complex of p, and in H ≅ R^(d−1) its
    homology lands in the same degree d − 2 − k − dim p: the section's
    vector is the ambient sum less the point flats' terms.  Only those
    reach degree d − 1, which the section reads as 0, and with no
    positive-dimensional flat (always so in R^1) it is 1, 0, ..., 0.
    """
    poset = intersection_poset(arr)
    d = poset.ambient_dim
    if hyperplane.ambient_dim != d:
        raise ValueError("hyperplane has the wrong ambient dimension")
    if hyperplane.dim != d - 1:
        raise ValueError("slicing flat must be a hyperplane")
    for p in poset.nodes:
        q = p.intersect(hyperplane)
        if p.dim == 0:
            if q is not None:
                raise ValueError("not in general position: hyperplane hits a point flat")
        elif q is None or q.dim != p.dim - 1:
            raise ValueError("not in general position: non-transversal flat")

    ambient, sliced = _poset_betti(poset)
    return {
        "generic": True,
        "ambient": ambient,
        "sliced": sliced,
        "satisfied": [a >= b for a, b in zip(ambient, sliced)],
        "poset_nodes_ambient": poset.size(),
        "poset_nodes_sliced": sum(1 for p in poset.nodes if p.dim),
    }
