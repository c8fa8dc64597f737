"""Arrangements of rational affine subspaces and their complements.

An arrangement is a list of :class:`AffineSubspace` objects sharing an
ambient dimension.  The intersection poset collects every nonempty
intersection of arrangement members, ordered by reverse inclusion.  The
Betti numbers of the complement are then assembled from reduced homology
ranks of order complexes of lower intervals, one summand per poset node.

Everything here is exact rational arithmetic.  Inputs (ints, strings or
:class:`fractions.Fraction`) are coerced to rational :class:`FieldElem`
values, so the elimination runs on the package's one exact path; they
come back as Fractions only from ``span_form`` and ``to_json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexcore import SimplicialComplex
from .exactfield import (
    ONE,
    ZERO,
    FieldElem,
    _echelon,
    mat_nullspace,
    mat_rank,
    mat_solve,
    vec_dot,
)


def _rat(x) -> FieldElem:
    if isinstance(x, (int, str, Fraction)):
        return FieldElem(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _rat_vec(v, n: int) -> list[FieldElem]:
    out = [_rat(x) for x in v]
    if len(out) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(out)}")
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
        if rows and mat_rank(rows) != len(rows):
            raise ValueError("direction vectors must be linearly independent")
        normals = mat_nullspace(rows) if rows else _unit_vectors(ambient_dim)
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

    def _span(self) -> tuple[list[FieldElem], list[tuple[FieldElem, ...]]]:
        """(offset, basis), recovered deterministically from the canon."""
        n = self.ambient_dim
        if not self._canon:
            return [ZERO] * n, _unit_vectors(n)
        a_rows = [list(row[:n]) for row in self._canon]
        b = [row[n] for row in self._canon]
        return list(mat_solve(a_rows, b)), mat_nullspace(a_rows)

    def span_form(self) -> tuple[list[Fraction], list[tuple[Fraction, ...]]]:
        """Recover (offset, basis) deterministically from the canon."""
        offset, basis = self._span()
        return [x.a for x in offset], [tuple(x.a for x in v) for v in basis]

    def contains(self, other: "AffineSubspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        offset, basis = other._span()
        for row in self._canon:
            a, b = row[:n], row[n]
            if vec_dot(a, offset) != b:
                return False
            for v in basis:
                if vec_dot(a, v):
                    return False
        return True

    def intersect(self, other: "AffineSubspace"):
        """The flat self ∩ other, or None when the intersection is empty."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        stacked = [list(r) for r in self._canon] + [list(r) for r in other._canon]
        if not stacked:
            return self
        rref, pivots = _echelon(stacked)
        if self.ambient_dim in pivots:
            return None
        canon = tuple(tuple(rref[i]) for i in range(len(pivots)))
        return AffineSubspace._from_canon(self.ambient_dim, canon)

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


def _canonicalize(aug_rows) -> tuple:
    if not aug_rows:
        return ()
    rref, pivots = _echelon(aug_rows)
    return tuple(tuple(rref[i]) for i in range(len(pivots)))


def arrangement_to_json(arr: list[AffineSubspace]) -> dict:
    if not arr:
        raise ValueError("arrangement must be nonempty")
    d = arr[0].ambient_dim
    return {"dim": d, "subspaces": [s.to_json() for s in arr]}


def arrangement_from_json(data: dict) -> list[AffineSubspace]:
    d = int(data["dim"])
    return [AffineSubspace.from_json(s, d) for s in data["subspaces"]]


@dataclass(frozen=True)
class IntersectionPoset:
    """Nonempty intersections of an arrangement, by reverse inclusion.

    ``nodes[i] < nodes[j]`` in the poset iff the flat ``nodes[i]``
    strictly contains the flat ``nodes[j]``.
    """

    ambient_dim: int
    nodes: tuple[AffineSubspace, ...]

    def size(self) -> int:
        return len(self.nodes)

    def less(self, i: int, j: int) -> bool:
        a, b = self.nodes[i], self.nodes[j]
        return a != b and a.contains(b)

    def lower_complex(self, i: int) -> SimplicialComplex:
        """Order complex of the flats strictly containing ``nodes[i]``."""
        below = [j for j in range(len(self.nodes)) if self.less(j, i)]
        reindex = {j: k for k, j in enumerate(below)}
        chains: list[tuple[int, ...]] = []

        def extend(chain: list[int]) -> None:
            nxt = [j for j in below if self.less(chain[-1], j)]
            if not nxt:
                chains.append(tuple(reindex[j] for j in chain))
                return
            for j in nxt:
                extend(chain + [j])

        starts = [j for j in below if not any(self.less(o, j) for o in below)]
        for j in starts:
            extend([j])
        return SimplicialComplex(len(below), chains)


def intersection_poset(arr: list[AffineSubspace]) -> IntersectionPoset:
    if not arr:
        raise ValueError("arrangement must be nonempty")
    d = arr[0].ambient_dim
    for s in arr:
        if s.ambient_dim != d:
            raise ValueError("all subspaces must share the ambient dimension")
    nodes = set(arr)
    while True:
        fresh = set()
        current = list(nodes)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                meet = current[i].intersect(current[j])
                if meet is not None and meet not in nodes:
                    fresh.add(meet)
        if not fresh:
            break
        nodes |= fresh
    ordered = sorted(nodes, key=lambda s: (s.dim, s._canon))
    return IntersectionPoset(d, tuple(ordered))


def betti_reduced_homology(c: SimplicialComplex, k: int) -> int:
    """Rank of the k-th reduced rational homology group of ``c``.

    Computed as dim C_k − rank ∂_k − rank ∂_{k+1} in the augmented chain
    complex, so the empty complex has a single nonzero number, 1 in
    degree −1.
    """
    if k < -1:
        return 0
    faces = c.faces()

    def basis(d: int) -> list:
        if d == -1:
            return [()]
        return sorted(faces.get(d, ()))

    def rank_boundary(d: int) -> int:
        if d <= -1:
            return 0
        dom, cod = basis(d), basis(d - 1)
        if not dom or not cod:
            return 0
        index = {f: i for i, f in enumerate(cod)}
        rows = []
        for f in dom:
            row = [ZERO] * len(cod)
            for i in range(len(f)):
                row[index[f[:i] + f[i + 1:]]] = -ONE if i % 2 else ONE
            rows.append(row)
        return mat_rank(rows)

    return len(basis(k)) - rank_boundary(k) - rank_boundary(k + 1)


def gm_betti(arr: list[AffineSubspace], i: int) -> int:
    """i-th rational Betti number of the complement R^d minus the union.

    Degree 0 counts the ambient component itself, so a connected
    complement reports 1 there; higher degrees are the poset sum of
    lower-interval homology ranks.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    poset = intersection_poset(arr)
    d = poset.ambient_dim
    total = 1 if i == 0 else 0
    for idx, s in enumerate(poset.nodes):
        total += betti_reduced_homology(poset.lower_complex(idx), d - 2 - i - s.dim)
    return total


def _slice_into(h: AffineSubspace, s: AffineSubspace):
    """Rewrite the flat s ∩ H in the (d−1)-chart of the hyperplane H."""
    n = h.ambient_dim
    offset, basis = h._span()
    rows, rhs = [], []
    for row in s._canon:
        a, b = row[:n], row[n]
        rows.append([vec_dot(a, v) for v in basis])
        rhs.append(b - vec_dot(a, offset))
    aug = [r + [v] for r, v in zip(rows, rhs)]
    rref, pivots = _echelon(aug)
    if len(basis) in pivots:
        return None
    canon = tuple(tuple(rref[i]) for i in range(len(pivots)))
    return AffineSubspace._from_canon(len(basis), canon)


def lefschetz_inequality_check(arr: list[AffineSubspace], hyperplane: AffineSubspace) -> dict:
    """Compare complement Betti numbers before and after a generic slice.

    The hyperplane must meet every poset flat transversally: positive
    dimensional flats drop dimension by exactly one, zero dimensional
    flats are missed entirely.  The report carries both Betti vectors and
    the per-degree comparison ``ambient[i] >= sliced[i]``.
    """
    poset = intersection_poset(arr)
    d = poset.ambient_dim
    if hyperplane.ambient_dim != d:
        raise ValueError("hyperplane has the wrong ambient dimension")
    if hyperplane.dim != d - 1:
        raise ValueError("slicing flat must be a hyperplane")

    sliced_of = {}
    for idx, p in enumerate(poset.nodes):
        q = p.intersect(hyperplane)
        if p.dim == 0:
            if q is not None:
                raise ValueError("not in general position: hyperplane hits a point flat")
        else:
            if q is None or q.dim != p.dim - 1:
                raise ValueError("not in general position: non-transversal flat")
            sliced_of[idx] = q
    if len(set(sliced_of.values())) != len(sliced_of):
        raise ValueError("not in general position: two flats slice to one")

    sliced_arr = []
    for s in arr:
        cut = _slice_into(hyperplane, s)
        if cut is not None:
            sliced_arr.append(cut)

    ambient = [gm_betti(arr, i) for i in range(d)]
    if sliced_arr:
        sliced_poset = intersection_poset(sliced_arr)
        if sliced_poset.size() != len(sliced_of):
            raise ValueError("not in general position: sliced poset is not a truncation")
        sliced = [gm_betti(sliced_arr, i) for i in range(d - 1)] + [0]
        sliced_nodes = sliced_poset.size()
    else:
        sliced = [1] + [0] * (d - 1)
        sliced_nodes = 0

    return {
        "generic": True,
        "ambient": ambient,
        "sliced": sliced,
        "satisfied": [a >= b for a, b in zip(ambient, sliced)],
        "poset_nodes_ambient": poset.size(),
        "poset_nodes_sliced": sliced_nodes,
    }
