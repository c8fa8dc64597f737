"""Simplicial complexes, cubical complexes, and their face posets.

Vertices are integers 0..n-1.  A simplicial face is a sorted tuple of
vertex ids; a cube of dimension k is a tuple of 2^k corner ids indexed so
that bit j of the corner position gives the coordinate along axis j.
Cubes shared between neighbours are identified by their corner sets.
Graphs are adjacency maps (dict or list of neighbour sets); `bfs` answers
their distance and connectivity questions.  `order_complex` builds the
order complex of a poset from its cover lists; derived subdivisions are
order complexes of face posets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field


def _canon_face(face) -> tuple:
    t = tuple(sorted(face))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in face {face}")
    return t


def bfs(adj, sources) -> dict:
    """Hop distance from the nearest source to every node reachable in
    the adjacency map `adj`; every source must be a node of `adj`."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _incidence(faces) -> dict:
    """Vertex -> positions of the faces containing it."""
    out: dict[int, set] = {}
    for i, f in enumerate(faces):
        for v in f:
            out.setdefault(v, set()).add(i)
    return out


def _bits(mask: int):
    """The vertices whose bits are set in `mask`, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    """The bitmask with bit v set for each vertex v: the inverse of _bits."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


class _LinkIndex:
    """The vertex index of one complex: facet incidence, facet bitmasks
    and link 1-skeletons.

    incidence maps each vertex to the positions of the facets containing
    it; mask_of maps each facet to its vertex bitmask, in facets order,
    and facet_of maps a bitmask back to its facet.  skeletons maps a face
    σ, as the bitmask of its vertices, to the 1-skeleton of lk(σ) as
    vertex -> bitmask of its neighbours, one key per vertex of the link,
    built on first request and kept for the life of the complex;
    skeleton(0) is the 1-skeleton of the complex.  Vertex ids are those
    of the complex, so ascending bit order is ascending vertex order.
    """

    __slots__ = ("facets", "incidence", "mask_of", "facet_of", "skeletons")

    def __init__(self, facets: tuple):
        self.facets = facets
        self.incidence = _incidence(facets)
        self.mask_of = {f: _mask(f) for f in facets}
        self.facet_of = {m: f for f, m in self.mask_of.items()}
        self.skeletons: dict[int, dict] = {}

    def containing(self, sigma: tuple) -> set:
        """Positions in facets of the facets containing the face σ, a
        sorted tuple; every facet contains the empty face."""
        if not sigma:
            return set(range(len(self.facets)))
        incidence = self.incidence
        return set.intersection(*(incidence.get(v, set()) for v in sigma))

    def skeleton(self, sigma: int) -> dict:
        g = self.skeletons.get(sigma)
        if g is None:
            keep = ~sigma
            facets, mask_of = self.facets, self.mask_of
            g = {}
            for i in self.containing(tuple(_bits(sigma))):
                r = mask_of[facets[i]] & keep
                for v in facets[i]:
                    if r >> v & 1:
                        g[v] = g.get(v, 0) | r
            g = self.skeletons[sigma] = {v: m ^ (1 << v) for v, m in g.items()}
        return g


def order_complex(ids, down) -> "SimplicialComplex":
    """The order complex of the poset elements `ids`, where down[j] lists
    the elements j covers and every element below one of `ids` is one of
    them.  Vertex k of the result is ids[k].  Its facets are the maximal
    chains: one depth-first walk from each maximal element down the cover
    lists gives a facet whenever it reaches a minimal element."""
    pos = {j: k for k, j in enumerate(ids)}
    covered = set().union(*(down[j] for j in pos))
    stack = [(j, (k,)) for j, k in pos.items() if j not in covered]
    chains = []
    while stack:
        j, chain = stack.pop()
        if not down[j]:
            chains.append(chain)
        stack.extend((i, chain + (pos[i],)) for i in down[j])
    return SimplicialComplex(len(pos), chains)


class SimplicialComplex:
    """A finite abstract simplicial complex given by its facets."""

    def __init__(self, num_vertices: int, facets):
        self.num_vertices = int(num_vertices)
        if self.num_vertices < 0:
            raise ValueError(f"negative vertex count {self.num_vertices}")
        canon = []
        for f in facets:
            t = _canon_face(f)
            if not t:
                raise ValueError("empty facet")
            if t[0] < 0 or t[-1] >= self.num_vertices:
                raise ValueError(f"vertex id out of range in {f}")
            canon.append(t)
        canon = sorted(set(canon), key=lambda t: (len(t), t))
        # maximal: of the largest size, or contained in no other face
        top = len(canon[-1]) if canon else 0
        incidence = _incidence(canon) if canon and len(canon[0]) < top else None
        self.facets = tuple(sorted(
            t for t in canon
            if len(t) == top
            or len(set.intersection(*(incidence[v] for v in t))) == 1))
        sizes = {len(f) for f in self.facets}
        self.dim = max(sizes, default=0) - 1
        self._pure = len(sizes) <= 1
        self._poset = None
        self._links = None

    def is_pure(self) -> bool:
        return self._pure

    def face_poset(self) -> "FacePoset":
        """The face poset of the complex, built on first use and kept."""
        if self._poset is None:
            self._poset = FacePoset.from_simplicial(self)
        return self._poset

    def faces(self) -> dict:
        """All nonempty faces, keyed by dimension: a fresh view of the
        face poset on each call."""
        out: dict[int, set] = {}
        p = self.face_poset()
        for f, d in zip(p.elements, p.dims):
            out.setdefault(d, set()).add(f)
        return out

    def f_vector(self) -> tuple:
        return tuple(map(self.face_poset().dims.count, range(self.dim + 1)))

    def _link_index(self) -> _LinkIndex:
        """The vertex index of the complex, built on first use and kept."""
        if self._links is None:
            self._links = _LinkIndex(self.facets)
        return self._links

    def _facets_containing(self, face) -> set:
        """Positions in self.facets of the facets containing the face."""
        return self._link_index().containing(_canon_face(face))

    def contains_face(self, face) -> bool:
        return bool(self._facets_containing(face))

    def vertices(self) -> list:
        return sorted(self._link_index().incidence)

    def link(self, face):
        """Link of a face, re-indexed to 0..m-1.

        Returns (complex, old_ids) where old_ids[i] is the original label
        of new vertex i.
        """
        ids = self._facets_containing(face)
        if not ids:
            raise ValueError(f"{face} is not a face of the complex")
        s = set(face)
        residues = [tuple(v for v in self.facets[i] if v not in s)
                    for i in ids]
        residues = [r for r in residues if r]
        old_ids = sorted({v for r in residues for v in r})
        index = {v: i for i, v in enumerate(old_ids)}
        lk = SimplicialComplex(len(old_ids),
                               [tuple(index[v] for v in r) for r in residues])
        return lk, old_ids

    def star(self, face) -> "SimplicialComplex":
        """Closed star: all facets containing the face, same labels."""
        ids = self._facets_containing(face)
        if not ids:
            raise ValueError(f"{face} is not a face of the complex")
        return SimplicialComplex(self.num_vertices,
                                 [self.facets[i] for i in ids])

    def delete_vertex(self, v: int) -> "SimplicialComplex":
        """All faces not containing v."""
        out = []
        for f in self.facets:
            if v in f:
                r = tuple(w for w in f if w != v)
                if r:
                    out.append(r)
            else:
                out.append(f)
        return SimplicialComplex(self.num_vertices, out)

    def dual_graph(self) -> list:
        """Facet adjacency along shared ridges: entry i holds the
        positions of the facets sharing a ridge with self.facets[i]."""
        if not self.is_pure():
            raise ValueError("dual graph requires a pure complex")
        adj = [set() for _ in self.facets]
        by_ridge: dict[tuple, list] = {}
        for i, f in enumerate(self.facets):
            for k in range(len(f)):
                by_ridge.setdefault(f[:k] + f[k + 1:], []).append(i)
        for members in by_ridge.values():
            for a, b in itertools.combinations(members, 2):
                adj[a].add(b)
                adj[b].add(a)
        return adj

    def one_skeleton(self) -> dict:
        """Vertex -> set of neighbours, one key per vertex: the vertex
        index's skeleton(0), as a fresh map on each call."""
        return {v: set(_bits(m))
                for v, m in self._link_index().skeleton(0).items()}

    def is_flag(self) -> bool:
        """True when every clique of the 1-skeleton spans a face, that is,
        when for every face and every vertex adjacent to all of it, the
        two together span a face."""
        g = self.one_skeleton()
        index = self.face_poset().index
        for face in index:
            for v in set.intersection(*(g[u] for u in face)):
                if tuple(sorted(face + (v,))) not in index:
                    return False
        return True

    def is_normal(self) -> bool:
        """Every star (including the whole complex) has a connected
        dual graph."""
        if not self.is_pure():
            raise ValueError("normality requires a pure complex")
        if not self.facets:
            return True
        adj = self.dual_graph()
        # the empty face's star is the whole complex
        for face in itertools.chain([()], self.face_poset().elements):
            members = self._facets_containing(face)
            star = {i: adj[i] & members for i in members}
            if len(bfs(star, [min(members)])) != len(members):
                return False
        return True

    def derived_subdivision(self) -> "SimplicialComplex":
        """Order complex of the face poset (barycentric subdivision): new
        vertex i is the i-th face in (dimension, lex) order."""
        p = self.face_poset()
        return order_complex(range(p.size()), p.down)

    def stellar_subdivision(self, face) -> "SimplicialComplex":
        """Star the complex at a face: cone a new vertex over the
        boundary of its star."""
        t = _canon_face(face)
        if not t:
            raise ValueError("cannot star the empty face")
        ids = self._facets_containing(t)
        if not ids:
            raise ValueError(f"{face} is not a face of the complex")
        new = self.num_vertices
        out = []
        for i, f in enumerate(self.facets):
            if i in ids:
                for w in t:
                    out.append(tuple(x for x in f if x != w) + (new,))
            else:
                out.append(f)
        return SimplicialComplex(self.num_vertices + 1, out)

    def to_json(self) -> dict:
        return {"vertices": self.num_vertices,
                "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        n, facets = data["vertices"], [tuple(f) for f in data["facets"]]
        for v in itertools.chain([n], *facets):
            if type(v) is not int:  # a float, string or boolean is malformed
                raise TypeError(f"vertex ids and the vertex count must be integers, got {v!r}")
        return cls(n, facets)

    def __repr__(self):
        return f"SimplicialComplex(n={self.num_vertices}, facets={len(self.facets)}, dim={self.dim})"


def boundary_sphere(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: a triangulated (d-1)-sphere."""
    verts = range(d + 1)
    return SimplicialComplex(d + 1, itertools.combinations(verts, d))


def simplex_complex(d: int) -> SimplicialComplex:
    """The solid d-simplex."""
    return SimplicialComplex(d + 1, [tuple(range(d + 1))])


def _cube_faces(dim: int, corners: tuple):
    """Yield (dim, corners) for every face of one cube, the face corners
    listed in bit order over the free axes."""
    axes = list(range(dim))
    for kept in range(dim + 1):
        for free in itertools.combinations(axes, kept):
            fixed = [a for a in axes if a not in free]
            for bits in itertools.product((0, 1), repeat=len(fixed)):
                sub = []
                for pattern in range(1 << kept):
                    pos = 0
                    for t, a in enumerate(free):
                        if (pattern >> t) & 1:
                            pos |= 1 << a
                    for bval, a in zip(bits, fixed):
                        if bval:
                            pos |= 1 << a
                    sub.append(corners[pos])
                yield kept, tuple(sub)


class CubicalComplex:
    """A cubical complex given by generating cubes.

    Faces are identified across cubes by their corner sets; the
    constructor rejects a corner set that appears with two different
    dimensions, which would mean the gluing is inconsistent.
    """

    def __init__(self, num_vertices: int, cubes):
        self.num_vertices = int(num_vertices)
        if self.num_vertices < 0:
            raise ValueError(f"negative vertex count {self.num_vertices}")
        table = {}
        order = []
        for dim, corners in cubes:
            corners = tuple(corners)
            if len(corners) != 1 << dim:
                raise ValueError(
                    f"cube of dimension {dim} needs {1 << dim} corners, got {len(corners)}")
            if len(set(corners)) != len(corners):
                raise ValueError(f"repeated corner in cube {corners}")
            if min(corners) < 0 or max(corners) >= self.num_vertices:
                raise ValueError(f"corner id out of range in {corners}")
            key = frozenset(corners)
            if key in table:
                if table[key][0] != dim:
                    raise ValueError("corner set reused with a different dimension")
                continue
            table[key] = (dim, corners)
            order.append(key)
        self.cubes = tuple(table[k] for k in sorted(
            order, key=lambda k: (len(k), tuple(sorted(k)))))
        self._poset = None

    def face_poset(self) -> "FacePoset":
        """The face poset of the complex, built on first use and kept."""
        if self._poset is None:
            self._poset = FacePoset.from_cubical(self)
        return self._poset

    def faces(self) -> dict:
        """Every face of every cube, deduplicated by corner set; maps
        frozenset(corners) -> (dim, corner tuple)."""
        out = {}
        for dim, corners in self.cubes:
            for fdim, sub in _cube_faces(dim, corners):
                key = frozenset(sub)
                prev = out.get(key)
                if prev is None:
                    out[key] = (fdim, sub)
                elif prev[0] != fdim:
                    raise ValueError("inconsistent face identification")
        return out

    @property
    def dim(self) -> int:
        return max((d for d, _ in self.cubes), default=-1)

    def f_vector(self) -> tuple:
        return tuple(map(self.face_poset().dims.count, range(self.dim + 1)))

    def vertices(self) -> list:
        seen = set()
        for _, corners in self.cubes:
            seen.update(corners)
        return sorted(seen)

    def link(self, face_corners):
        """Faces of the closed star that are disjoint from the face,
        re-indexed to 0..m-1.  Returns (CubicalComplex, old_ids)."""
        key = frozenset(face_corners)
        if tuple(sorted(key)) not in self.face_poset().index:
            raise ValueError(f"{face_corners} is not a face")
        star_cubes = [c for c in self.cubes
                      if key <= frozenset(c[1])]
        gathered = []
        for dim, corners in star_cubes:
            for fdim, sub in _cube_faces(dim, corners):
                if key.isdisjoint(sub):
                    gathered.append((fdim, sub))
        old_ids = sorted({v for _, sub in gathered for v in sub})
        index = {v: i for i, v in enumerate(old_ids)}
        relabeled = [(d, tuple(index[v] for v in sub)) for d, sub in gathered]
        return CubicalComplex(len(old_ids), relabeled), old_ids

    def derived_subdivision(self) -> SimplicialComplex:
        """Order complex of the face poset: new vertex i is the i-th face
        in (dimension, sorted corners) order."""
        p = self.face_poset()
        return order_complex(range(p.size()), p.down)

    def to_json(self) -> dict:
        return {"vertices": self.num_vertices,
                "cubes": [{"dim": d, "corners": list(c)} for d, c in self.cubes]}

    @classmethod
    def from_json(cls, data: dict) -> "CubicalComplex":
        return cls(data["vertices"],
                   [(c["dim"], tuple(c["corners"])) for c in data["cubes"]])

    def __repr__(self):
        return f"CubicalComplex(n={self.num_vertices}, cubes={len(self.cubes)}, dim={self.dim})"


def solid_cube(k: int) -> CubicalComplex:
    return CubicalComplex(1 << k, [(k, tuple(range(1 << k)))])


@dataclass
class FacePoset:
    """A graded poset of cells, recorded by its cover lists.

    elements[i] is a hashable key, dims[i] its dimension, and down[j]
    lists the ids of the elements j covers.  The constructor checks the
    covers and indexes them: index maps a key to its id, and up[i] lists
    the ids covering element i.  Both lists are stored in ascending id
    order, whatever order the covers came in.  The two constructors from
    complexes list the elements in (dimension, key) order, so for a
    simplex f with id j, down[j][m] is f with vertex f[len(f)-1-m]
    dropped.
    """

    elements: list
    dims: list
    down: list
    index: dict = field(init=False, repr=False, compare=False)
    up: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        if len(self.dims) != n or len(self.down) != n:
            raise ValueError("elements, dims and down must align")
        self.index = {k: i for i, k in enumerate(self.elements)}
        if len(self.index) != n:
            raise ValueError("face keys are not unique")
        dims = self.dims
        up = self.up = [[] for _ in range(n)]
        down = self.down = [sorted(covered) for covered in self.down]
        for j, covered in enumerate(down):
            if not covered:
                if dims[j] > 0:
                    raise ValueError(
                        f"element {self.elements[j]} of dimension {dims[j]} covers nothing")
                continue
            if covered[0] < 0 or covered[-1] >= n:
                raise ValueError("cover index out of range")
            d = dims[j] - 1
            for i in covered:
                if dims[i] != d:
                    raise ValueError(
                        f"cover {self.elements[i]} < {self.elements[j]} skips a dimension")
                # j only grows, so a repeated cover id finds j already last
                ups = up[i]
                if ups and ups[-1] == j:
                    raise ValueError(
                        f"cover {self.elements[i]} < {self.elements[j]} is listed twice")
                ups.append(j)

    def size(self) -> int:
        return len(self.elements)

    @classmethod
    def from_simplicial(cls, c: SimplicialComplex) -> "FacePoset":
        layers = [set() for _ in range(c.dim + 1)]
        for f in c.facets:
            for k in range(len(f)):
                layers[k].update(itertools.combinations(f, k + 1))
        faces, dims = [], []
        for d, layer in enumerate(layers):
            faces += sorted(layer)
            dims += [d] * len(layer)
        position = {f: i for i, f in enumerate(faces)}.__getitem__
        vertices = len(layers[0]) if layers else 0
        # combinations lists the facets of a sorted face in ascending order
        down = [[]] * vertices + [
            list(map(position, itertools.combinations(f, len(f) - 1)))
            for f in faces[vertices:]]
        return cls(faces, dims, down)

    @classmethod
    def from_cubical(cls, c: CubicalComplex) -> "FacePoset":
        face_list = sorted(c.faces().values(),
                           key=lambda t: (t[0], tuple(sorted(t[1]))))
        index = {frozenset(corners): i for i, (d, corners) in enumerate(face_list)}
        down = [[index[frozenset(sub)] for fdim, sub in _cube_faces(dim, corners)
                 if fdim == dim - 1] for dim, corners in face_list]
        elements = [tuple(sorted(corners)) for d, corners in face_list]
        return cls(elements, [d for d, _ in face_list], down)
