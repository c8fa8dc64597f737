"""Simplicial and cubical complex machinery.

Frozen counts below were derived by hand from first principles (chain
counting in face lattices, Euler characteristics of spheres) before the
implementation existed.  The property tests at the end compare the
graph questions (1-skeleton, dual graph, flagness, normality) and the
incidence questions (maximal facets, faces, links, stars) with networkx
and with brute-force facet scans on random complexes.  The last tests
compare every derived subdivision with copies of the flag walkers the
library used before it built order complexes from cover lists.
"""

import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge.cct import AbstractCCT
from polyforge.complexcore import (
    CubicalComplex,
    FacePoset,
    SimplicialComplex,
    boundary_sphere,
    simplex_complex,
    solid_cube,
)
from polyforge.morse import MorseMatching, critical_faces


def octahedron():
    # join of three 0-spheres {0,1}, {2,3}, {4,5}
    facets = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    return SimplicialComplex(6, facets)


class TestSimplicialBasics:
    def test_canonicalization(self):
        c = SimplicialComplex(4, [(2, 1, 0), (0, 1, 2), (1, 3)])
        assert c.facets == ((0, 1, 2), (1, 3))
        assert c.dim == 2
        assert not c.is_pure()

    def test_containment_dropped(self):
        c = SimplicialComplex(4, [(0, 1, 2), (0, 1)])
        assert c.facets == ((0, 1, 2),)

    def test_bad_ids_raise(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, [(0, 3)])
        with pytest.raises(ValueError):
            SimplicialComplex(3, [(0, 0, 1)])

    @pytest.mark.parametrize("cls", [SimplicialComplex, CubicalComplex])
    def test_negative_vertex_count_raises(self, cls):
        with pytest.raises(ValueError, match="negative vertex count -3"):
            cls(-3, [])
        with pytest.raises(ValueError, match="negative vertex count -3"):
            cls.from_json({"vertices": -3, "facets": [], "cubes": []})

    def test_f_vector_boundary_of_4_simplex(self):
        c = boundary_sphere(4)
        assert c.f_vector() == (5, 10, 10, 5)
        # Euler characteristic of the 3-sphere
        assert 5 - 10 + 10 - 5 == 0

    def test_faces_of_triangle(self):
        c = SimplicialComplex(3, [(0, 1, 2)])
        faces = c.faces()
        assert faces[0] == {(0,), (1,), (2,)}
        assert faces[1] == {(0, 1), (0, 2), (1, 2)}
        assert faces[2] == {(0, 1, 2)}

    def test_contains(self):
        c = boundary_sphere(3)
        assert c.contains_face((0, 1))
        assert c.contains_face((0, 1, 2))
        assert not c.contains_face((0, 1, 2, 3))
        # vertices out of range or negative span no face
        for face in [(-1,), (0, -1), (4,), (0, 1, 9)]:
            assert not c.contains_face(face)


class TestLinkStarDelete:
    def test_vertex_link_in_sphere(self):
        c = boundary_sphere(3)
        lk, old_ids = c.link((0,))
        assert old_ids == [1, 2, 3]
        assert lk.f_vector() == (3, 3)  # boundary of a triangle
        assert lk.facets == ((0, 1), (0, 2), (1, 2))

    def test_edge_link_in_sphere(self):
        c = boundary_sphere(3)
        lk, old_ids = c.link((1, 2))
        assert lk.f_vector() == (2,)
        assert old_ids == [0, 3]

    def test_link_of_missing_face_raises(self):
        c = SimplicialComplex(3, [(0, 1)])
        with pytest.raises(ValueError):
            c.link((0, 2))

    def test_star(self):
        c = SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        st = c.star((0,))
        assert st.facets == ((0, 1, 2), (0, 1, 3))

    def test_delete_vertex(self):
        c = boundary_sphere(3)
        d = c.delete_vertex(0)
        # deleting a vertex from S^2 leaves a disk: one facet missing,
        # its boundary retained
        assert d.facets == ((1, 2, 3),)
        bowtie = SimplicialComplex(5, [(0, 1, 2), (0, 3, 4)])
        d = bowtie.delete_vertex(0)
        assert d.facets == ((1, 2), (3, 4))


class TestSubdivisions:
    def test_derived_subdivision_counts(self):
        c = boundary_sphere(3)
        sd = c.derived_subdivision()
        # one vertex per face, one facet per flag: 4 * 3! = 24
        assert sd.f_vector()[0] == 4 + 6 + 4
        assert len(sd.facets) == 24
        # still a 2-sphere
        f = sd.f_vector()
        assert f[0] - f[1] + f[2] == 2

    def test_stellar_subdivision(self):
        c = boundary_sphere(3)
        s = c.stellar_subdivision((0, 1, 2))
        assert s.f_vector()[0] == 5
        assert len(s.facets) == 6
        f = s.f_vector()
        assert f[0] - f[1] + f[2] == 2
        with pytest.raises(ValueError):
            c.stellar_subdivision((0, 4))

    def test_stellar_subdivision_of_the_empty_face_is_refused(self):
        # every facet contains the empty face, which has no vertex to cone
        with pytest.raises(ValueError, match="empty face"):
            boundary_sphere(3).stellar_subdivision(())

    def test_derived_subdivision_of_solid_cube(self):
        q = solid_cube(3)
        sd = q.derived_subdivision()
        # flags of the 3-cube lattice: 8 corners * 3! axis orders
        assert len(sd.facets) == 48
        assert sd.f_vector()[0] == 8 + 12 + 6 + 1
        f = sd.f_vector()
        assert f[0] - f[1] + f[2] - f[3] == 1  # a ball


class TestDualGraphAndFlags:
    def test_dual_graph_of_sphere(self):
        g = boundary_sphere(3).dual_graph()
        assert len(g) == 4
        assert sum(len(nbrs) for nbrs in g) // 2 == 6

    def test_dual_graph_needs_pure(self):
        c = SimplicialComplex(4, [(0, 1, 2), (2, 3)])
        with pytest.raises(ValueError):
            c.dual_graph()

    def test_flagness(self):
        assert octahedron().is_flag()
        assert not boundary_sphere(3).is_flag()  # empty tetrahedron
        cycle = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert cycle.is_flag()

    def test_normality(self):
        assert boundary_sphere(3).is_normal()
        assert octahedron().is_normal()
        bowtie = SimplicialComplex(5, [(0, 1, 2), (0, 3, 4)])
        assert not bowtie.is_normal()


class TestSimplicialJson:
    def test_round_trip(self):
        c = octahedron()
        blob = json.dumps(c.to_json())
        c2 = SimplicialComplex.from_json(json.loads(blob))
        assert c2.facets == c.facets
        assert c2.num_vertices == c.num_vertices


class TestCubical:
    def test_solid_cube_f_vector(self):
        q = solid_cube(3)
        assert q.f_vector() == (8, 12, 6, 1)
        q2 = solid_cube(2)
        assert q2.f_vector() == (4, 4, 1)

    def test_corner_count_validation(self):
        with pytest.raises(ValueError):
            CubicalComplex(4, [(2, (0, 1, 2))])
        with pytest.raises(ValueError):
            CubicalComplex(2, [(1, (0, 0))])

    def test_shared_faces_deduplicated(self):
        # two squares glued along an edge
        c = CubicalComplex(6, [(2, (0, 1, 2, 3)), (2, (2, 3, 4, 5))])
        assert c.f_vector() == (6, 7, 2)

    def test_vertex_link_in_solid_cube(self):
        q = solid_cube(3)
        lk, old_ids = q.link((0,))
        # far squares and their faces
        assert lk.f_vector() == (7, 9, 3)
        assert 0 not in old_ids

    def test_round_trip(self):
        q = solid_cube(3)
        blob = json.dumps(q.to_json())
        q2 = CubicalComplex.from_json(json.loads(blob))
        assert q2.f_vector() == q.f_vector()


class TestFacePoset:
    def test_from_simplicial_graded(self):
        p = FacePoset.from_simplicial(boundary_sphere(3))
        assert p.size() == 4 + 6 + 4
        assert max(p.dims) == 2
        # each edge covers two vertices, each triangle covers three edges
        by_dim = {}
        for i, d in enumerate(p.dims):
            by_dim.setdefault(d, []).append(i)
        for t in by_dim[2]:
            assert len(p.down[t]) == 3

    def test_from_cubical(self):
        p = FacePoset.from_cubical(solid_cube(3))
        assert p.size() == 8 + 12 + 6 + 1
        top = p.dims.index(3)
        assert len(p.down[top]) == 6

    def test_explicit_validation(self):
        # cover skipping a dimension is rejected
        with pytest.raises(ValueError, match="skips a dimension"):
            FacePoset(["a", "b"], [0, 2], [[], [0]])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            FacePoset(["a", "a"], [0, 0], [[], []])

    @pytest.mark.parametrize("elements,dims,down,message", [
        (["a", "b"], [0, 1], [[]], "must align"),
        (["a", "b"], [0], [[], [0]], "must align"),
        (["a", "b"], [0, 1], [[], [2]], "out of range"),
        (["a", "b"], [0, 1], [[], [-1]], "out of range"),
        (["a", "b"], [0, 1], [[], []], "covers nothing"),
        (["a", "b"], [0, 0], [[1], []], "skips a dimension"),
        (["a", "b", "ab"], [0, 0, 1], [[], [], [1, 0, 0]], "listed twice"),
    ])
    def test_malformed_covers_rejected(self, elements, dims, down, message):
        with pytest.raises(ValueError, match=message):
            FacePoset(elements, dims, down)

    @pytest.mark.parametrize("p", [FacePoset.from_simplicial(boundary_sphere(3)),
                                   FacePoset.from_cubical(solid_cube(3))])
    def test_index_and_cover_lists_agree_with_covers(self, p):
        assert p.index == {k: i for i, k in enumerate(p.elements)}
        # up is the transpose of down, and every cover is a face of
        # its coface one dimension down
        assert sorted((i, j) for i, ups in enumerate(p.up) for j in ups) \
            == sorted((i, j) for j, downs in enumerate(p.down) for i in downs)
        for j, downs in enumerate(p.down):
            for i in downs:
                assert set(p.elements[i]) < set(p.elements[j])
                assert p.dims[i] == p.dims[j] - 1
        # ids follow (dimension, key) order, and the cover lists ascend
        assert list(p.elements) == sorted(
            p.elements, key=lambda k: (p.dims[p.index[k]], k))
        for lists in (p.up, p.down):
            assert all(ids == sorted(ids) for ids in lists)

    def test_cover_lists_sorted_whatever_order_given(self):
        p = FacePoset(["a", "b", "c", "ab", "ac", "bc", "abc"],
                      [0, 0, 0, 1, 1, 1, 2],
                      [[], [], [], [1, 0], [2, 0], [2, 1], [5, 3, 4]])
        assert p.down == [[], [], [], [0, 1], [0, 2], [1, 2], [3, 4, 5]]
        assert p.up == [[3, 4], [3, 5], [4, 5], [6], [6], [6], []]
        assert p == FacePoset(p.elements, p.dims, [[], [], [], [0, 1], [0, 2],
                                                   [1, 2], [3, 4, 5]])

    @pytest.mark.parametrize("c", [boundary_sphere(3), octahedron(),
                                   simplex_complex(3).derived_subdivision(),
                                   SimplicialComplex(5, [(0, 1, 2), (2, 3), (4,)])])
    def test_simplicial_cover_lists_ascend_and_drop_from_the_end(self, c):
        p = FacePoset.from_simplicial(c)
        assert all(ids == sorted(ids) for ids in p.up)
        for j, f in enumerate(p.elements):
            assert len(p.down[j]) == (len(f) if len(f) > 1 else 0)
            for m, i in enumerate(p.down[j]):
                k = len(f) - 1 - m
                assert p.elements[i] == f[:k] + f[k + 1:]


def ref_from_simplicial(c):
    """The face poset with one global (size, key) sort of all faces, and
    each face's covers derived by dropping its vertices in turn."""
    faces = sorted((f for fs in c.faces().values() for f in fs),
                   key=lambda t: (len(t), t))
    index = {f: i for i, f in enumerate(faces)}
    down = [[index[tuple(x for x in f if x != v)] for v in f] if len(f) >= 2 else []
            for f in faces]
    return FacePoset(list(faces), [len(f) - 1 for f in faces], down)


def benchmark_balls(seed):
    """Derived stellar 3-balls shaped like the collapse benchmark's: four
    seeded balls of one and two rounds and the fixed three-round ball."""
    rng = random.Random(f"collapse:{seed}")
    balls = [stellar_rounds(simplex_complex(3), r, rng).derived_subdivision()
             for r in (1, 1, 2, 2)]
    balls.append(stellar_rounds(simplex_complex(3), 3, random.Random(
        "collapse:0")).derived_subdivision())
    return balls


class TestFacePosetOracle:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_balls_match_reference(self, seed):
        for c in benchmark_balls(seed) + [octahedron(), boundary_sphere(3)]:
            got, want = FacePoset.from_simplicial(c), ref_from_simplicial(c)
            assert got == want
            assert got.elements == want.elements and got.dims == want.dims
            assert list(got.index.items()) == list(want.index.items())
            # the cover lists in the same order, not only the same sets
            assert got.up == want.up and got.down == want.down



# ---------------------------------------------------------------------------
# oracle properties on random complexes


def stellar_rounds(c, rounds, rng):
    for _ in range(rounds):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c


@st.composite
def subdivided(draw):
    """Stellar subdivisions of a 2-sphere, a 3-sphere or a 3-ball, derived
    or not: flag and non-flag, all pure and normal."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from(
        [boundary_sphere(3), boundary_sphere(4), simplex_complex(3)]))
    c = stellar_rounds(base, draw(st.integers(0, 3)), rng)
    return c.derived_subdivision() if draw(st.booleans()) else c


@st.composite
def random_pure(draw):
    """Random k-subsets of a few vertices: often disconnected, pinched or
    non-flag."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, min(3, n - 1)))
    pool = list(itertools.combinations(range(n), k + 1))
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return SimplicialComplex(n, facets)


@st.composite
def random_mixed(draw):
    """Random faces of mixed sizes, so the constructor drops some."""
    n = draw(st.integers(1, 8))
    face = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
    return SimplicialComplex(n, draw(st.lists(face, min_size=1, max_size=12)))


any_complex = st.one_of(subdivided(), random_pure(), random_mixed())
pure_complex = st.one_of(subdivided(), random_pure())


def all_faces(facets) -> set:
    return {g for f in facets for k in range(1, len(f) + 1)
            for g in itertools.combinations(f, k)}


def ridge_graph(facets) -> nx.Graph:
    """Facets indexed by position, adjacent when they share a ridge."""
    g = nx.Graph()
    g.add_nodes_from(range(len(facets)))
    ridge_to = {}
    for i, f in enumerate(facets):
        for r in itertools.combinations(f, len(f) - 1):
            ridge_to.setdefault(r, []).append(i)
    for members in ridge_to.values():
        g.add_edges_from(itertools.combinations(members, 2))
    return g


def edge_set(adj) -> set:
    return {frozenset((u, v)) for u in adj for v in adj[u]}


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(any_complex)
    def test_one_skeleton_matches_facet_pairs(self, c):
        want = nx.Graph()
        for f in c.facets:
            want.add_nodes_from(f)
            want.add_edges_from(itertools.combinations(f, 2))
        got = c.one_skeleton()
        assert sorted(got) == c.vertices() == sorted(want.nodes)
        assert edge_set(got) == {frozenset(e) for e in want.edges}
        assert all(u not in got[u] for u in got)

    @settings(max_examples=60, deadline=None)
    @given(pure_complex)
    def test_dual_graph_matches_ridge_hashing(self, c):
        got = c.dual_graph()
        want = ridge_graph(c.facets)
        assert len(got) == len(c.facets)
        assert {i: set(got[i]) for i in range(len(c.facets))} == \
            {i: set(want[i]) for i in want}

    @settings(max_examples=60, deadline=None)
    @given(any_complex)
    def test_is_flag_matches_cliques(self, c):
        faces = all_faces(c.facets)
        g = nx.Graph()
        for f in c.facets:
            g.add_nodes_from(f)
            g.add_edges_from(itertools.combinations(f, 2))
        want = all(tuple(sorted(q)) in faces for q in nx.find_cliques(g))
        assert c.is_flag() == want

    @settings(max_examples=60, deadline=None)
    @given(pure_complex)
    def test_is_normal_matches_connected_stars(self, c):
        d = c.dim
        lower = [()] + [f for f in all_faces(c.facets) if len(f) <= d]
        want = all(
            nx.is_connected(ridge_graph(
                [f for f in c.facets if set(sigma) <= set(f)]))
            for sigma in lower)
        assert c.is_normal() == want

    @settings(max_examples=60, deadline=None)
    @given(any_complex, st.data())
    def test_incidence_matches_facet_scans(self, c, data):
        faces = all_faces(c.facets)
        for f in c.facets:
            assert not any(set(f) < set(g) for g in c.facets)
        assert {f for fs in c.faces().values() for f in fs} == faces
        probe = data.draw(st.sets(st.integers(0, c.num_vertices - 1),
                                  min_size=1, max_size=4))
        probe = tuple(sorted(probe))
        assert c.contains_face(probe) == (probe in faces)
        if probe not in faces:
            return
        members = [f for f in c.facets if set(probe) <= set(f)]
        assert c.star(probe).facets == tuple(members)
        residues = [tuple(v for v in f if v not in probe) for f in members]
        residues = [r for r in residues if r]
        lk, old = c.link(probe)
        assert old == sorted({v for r in residues for v in r})
        assert {tuple(old[v] for v in f) for f in lk.facets} == set(residues)


# ---------------------------------------------------------------------------
# derived subdivisions against the flag walkers they replaced

def ref_simplicial_subdivision(c):
    """The derived subdivision with one flag per ordering of each facet's
    vertices, new vertex i being the i-th face in (size, lex) order."""
    all_faces = sorted((f for fs in c.faces().values() for f in fs),
                       key=lambda t: (len(t), t))
    index = {f: i for i, f in enumerate(all_faces)}
    flags = [tuple(index[tuple(sorted(perm[:k + 1]))] for k in range(len(perm)))
             for f in c.facets for perm in itertools.permutations(f)]
    return SimplicialComplex(len(all_faces), flags)


def ref_cubical_subdivision(q):
    """The derived subdivision with one flag per corner and axis order of
    each generating cube, each face found from corner bit patterns."""
    face_list = sorted(q.faces().values(), key=lambda t: (t[0], tuple(sorted(t[1]))))
    index = {frozenset(c): i for i, (d, c) in enumerate(face_list)}
    flags = []
    for dim, corners in q.cubes:
        for corner_pos in range(1 << dim):
            for axis_order in itertools.permutations(range(dim)):
                flag = []
                for k in range(dim + 1):
                    sub = []
                    for pattern in range(1 << k):
                        pos = corner_pos
                        for t, a in enumerate(axis_order[:k]):
                            if (pattern >> t) & 1:
                                pos |= 1 << a
                            else:
                                pos &= ~(1 << a)
                        sub.append(corners[pos])
                    flag.append(index[frozenset(sub)])
                flags.append(tuple(flag))
    return SimplicialComplex(len(face_list), flags)


def same_complex(got, want):
    assert (got.num_vertices, got.facets) == (want.num_vertices, want.facets)


class TestSubdivisionOracle:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_balls(self, seed):
        for c in benchmark_balls(seed):
            same_complex(c.derived_subdivision(), ref_simplicial_subdivision(c))

    @settings(max_examples=60, deadline=None)
    @given(any_complex)
    def test_random_complexes(self, c):
        same_complex(c.derived_subdivision(), ref_simplicial_subdivision(c))

    def test_non_pure_complex(self):
        c = SimplicialComplex(7, [(0, 1, 2), (2, 3), (3, 4, 5, 6), (1, 3), (6,)])
        assert not c.is_pure()
        same_complex(c.derived_subdivision(), ref_simplicial_subdivision(c))
        same_complex(SimplicialComplex(0, []).derived_subdivision(),
                     ref_simplicial_subdivision(SimplicialComplex(0, [])))

    @pytest.mark.parametrize("k", range(5))
    def test_solid_cubes(self, k):
        q = solid_cube(k)
        same_complex(q.derived_subdivision(), ref_cubical_subdivision(q))

    def test_tube_cells(self):
        q = AbstractCCT(4).cubes
        same_complex(q.derived_subdivision(), ref_cubical_subdivision(q))

    def test_generating_face_and_isolated_vertex(self):
        # a square 0-1-2-3 (bit order), one of its edges and a corner given
        # again as generating cubes, a pendant edge and an isolated vertex
        q = CubicalComplex(7, [(2, (0, 1, 2, 3)), (1, (0, 1)), (0, (3,)),
                               (1, (3, 4)), (0, (6,))])
        same_complex(q.derived_subdivision(), ref_cubical_subdivision(q))


# ---------------------------------------------------------------------------
# the face table against test-local enumerations: faces, f-vectors, the
# face poset, derived subdivisions and the critical faces of the empty
# matching all come from one table, and each must match a brute-force
# count made here from the facets or cubes alone


def ref_face_table(faces: dict) -> tuple:
    """(elements, dims) of a face table given as key -> dimension, in
    (dimension, key) order."""
    elements = sorted(faces, key=lambda k: (faces[k], k))
    return elements, [faces[k] for k in elements]


def ref_cube_faces(cubes) -> dict:
    """Sorted corner tuple -> dimension for every face of every cube: a
    face fixes some axes to 0 or 1 and keeps the corners whose bit
    positions agree with them."""
    out = {}
    for dim, corners in cubes:
        for fixed in itertools.product((0, 1, None), repeat=dim):
            sub = tuple(sorted(
                corners[pos] for pos in range(1 << dim)
                if all(b is None or (pos >> a) & 1 == b
                       for a, b in enumerate(fixed))))
            out[sub] = fixed.count(None)
    return out


def check_face_table(c, faces: dict, down: list):
    """Compare every reader of c's face table with the reference faces
    (key -> dimension) and cover lists (aligned with the reference
    elements)."""
    elements, dims = ref_face_table(faces)
    top = max(dims, default=-1)
    assert c.f_vector() == tuple(dims.count(d) for d in range(top + 1))
    p = (FacePoset.from_simplicial(c) if isinstance(c, SimplicialComplex)
         else FacePoset.from_cubical(c))
    assert (p.elements, p.dims, p.down) == (elements, dims, down)
    want = {}
    for key, d in zip(elements, dims):
        want.setdefault(d, []).append(key)
    assert critical_faces(c, MorseMatching(())) == want


class TestFaceTableOracle:
    @settings(max_examples=60, deadline=None)
    @given(any_complex)
    def test_simplicial_complexes(self, c):
        faces = {f: len(f) - 1 for f in all_faces(c.facets)}
        elements, _ = ref_face_table(faces)
        index = {f: i for i, f in enumerate(elements)}
        # entry m of a simplex's cover list drops vertex len(f) - 1 - m
        down = [[index[f[:k] + f[k + 1:]] for k in reversed(range(len(f)))]
                if len(f) > 1 else [] for f in elements]
        check_face_table(c, faces, down)
        layers = {}
        for f, d in faces.items():
            layers.setdefault(d, set()).add(f)
        assert c.faces() == layers
        same_complex(c.derived_subdivision(), ref_simplicial_subdivision(c))

    @pytest.mark.parametrize("kind, k", [("cube", 2), ("cube", 3), ("cube", 4),
                                         ("tube", 0), ("tube", 1), ("tube", 2),
                                         ("tube", 3)])
    def test_cubical_complexes(self, kind, k):
        q = solid_cube(k) if kind == "cube" else AbstractCCT(k).cubes
        faces = ref_cube_faces(q.cubes)
        elements, dims = ref_face_table(faces)
        down = [[i for i, g in enumerate(elements)
                 if dims[i] == d - 1 and set(g) <= set(f)]
                for f, d in zip(elements, dims)]
        check_face_table(q, faces, down)
        assert {tuple(sorted(k)): d for k, (d, _) in q.faces().items()} == faces
        same_complex(q.derived_subdivision(), ref_cubical_subdivision(q))
