"""Dual-graph path construction on normal flag complexes.

BFS distances from networkx serve as the oracle for necklace lengths and
diameter cross-checks.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge.complexcore import SimplicialComplex, boundary_sphere
from polyforge.hirschpath import (
    FacetPath,
    combinatorial_segment,
    dual_diameter,
    hirsch_bound,
    is_non_revisiting,
    segment_to_vertex_set,
    validate_path,
    vertex_distance,
)


def random_flag_sphere(rng, base_dim=3, rounds=2):
    """Stellar subdivisions of a simplex boundary followed by a derived
    subdivision: always flag, normal, and a sphere."""
    c = boundary_sphere(base_dim)
    for _ in range(rounds):
        f = c.facets[rng.randrange(len(c.facets))]
        c = c.stellar_subdivision(f)
    return c.derived_subdivision()


class TestDistances:
    def test_vertex_distance(self):
        c = boundary_sphere(3)
        d, nearest = vertex_distance(c, 0, {1, 2})
        assert d == 1 and nearest == {1, 2}
        d, nearest = vertex_distance(c, 0, {0, 3})
        assert d == 0 and nearest == {0}

    def test_distance_on_path_complex(self):
        c = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
        d, nearest = vertex_distance(c, 0, {3})
        assert d == 3 and nearest == {3}


class TestSegment:
    def test_adjacent_facets(self):
        c = boundary_sphere(3)
        p = combinatorial_segment(c, (0, 1, 2), (1, 2, 3))
        assert p.facets[0] == (0, 1, 2)
        assert p.facets[-1] == (1, 2, 3)
        validate_path(c, p)
        assert is_non_revisiting(p)
        assert len(p.pearls) == 1  # the facets share vertices

    def test_identical_facets(self):
        c = boundary_sphere(3)
        p = combinatorial_segment(c, (0, 1, 2), (0, 1, 2))
        assert p.facets == ((0, 1, 2),)
        assert p.breakpoints[0] == 0 and p.breakpoints[-1] == 0

    def test_necklace_realizes_distance(self):
        rng = random.Random(7)
        c = random_flag_sphere(rng, 3, 2)
        g = nx.Graph(c.one_skeleton())
        facets = c.facets
        for _ in range(10):
            X = facets[rng.randrange(len(facets))]
            Y = facets[rng.randrange(len(facets))]
            p = combinatorial_segment(c, X, Y)
            want = min(
                nx.shortest_path_length(g, a, b) for a in X for b in Y
            )
            assert len(p.pearls) - 1 == want
            validate_path(c, p)
            assert is_non_revisiting(p)

    def test_vertex_set_target_hits_target_last(self):
        rng = random.Random(3)
        c = random_flag_sphere(rng, 3, 1)
        facets = c.facets
        verts = c.vertices()
        for _ in range(8):
            X = facets[rng.randrange(len(facets))]
            Y = {verts[rng.randrange(len(verts))] for _ in range(3)}
            p = segment_to_vertex_set(c, X, Y)
            assert set(p.facets[-1]) & Y
            for f in p.facets[:-1]:
                assert not (set(f) & Y)

    def test_pearl_membership_interval(self):
        # once a pearl appears in the path before its breakpoint, it
        # stays until its breakpoint
        rng = random.Random(11)
        c = random_flag_sphere(rng, 3, 2)
        facets = c.facets
        for _ in range(10):
            X = facets[rng.randrange(len(facets))]
            Y = facets[rng.randrange(len(facets))]
            p = combinatorial_segment(c, X, Y)
            for j, xj in enumerate(p.pearls):
                chi_j = p.breakpoints[j]
                hits = [a for a, f in enumerate(p.facets) if xj in f]
                lo = min(a for a in hits if a <= chi_j)
                assert all(xj in p.facets[a] for a in range(lo, chi_j + 1))

    def test_rejects_non_facet(self):
        c = boundary_sphere(3)
        with pytest.raises(ValueError):
            combinatorial_segment(c, (0, 1), (1, 2, 3))

    def test_zero_dimensional(self):
        c = SimplicialComplex(3, [(0,), (1,), (2,)])
        p = combinatorial_segment(c, (0,), (2,))
        assert p.facets == ((0,), (2,))


class TestNonRevisiting:
    def test_detects_revisit(self):
        p = FacetPath(
            facets=((0, 1, 2), (0, 1, 3), (1, 2, 3)),
            pearls=(1,),
            breakpoints=(0, 2),
        )
        assert not is_non_revisiting(p)

    def test_constructed_paths_non_revisiting_everywhere(self):
        rng = random.Random(23)
        for round_ in range(3):
            c = random_flag_sphere(rng, 3 if round_ < 2 else 2, 2)
            assert c.is_flag() and c.is_normal()
            facets = c.facets
            for _ in range(6):
                X = facets[rng.randrange(len(facets))]
                Y = facets[rng.randrange(len(facets))]
                p = combinatorial_segment(c, X, Y)
                assert is_non_revisiting(p)
                assert len(p.facets) - 1 <= hirsch_bound(c)


class TestDiameter:
    def test_sphere_diameter(self):
        c = boundary_sphere(3)
        assert dual_diameter(c) == 1
        assert hirsch_bound(c) == 4 - 2 - 1

    def test_disconnected_raises(self):
        c = SimplicialComplex(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(ValueError):
            dual_diameter(c)

    def test_subdivided_sphere_within_bound(self):
        c = boundary_sphere(3).derived_subdivision()
        assert dual_diameter(c) <= hirsch_bound(c)


# ---------------------------------------------------------------------------
# oracle properties on random complexes


@st.composite
def flag_spheres(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_flag_sphere(rng, draw(st.sampled_from([2, 3])),
                              draw(st.integers(0, 3)))


@st.composite
def random_pure(draw):
    """Random k-subsets of a few vertices, often with a disconnected
    dual graph."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, min(3, n - 1)))
    pool = list(itertools.combinations(range(n), k + 1))
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return SimplicialComplex(n, facets)


def facet_pair_graph(c) -> nx.Graph:
    g = nx.Graph()
    for f in c.facets:
        g.add_nodes_from(f)
        g.add_edges_from(itertools.combinations(f, 2))
    return g


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(flag_spheres(), random_pure()))
    def test_dual_diameter_matches_networkx(self, c):
        g = nx.Graph()
        g.add_nodes_from(range(len(c.facets)))
        g.add_edges_from((i, j) for i, j in itertools.combinations(
            range(len(c.facets)), 2)
            if len(set(c.facets[i]) & set(c.facets[j])) == c.dim)
        if nx.is_connected(g):
            assert dual_diameter(c) == nx.diameter(g)
        else:
            with pytest.raises(ValueError, match="dual graph is disconnected"):
                dual_diameter(c)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(flag_spheres(), random_pure()), st.data())
    def test_vertex_distance_matches_networkx(self, c, data):
        g = facet_pair_graph(c)
        verts = c.vertices()
        x = data.draw(st.sampled_from(verts))
        targets = data.draw(st.sets(st.sampled_from(verts), min_size=1,
                                    max_size=4))
        lengths = nx.single_source_shortest_path_length(g, x)
        reach = {y: lengths[y] for y in targets if y in lengths}
        if not reach:
            with pytest.raises(ValueError, match="cannot reach"):
                vertex_distance(c, x, targets)
            return
        d = min(reach.values())
        assert vertex_distance(c, x, targets) == (
            d, {y for y, dy in reach.items() if dy == d})
