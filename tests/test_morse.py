"""Discrete Morse matchings, collapses, and evasiveness.

Euler characteristic is the oracle throughout: critical cell counts and
outward ledgers must reproduce it exactly.  Matching acyclicity is
compared with networkx on random matchings.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge.complexcore import (
    CubicalComplex,
    SimplicialComplex,
    boundary_sphere,
    simplex_complex,
    solid_cube,
)
from polyforge.morse import (
    MorseMatching,
    SearchExhausted,
    collapse_search,
    critical_faces,
    deformation_trace,
    is_nonevasive,
    out_j_collapse,
    validate_matching,
)


def euler(c) -> int:
    fv = c.f_vector()
    return sum((-1) ** i * n for i, n in enumerate(fv))


def random_subdivided_ball(rng, rounds=2):
    c = simplex_complex(3)
    for _ in range(rounds):
        f = c.facets[rng.randrange(len(c.facets))]
        c = c.stellar_subdivision(f)
    return c


class TestValidation:
    def test_good_matching(self):
        c = simplex_complex(1)  # an edge: faces (0,), (1,), (0,1)
        m = MorseMatching((((0,), (0, 1)),))
        assert validate_matching(c, m)
        assert critical_faces(c, m) == {0: [(1,)]}

    def test_malformed_pairs_raise(self):
        c = simplex_complex(1)
        with pytest.raises(ValueError):
            validate_matching(c, MorseMatching((((0,), (1,)),)))  # not a cover
        with pytest.raises(ValueError):
            validate_matching(c, MorseMatching((((5,), (0, 1)),)))  # unknown face
        m = MorseMatching((((0,), (0, 1)), ((0,), (0, 1))))
        with pytest.raises(ValueError):
            validate_matching(c, m)  # face used twice

    def test_cyclic_matching_rejected(self):
        # two triangles glued along two shared edges would be needed for
        # a genuine gradient cycle; the classic small example is the
        # boundary of a triangle with alternating pairs
        c = boundary_sphere(2)  # triangle boundary: 3 vertices, 3 edges
        m = MorseMatching((
            ((0,), (0, 1)),
            ((1,), (1, 2)),
            ((2,), (0, 2)),
        ))
        assert validate_matching(c, m) is False

    def test_critical_count_matches_euler(self):
        c = boundary_sphere(3)
        m = MorseMatching((
            ((0,), (0, 1)),
            ((2,), (2, 3)),
            ((0, 2), (0, 2, 3)),
            ((1, 2), (0, 1, 2)),
            ((1, 3), (0, 1, 3)),
        ))
        assert validate_matching(c, m)
        crit = critical_faces(c, m)
        total = sum((-1) ** d * len(fs) for d, fs in crit.items())
        assert total == euler(c) == 2


def hasse_covers(c) -> list:
    """(face, cover) pairs of a simplicial complex, in a fixed order."""
    faces = sorted({g for f in c.facets for k in range(1, len(f) + 1)
                    for g in itertools.combinations(f, k)})
    return [(tuple(x for x in f if x != v), f)
            for f in faces if len(f) > 1 for v in f]


def gradient_cycle(simplex) -> list:
    """Pairs closing a gradient path: vertex-edge pairs around a triangle,
    or edge-triangle pairs around a tetrahedron."""
    if len(simplex) >= 4:
        a, b, c, d = simplex[:4]
        return [((a, b), (a, b, c)), ((b, c), (b, c, d)),
                ((c, d), (a, c, d)), ((a, d), (a, b, d))]
    a, b, c = simplex[:3]
    return [((a,), (a, b)), ((b,), (b, c)), ((c,), (a, c))]


@st.composite
def random_matchings(draw):
    """A subdivided ball or sphere and a structurally valid matching on
    it, sometimes seeded with a gradient cycle."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from(
        [simplex_complex(3), boundary_sphere(3), boundary_sphere(4)]))
    c = base
    for _ in range(draw(st.integers(0, 2))):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    if draw(st.booleans()):
        c = c.derived_subdivision()
    pairs = []
    if draw(st.booleans()):
        facet = c.facets[rng.randrange(len(c.facets))]
        pairs = [(tuple(sorted(lo)), tuple(sorted(hi)))
                 for lo, hi in gradient_cycle(facet)]
    used = {k for pair in pairs for k in pair}
    covers = hasse_covers(c)
    rng.shuffle(covers)
    keep = draw(st.floats(0.0, 1.0))
    for low, high in covers:
        if low not in used and high not in used and rng.random() < keep:
            pairs.append((low, high))
            used.update((low, high))
    return c, MorseMatching(tuple(pairs))


class TestValidationOracle:
    @settings(max_examples=60, deadline=None)
    @given(random_matchings())
    def test_acyclicity_matches_networkx(self, case):
        c, m = case
        matched = set(m.pairs)
        g = nx.DiGraph()
        for low, high in hasse_covers(c):
            g.add_nodes_from((low, high))
            if (low, high) in matched:
                g.add_edge(low, high)
            else:
                g.add_edge(high, low)
        assert validate_matching(c, m) is nx.is_directed_acyclic_graph(g)


class TestCollapse:
    def test_solid_simplex_collapses(self):
        c = simplex_complex(3)
        m = collapse_search(c)
        assert validate_matching(c, m)
        crit = critical_faces(c, m)
        assert sum(len(v) for v in crit.values()) == 1
        assert list(crit) == [0]

    def test_sphere_is_not_collapsible(self):
        with pytest.raises(SearchExhausted):
            collapse_search(boundary_sphere(3))

    def test_subdivided_balls_collapse(self):
        rng = random.Random(5)
        for _ in range(4):
            c = random_subdivided_ball(rng)
            m = collapse_search(c)
            assert validate_matching(c, m)
            assert sum(len(v) for v in critical_faces(c, m).values()) == 1

    def test_cubical_ball_collapses(self):
        q = solid_cube(3)
        m = collapse_search(q)
        assert validate_matching(q, m)
        assert sum(len(v) for v in critical_faces(q, m).values()) == 1

    def test_collapse_to_subcomplex(self):
        c = simplex_complex(2)
        d = SimplicialComplex(3, [(0, 1)])
        m = collapse_search(c, target=d)
        assert validate_matching(c, m)
        # live faces at the end are exactly the faces of d, so the pairs
        # cover everything else
        assert 2 * len(m.pairs) == 7 - 3


class TestOutJ:
    def test_triangle_onto_boundary(self):
        c = simplex_complex(2)
        d = boundary_sphere(2)
        m, ledger = out_j_collapse(c, d, 1)
        assert validate_matching(c, m)
        assert len(ledger) == 1  # chi(boundary) = 0, j = 1
        assert all(len(f) == 2 for f in ledger)

    def test_ledger_sign_blocks_wrong_dimension(self):
        c = simplex_complex(2)
        d = boundary_sphere(2)
        with pytest.raises(SearchExhausted):
            out_j_collapse(c, d, 2, budget=5000)

    def test_ledger_size_formula(self):
        rng = random.Random(13)
        for _ in range(6):
            c = random_subdivided_ball(rng, rounds=1)
            # d = boundary of one facet of c
            fct = c.facets[rng.randrange(len(c.facets))]
            d = SimplicialComplex(c.num_vertices,
                                  [fct[:i] + fct[i + 1:] for i in range(4)])
            chi = euler(d)  # a 2-sphere: 2
            m, ledger = out_j_collapse(c, d, 2)
            assert validate_matching(c, m)
            assert len(ledger) == (-1) ** 2 * (chi - 1) == 1


class TestTrace:
    def test_attachments_of_circle(self):
        c = boundary_sphere(2)
        d = SimplicialComplex(3, [(0,)])
        events = deformation_trace(c, d, MorseMatching(()))
        attaches = [e for e in events if e[0] == "attach"]
        assert len(attaches) == 5
        assert [e[1] for e in attaches] == [1, 1, 1, 0, 0]

    def test_collapse_only_trace(self):
        c = simplex_complex(2)
        d = SimplicialComplex(3, [(0, 1)])
        m = collapse_search(c, target=d)
        events = deformation_trace(c, d, m)
        assert all(e[0] == "collapse" for e in events)
        assert len(events) == 2

    def test_outward_pair_rejected(self):
        c = simplex_complex(2)
        d = boundary_sphere(2)
        m = MorseMatching((((0, 1), (0, 1, 2)),))
        with pytest.raises(ValueError):
            deformation_trace(c, d, m)

    def test_attach_counts_equal_critical_counts(self):
        c = boundary_sphere(3)
        d = SimplicialComplex(4, [(0,)])
        m = MorseMatching((
            ((1,), (0, 1)),
            ((2,), (0, 2)),
            ((3,), (0, 3)),
            ((1, 2), (0, 1, 2)),
            ((1, 3), (0, 1, 3)),
            ((2, 3), (0, 2, 3)),
        ))
        assert validate_matching(c, m)
        events = deformation_trace(c, d, m)
        attaches = [e for e in events if e[0] == "attach"]
        # critical faces not in d: the top facet (1,2,3) and nothing else
        assert len(attaches) == 1
        assert attaches[0][1] == 2


class TestNonevasive:
    def test_cones_are_nonevasive(self):
        assert is_nonevasive(simplex_complex(0))
        assert is_nonevasive(simplex_complex(2))
        assert is_nonevasive(simplex_complex(3))

    def test_trees_are_nonevasive(self):
        path = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
        assert is_nonevasive(path)

    def test_spheres_are_evasive(self):
        assert not is_nonevasive(boundary_sphere(2))
        assert not is_nonevasive(boundary_sphere(3))
        two_points = SimplicialComplex(2, [(0,), (1,)])
        assert not is_nonevasive(two_points)

    def test_subdivided_simplex_nonevasive(self):
        c = simplex_complex(2).derived_subdivision()
        assert is_nonevasive(c)
