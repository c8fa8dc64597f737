"""Affine arrangements, intersection posets, and complement Betti numbers.

Oracles: homotopy types known by hand (circles, tori, wedges of circles)
and Euler-characteristic bookkeeping.
"""

from fractions import Fraction

import pytest

from polyforge.arrangement import (
    AffineSubspace,
    arrangement_from_json,
    arrangement_to_json,
    betti_reduced_homology,
    gm_betti,
    intersection_poset,
    lefschetz_inequality_check,
)
from polyforge.complexcore import SimplicialComplex, boundary_sphere


def line2(a, b, c):
    """The line a*x + b*y = c in R^2, as a span."""
    # direction (-b, a), any particular point
    if a:
        offset = [Fraction(c, a), Fraction(0)]
    else:
        offset = [Fraction(0), Fraction(c, b)]
    return AffineSubspace(2, [[Fraction(-b), Fraction(a)]], offset)


def point2(x, y):
    return AffineSubspace(2, [], [Fraction(x), Fraction(y)])


def coord_plane4(i, j):
    """Coordinate 2-flat of R^4 where coordinates i and j vary."""
    basis = []
    for k in (i, j):
        e = [Fraction(0)] * 4
        e[k] = Fraction(1)
        basis.append(e)
    return AffineSubspace(4, basis, [Fraction(0)] * 4)


class TestAffineSubspace:
    def test_canonical_equality(self):
        s1 = AffineSubspace(2, [[1, 1]], [0, 0])
        s2 = AffineSubspace(2, [[3, 3]], [2, 2])
        assert s1 == s2
        assert hash(s1) == hash(s2)
        s3 = AffineSubspace(2, [[1, 1]], [1, 0])
        assert s1 != s3

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace(3, [[1, 0, 0], [2, 0, 0]], [0, 0, 0])

    def test_intersection(self):
        l1 = line2(1, 0, 0)   # x = 0
        l2 = line2(0, 1, 0)   # y = 0
        p = l1.intersect(l2)
        assert p == point2(0, 0)
        assert p.dim == 0
        parallel = line2(1, 0, 1)
        assert l1.intersect(parallel) is None

    def test_containment(self):
        l1 = line2(1, 0, 0)
        origin = point2(0, 0)
        assert l1.contains(origin)
        assert not origin.contains(l1)

    def test_json_round_trip(self):
        s = AffineSubspace(3, [[1, 1, 0]], [Fraction(1, 2), 0, 2])
        t = AffineSubspace(3, [], [0, 1, 0])
        data = arrangement_to_json([s, t])
        assert data["dim"] == 3
        back = arrangement_from_json(data)
        assert back == [s, t]

    def test_containment_tests_the_dot_product(self):
        # the plane x + y = 0 holds the line along (1, -1, 0), although the
        # coordinatewise products of its normal and that direction are not
        # zero
        plane = AffineSubspace(3, [[1, -1, 0], [0, 0, 1]], [0, 0, 0])
        line = AffineSubspace(3, [[1, -1, 0]], [0, 0, 0])
        assert plane.contains(line)
        assert not line.contains(plane)
        # the union is the plane, whose complement is two open half-spaces
        assert [gm_betti([plane, line], i) for i in range(3)] == [2, 0, 0]


class TestIntersectionPoset:
    def test_single_node(self):
        p = intersection_poset([line2(1, 0, 0)])
        assert p.size() == 1

    def test_two_crossing_lines(self):
        p = intersection_poset([line2(1, 0, 0), line2(0, 1, 0)])
        assert p.size() == 3
        dims = sorted(s.dim for s in p.nodes)
        assert dims == [0, 1, 1]

    def test_three_concurrent_planes(self):
        diag = AffineSubspace(
            4, [[1, 0, 1, 0], [0, 1, 0, 1]], [0, 0, 0, 0],
        )
        flats = [coord_plane4(0, 1), coord_plane4(2, 3), diag]
        p = intersection_poset(flats)
        # three planes plus the common origin
        assert p.size() == 4

    def test_mismatched_dims_raise(self):
        with pytest.raises(ValueError):
            intersection_poset([line2(1, 0, 0), coord_plane4(0, 1)])

    def test_lower_complex(self):
        p = intersection_poset([line2(1, 0, 0), line2(0, 1, 0)])
        origin_idx = next(i for i, s in enumerate(p.nodes) if s.dim == 0)
        c = p.lower_complex(origin_idx)
        # two lines strictly contain the origin, no relation between them
        assert c.f_vector() == (2,)


class TestReducedHomology:
    def test_empty_complex(self):
        c = SimplicialComplex(0, [])
        assert betti_reduced_homology(c, -1) == 1
        assert betti_reduced_homology(c, 0) == 0

    def test_circle(self):
        assert betti_reduced_homology(boundary_sphere(2), 1) == 1
        assert betti_reduced_homology(boundary_sphere(2), 0) == 0

    def test_two_points(self):
        c = SimplicialComplex(2, [(0,), (1,)])
        assert betti_reduced_homology(c, 0) == 1

    def test_sphere(self):
        assert betti_reduced_homology(boundary_sphere(3), 2) == 1
        assert betti_reduced_homology(boundary_sphere(3), 1) == 0

    def test_ball_is_acyclic(self):
        c = SimplicialComplex(3, [(0, 1, 2)])
        for k in (-1, 0, 1, 2):
            assert betti_reduced_homology(c, k) == 0

    def test_relabel_invariance(self):
        c = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        perm = {0: 2, 1: 0, 2: 3, 3: 1}
        c2 = SimplicialComplex(4, [tuple(perm[v] for v in f) for f in c.facets])
        for k in (0, 1):
            assert betti_reduced_homology(c, k) == betti_reduced_homology(c2, k)


class TestGmBetti:
    def test_points_in_plane(self):
        for n in range(1, 7):
            arr = [point2(i, i * i) for i in range(n)]
            assert gm_betti(arr, 0) == 1
            assert gm_betti(arr, 1) == n
            assert gm_betti(arr, 2) == 0

    def test_single_codim2_plane(self):
        arr = [coord_plane4(0, 1)]
        assert gm_betti(arr, 0) == 1
        assert gm_betti(arr, 1) == 1
        assert gm_betti(arr, 2) == 0

    def test_two_orthogonal_planes(self):
        arr = [coord_plane4(0, 1), coord_plane4(2, 3)]
        got = tuple(gm_betti(arr, i) for i in range(4))
        assert got == (1, 2, 1, 0)

    def test_euler_alternating_sum(self):
        # complement of n points in the plane has chi = 1 - n
        for n in (1, 3, 5):
            arr = [point2(i, 0) for i in range(n)]
            chi = sum((-1) ** i * gm_betti(arr, i) for i in range(3))
            assert chi == 1 - n
        # complement of two skew lines in R^3 has chi = 1 - 2
        l1 = AffineSubspace(3, [[1, 0, 0]], [0, 0, 0])
        l2 = AffineSubspace(3, [[0, 0, 1]], [0, 1, 1])
        arr = [l1, l2]
        chi = sum((-1) ** i * gm_betti(arr, i) for i in range(4))
        assert chi == 1 - 2


class TestLefschetz:
    def test_points_against_generic_line(self):
        arr = [point2(0, 0), point2(1, 0)]
        h = line2(0, 1, 1)  # y = 1 misses both points
        report = lefschetz_inequality_check(arr, h)
        assert report["generic"]
        assert all(report["satisfied"])
        assert report["sliced"][0] == 1
        assert sum(report["sliced"][1:]) == 0

    def test_two_planes_generic_hyperplane(self):
        arr = [coord_plane4(0, 1), coord_plane4(2, 3)]
        h = AffineSubspace(
            4, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], [1, 0, 0, 0],
        )
        report = lefschetz_inequality_check(arr, h)
        assert report["generic"]
        assert all(report["satisfied"])
        # the sliced arrangement is two skew lines in H = R^3
        assert report["sliced"][:3] == [1, 2, 0]
        assert report["ambient"][:3] == [1, 2, 1]

    def test_non_generic_rejected(self):
        arr = [coord_plane4(0, 1)]
        h = AffineSubspace(
            4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0, 0],
        )  # contains the flat
        with pytest.raises(ValueError):
            lefschetz_inequality_check(arr, h)

    def test_truncation_isomorphism(self):
        arr = [coord_plane4(0, 1), coord_plane4(2, 3)]
        h = AffineSubspace(
            4, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], [1, 0, 0, 0],
        )
        report = lefschetz_inequality_check(arr, h)
        # ambient poset: 2 planes + origin; sliced poset: 2 lines.
        # truncation removes exactly the maximal 0-dimensional node.
        assert report["poset_nodes_ambient"] == 3
        assert report["poset_nodes_sliced"] == 2
