"""Affine arrangements, intersection posets, and complement Betti numbers.

Oracles: homotopy types known by hand (circles, tori, wedges of circles)
and Euler-characteristic bookkeeping.
"""

import itertools
import random
from fractions import Fraction

import pytest

from polyforge.arrangement import (
    AffineSubspace,
    arrangement_from_json,
    arrangement_to_json,
    betti_reduced_homology,
    gm_betti,
    gm_betti_all,
    intersection_poset,
    lefschetz_inequality_check,
)
from polyforge.complexcore import SimplicialComplex, boundary_sphere
from polyforge.exactfield import ONE, ZERO, mat_nullspace, mat_rank, mat_solve, vec_dot


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

    def test_empty_arrangement_json_rejected(self):
        with pytest.raises(ValueError, match="arrangement must be nonempty"):
            arrangement_from_json({"dim": 2, "subspaces": []})

    @pytest.mark.parametrize("d", [0, 2])
    def test_whole_space_member_rejected(self, d):
        # R^d minus R^d is empty, which the Goresky-MacPherson sum over
        # proper members does not see
        whole = AffineSubspace(d, [[int(i == j) for j in range(d)]
                                   for i in range(d)], [0] * d)
        arr = [whole] + ([line2(0, 1, 0)] if d == 2 else [])
        for fn in (intersection_poset, gm_betti_all):
            with pytest.raises(ValueError, match="a member is the whole space"):
                fn(arr)
        with pytest.raises(ValueError, match="a member is the whole space"):
            arrangement_from_json(arrangement_to_json(arr))

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


# ---------------------------------------------------------------------------
# Reference poset path: a copy of the all-pairs closure, the span-per-call
# order, the chain recursion of the lower complexes and the dense boundary
# ranks, which the library's order table and shared posets must reproduce.


def ref_span(s):
    n = s.ambient_dim
    if not s._canon:
        return [ZERO] * n, [tuple(ONE if i == j else ZERO for j in range(n))
                            for i in range(n)]
    a_rows = [list(row[:n]) for row in s._canon]
    b = [row[n] for row in s._canon]
    return list(mat_solve(a_rows, b)), mat_nullspace(a_rows)


def ref_contains(a, b):
    n = a.ambient_dim
    offset, basis = ref_span(b)
    for row in a._canon:
        if vec_dot(row[:n], offset) != row[n]:
            return False
        if any(vec_dot(row[:n], v) for v in basis):
            return False
    return True


def ref_nodes(arr):
    nodes = set(arr)
    while True:
        current = list(nodes)
        fresh = set()
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                meet = current[i].intersect(current[j])
                if meet is not None and meet not in nodes:
                    fresh.add(meet)
        if not fresh:
            break
        nodes |= fresh
    return tuple(sorted(nodes, key=lambda s: (s.dim, s._canon)))


def ref_less(nodes, i, j):
    return nodes[i] != nodes[j] and ref_contains(nodes[i], nodes[j])


def ref_lower_complex(nodes, i):
    below = [j for j in range(len(nodes)) if ref_less(nodes, j, i)]
    reindex = {j: k for k, j in enumerate(below)}
    chains = []

    def extend(chain):
        nxt = [j for j in below if ref_less(nodes, chain[-1], j)]
        if not nxt:
            chains.append(tuple(reindex[j] for j in chain))
            return
        for j in nxt:
            extend(chain + [j])

    for j in below:
        if not any(ref_less(nodes, o, j) for o in below):
            extend([j])
    return SimplicialComplex(len(below), chains)


def ref_reduced_betti(c, k):
    if k < -1:
        return 0
    faces = c.faces()

    def basis(d):
        return [()] if d == -1 else sorted(faces.get(d, ()))

    def rank_boundary(d):
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


def ref_gm_betti(arr, i):
    nodes = ref_nodes(arr)
    d = arr[0].ambient_dim
    total = 1 if i == 0 else 0
    for idx, s in enumerate(nodes):
        total += ref_reduced_betti(ref_lower_complex(nodes, idx), d - 2 - i - s.dim)
    return total


def ref_slice_into(h, s):
    """The flat s ∩ H in the chart offset + basis·t of the hyperplane H,
    or None when s misses H."""
    n = h.ambient_dim
    offset, basis = ref_span(h)
    m = [[vec_dot(row[:n], v) for v in basis] for row in s._canon]
    rhs = [row[n] - vec_dot(row[:n], offset) for row in s._canon]
    k = len(basis)
    if not m:  # s is the whole space, and so is its slice
        return AffineSubspace(k, [[int(i == j) for j in range(k)] for i in range(k)], [0] * k)
    t = mat_solve(m, rhs)
    return None if t is None else AffineSubspace(k, mat_nullspace(m), t)


def ref_lefschetz(arr, hyperplane):
    """Today's report, with every Betti number from the reference path."""
    nodes = ref_nodes(arr)
    d = arr[0].ambient_dim
    if hyperplane.ambient_dim != d:
        raise ValueError("hyperplane has the wrong ambient dimension")
    if hyperplane.dim != d - 1:
        raise ValueError("slicing flat must be a hyperplane")
    sliced_of = {}
    for idx, p in enumerate(nodes):
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
    sliced_arr = [cut for cut in (ref_slice_into(hyperplane, s) for s in arr)
                  if cut is not None]
    ambient = [ref_gm_betti(arr, i) for i in range(d)]
    if sliced_arr:
        sliced_nodes = len(ref_nodes(sliced_arr))
        if sliced_nodes != len(sliced_of):
            raise ValueError("not in general position: sliced poset is not a truncation")
        sliced = [ref_gm_betti(sliced_arr, i) for i in range(d - 1)] + [0]
    else:
        sliced = [1] + [0] * (d - 1)
        sliced_nodes = 0
    return {
        "generic": True,
        "ambient": ambient,
        "sliced": sliced,
        "satisfied": [a >= b for a, b in zip(ambient, sliced)],
        "poset_nodes_ambient": len(nodes),
        "poset_nodes_sliced": sliced_nodes,
    }


def hyperplane(a, b):
    """The hyperplane a.x = b, as a span."""
    d = len(a)
    k = next(i for i, x in enumerate(a) if x)
    offset = [Fraction(0)] * d
    offset[k] = Fraction(b, a[k])
    basis = []
    for j in range(d):
        if j != k:
            v = [Fraction(0)] * d
            v[j] = Fraction(1)
            v[k] = Fraction(-a[j], a[k])
            basis.append(v)
    return AffineSubspace(d, basis, offset)


def random_flats(rng, count, d, k, coeff):
    """`count` distinct k-flats of R^d with coefficients in [-coeff, coeff];
    small coefficients give parallel, concurrent and nested members."""
    out = []
    while len(out) < count:
        basis = [[rng.randint(-coeff, coeff) for _ in range(d)] for _ in range(k)]
        offset = [rng.randint(-coeff, coeff) for _ in range(d)]
        try:
            s = AffineSubspace(d, basis, offset)
        except ValueError:
            continue
        if s not in out:
            out.append(s)
    return out


def random_hyperplanes(rng, count, d, coeff):
    out = []
    while len(out) < count:
        a = [rng.randint(-coeff, coeff) for _ in range(d)]
        if any(a):
            h = hyperplane(a, rng.randint(-coeff, coeff))
            if h not in out:
                out.append(h)
    return out


def nested_r3():
    """A plane, a line inside it, a line crossing it at a point of that
    line, and a point on both: the crossing point lies in three members."""
    return [
        AffineSubspace(3, [[1, 0, 0], [0, 1, 0]], [0, 0, 0]),
        AffineSubspace(3, [[1, 0, 0]], [0, 0, 0]),
        AffineSubspace(3, [[0, 1, 1]], [0, 0, 0]),
        AffineSubspace(3, [], [2, 0, 0]),
    ]


def oracle_arrangements():
    """(name, arrangement): seeded points in R^2, lines and planes in R^3,
    hyperplanes in R^4 and codimension-2 flats in R^4; a nested
    arrangement in R^3 in both member orders, and lines of R^2 with one
    line given twice."""
    out = [
        ("nested-r3", nested_r3()),
        ("nested-r3-reversed", nested_r3()[::-1]),
        ("lines-r2-repeated", [line2(1, 0, 0), line2(0, 1, 0), line2(2, 0, 0),
                               line2(1, 1, 1)]),
    ]
    for seed in range(3):
        rng = random.Random(f"arrangement-oracle:{seed}")
        out += [
            (f"points-r2-{seed}", random_flats(rng, 5, 2, 0, 3)),
            (f"lines-r2-{seed}", random_flats(rng, 5, 2, 1, 2)),
            (f"lines-r3-{seed}", random_flats(rng, 4, 3, 1, 1)),
            (f"planes-r3-{seed}", random_hyperplanes(rng, 5, 3, 2)),
            (f"hyperplanes-r4-{seed}", random_hyperplanes(rng, 4, 4, 2)),
            (f"codim2-r4-{seed}", random_flats(rng, 3, 4, 2, 1)),
        ]
    return out


ORACLE_ARRANGEMENTS = oracle_arrangements()


class TestPosetOracle:
    @pytest.mark.parametrize("name,arr", ORACLE_ARRANGEMENTS,
                             ids=[name for name, _ in ORACLE_ARRANGEMENTS])
    def test_poset_and_betti_match_reference(self, name, arr):
        nodes = ref_nodes(arr)
        poset = intersection_poset(arr)
        assert poset.nodes == nodes
        n = len(nodes)
        assert [[poset.less(i, j) for j in range(n)] for i in range(n)] == \
            [[ref_less(nodes, i, j) for j in range(n)] for i in range(n)]
        assert [[nodes[i].contains(nodes[j]) for j in range(n)] for i in range(n)] == \
            [[ref_contains(nodes[i], nodes[j]) for j in range(n)] for i in range(n)]
        members = list(dict.fromkeys(arr))
        assert list(poset.supports) == [
            sum(1 << k for k, m in enumerate(members) if ref_contains(m, s)) for s in nodes]
        for i in range(n):
            got, want = poset.lower_complex(i), ref_lower_complex(nodes, i)
            assert (got.num_vertices, got.facets) == (want.num_vertices, want.facets)
        d = arr[0].ambient_dim
        want = [ref_gm_betti(arr, i) for i in range(d + 2)]
        assert [gm_betti(arr, i) for i in range(d + 2)] == want
        assert gm_betti_all(arr) == want[:d]
        assert want[d:] == [0, 0]

    def test_member_order_changes_nothing(self):
        # the nested arrangement and the plane y = z, which holds both
        # lines and the point, in all 120 member orders
        members = nested_r3() + [AffineSubspace(3, [[1, 0, 0], [0, 1, 1]], [0, 0, 0])]
        nodes = ref_nodes(members)
        n = len(nodes)
        want = [[ref_less(nodes, i, j) for j in range(n)] for i in range(n)]
        for arr in itertools.permutations(members):
            poset = intersection_poset(list(arr))
            assert poset.nodes == nodes
            assert [[poset.less(i, j) for j in range(n)] for i in range(n)] == want

    @pytest.mark.parametrize("name,arr", [
        (name, arr) for name, arr in ORACLE_ARRANGEMENTS
        if name.startswith(("planes", "hyperplanes", "lines-r2"))])
    def test_zaslavsky_region_count(self, name, arr):
        # the complement of a hyperplane arrangement has
        # sum |mu(R^d, x)| components, over R^d and every flat x
        poset = intersection_poset(arr)
        mu = {}
        # larger flats first: x < y in the poset only if dim x > dim y
        for j in sorted(range(poset.size()), key=lambda j: -poset.nodes[j].dim):
            mu[j] = -1 - sum(mu[i] for i in mu if poset.less(i, j))
        assert gm_betti(arr, 0) == 1 + sum(abs(m) for m in mu.values())


def generic_planes(rng, count):
    """`count` planes of R^4 and a hyperplane x4 = c in general position
    to them, as the benchmark draws its slice inputs; the points where
    two planes meet are all distinct and off the hyperplane."""
    while True:
        planes = random_flats(rng, count, 4, 2, 3)
        if any(p.dim != 2 for p in planes):
            continue
        meets = [a.intersect(b) for a, b in itertools.combinations(planes, 2)]
        if any(m is None or m.dim != 0 for m in meets) or len(set(meets)) != len(meets):
            continue
        c = Fraction(rng.randint(1, 50), 7)
        h = AffineSubspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0, c])
        try:
            if all(p.intersect(h) is not None for p in planes):
                ref_lefschetz(planes, h)
                return planes, h
        except ValueError:
            continue


def random_lefschetz_case(rng, d):
    """One to four members of R^d (points, lines and planes, coordinates
    in [-2, 2]) and a hyperplane that is drawn at random, passes through a
    member's point, or contains a member; small coordinates make the
    hyperplane hit point flats and contain flats often."""
    count = rng.randint(1, 3 if d == 4 else 4)
    arr = [random_flats(rng, 1, d, rng.randint(0, min(2, d - 1)), 2)[0]
           for _ in range(count)]
    kind = rng.choice(("random", "random", "through", "contains"))
    if kind == "random":
        return arr, random_hyperplanes(rng, 1, d, 3)[0]
    offset, basis = rng.choice(arr).span_form()
    if kind == "through":
        normals = [[int(i == j) for j in range(d)] for i in range(d)]
    else:
        normals = [[x.a for x in v] for v in mat_nullspace(basis or [[0] * d])]
    a = [0] * d
    while not any(a):
        coeffs = [rng.randint(-1, 1) for _ in normals]
        a = [sum(c * v[j] for c, v in zip(coeffs, normals)) for j in range(d)]
    return arr, hyperplane(a, sum(x * y for x, y in zip(a, offset)))


def lefschetz_cases():
    cases = []
    for seed in range(2):
        rng = random.Random(f"lefschetz-oracle:{seed}")
        for count in (2, 3):
            cases.append(generic_planes(rng, count))
    cases += [
        ([point2(0, 0), point2(1, 0)], line2(0, 1, 1)),
        ([point2(0, 0), point2(1, 0)], line2(0, 1, 0)),
        ([line2(1, 0, 0), line2(0, 1, 0), line2(1, 1, 3)], line2(1, -1, 7)),
        ([line2(1, 0, 0), line2(1, 0, 1)], line2(1, 0, 2)),
        ([coord_plane4(0, 1), coord_plane4(2, 3)],
         AffineSubspace(4, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
                        [1, 0, 0, 0])),
        ([coord_plane4(0, 1)],
         AffineSubspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                        [0, 0, 0, 0])),
        ([coord_plane4(0, 1)], coord_plane4(2, 3)),
    ]
    for seed in range(60):
        rng = random.Random(f"lefschetz-random:{seed}")
        cases.append(random_lefschetz_case(rng, 1 + seed % 4))
    return cases


LEFSCHETZ_CASES = lefschetz_cases()


def report_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestLefschetzOracle:
    @pytest.mark.parametrize("arr,h", LEFSCHETZ_CASES)
    def test_report_matches_reference(self, arr, h):
        assert report_or_error(lefschetz_inequality_check, arr, h) == \
            report_or_error(ref_lefschetz, arr, h)

    def test_cases_reach_every_outcome(self):
        # reports (one of them in R^1) and both genericity errors
        outcomes = [(arr[0].ambient_dim, report_or_error(ref_lefschetz, arr, h))
                    for arr, h in LEFSCHETZ_CASES]
        errors = {out for _, out in outcomes if isinstance(out, str)}
        assert errors >= {"not in general position: hyperplane hits a point flat",
                          "not in general position: non-transversal flat"}
        assert any(d == 1 and isinstance(out, dict) for d, out in outcomes)
        assert sum(isinstance(out, dict) for _, out in outcomes) >= 20


# ---------------------------------------------------------------------------
# Dense-path homology oracle: ref_reduced_betti's sorted-basis boundary
# matrices, with a key-to-column dict per degree and f[:i] + f[i+1:]
# slicing, against the library's boundary matrices on face poset ids, in
# every degree.


def stellar_rounds(c, rounds, rng):
    for _ in range(rounds):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c


def dense_oracle_complexes():
    """(name, complex): small hand-made complexes, seeded derived balls
    and spheres, and every lower complex of seeded arrangements in R^3
    and R^4."""
    out = [
        ("empty", SimplicialComplex(0, [])),
        ("point", SimplicialComplex(1, [(0,)])),
        ("disconnected", SimplicialComplex(7, [(0, 1), (1, 2), (0, 2), (3, 4, 5), (6,)])),
        ("non-pure", SimplicialComplex(6, [(0, 1, 2), (2, 3), (3, 4), (4, 2), (5,)])),
        ("sphere-2", boundary_sphere(3).derived_subdivision()),
        ("sphere-3", boundary_sphere(4).derived_subdivision()),
    ]
    for seed in range(2):
        rng = random.Random(f"dense-oracle:{seed}")
        tetrahedron = SimplicialComplex(4, [(0, 1, 2, 3)])
        out += [
            (f"ball-{seed}", stellar_rounds(tetrahedron, 1, rng).derived_subdivision()),
            (f"stellar-sphere-{seed}",
             stellar_rounds(boundary_sphere(3), 2, rng).derived_subdivision()),
        ]
        arrangements = [
            (f"planes-r3-{seed}", random_hyperplanes(rng, 7, 3, 2)),
            (f"hyperplanes-r4-{seed}", random_hyperplanes(rng, 6, 4, 2)),
            (f"lines-r3-{seed}", random_flats(rng, 4, 3, 1, 1)),
            (f"codim2-r4-{seed}", random_flats(rng, 3, 4, 2, 1)),
        ]
        for name, arr in arrangements:
            poset = intersection_poset(arr)
            out += [(f"{name}-lower-{i}", poset.lower_complex(i))
                    for i in range(poset.size())]
    return out


DENSE_ORACLE_COMPLEXES = dense_oracle_complexes()


class TestDenseHomologyOracle:
    @pytest.mark.parametrize("name,c", DENSE_ORACLE_COMPLEXES,
                             ids=[name for name, _ in DENSE_ORACLE_COMPLEXES])
    def test_every_degree_matches_dense_path(self, name, c):
        degrees = range(-2, c.dim + 3)
        assert [betti_reduced_homology(c, k) for k in degrees] == \
            [ref_reduced_betti(c, k) for k in degrees]
