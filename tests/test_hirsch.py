"""Dual-graph path construction on normal flag complexes.

BFS distances from networkx serve as the oracle for necklace lengths and
diameter cross-checks.  The path construction is also compared, path
for path and error for error, with a test-local copy of the recursion
that builds and relabels one link complex per step.
"""

import gc
import itertools
import random
import re
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge import hirschpath
from polyforge.complexcore import SimplicialComplex, bfs, boundary_sphere
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

    @pytest.mark.parametrize("bad", [(0, 1), (0, 0, 1)])
    def test_rejects_ridge_and_repeated_vertex(self, bad):
        c = boundary_sphere(3)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(bad))} is not a facet of the complex$"):
            combinatorial_segment(c, bad, (1, 2, 3))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(bad))} is not a facet of the complex$"):
            segment_to_vertex_set(c, bad, {3})

    @pytest.mark.parametrize("bad", [(0, 1), (0, 0, 1), (2, 1, 0), [0, 1, 2]])
    def test_validate_path_rejects_non_facets(self, bad):
        # a ridge, a repeated vertex, an unsorted facet and a list
        c = boundary_sphere(3)
        path = FacetPath(((0, 1, 2), bad), (0,), (0, 1))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(bad))} is not a facet$"):
            validate_path(c, path)

    def test_zero_dimensional(self):
        c = SimplicialComplex(3, [(0,), (1,), (2,)])
        p = combinatorial_segment(c, (0,), (2,))
        assert p.facets == ((0,), (2,))
        # one breakpoint per pearl plus the last facet, as in every path
        assert p.pearls == (0, 2) and p.breakpoints == (0, 1, 1)
        validate_path(c, p)

    def test_segment_builds_no_complex_and_keeps_only_the_link_index(
            self, monkeypatch):
        c = random_flag_sphere(random.Random(5), 4, 2)
        assert c._links is None
        c.vertices()  # reads the vertex index, which it builds once
        assert c._links is not None
        before = dict(vars(c))
        memo = len(c._links.skeletons)
        module_before = set(vars(hirschpath))
        built = []
        init = SimplicialComplex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
        for X, Y in [(c.facets[0], c.facets[-1]), (c.facets[7], c.facets[90])]:
            p = combinatorial_segment(c, X, Y)
            validate_path(c, p)
            segment_to_vertex_set(c, X, Y)
        assert built == []
        assert set(vars(hirschpath)) == module_before
        # the paths replace no attribute of the complex: the only state
        # they leave is the skeleton memo of its vertex index, which is
        # keyed by face bitmasks of the complex and dies with it
        assert set(vars(c)) == set(before)
        assert all(v is before[k] for k, v in vars(c).items())
        assert len(c._links.skeletons) > memo
        # each key is the bitmask of a face σ, and its skeleton that of lk(σ)
        for sigma, g in c._links.skeletons.items():
            assert type(sigma) is int and sigma >= 0
            face = _bits(sigma)
            assert c.contains_face(face)
            assert _neighbour_sets(g) == _skeleton(
                [v for v in f if v not in face]
                for f in c.facets if set(face) <= set(f))
        alive = weakref.ref(c)
        del c
        gc.collect()
        assert alive() is None


def ref_is_non_revisiting(path):
    """The positions-based test: each vertex's facet indices form one
    run of consecutive integers."""
    hits = {}
    for i, f in enumerate(path.facets):
        for v in f:
            hits.setdefault(v, []).append(i)
    return all(positions[-1] - positions[0] + 1 == len(positions)
               for positions in hits.values())


@st.composite
def facet_sequences(draw):
    """(path, extras): each of up to 10 vertices put on one stretch of
    facets, then `extras` of them put into one more facet each, which
    may or may not make a revisit."""
    n = draw(st.integers(1, 8))
    facets = [set() for _ in range(n)]
    for v in range(draw(st.integers(1, 10))):
        a, b = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        for i in range(a, b + 1):
            facets[i].add(v)
    extras = draw(st.integers(0, 2))
    for _ in range(extras):
        facets[draw(st.integers(0, n - 1))].add(draw(st.integers(0, 9)))
    return FacetPath(tuple(tuple(sorted(f)) for f in facets), (), (0,)), extras


def ref_validate_path(c, path):
    """The set-based check: facets, then each consecutive pair sharing d
    vertices, then the breakpoint count and each pearl in its facet."""
    d, facets = c.dim, set(c.facets)
    for f in path.facets:
        if not (isinstance(f, tuple) and f in facets):
            raise ValueError(f"{f} is not a facet")
    for f1, f2 in zip(path.facets, path.facets[1:]):
        if len(set(f1) & set(f2)) != d:
            raise ValueError(f"facets {f1} and {f2} do not share a ridge")
    if len(path.breakpoints) != len(path.pearls) + 1:
        raise ValueError("breakpoint count must exceed pearl count by one")
    for j, xj in enumerate(path.pearls):
        if xj not in path.facets[path.breakpoints[j]]:
            raise ValueError(f"pearl {xj} missing from its breakpoint facet")


class TestValidatePathOracle:
    def test_matches_set_intersections(self):
        # random facet walks of a flag sphere: dual-graph steps, repeated
        # facets and jumps, with pearls sometimes off their facets
        rng = random.Random("validate path oracle")
        c = random_flag_sphere(rng, 3, 2)
        nbrs = c.dual_graph()
        messages = set()
        for _ in range(400):
            i = rng.randrange(len(c.facets))
            walk = [i]
            for _ in range(rng.randrange(6)):
                step = rng.random()
                i = (rng.choice(sorted(nbrs[i])) if step < 0.8
                     else i if step < 0.9 else rng.randrange(len(c.facets)))
                walk.append(i)
            facets = tuple(c.facets[k] for k in walk)
            pearls = tuple(rng.choice(facets[0] + (99,)) for _ in range(rng.randrange(2)))
            breakpoints = (0,) * len(pearls) + (len(facets) - 1,) * rng.choice((1, 1, 2))
            path = FacetPath(facets, pearls, breakpoints)
            want = outcome(lambda: ref_validate_path(c, path))
            assert outcome(lambda: validate_path(c, path)) == want
            messages.add(want[-1].split()[0] if want[0] == "raised" else "ok")
        assert messages == {"ok", "facets", "breakpoint", "pearl"}

    def test_messages(self):
        c = SimplicialComplex(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        for path, message in [
            (FacetPath(((0, 1, 2), (2, 3, 4)), (), (1,)),
             "facets (0, 1, 2) and (2, 3, 4) do not share a ridge"),
            (FacetPath(((0, 1, 2), (0, 1, 2)), (), (1,)),
             "facets (0, 1, 2) and (0, 1, 2) do not share a ridge"),
            (FacetPath(((0, 1, 2), (1, 2, 3)), (0,), (1,)),
             "breakpoint count must exceed pearl count by one"),
            (FacetPath(((0, 1, 2), (1, 2, 3)), (3,), (0, 1)),
             "pearl 3 missing from its breakpoint facet"),
        ]:
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                validate_path(c, path)
        validate_path(c, FacetPath(((0, 1, 2), (1, 2, 3), (2, 3, 4)), (0,), (0, 2)))


class TestNonRevisiting:
    @settings(max_examples=300, deadline=None)
    @given(facet_sequences())
    def test_mask_pass_matches_positions(self, case):
        path, extras = case
        want = ref_is_non_revisiting(path)
        assert is_non_revisiting(path) == want
        assert want or extras

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


class TestDiameterOracle:
    @pytest.mark.parametrize("facets", [
        [(0, 1, 2)],                         # one facet
        [(0, 1, 2), (1, 2, 3)],              # two facets sharing a ridge
        [(0, 1, 2), (2, 3, 4)],              # two facets sharing a vertex
        [(0, 1), (1, 2), (3, 4)],            # two components
    ])
    def test_small_cases_match_networkx(self, facets):
        c = SimplicialComplex(5, facets)
        g = nx.Graph()
        g.add_nodes_from(range(len(c.facets)))
        g.add_edges_from(
            (i, j) for i, j in itertools.combinations(range(len(c.facets)), 2)
            if len(set(c.facets[i]) & set(c.facets[j])) == c.dim)
        if nx.is_connected(g):
            assert dual_diameter(c) == nx.diameter(g)
        else:
            with pytest.raises(ValueError, match="^dual graph is disconnected$"):
                dual_diameter(c)

    def test_empty_complex_raises(self):
        with pytest.raises(ValueError, match="^empty complex has no diameter$"):
            dual_diameter(SimplicialComplex(0, []))


# ---------------------------------------------------------------------------
# reference: the recursion on relabelled link complexes, one new complex
# per step, with every facet lifted back through the old vertex ids


def ref_vertex_distance(c, x, targets):
    targets = set(targets)
    if not targets:
        raise ValueError("empty target set")
    g = c.one_skeleton()
    if x not in g:
        raise ValueError(f"vertex {x} not in complex")
    dist = bfs(g, [x])
    reached = [y for y in targets if y in dist]
    if not reached:
        raise ValueError(f"vertex {x} cannot reach the target set")
    d = min(dist[y] for y in reached)
    return d, {y for y in reached if dist[y] == d}


def ref_part1(c, X, targets):
    d = c.dim
    if d == 0:
        if set(X) & targets:
            return [X], [min(set(X) & targets)], [0]
        live = sorted(v for v in targets if c.contains_face((v,)))
        if not live:
            raise ValueError("target set missing from complex")
        return [X, (live[0],)], [X[0], live[0]], [0, 1]

    g = c.one_skeleton()
    dist = bfs(g, g.keys() & targets)
    missing = [v for v in X if v not in dist]
    if missing:
        raise ValueError(f"vertices {missing} cannot reach the target set")
    x = min(X, key=lambda v: (dist[v], v))
    current_targets = ref_vertex_distance(c, x, targets)[1]

    facets = [X]
    pearls = [x]
    chis = [0]
    Xi = X
    while not (set(Xi) & targets):
        dist_i = bfs(g, current_targets)
        dxi = dist_i[x]
        tilde = sorted(y for y in g[x]
                       if dist_i.get(y, -2) + 1 == dxi)
        if not tilde:
            raise ValueError("no descent neighbour; complex not connected enough")
        lk, old = c.link((x,))
        index = {v: i for i, v in enumerate(old)}
        sub_start = tuple(sorted(index[v] for v in Xi if v != x))
        sub_target = frozenset(index[y] for y in tilde)
        sub_facets, _, _ = ref_part1(lk, sub_start, sub_target)
        lifted = [tuple(sorted([old[v] for v in f] + [x]))
                  for f in sub_facets]
        assert lifted[0] == Xi
        facets.extend(lifted[1:])
        Xi = lifted[-1]
        x = min(set(Xi) & set(tilde))
        current_targets = ref_vertex_distance(c, x, current_targets)[1]
        pearls.append(x)
        chis.append(len(facets) - 1)
    return facets, pearls, chis


def ref_require_facet(c, f):
    t = tuple(sorted(f))
    if t not in c.facets:
        raise ValueError(f"{f} is not a facet of the complex")
    return t


def ref_segment_to_vertex_set(c, X, targets):
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = ref_require_facet(c, X)
    targets = frozenset(targets)
    if not targets:
        raise ValueError("empty target set")
    facets, pearls, chis = ref_part1(c, X, targets)
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def ref_combinatorial_segment(c, X, Y):
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = ref_require_facet(c, X)
    Y = ref_require_facet(c, Y)
    if c.dim == 0:
        if X == Y:
            return FacetPath((X,), (X[0],), (0, 0))
        return FacetPath((X, Y), (X[0], Y[0]), (0, 1))

    facets, pearls, chis = ref_part1(c, X, frozenset(Y))
    xl = pearls[-1]
    last = facets[-1]
    if xl not in last or xl not in Y:
        raise RuntimeError("final pearl does not join the two facets")
    lk, old = c.link((xl,))
    index = {v: i for i, v in enumerate(old)}
    sub_X = tuple(sorted(index[v] for v in last if v != xl))
    sub_Y = tuple(sorted(index[v] for v in Y if v != xl))
    sub = ref_combinatorial_segment(lk, sub_X, sub_Y)
    lifted = [tuple(sorted([old[v] for v in f] + [xl])) for f in sub.facets]
    assert lifted[0] == last
    facets = facets + lifted[1:]
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def outcome(fn):
    """("path", FacetPath) or ("raised", exception type, message)."""
    try:
        return ("path", fn())
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))


def criterion_6_complexes():
    """The complexes of the release gate's path suite, in its order."""
    rng = random.Random(416)
    suite = [boundary_sphere(3).derived_subdivision(),
             boundary_sphere(4).derived_subdivision()]
    while len(suite) < 32:
        base = 3 if (len(suite) - 2) % 3 else 2
        suite.append(random_flag_sphere(rng, base, rng.randrange(1, 5)))
    return suite


CRITERION_6 = []


# The strategies below draw one seed and make every choice from it, so
# that the examples spread over the large complexes and far facet pairs
# instead of shrinking toward the first ones.

@st.composite
def criterion_6_complex(draw):
    if not CRITERION_6:
        CRITERION_6.extend(criterion_6_complexes())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.choice(CRITERION_6)


@st.composite
def derived_spheres(draw):
    """Stellar subdivisions of the boundary of the 3- or 4-simplex, then
    a derived subdivision: flag 2- and 3-spheres."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    c = boundary_sphere(rng.choice([3, 4, 4]))
    for _ in range(rng.randrange(4)):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c.derived_subdivision()


path_complexes = st.one_of(criterion_6_complex(), derived_spheres(),
                           flag_spheres())


class TestRecursionOracle:
    @settings(max_examples=40, deadline=None)
    @given(path_complexes, st.data())
    def test_segment_matches_reference(self, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        X, Y = rng.choice(c.facets), rng.choice(c.facets)
        if rng.randrange(10) == 0:
            X = X[1:]  # a ridge, not a facet
        assert (outcome(lambda: combinatorial_segment(c, X, Y))
                == outcome(lambda: ref_combinatorial_segment(c, X, Y)))

    @settings(max_examples=40, deadline=None)
    @given(path_complexes, st.data())
    def test_vertex_set_segment_matches_reference(self, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        X = rng.choice(c.facets)
        # ids past the last vertex are missing from the complex
        targets = {rng.randrange(c.num_vertices + 3)
                   for _ in range(rng.randrange(5))}
        assert (outcome(lambda: segment_to_vertex_set(c, X, targets))
                == outcome(lambda: ref_segment_to_vertex_set(c, X, targets)))

    def test_criterion_6_pairs_match_reference(self):
        suite = criterion_6_complexes()
        # every facet pair of the two fixed spheres of the suite
        for c in suite[:2]:
            for X in c.facets[::24]:
                for Y in c.facets:
                    assert (combinatorial_segment(c, X, Y)
                            == ref_combinatorial_segment(c, X, Y))
        # and 20 seeded ordered pairs on each of its 30 random spheres
        for k, c in enumerate(suite[2:]):
            rng = random.Random(f"criterion-6 oracle {k}")
            for _ in range(20):
                X, Y = rng.choice(c.facets), rng.choice(c.facets)
                assert (combinatorial_segment(c, X, Y)
                        == ref_combinatorial_segment(c, X, Y)), (k, X, Y)

    @settings(max_examples=60, deadline=None)
    @given(random_pure(), st.data())
    def test_pure_complexes_raise_like_reference(self, c, data):
        # pinched and disconnected complexes: the same paths, and errors
        # of the same type
        n = len(c.facets)
        X = c.facets[data.draw(st.integers(0, n - 1))]
        Y = c.facets[data.draw(st.integers(0, n - 1))]
        got = outcome(lambda: combinatorial_segment(c, X, Y))
        want = outcome(lambda: ref_combinatorial_segment(c, X, Y))
        assert got[:2] == want[:2]

    @settings(max_examples=60, deadline=None)
    @given(random_pure(), st.data())
    def test_pure_complexes_vertex_set_raise_like_reference(self, c, data):
        # the vertex-set entry point on the same complexes, with targets
        # that may miss the complex or a component of it
        X = c.facets[data.draw(st.integers(0, len(c.facets) - 1))]
        targets = data.draw(st.sets(st.integers(0, c.num_vertices + 2),
                                    max_size=4))
        got = outcome(lambda: segment_to_vertex_set(c, X, targets))
        want = outcome(lambda: ref_segment_to_vertex_set(c, X, targets))
        assert got[:2] == want[:2]


# ---------------------------------------------------------------------------
# the link skeletons against their definitions: each link's 1-skeleton in
# the vertex index, the BFS run on it, and segments whose index is shared
# between calls


def _skeleton(faces) -> dict:
    """Vertex -> set of the vertices sharing a face with it, one key per
    vertex of the faces (each face a sequence)."""
    out: dict[int, set] = {}
    for f in faces:
        for v in f:
            out.setdefault(v, set()).update(f)
    for v, nbrs in out.items():
        nbrs.discard(v)
    return out


def _bits(mask: int) -> list:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _neighbour_sets(g) -> dict:
    """A view skeleton, vertex -> bitmask of neighbours, as vertex -> set
    of neighbours."""
    return {v: set(_bits(n)) for v, n in g.items()}


def _search_distances(search, rng) -> dict:
    """A search asked for the depth of every vertex of its graph in a
    shuffled order, as vertex -> hops, with None for the vertices it
    cannot reach."""
    order = sorted(search.g)
    rng.shuffle(order)
    return {v: search.depth(1 << v) for v in order}


def _random_face(c, rng) -> tuple:
    f = rng.choice(c.facets)
    return tuple(v for v in f if rng.randrange(2))


link_complexes = st.one_of(random_pure(), flag_spheres(), criterion_6_complex())


class TestLinkViewOracle:
    @settings(max_examples=60, deadline=None)
    @given(link_complexes, st.data())
    def test_view_skeleton_is_skeleton_of_residues(self, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        skeleton = c._link_index().skeleton
        for sigma in [()] + [_random_face(c, rng) for _ in range(6)]:
            want = _skeleton([v for v in f if v not in sigma]
                             for f in c.facets if set(sigma) <= set(f))
            assert _neighbour_sets(skeleton(_mask(sigma))) == want
        assert all(type(k) is int for k in c._links.skeletons)

    @settings(max_examples=60, deadline=None)
    @given(link_complexes, st.data())
    def test_view_bfs_matches_bfs(self, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        skeleton = c._link_index().skeleton
        for _ in range(6):
            sigma = _mask(_random_face(c, rng))
            g = _neighbour_sets(skeleton(sigma))
            if not g:
                continue
            sources = rng.sample(sorted(g), rng.randrange(1, min(4, len(g)) + 1))
            hops = bfs(g, sources)
            search = hirschpath._Search(skeleton(sigma), _mask(sources))
            assert (_search_distances(search, rng)
                    == {v: hops.get(v) for v in g})
            # a vertex set's depth is its nearest vertex's, also once the
            # search has grown past it
            for _ in range(4):
                vs = rng.sample(sorted(g), rng.randrange(1, len(g) + 1))
                near = [hops[v] for v in vs if v in hops]
                assert search.depth(_mask(vs)) == (min(near) if near else None)

    @settings(max_examples=20, deadline=None)
    @given(path_complexes, path_complexes, st.data())
    def test_shared_views_do_not_depend_on_call_order(self, c1, c2, data):
        # segments on two complexes, interleaved in a shuffled order, and
        # the same segments on a copy of the first complex built afresh
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        calls = [(c, rng.choice(c.facets), rng.choice(c.facets))
                 for c in (c1, c2) for _ in range(5)]
        rng.shuffle(calls)
        want = [ref_combinatorial_segment(c, X, Y) for c, X, Y in calls]
        assert [combinatorial_segment(c, X, Y) for c, X, Y in calls] == want
        copy = SimplicialComplex(c1.num_vertices, c1.facets)
        for (c, X, Y), path in reversed(list(zip(calls, want))):
            if c is c1:
                assert combinatorial_segment(copy, X, Y) == path
        for c, X, Y in calls:
            targets = {rng.randrange(c.num_vertices) for _ in range(3)}
            assert (outcome(lambda: segment_to_vertex_set(c, X, targets))
                    == outcome(lambda: ref_segment_to_vertex_set(c, X, targets)))


class TestOneSearchPerLinkCall:
    def test_every_link_call_builds_at_most_one_search(self, monkeypatch):
        # every pearl of a link call reads its descent set off the one
        # search from the call's targets; frames[-1] counts the searches
        # built by the innermost call in progress
        frames, per_call = [], []
        search, part1 = hirschpath._Search, hirschpath._part1

        def counted_search(g, sources):
            frames[-1] += 1
            return search(g, sources)

        def counted_part1(*args):
            frames.append(0)
            try:
                return part1(*args)
            finally:
                per_call.append(frames.pop())

        monkeypatch.setattr(hirschpath, "_Search", counted_search)
        monkeypatch.setattr(hirschpath, "_part1", counted_part1)
        pearls = []
        for k, c in enumerate(criterion_6_complexes()[:12]):
            rng = random.Random(f"one search per link call {k}")
            for _ in range(10):
                X, Y = rng.choice(c.facets), rng.choice(c.facets)
                targets = {rng.randrange(c.num_vertices) for _ in range(3)}
                pearls.append(len(combinatorial_segment(c, X, Y).pearls))
                pearls.append(len(segment_to_vertex_set(c, X, targets).pearls))
        assert max(pearls) > 2  # paths that walk several pearls
        assert per_call and max(per_call) == 1
