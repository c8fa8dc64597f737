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

from polyforge import morse
from polyforge.complexcore import (
    FacePoset,
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
from test_golden import BALL, SPHERE


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

    def test_critical_faces_of_cubical_complex(self):
        # the dimensions come from the complex's own faces
        assert critical_faces(solid_cube(2), MorseMatching(())) == {
            0: [(0,), (1,), (2,), (3,)],
            1: [(0, 1), (0, 2), (1, 3), (2, 3)],
            2: [(0, 1, 2, 3)],
        }

    @pytest.mark.parametrize("call", [
        lambda p: validate_matching(p, MorseMatching(())),
        lambda p: critical_faces(p, MorseMatching(())),
        lambda p: collapse_search(p),
        lambda p: out_j_collapse(p, [(0,)], 0),
        lambda p: deformation_trace(p, [(0,)], MorseMatching(())),
    ])
    def test_face_poset_is_not_a_complex(self, call):
        with pytest.raises(TypeError, match="unsupported complex type"):
            call(FacePoset.from_simplicial(simplex_complex(2)))


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


def ref_acyclic(poset, matched_up) -> bool:
    """Kahn's algorithm over the whole Hasse diagram, arrows down and the
    matched ones reversed."""
    succ = [[i for i in covered if matched_up.get(i) != j]
            for j, covered in enumerate(poset.down)]
    for i, j in matched_up.items():
        succ[i].append(j)
    indegree = [0] * len(succ)
    for out in succ:
        for w in out:
            indegree[w] += 1
    ready = [u for u, k in enumerate(indegree) if k == 0]
    for u in ready:
        for w in succ[u]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return len(ready) == len(succ)


def cube_grid(shape) -> CubicalComplex:
    """The cubical complex of a box of unit cubes, one cube per cell, its
    corners in bit order."""
    dim = len(shape)
    strides = [1]
    for k in shape[:-1]:
        strides.append(strides[-1] * (k + 1))
    cubes = []
    for cell in itertools.product(*(range(k) for k in shape)):
        corners = [sum((x + (pos >> a & 1)) * s
                       for a, (x, s) in enumerate(zip(cell, strides)))
                   for pos in range(1 << dim)]
        cubes.append((dim, corners))
    count = 1
    for k in shape:
        count *= k + 1
    return CubicalComplex(count, cubes)


class TestAcyclicOracle:
    def test_matches_kahn_on_the_whole_diagram(self):
        rng = random.Random("acyclic oracle")
        worlds = {
            "simplicial": [simplex_complex(3), boundary_sphere(3),
                           simplex_complex(2).derived_subdivision(),
                           random_subdivided_ball(rng)],
            "cubical": [solid_cube(2), solid_cube(3), cube_grid((3, 2)),
                        cube_grid((2, 2, 1))],
        }
        for kind, complexes in worlds.items():
            seen = {True: 0, False: 0}
            for trial in range(400):
                poset = complexes[trial % len(complexes)].face_poset()
                covers = [(i, j) for j, down in enumerate(poset.down) for i in down]
                rng.shuffle(covers)
                keep = rng.random()
                matched_up, used = {}, set()
                for i, j in covers:
                    if i not in used and j not in used and rng.random() < keep:
                        matched_up[i] = j
                        used.update((i, j))
                want = ref_acyclic(poset, matched_up)
                assert morse._acyclic(poset, matched_up) is want
                seen[want] += 1
            assert min(seen.values()) >= 40, (kind, seen)


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


class TestSearchExhausted:
    def test_sphere_reports_one_node(self):
        # no face of a sphere is ever free, so the search has tried
        # everything after one node
        with pytest.raises(SearchExhausted) as info:
            collapse_search(boundary_sphere(3))
        assert info.value.nodes == 1
        assert str(info.value) == "no collapse exists after 1 node"

    def test_budget_bounds_the_search(self):
        # a triangle needs four nodes
        with pytest.raises(SearchExhausted) as info:
            collapse_search(simplex_complex(2), budget=3)
        assert info.value.nodes == 3
        assert str(info.value) == "collapse budget exhausted after 3 nodes"

    def test_zero_budget_visits_no_node(self):
        for call in (lambda: collapse_search(simplex_complex(0), budget=0),
                     lambda: out_j_collapse(simplex_complex(2),
                                            boundary_sphere(2), 1, budget=0)):
            with pytest.raises(SearchExhausted) as info:
                call()
            assert info.value.nodes == 0
            assert str(info.value) == "collapse budget exhausted after 0 nodes"

    def test_backtracking_search_spends_its_budget(self):
        c = random_subdivided_ball(random.Random(3), rounds=1)
        facet = c.facets[0]
        sphere = SimplicialComplex(c.num_vertices,
                                   list(itertools.combinations(facet, 3)))
        # a ball never collapses onto a sphere
        with pytest.raises(SearchExhausted) as info:
            collapse_search(c, target=sphere, budget=100)
        assert info.value.nodes == 100
        assert str(info.value) == "collapse budget exhausted after 100 nodes"

    def test_complete_search_proves_failure(self):
        # the one depth-first pass, with its memo of dead states, tries
        # every collapse of the ball onto the sphere in 137 nodes
        c = random_subdivided_ball(random.Random(3), rounds=1)
        sphere = SimplicialComplex(c.num_vertices, list(
            itertools.combinations(c.facets[0], 3)))
        with pytest.raises(SearchExhausted) as info:
            collapse_search(c, target=sphere)
        assert info.value.nodes == 137
        assert str(info.value) == (
            "no collapse exists after 137 nodes")

    def test_out_j_reports_nodes(self):
        # a circle onto itself needs one crossing through an edge, but no
        # face of a circle is free
        with pytest.raises(SearchExhausted) as info:
            out_j_collapse(boundary_sphere(2), boundary_sphere(2), 1, budget=5000)
        assert info.value.nodes == 1
        assert str(info.value) == (
            "no constrained collapse exists after 1 node")

    def test_infeasible_crossing_count_visits_no_node(self):
        # the golden ball onto the circle of its triangle (0, 4, 10) with
        # j = 0 needs (-1)^0 (chi - 1) = -1 crossings
        ball = SimplicialComplex.from_json(BALL)
        circle = SimplicialComplex(ball.num_vertices, [(0, 4), (0, 10), (4, 10)])
        with pytest.raises(SearchExhausted) as info:
            out_j_collapse(ball, circle, 0, budget=1000)
        assert info.value.nodes == 0
        assert str(info.value) == (
            "a constrained collapse needs -1 crossings of 0-faces and the "
            "subcomplex has 3; none found after 0 nodes")
        # more crossings than faces: two points need one crossing of a
        # triangle, and the empty subcomplex one of an edge
        for d, j in (([(0,), (1,)], 2), ([], 1)):
            with pytest.raises(SearchExhausted) as info:
                out_j_collapse(simplex_complex(2), d, j, budget=1000)
            assert info.value.nodes == 0
            assert str(info.value).startswith(
                f"a constrained collapse needs 1 crossings of {j}-faces")


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

    def test_golden_ball_onto_its_boundary_sphere(self):
        # one crossing is all that chi(sphere) = 2 allows; a search that
        # crossed again had 10^6 nodes of dead ends to try
        ball = SimplicialComplex.from_json(BALL)
        sphere = SimplicialComplex.from_json(SPHERE)
        m, ledger = out_j_collapse(ball, sphere, 2)
        assert len(m.pairs) == 74
        assert ledger == [(0, 4, 10)]
        assert validate_matching(ball, m)

    @pytest.mark.parametrize("shape", ["facet", "boundary"])
    def test_small_balls_collapse_within_a_small_budget(self, shape):
        rng = random.Random(f"out-j {shape}")
        for _ in range(200):
            c = random_subdivided_ball(rng, rounds=rng.randrange(1, 3))
            facet = c.facets[rng.randrange(len(c.facets))]
            faces = [facet] if shape == "facet" else list(
                itertools.combinations(facet, 3))
            d = SimplicialComplex(c.num_vertices, faces)
            m, ledger = out_j_collapse(c, d, 2, budget=400)
            assert validate_matching(c, m)
            assert len(ledger) == (-1) ** 2 * (euler(d) - 1)

    def test_subcomplex_must_be_closed_under_faces(self):
        c = simplex_complex(2)
        with pytest.raises(ValueError, match="not closed under faces"):
            out_j_collapse(c, [(0,), (0, 1)], 1)
        # the same faces with the missing vertex are a subcomplex
        m, ledger = out_j_collapse(c, [(0,), (1,), (0, 1)], 1)
        assert validate_matching(c, m) and ledger == []

    def test_faces_missing_from_complex_are_named(self):
        # a complex d is looked up by its facets, so only those are named;
        # a list of face keys names its own missing keys
        ball = SimplicialComplex.from_json(BALL)
        far = SimplicialComplex(40, [(0, 4, 39)])
        for call, what in ((lambda: collapse_search(ball, target=far), "target"),
                           (lambda: out_j_collapse(ball, far, 2), "subcomplex"),
                           (lambda: deformation_trace(ball, far, MorseMatching(())),
                            "subcomplex")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == (
                f"{what} faces not in complex: [(0, 4, 39)]")
        with pytest.raises(ValueError) as info:
            collapse_search(ball, target=[(0, 4), (4, 39), (0, 39), (39,)])
        assert str(info.value) == (
            "target faces not in complex: [(0, 39), (4, 39), (39,)]")

    @pytest.mark.parametrize("seed", range(4))
    def test_subcomplex_ids_are_those_of_its_own_faces(self, seed):
        # the downward closure of d's facets in c's poset against the
        # keys of d's own face poset
        rng = random.Random(f"subcomplex ids {seed}")
        ball, cube = random_subdivided_ball(rng, rounds=1), solid_cube(3)
        cases = [
            (ball, SimplicialComplex(ball.num_vertices, rng.sample(
                ball.face_poset().elements, rng.randrange(1, 8)))),
            (cube, CubicalComplex(cube.num_vertices, rng.sample(
                sorted(cube.faces().values()), rng.randrange(1, 5)))),
            (ball, SimplicialComplex(ball.num_vertices, [])),
        ]
        for c, d in cases:
            index = c.face_poset().index
            own = (FacePoset.from_simplicial(d) if isinstance(d, SimplicialComplex)
                   else FacePoset.from_cubical(d))
            assert morse._ids_in(c.face_poset(), d, "subcomplex") == {
                index[k] for k in own.elements}


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


# ---------------------------------------------------------------------------
# Reference search: the strict upward-closure table and a full rescan of
# every live face at every node, with a memo of every visited state.  The
# library's counter-based search must agree with it node for node.

class RefDiagram:
    def __init__(self, poset):
        self.key_of = list(poset.elements)
        self.id_of = {k: i for i, k in enumerate(poset.elements)}
        self.dims = list(poset.dims)
        n = len(self.key_of)
        self.up = [set() for _ in range(n)]
        for j, covered in enumerate(poset.down):
            for i in covered:
                self.up[i].add(j)
        self.above = [None] * n
        for i in sorted(range(n), key=lambda t: -self.dims[t]):
            acc = set()
            for j in self.up[i]:
                acc.add(j)
                acc |= self.above[j]
            self.above[i] = acc


def ref_poset(c):
    if isinstance(c, SimplicialComplex):
        return FacePoset.from_simplicial(c)
    return FacePoset.from_cubical(c)


def ref_keys(d):
    if isinstance(d, SimplicialComplex):
        return {f for fs in d.faces().values() for f in fs}
    return {tuple(f) for f in d}


class RefExhausted(Exception):
    pass


def ref_backtrack(diag, target_ids, pair_filter, budget, end):
    """("found", id pairs) or ("exhausted", nodes visited) for one
    depth-first search; pair_filter(state, i, j) sees the live faces."""
    seen = set()
    nodes = 0

    def free_pairs(state):
        out = []
        for i in sorted(state, key=lambda t: (diag.dims[t], diag.key_of[t])):
            if target_ids is not None and i in target_ids:
                continue
            above_live = state & diag.above[i]
            if len(above_live) == 1:
                j = next(iter(above_live))
                if target_ids is not None and j in target_ids:
                    continue
                if pair_filter and not pair_filter(state, i, j):
                    continue
                out.append((i, j))
        return out

    def enter(state):
        nonlocal nodes
        if nodes == budget:
            raise RefExhausted
        nodes += 1
        if end(state):
            return True
        key = frozenset(state)
        if key in seen:
            stack.append((state, (), [0]))
            return False
        seen.add(key)
        stack.append((state, free_pairs(state), [0]))
        return False

    stack = []
    pairs = []
    try:
        if enter(frozenset(range(len(diag.key_of)))):
            return ("found", pairs)
        while stack:
            state, cands, cursor = stack[-1]
            if cursor[0] >= len(cands):
                stack.pop()
                if pairs:
                    pairs.pop()
                continue
            i, j = cands[cursor[0]]
            cursor[0] += 1
            pairs.append((i, j))
            if enter(state - {i, j}):
                return ("found", pairs)
    except RefExhausted:
        pass
    return ("exhausted", nodes)


def ref_collapse_search(c, target=None, budget=10 ** 6):
    diag = RefDiagram(ref_poset(c))
    if target is None:
        target_ids = None
        end = lambda state: len(state) == 1
    else:
        target_ids = {diag.id_of[k] for k in ref_keys(target)}
        end = lambda state: state == target_ids
    out = ref_backtrack(diag, target_ids, None, budget, end)
    if out[0] == "found":
        return ("found", MorseMatching(tuple(
            (diag.key_of[i], diag.key_of[j]) for i, j in out[1])))
    return out


def ref_out_j_collapse(c, d, j, budget=10 ** 6, chi_rule=True):
    """A crossing pair needs an inner face of dimension j and, under
    chi_rule, (-1)^j (chi(live part of d) - 1) > 0 before it; without
    chi_rule it is the rule that crossed on past the last crossing a
    collapse can make."""
    diag = RefDiagram(ref_poset(c))
    d_ids = {diag.id_of[k] for k in ref_keys(d)}

    def pair_ok(state, i, jj):
        if i in d_ids and jj not in d_ids:
            chi = sum((-1) ** diag.dims[f] for f in state & d_ids)
            return diag.dims[i] == j and (
                not chi_rule or (-1) ** j * (chi - 1) > 0)
        return True

    end = lambda state: len(state) == 1 and next(iter(state)) in d_ids
    out = ref_backtrack(diag, None, pair_ok, budget, end)
    if out[0] == "exhausted":
        return out
    pairs = tuple((diag.key_of[i], diag.key_of[jj]) for i, jj in out[1])
    ledger = [diag.key_of[i] for i, jj in out[1]
              if i in d_ids and jj not in d_ids]
    return ("found", (MorseMatching(pairs), ledger))


def ref_deformation_trace(c, d, m):
    if validate_matching(c, m) is False:
        raise ValueError("matching has a gradient cycle")
    diag = RefDiagram(ref_poset(c))
    d_keys = ref_keys(d)
    d_ids = {diag.id_of[k] for k in d_keys if k in diag.id_of}
    if len(d_ids) != len(d_keys):
        raise ValueError("subcomplex faces not in complex")
    partner = {}
    for low, high in m.pairs:
        i, j = diag.id_of[low], diag.id_of[high]
        if (i in d_ids) != (j in d_ids):
            raise ValueError(
                f"pair ({low}, {high}) crosses the subcomplex boundary")
        partner[i] = j
        partner[j] = i
    live = set(range(len(diag.key_of)))
    events = []
    while live != d_ids:
        collapse_cand = []
        attach_cand = []
        for i in live:
            if i in d_ids:
                continue
            above_live = live & diag.above[i]
            if not above_live and i not in partner:
                attach_cand.append(i)
            elif len(above_live) == 1 and partner.get(i) in above_live:
                collapse_cand.append(i)
        if collapse_cand:
            i = min(collapse_cand, key=lambda t: (diag.dims[t], diag.key_of[t]))
            j = partner[i]
            live -= {i, j}
            events.append(("collapse", diag.key_of[i], diag.key_of[j]))
        elif attach_cand:
            i = min(attach_cand, key=lambda t: (diag.dims[t], diag.key_of[t]))
            live.discard(i)
            events.append(("attach", diag.dims[i], diag.key_of[i]))
        else:
            raise RuntimeError("trace is stuck; matching does not collapse onto d")
    return events


def ref_crossings_needed(d, j):
    """(-1)^j (chi(d) - 1), the crossings every out-j collapse onto a
    point of the simplicial subcomplex d makes, and d's count of
    j-faces; a count outside [0, faces] admits no collapse."""
    keys = ref_keys(d)
    chi = sum((-1) ** (len(f) - 1) for f in keys)
    return (-1) ** j * (chi - 1), sum(len(f) - 1 == j for f in keys)


def outcome(call):
    """("found", value) or ("exhausted", nodes) for a library search."""
    try:
        return ("found", call())
    except SearchExhausted as exc:
        return ("exhausted", exc.nodes)


def raised(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc))


@st.composite
def collapse_cases(draw):
    """A complex, an optional target inside it and a budget.

    Balls are stellar subdivisions of the 3-simplex, derived or not,
    the solid cube and its derived subdivision; spheres are simplex
    boundaries.  Targets range over a vertex, an edge, a closed facet
    and the boundary of a facet, which no ball collapses onto, so that
    the search backtracks until it runs out of budget.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["ball", "derived", "cube", "sphere"]))
    if kind == "ball":
        c = random_subdivided_ball(rng, rounds=draw(st.integers(0, 3)))
    elif kind == "derived":
        c = random_subdivided_ball(rng, rounds=draw(st.integers(0, 1)))
        c = c.derived_subdivision()
    elif kind == "cube":
        c = draw(st.sampled_from([solid_cube(2), solid_cube(3),
                                  solid_cube(2).derived_subdivision()]))
    else:
        c = boundary_sphere(draw(st.integers(2, 3)))
    target = None
    shape = draw(st.sampled_from(["none", "vertex", "edge", "facet", "boundary"]))
    if shape != "none" and isinstance(c, SimplicialComplex):
        facet = c.facets[rng.randrange(len(c.facets))]
        if shape == "vertex":
            target = SimplicialComplex(c.num_vertices, [facet[:1]])
        elif shape == "edge":
            target = SimplicialComplex(c.num_vertices, [facet[:2]])
        elif shape == "facet":
            target = SimplicialComplex(c.num_vertices, [facet])
        else:
            target = SimplicialComplex(c.num_vertices, list(
                itertools.combinations(facet, len(facet) - 1)))
    elif shape != "none":
        target = [(0,)]
    # a full budget only where the search cannot wander for long
    if draw(st.booleans()):
        budget = draw(st.integers(0, 400))
    elif target is None or kind in ("cube", "sphere") or (
            shape == "vertex" and kind == "ball"):
        budget = 10 ** 6
    else:
        budget = 3000
    return c, target, budget


@st.composite
def trace_cases(draw):
    """A ball or sphere, a closed face d of it, and part of a collapse
    matching: acyclic, so that the trace attaches the faces it leaves
    unmatched, and sometimes crossing d's boundary."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        c = random_subdivided_ball(rng, rounds=draw(st.integers(0, 2)))
        if len(c.facets) == 1 and draw(st.booleans()):
            c = c.derived_subdivision()  # the reference trace is quadratic
        body = c
    else:
        c = boundary_sphere(3)
        for _ in range(draw(st.integers(0, 2))):
            c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
        body = SimplicialComplex(c.num_vertices, c.facets[1:])
    found = outcome(lambda: collapse_search(body))
    pairs = found[1].pairs if found[0] == "found" else ()
    keep = draw(st.floats(0.0, 1.0))
    pairs = [p for p in pairs if rng.random() < keep]
    facet = c.facets[rng.randrange(len(c.facets))]
    d = SimplicialComplex(c.num_vertices,
                          [facet[:draw(st.integers(1, len(facet)))]])
    if draw(st.booleans()):
        d_keys = ref_keys(d)
        pairs = [(lo, hi) for lo, hi in pairs
                 if (lo in d_keys) == (hi in d_keys)]
    return c, d, MorseMatching(tuple(pairs))


def out_j_case(world, shape):
    """A one- or two-round ball and d, one of its facets or the boundary
    of one."""
    rng = random.Random(world)
    c = random_subdivided_ball(rng, rounds=rng.randrange(1, 3))
    facet = c.facets[rng.randrange(len(c.facets))]
    if shape == "facet":
        return c, SimplicialComplex(c.num_vertices, [facet])
    return c, SimplicialComplex(c.num_vertices,
                                list(itertools.combinations(facet, 3)))


class TestSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(collapse_cases())
    def test_collapse_search_matches_reference(self, case):
        c, target, budget = case
        got = outcome(lambda: collapse_search(c, target=target, budget=budget))
        want = ref_collapse_search(c, target=target, budget=budget)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
           st.sampled_from(["boundary", "facet"]), st.one_of(
               st.integers(0, 600), st.just(5000), st.just(10 ** 6)))
    def test_out_j_collapse_matches_reference(self, world, j, shape, budget):
        c, d = out_j_case(world, shape)
        if j != 2:
            budget = min(budget, 5000)  # the wrong dimension may never finish
        got = outcome(lambda: out_j_collapse(c, d, j, budget=budget))
        want = ref_out_j_collapse(c, d, j, budget=budget)
        need, faces = ref_crossings_needed(d, j)
        if 0 <= need <= faces:
            assert got == want
        else:
            # the reference searches and finds nothing; the library
            # fails before its first node
            assert want[0] == "exhausted" and got == ("exhausted", 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
           st.sampled_from(["boundary", "facet"]), st.integers(1, 2000))
    def test_out_j_collapse_keeps_every_collapse_of_the_crossing_rule(
            self, world, j, shape, budget):
        # the rule that let a search cross past the last crossing: when
        # its depth-first search finds a collapse within the budget, the
        # search that stops crossing finds the same one
        c, d = out_j_case(world, shape)
        want = ref_out_j_collapse(c, d, j, budget=budget, chi_rule=False)
        if want[0] == "found":
            assert outcome(lambda: out_j_collapse(c, d, j, budget=budget)) == want

    @pytest.mark.parametrize("world", range(4))
    def test_derived_balls_match_reference(self, world):
        rng = random.Random(world)
        c = random_subdivided_ball(rng, rounds=1 + world % 2).derived_subdivision()
        vertex = SimplicialComplex(c.num_vertices, [c.facets[-1][:1]])
        for target in (None, vertex):
            got = outcome(lambda: collapse_search(c, target=target))
            assert got == ref_collapse_search(c, target=target)
            assert got[0] == "found"
        b = random_subdivided_ball(rng, rounds=2)
        facet = b.facets[0]
        d = SimplicialComplex(b.num_vertices, list(itertools.combinations(facet, 3)))
        got = outcome(lambda: out_j_collapse(b, d, 2))
        assert got == ref_out_j_collapse(b, d, 2)
        assert got[0] == "found"

    def test_out_j_exhaustion_matches_reference(self):
        # a ball onto the boundary of a facet through a vertex: one
        # crossing is needed, and the search proves in 137 nodes that
        # none works
        c, d = out_j_case(1, "boundary")
        for budget in (0, 1, 7, 136, 137, 5000):
            got = outcome(lambda: out_j_collapse(c, d, 0, budget=budget))
            want = ref_out_j_collapse(c, d, 0, budget=budget)
            assert got == ("exhausted", min(budget, 137))
            assert got == want
        # a triangle onto its circle through a triangle needs -1
        # crossings: the reference exhausts every budget, the library
        # visits no node
        c, d = simplex_complex(2), boundary_sphere(2)
        for budget in (0, 1, 7, 5000):
            want = ref_out_j_collapse(c, d, 2, budget=budget)
            assert want[0] == "exhausted"
            assert outcome(lambda: out_j_collapse(c, d, 2, budget=budget)) == (
                "exhausted", 0)

    @settings(max_examples=40, deadline=None)
    @given(collapse_cases())
    def test_trace_of_found_collapse_matches_reference(self, case):
        c, target, budget = case
        if not isinstance(c, SimplicialComplex):
            return
        if target is None:
            target = SimplicialComplex(c.num_vertices, [c.facets[0][:1]])
        found = outcome(lambda: collapse_search(c, target=target, budget=budget))
        if found[0] != "found":
            return
        m = found[1]
        assert (raised(lambda: deformation_trace(c, target, m))
                == raised(lambda: ref_deformation_trace(c, target, m)))

    @settings(max_examples=60, deadline=None)
    @given(trace_cases())
    def test_trace_of_partial_matching_matches_reference(self, case):
        c, d, m = case
        assert (raised(lambda: deformation_trace(c, d, m))
                == raised(lambda: ref_deformation_trace(c, d, m)))


# ---------------------------------------------------------------------------
# One face poset per complex: a complex builds its face poset on first use
# and keeps it, and every Morse entry point reads that one.


class TestOnePosetPerComplex:
    @pytest.fixture
    def poset_calls(self, monkeypatch):
        calls = []
        for name in ("from_simplicial", "from_cubical"):
            build = getattr(FacePoset, name).__func__

            def counted(cls, c, build=build):
                calls.append(c)
                return build(cls, c)

            monkeypatch.setattr(FacePoset, name, classmethod(counted))
        return calls

    def ball(self):
        c = random_subdivided_ball(random.Random("one-poset"), rounds=1)
        facet = c.facets[0]
        sphere = SimplicialComplex(c.num_vertices,
                                   [facet[:i] + facet[i + 1:] for i in range(4)])
        return c, facet, sphere

    @pytest.mark.parametrize("kind", ["simplicial", "cubical"])
    def test_collapse_validate_and_critical_faces_build_one(self, poset_calls,
                                                           kind):
        c = self.ball()[0] if kind == "simplicial" else solid_cube(3)
        m = collapse_search(c)
        assert validate_matching(c, m)
        assert sum(len(v) for v in critical_faces(c, m).values()) == 1
        assert poset_calls == [c]
        assert c.face_poset() is vars(c)["_poset"]
        assert poset_calls == [c]

    def test_out_j_then_validate_build_one_per_complex(self, poset_calls):
        c, _, sphere = self.ball()
        m, _ = out_j_collapse(c, sphere, 2)
        assert validate_matching(c, m)
        # d is read off its facets in c's poset: it builds none of its own
        assert poset_calls == [c]
        assert sphere._poset is None

    def test_entry_points_read_the_kept_poset(self, poset_calls):
        c, facet, sphere = self.ball()
        target = SimplicialComplex(c.num_vertices, [facet])
        m = collapse_search(c)
        onto, _ = out_j_collapse(c, sphere, 2)
        m_target = collapse_search(c, target=target)
        assert poset_calls == [c]
        assert sphere._poset is None and target._poset is None
        for name, call in [
            ("collapse_search", lambda: collapse_search(c)),
            ("collapse_search target", lambda: collapse_search(c, target=target)),
            ("out_j_collapse", lambda: out_j_collapse(c, sphere, 2)),
            ("validate_matching", lambda: validate_matching(c, m)),
            ("validate_matching out_j", lambda: validate_matching(c, onto)),
            ("critical_faces", lambda: critical_faces(c, m)),
            ("deformation_trace", lambda: deformation_trace(c, target, m_target)),
        ]:
            before = dict(vars(c))
            poset_calls.clear()
            call()
            assert poset_calls == [], name
            after = vars(c)
            assert after.keys() == before.keys(), name
            assert all(after[k] is before[k] for k in before), name
