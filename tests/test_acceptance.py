"""Release gate: ten end-to-end checks, one per contract criterion.

Each test prints a single verdict line on success; a failed assert keeps
the line from printing, so the captured output doubles as a checklist.
Frozen constants live inline so the gate cannot drift with the library.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge.arrangement import (
    AffineSubspace,
    gm_betti,
    lefschetz_inequality_check,
)
from polyforge.cct import (
    THETA0,
    THETA1,
    THETA2,
    GeoCCT,
    abstract_cct,
    check_convex_position,
    check_oriented,
    check_slope_obtuse,
    check_symmetric,
    check_transversal,
    clifford_lambda,
    clifford_lambda_exact,
    generate,
    iterate,
    kappa_chain,
    mu,
    seed_ct3,
)
from polyforge.cli import main as cli_main
from polyforge.complexcore import (
    SimplicialComplex,
    boundary_sphere,
    simplex_complex,
    solid_cube,
)
from polyforge.exactfield import (
    ONE,
    ZERO,
    FieldElem,
    mat_det,
    mat_mul,
    mat_rank,
    mat_vec,
    rotation_12,
)
from polyforge.hirschpath import (
    combinatorial_segment,
    dual_diameter,
    hirsch_bound,
    is_non_revisiting,
    validate_path,
)
from polyforge.morse import (
    collapse_search,
    critical_faces,
    out_j_collapse,
    validate_matching,
)
from polyforge.projective import (
    PPConfig,
    build_k_configuration,
    compile_polynomial,
    evaluate_slp,
    frame_replay,
    lawrence_extension,
    lawrence_face_certificate,
    pcctp_counts,
    poly_eval,
    proj_equal,
)


def fe(a, b=0, den=1):
    return FieldElem(Fraction(a, den), Fraction(b, den))


S2 = FieldElem.sqrt2()
S3 = FieldElem.sqrt3()
LAM = S2 - ONE
HALF = FieldElem(Fraction(1, 2))


def verdict(n: int, label: str) -> None:
    print(f"criterion {n:2d} ({label}): PASS")


def euler(c) -> int:
    return sum((-1) ** i * f for i, f in enumerate(c.f_vector()))


def dual_graph(c: SimplicialComplex) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(c.facets)))
    ridge_to = {}
    for i, f in enumerate(c.facets):
        for r in itertools.combinations(f, len(f) - 1):
            ridge_to.setdefault(r, []).append(i)
    for members in ridge_to.values():
        for a, b in itertools.combinations(members, 2):
            g.add_edge(a, b)
    return g


def stellar_rounds(c, rounds: int, rng) -> SimplicialComplex:
    for _ in range(rounds):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c


def random_flag_sphere(rng, base_dim=3, rounds=2) -> SimplicialComplex:
    return stellar_rounds(
        boundary_sphere(base_dim), rounds, rng).derived_subdivision()


# ---------------------------------------------------------------- 1

# Exact chain values, row k = kappa_k; entries are (rational, sqrt2)
# pairs over a common denominator, fourth coordinate 0, fifth 1.
KAPPA_TABLE = [
    (fe(-1, 1), fe(1, -1), fe(2), fe(0), fe(1)),
    (fe(-1), fe(0), fe(1), fe(0), fe(1)),
    (fe(11, -7, 23), fe(9, 11, 23), fe(16, -6, 23), fe(0), fe(1)),
    (fe(37, 11, 49), fe(-11, 6, 49), fe(22, -12, 49), fe(0), fe(1)),
    (fe(-241, 145, 697), fe(-407, -241, 697), fe(260, -168, 697), fe(0), fe(1)),
    (fe(-457, -192, 679), fe(192, -111, 679), fe(202, -138, 679), fe(0), fe(1)),
    (fe(577, -341, 1837), fe(1155, 577, 1837), fe(464, -324, 1837), fe(0), fe(1)),
    (fe(25057, 11471, 38473), fe(-11471, 6708, 38473), fe(8116, -5712, 38473),
     fe(0), fe(1)),
    (fe(-233, 137, 761), fe(-487, -233, 761), fe(136, -96, 761), fe(0), fe(1)),
    (fe(-353893, -165588, 548089), fe(165588, -97098, 548089),
     fe(82564, -58344, 548089), fe(0), fe(1)),
    (fe(5033675, -2955751, 16549127), fe(10637625, 5033675, 16549127),
     fe(2108416, -1490520, 16549127), fe(0), fe(1)),
]

LAMBDA_TABLE = [
    1.8419, 1.0, 0.1709, 0.0181, 1.7906e-3, 1.7580e-4,
    1.7247e-5, 1.6920e-6, 1.6598e-7, 1.6283e-8, 1.5974e-9,
]


def test_criterion_01_squeeze_point_table():
    start = time.monotonic()
    chain = kappa_chain(10)
    assert len(chain) == 11
    # exact equality row by row, no tolerance
    for got, want in zip(chain, KAPPA_TABLE):
        assert tuple(got) == want
    # float column agrees to three significant figures
    for got, want in zip(chain, LAMBDA_TABLE):
        lam = clifford_lambda(got)
        assert abs(lam - want) <= 1.2e-3 * abs(want)
    assert time.monotonic() - start < 1.0
    verdict(1, "squeeze point table, exact")


# ---------------------------------------------------------------- 2


def test_criterion_02_worked_iteration():
    partner = tuple(mat_vec(mat_mul(rotation_12(), rotation_12()), THETA1))
    assert mu(THETA0, partner) == fe(3, -4, 23)
    assert iterate(THETA0, partner) == THETA2
    verdict(2, "worked blend and step values")


# ---------------------------------------------------------------- 3


def test_criterion_03_seed_tube_certificates():
    geo = seed_ct3()
    assert check_symmetric(geo)
    assert check_transversal(geo)
    assert check_slope_obtuse(geo)
    assert check_oriented(geo)
    cert = check_convex_position(geo)
    assert len(cert) == 12
    base = geo.coords.index(THETA0)
    frozen = (fe(7, 5), fe(-8, -5), fe(2), fe(0), fe(-9, -5))
    found = None
    for idx, (dim, corners) in enumerate(geo.abstract.cubes.cubes):
        if base in corners:
            found = cert[idx]
    assert found is not None
    # proportionality by cross-multiplication, no division
    witness = next(i for i, x in enumerate(frozen) if x)
    num, den = found[witness], frozen[witness]
    assert num != ZERO
    for a, b in zip(found, frozen):
        assert a * den == b * num
    verdict(3, "seed tube fully certified")


# ---------------------------------------------------------------- 4


def test_criterion_04_pipeline_width_twelve(tmp_path):
    out = tmp_path / "tube12.json"
    start = time.monotonic()
    code = cli_main(["cct", "generate", "--n", "12", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0
    bundle = json.loads(out.read_text())
    assert bundle["pass"] is True
    assert bundle["subject"]["f0"] == 156 == 12 * 13
    names = {c["name"]: c["pass"] for c in bundle["checks"]}
    for name in ("symmetry", "transversality", "obtuse-slope",
                 "orientation", "convex-position", "vertex-count"):
        assert names[name] is True
    # every supporting cell is exactly flat: eight corners, rank four
    geo = GeoCCT.from_json(bundle["cct"])
    cubes = [cs for dim, cs in geo.abstract.cubes.cubes if dim == 3]
    assert len(cubes) == 120
    for corners in cubes:
        rows = [list(geo.coords[v]) for v in corners]
        assert mat_rank(rows) == 4
    assert len(bundle["facet_normals"]) == 120
    verdict(4, "width-twelve pipeline under a minute")


# ---------------------------------------------------------------- 5


def test_criterion_05_face_count_law():
    for k in range(9):
        f = abstract_cct(k).f_vector()
        want = (12 * (k + 1), 36 * k, 36 * max(k - 1, 0),
                12 * max(k - 2, 0))
        assert f == want
    verdict(5, "face count law, widths 0..8")


# ---------------------------------------------------------------- 6


def test_criterion_06_path_suite():
    start = time.monotonic()
    rng = random.Random(416)
    suite = [boundary_sphere(3).derived_subdivision(),
             boundary_sphere(4).derived_subdivision()]
    randoms = []
    while len(randoms) < 30:
        base = 3 if len(randoms) % 3 else 2
        c = random_flag_sphere(rng, base, rounds=rng.randrange(1, 5))
        assert c.f_vector()[0] <= 40
        assert c.is_flag() and c.is_normal()
        randoms.append(c)
    for which, c in enumerate(suite + randoms):
        g = dual_graph(c)
        diam = dual_diameter(c)
        assert diam <= hirsch_bound(c)
        pairs = list(itertools.combinations(range(len(c.facets)), 2))
        if which >= 2 and len(pairs) > 80:
            pairs = rng.sample(pairs, 80)
        seen_diam = 0
        for a, b in pairs:
            path = combinatorial_segment(c, c.facets[a], c.facets[b])
            validate_path(c, path)
            assert is_non_revisiting(path)
            shortest = nx.shortest_path_length(g, a, b)
            assert path.length() >= shortest
            seen_diam = max(seen_diam, shortest)
        assert seen_diam <= diam
    assert time.monotonic() - start < 30.0
    verdict(6, "all sampled segments non-revisiting")


# ---------------------------------------------------------------- 7


def test_criterion_07_collapse_suite():
    start = time.monotonic()
    rng = random.Random(77)
    balls = []
    for i in range(6):
        c = stellar_rounds(simplex_complex(3), 1 + i % 3, rng)
        balls.append(c.derived_subdivision())
    for i in range(4):
        c = stellar_rounds(solid_cube(3).derived_subdivision(), 1, rng)
        balls.append(c.derived_subdivision())
    for c in balls:
        m = collapse_search(c)
        assert validate_matching(c, m)
        crit = critical_faces(c, m)
        assert sum(len(v) for v in crit.values()) == 1
        assert 0 in crit

    # crossing ledgers: one collapse per constructed pair
    pairs = []
    for i in range(20):
        c = stellar_rounds(simplex_complex(3), 1 + i % 2, rng)
        facet = c.facets[rng.randrange(len(c.facets))]
        if i % 3 == 2:
            # solid facet kept whole: contractible, no crossings
            d = SimplicialComplex(c.num_vertices, [facet])
            pairs.append((c, d, 2, 0))
        else:
            # facet boundary sphere: one crossing in degree two
            d = SimplicialComplex(
                c.num_vertices, list(itertools.combinations(facet, 3)))
            pairs.append((c, d, 2, 1))
    for c, d, j, want in pairs:
        assert want == (-1) ** j * (euler(d) - 1)
        m, ledger = out_j_collapse(c, d, j)
        assert validate_matching(c, m)
        assert len(ledger) == want
    assert time.monotonic() - start < 10.0
    verdict(7, "collapses and crossing ledgers")


# ---------------------------------------------------------------- 8


def test_criterion_08_complement_rank_suite():
    start = time.monotonic()

    def point2(x, y):
        return AffineSubspace(2, [], [x, y])

    for n in range(1, 7):
        arr = [point2(i, i * i) for i in range(n)]
        assert gm_betti(arr, 0) == 1
        assert gm_betti(arr, 1) == n

    def plane4(i, j):
        basis = [[0] * 4, [0] * 4]
        basis[0][i] = 1
        basis[1][j] = 1
        return AffineSubspace(4, basis, [0, 0, 0, 0])

    single = [plane4(2, 3)]
    assert gm_betti(single, 0) == 1
    assert gm_betti(single, 1) == 1
    coord_pair = [plane4(2, 3), plane4(0, 1)]
    assert tuple(gm_betti(coord_pair, i) for i in range(4)) == (1, 2, 1, 0)

    rng = random.Random(88)

    def rnd_plane():
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                    for _ in range(2)]
            off = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
            try:
                s = AffineSubspace(4, rows, off)
            except ValueError:
                continue
            if s.dim == 2:
                return s

    done = 0
    for _ in range(400):
        if done == 10:
            break
        arr = [rnd_plane() for _ in range(rng.randint(2, 3))]
        hyper = AffineSubspace(
            4,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            [0, 0, 0, Fraction(rng.randint(1, 50), 7)],
        )
        try:
            report = lefschetz_inequality_check(arr, hyper)
        except ValueError:
            continue
        assert report["generic"]
        assert all(report["satisfied"])
        done += 1
    assert done == 10
    assert time.monotonic() - start < 30.0
    verdict(8, "complement ranks and slice bounds")


# ---------------------------------------------------------------- 9


def test_criterion_09_incidence_suite():
    # ten small configurations, exact vertex certification on entry
    rng = random.Random(99)
    for trial in range(10):
        m = 3 + trial % 3
        verts = tuple(
            (Fraction(i), Fraction(i * i)) for i in range(m))
        k = 1 + trial % 2
        free = tuple(
            (Fraction(50 + 10 * trial + 3 * t), Fraction(-9 - t))
            for t in range(k))
        cfg = PPConfig(ambient_dim=2, polytope_vertices=verts,
                       free_points=free)
        lifted = lawrence_extension(cfg)
        assert len(lifted.polytope_vertices) == m + 2 * k
        assert lifted.ambient_dim == 2 + k
        assert not lifted.free_points
        normal, offset = lawrence_face_certificate(lifted)
        vals = [sum(a * b for a, b in zip(normal, p))
                for p in lifted.polytope_vertices]
        assert all(v >= offset for v in vals) or all(
            v <= offset for v in vals)
        assert sum(1 for v in vals if v == offset) == m

    # arithmetic program for x^2 - 2 lands on the origin at sqrt(2)
    prog = compile_polynomial([-2, 0, 1])
    got = evaluate_slp(prog, {"x": (S2, ZERO, ONE)})
    assert proj_equal(got[prog.outputs[0]], (ZERO, ZERO, ONE))
    assert poly_eval([-2, 0, 1], S2) == ZERO

    # the 64-point configuration and its pinned coplanarity
    k = build_k_configuration()
    assert len(k.points) == 64
    assert frame_replay(k.points, k.derivation)
    cert = k.certificate
    assert cert["parameter"] == LAM
    assert cert["alternative"] == Fraction(1, 2)
    rows = [k.points[name] for name in cert["six_points"]]
    assert mat_rank(rows) == 4 == cert["rank_at_parameter"]
    assert cert["rank_at_alternative"] == 5
    assert poly_eval(cert["pinning"], LAM) == ZERO
    assert poly_eval(cert["pinning"], HALF) != ZERO

    # tower count arithmetic
    for n in range(1, 11):
        counts = pcctp_counts(n)
        assert counts["dim"] == 69
        assert counts["f0"] == 12 * (n + 1) + 129
    verdict(9, "incidence constructions certified")


# ---------------------------------------------------------------- 10

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
elements = st.builds(FieldElem, rationals, rationals, rationals, rationals)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def _axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO
    if x != ZERO:
        assert x * x.inverse() == ONE


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def _sign_hom(x, y):
    assert (x * y).sign() == x.sign() * y.sign()
    assert (x > ZERO) == (x.sign() == 1)


def test_criterion_10_property_suites():
    _axioms()
    _sign_hom()

    # replay is invariant under twenty random exact projective maps
    k = build_k_configuration()
    rng = random.Random(1010)
    done = 0
    while done < 20:
        m = tuple(
            tuple(FieldElem(Fraction(rng.randint(-3, 3)))
                  for _ in range(5))
            for _ in range(5))
        if mat_det(m) == ZERO:
            continue
        moved = {name: tuple(mat_vec(m, p)) for name, p in k.points.items()}
        assert frame_replay(moved, k.derivation)
        done += 1

    # squeeze rate decreases strictly along the chain out to width 12
    chain = kappa_chain(12)
    rates = [clifford_lambda_exact(p) for p in chain]
    for a, b in zip(rates, rates[1:]):
        assert b < a
        assert b > ZERO
    verdict(10, "algebraic property suites")
