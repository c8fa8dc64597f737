"""Cubical torus layers: abstract quotients, exact seeds, iteration, predicates.

The frozen coordinate tables below are the oracle; the chain generator
must reproduce them digit for digit in exact arithmetic.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from polyforge import cct as cct_mod
from polyforge.cct import (
    AbstractCCT,
    GeoCCT,
    TubeRecord,
    KAPPA1,
    THETA0,
    THETA1,
    THETA2,
    THETA3,
    abstract_cct,
    canonical_rep,
    check_convex_position,
    check_oriented,
    check_slope_obtuse,
    check_symmetric,
    check_transversal,
    certify,
    certify_facet,
    clifford_lambda,
    clifford_lambda_exact,
    clifford_params,
    extend,
    generate,
    iterate,
    kappa_chain,
    mu,
    reconstruct_cube_corner,
    seed_ct1,
    seed_ct3,
    _transversal_core,
)
from polyforge.exactfield import (
    FieldElem,
    mat_det,
    mat_identity,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_solve,
    mat_vec,
    reflection_e4,
    rotate,
    rotation_12,
    rotation_34,
    vec_dot,
)
from polyforge.cli import main

R12 = rotation_12()
R34 = rotation_34()
S = reflection_e4()
B = mat_mul(R34, R12)
B_POW = [mat_pow(B, j) for j in range(12)]


def fe(a, b=0, den=1):
    return FieldElem(Fraction(a, den), Fraction(b, den))


# Exact chain values, row k = kappa_k; entries are (rational, sqrt2) pairs
# over a common denominator, fourth coordinate 0, fifth 1.
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

# squeeze rates of the chain points toward the inner torus
LAMBDA_TABLE = [
    1.8419, 1.0, 0.1709, 0.0181, 1.7906e-3, 1.7580e-4,
    1.7247e-5, 1.6920e-6, 1.6598e-7, 1.6283e-8, 1.5974e-9,
]


class TestGroupConstants:
    def test_generator_order_twelve(self):
        ident = mat_identity(5)
        assert mat_pow(B, 12) == ident
        assert mat_pow(B, 6) != ident
        assert mat_pow(B, 4) != ident

    def test_power_identities(self):
        assert mat_pow(R34, 2) == mat_pow(B, 8)
        assert mat_mul(R12, R12) == mat_pow(B, 6)
        assert mat_mul(S, mat_mul(B, S)) == mat_pow(B, 5)
        assert mat_mul(S, S) == mat_identity(5)

    def test_orbit_step(self):
        got = mat_vec(B, THETA1)
        assert got == (fe(0), fe(1), fe(1, 0, 2),
                       FieldElem(0, 0, Fraction(1, 2)), fe(1))


class TestCliffordLambda:
    def test_seed_value(self):
        assert clifford_lambda_exact(THETA0) == fe(20, 8, 17)

    def test_unit_value(self):
        assert clifford_lambda_exact(KAPPA1) == fe(1)
        assert clifford_lambda(KAPPA1) == 1.0

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            clifford_lambda_exact((fe(0), fe(0), fe(0), fe(0), fe(1)))

    def test_params_projections(self):
        p = clifford_params((fe(0), fe(0), fe(1), fe(0), fe(1)))
        assert p.pi0 is None
        assert p.pi2 == (fe(1), fe(0))
        q = clifford_params(THETA0)
        assert q.pi0 == (THETA0[0], THETA0[1])
        assert q.lam == fe(20, 8, 17)


class TestMuIterate:
    def test_worked_value(self):
        assert mu(THETA0, KAPPA1) == fe(3, -4, 23)

    def test_normalization_stability(self):
        scale = THETA0[4].inverse()
        renorm = tuple(x * scale for x in THETA0)
        assert mu(renorm, KAPPA1) == mu(THETA0, KAPPA1)

    def test_third_coordinate_zero_rejected(self):
        with pytest.raises(ValueError):
            mu(THETA0, (fe(1), fe(0), fe(0), fe(0), fe(1)))

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError):
            mu(THETA1, THETA1)

    def test_interpolation_hits_next_seed(self):
        assert iterate(THETA0, KAPPA1) == THETA2

    def test_infinite_result_rejected(self):
        a = (THETA0[0], THETA0[1], THETA0[2], fe(0), fe(0))
        b = (fe(-1), fe(0), fe(1), fe(0), fe(0))
        with pytest.raises(ValueError):
            iterate(a, b)


class TestKappaChain:
    def test_exact_table(self):
        chain = kappa_chain(10)
        assert len(chain) == 11
        for got, want in zip(chain, KAPPA_TABLE):
            assert got == want

    def test_seed_aliases(self):
        chain = kappa_chain(3)
        r12sq = mat_mul(R12, R12)
        assert chain[2] == mat_vec(r12sq, THETA2)
        assert chain[3] == THETA3

    def test_float_reports(self):
        for k, want in enumerate(LAMBDA_TABLE):
            got = clifford_lambda(KAPPA_TABLE[k])
            assert abs(got - want) <= 1.2e-3 * want

    def test_strictly_decreasing(self):
        values = [clifford_lambda_exact(p) for p in KAPPA_TABLE]
        for a, b in zip(values, values[1:]):
            assert b < a


class TestAbstractCCT:
    def test_f_vectors(self):
        assert abstract_cct(0).f_vector() == (12, 0, 0, 0)
        assert abstract_cct(1).f_vector() == (24, 36, 0, 0)
        assert abstract_cct(2).f_vector() == (36, 72, 36, 0)
        assert abstract_cct(5).f_vector() == (72, 180, 144, 36)
        assert abstract_cct(8).f_vector() == (108, 288, 252, 72)

    def test_layer_sizes(self):
        t = abstract_cct(4)
        for level in range(5):
            assert t.layers.count(level) == 12

    def test_width_one_graph(self):
        import networkx as nx
        t = abstract_cct(1)
        g = nx.Graph()
        g.add_nodes_from(range(24))
        for key, (dim, corners) in t.cubes.faces().items():
            if dim == 1:
                g.add_edge(*corners)
        assert all(d == 3 for _, d in g.degree())
        part = [v for v in range(24) if t.layers[v] == 0]
        assert nx.is_bipartite(g)
        colors = nx.bipartite.color(g)
        assert {colors[v] for v in part} in ({0}, {1})

    def test_canonical_rep_is_quotient_map(self):
        rng = random.Random(5)
        for _ in range(200):
            w = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            shifted = (w[0] + 3 * a - 2 * b, w[1] - 3 * a - 2 * b, w[2] + 4 * b)
            assert canonical_rep(w) == canonical_rep(shifted)
            r = canonical_rep(w)
            assert 0 <= r[0] < 3 and 0 <= r[2] < 4
            assert sum(r) == sum(w)

    def test_squares_subsumed_for_wide_complexes(self):
        t = abstract_cct(4)
        assert all(dim == 3 for dim, _ in t.cubes.cubes)
        assert t.f_vector()[2] == 36 * 3

    def test_boundary_square_count(self):
        assert len(abstract_cct(3).boundary_squares()) == 72
        assert len(abstract_cct(6).boundary_squares()) == 72


class TestSeeds:
    def test_width_one(self):
        geo = seed_ct1()
        assert geo.width == 1
        assert len(geo.coords) == 24
        assert THETA0 in geo.coords
        assert THETA1 in geo.coords
        assert geo.abstract.f_vector() == (24, 36, 0, 0)

    def test_width_three(self):
        geo = seed_ct3()
        assert geo.width == 3
        assert len(geo.coords) == 48
        assert THETA2 in geo.coords
        assert THETA3 in geo.coords

    def test_layer_lambda_constant(self):
        geo = seed_ct3()
        for level in range(4):
            vals = {clifford_lambda_exact(geo.coords[v])
                    for v in range(48) if geo.abstract.layers[v] == level}
            assert len(vals) == 1

    def test_normalized(self):
        geo = seed_ct3()
        one = fe(1)
        assert all(p[4] == one for p in geo.coords)


class TestPredicates:
    def test_ct3_is_ideal(self):
        geo = seed_ct3()
        assert check_symmetric(geo)
        assert check_transversal(geo)
        assert check_slope_obtuse(geo)
        assert check_oriented(geo)

    def test_mirror_image(self):
        geo = seed_ct3()
        mirrored = GeoCCT(
            geo.abstract,
            tuple(tuple(mat_vec(S, p)) for p in geo.coords),
            geo.kappas,
        )
        assert check_symmetric(mirrored)
        assert check_transversal(mirrored)
        assert check_oriented(mirrored) == check_oriented(geo)

    def test_tampered_symmetry_detected(self):
        geo = seed_ct3()
        coords = list(geo.coords)
        p = coords[5]
        coords[5] = (p[0] + 1, p[1], p[2], p[3], p[4])
        bad = GeoCCT(geo.abstract, tuple(coords), geo.kappas)
        assert not check_symmetric(bad)
        with pytest.raises(ValueError):
            check_transversal(bad)


class TestExtend:
    def test_vertex_counts(self):
        geo = seed_ct1()
        for n in range(2, 7):
            geo = extend(geo)
            assert geo.width == n
            assert len(geo.coords) == 12 * (n + 1)

    def test_two_extensions_match_seed(self):
        geo = extend(extend(seed_ct1()))
        assert geo == seed_ct3()

    def test_cubes_coplanar(self):
        geo = extend(seed_ct3())
        for dim, corners in geo.abstract.cubes.cubes:
            rows = [list(geo.coords[c]) for c in corners]
            assert mat_rank(rows) == 4

    def test_corner_reconstruction(self):
        geo = seed_ct3()
        for idx, (dim, corners) in enumerate(geo.abstract.cubes.cubes):
            for position in range(8):
                got = reconstruct_cube_corner(geo, idx, position)
                assert got == geo.coords[corners[position]]

    def test_slope_stays_obtuse(self):
        geo = seed_ct3()
        for _ in range(3):
            geo = extend(geo)
            assert check_slope_obtuse(geo)


class TestConvexPosition:
    def test_seed_certificate(self):
        geo = seed_ct3()
        cert = check_convex_position(geo)
        assert len(cert) == 12
        # the facet through the base seed vertex carries the known normal
        base = geo.coords.index(THETA0)
        frozen = (fe(7, 5), fe(-8, -5), fe(2), fe(0), fe(-9, -5))
        found = None
        for idx, (dim, corners) in enumerate(geo.abstract.cubes.cubes):
            if base in corners:
                found = cert[idx]
        assert found is not None
        # proportionality: cross-multiply against the frozen normal
        witness = next(i for i, x in enumerate(frozen) if x)
        ratio_num, ratio_den = found[witness], frozen[witness]
        for a, b in zip(found, frozen):
            assert a * ratio_den == b * ratio_num

    def test_wide_certificate(self):
        geo = generate(6)
        cert = check_convex_position(geo)
        assert len(cert) == 48

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            check_convex_position(seed_ct1())

    def test_exposure_failure_has_witness(self):
        geo = seed_ct3()
        coords = list(geo.coords)
        # drag one top-layer vertex far out so some facet loses exposure
        v = next(i for i in range(48) if geo.abstract.layers[i] == 0)
        p = coords[v]
        coords[v] = (p[0] * 9, p[1] * 9, p[2] * 9, p[3] * 9, p[4])
        bad = GeoCCT(geo.abstract, tuple(coords), geo.kappas)
        with pytest.raises(ValueError):
            check_convex_position(bad)


class TestGenerate:
    def test_matches_manual_extension(self):
        assert generate(3) == seed_ct3()

    def test_kappa_chain_carried(self):
        geo = generate(5)
        assert list(geo.kappas) == kappa_chain(5)

    def test_json_round_trip(self):
        geo = generate(2)
        data = geo.to_json()
        assert data["format"] == "polyforge/1"
        back = GeoCCT.from_json(data)
        assert back == geo


# ---------------------------------------------------------------------------
# Oracles for producer shortcuts: whatever the producer reuses between
# widths or carries along a screw orbit must equal the check done afresh.


class TestCertificateOracles:
    @pytest.mark.parametrize("width", range(3, 13))
    def test_normals_equal_per_facet_certificates(self, width):
        geo = generate(width)
        cert = check_convex_position(geo)
        assert sorted(cert) == list(range(12 * (width - 2)))
        for idx in range(len(geo.abstract.cubes.cubes)):
            assert cert[idx] == certify_facet(geo, idx)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_bundle_verdicts_equal_fresh_checks(self, width, tmp_path, capsys):
        out_file = tmp_path / "tube.json"
        assert main(["cct", "generate", "--n", str(width),
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        checks = {c["name"]: c["pass"]
                  for c in json.loads(out_file.read_text())["checks"]}
        geo = generate(width)
        assert checks["symmetry"] is bool(check_symmetric(geo)) is True
        assert checks["transversality"] is check_transversal(geo)
        assert checks["obtuse-slope"] is check_slope_obtuse(geo)
        if width >= 3:
            assert checks["orientation"] is check_oriented(geo)
            assert checks["convex-position"] is True

    # verdict lines of `cct verify` on width-4 tubes whose level `level` is
    # scaled by `lam` in its first four coordinates: the screw symmetry
    # survives, other predicates fail
    SCALED_LEVEL_VERDICTS = [
        (0, "9", "pass pass pass pass FAIL"),
        (0, "-1", "pass FAIL pass pass FAIL"),
        (2, "1/2", "pass pass pass pass FAIL"),
        (2, "-1", "pass FAIL pass pass FAIL"),
        (3, "-1", "pass FAIL FAIL pass FAIL"),
        (4, "11/10", "pass pass pass pass FAIL"),
        (4, "-1", "pass FAIL FAIL pass FAIL"),
    ]

    @pytest.mark.parametrize("level,lam,verdicts", SCALED_LEVEL_VERDICTS)
    def test_verify_verdicts_on_scaled_levels(self, level, lam, verdicts,
                                              tmp_path, capsys):
        geo = generate(4)
        scale = FieldElem(Fraction(lam))
        coords = [
            tuple(scale * x for x in p[:4]) + (p[4],)
            if geo.abstract.layers[vid] == level else p
            for vid, p in enumerate(geo.coords)]
        doc = GeoCCT(geo.abstract, tuple(coords), geo.kappas).to_json()
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        assert main(["cct", "verify", "--file", str(path)]) == 1
        out = capsys.readouterr().out.split()
        assert out[1::2] == verdicts.split()

    def test_tampered_non_representative_vertex(self, tmp_path, capsys):
        geo = generate(4)
        coords = list(geo.coords)
        p = coords[17]
        coords[17] = (p[0] * 2, p[1], p[2], p[3], p[4])
        bad = GeoCCT(geo.abstract, tuple(coords), geo.kappas)
        with pytest.raises(ValueError, match="symmetry"):
            extend(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        assert main(["cct", "verify", "--file", str(path)]) == 1
        assert "FAIL: symmetry violation" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Per-vertex references for the orbit-reduced tube predicates: the star
# conditions on every vertex of a level, and the orientation with one
# nullspace elimination per boundary square.


def per_vertex_transversal(t):
    seen = set()
    for level in range(t.width + 1):
        points = t.coords[12 * level:12 * level + 12]
        for p in points:
            if cct_mod._is_zero2(cct_mod._pi0(p)) or cct_mod._is_zero2(cct_mod._pi2(p)):
                return False
        for p in points:
            key = (cct_mod._ray_canon(cct_mod._pi0(p)),
                   cct_mod._ray_canon(cct_mod._pi2(p)))
            if key in seen:
                return False
            seen.add(key)
        if level >= 2:
            mid = level - 1
            for vid in range(12 * (mid - 1), 12 * mid):
                if not cct_mod._star_ok(t, vid, +1):
                    return False
            for vid in range(12 * (mid + 1), 12 * (mid + 2)):
                if not cct_mod._star_ok(t, vid, -1):
                    return False
    return True


def per_square_oriented(t):
    k = t.width
    v = min(range(12 * k, 12 * (k + 1)), key=lambda i: t.coords[i])
    y = t.coords[v][:4]
    p0 = y
    p1 = (y[0], y[1], fe(0), fe(0))
    plane_comp = mat_nullspace([list(p0), list(p1)])
    if len(plane_comp) != 2:
        raise ValueError("chord endpoints are collinear")
    crossings = 0
    for cyc in t.abstract.boundary_squares():
        zs = [t.coords[c][:4] for c in cyc]
        wcomp = mat_nullspace([list(z) for z in zs])
        if len(wcomp) != 1:
            raise ValueError("degenerate boundary cell span")
        meet = mat_nullspace([list(r) for r in plane_comp] + [list(wcomp[0])])
        if len(meet) != 1:
            raise ValueError("chord plane lies inside a boundary cell plane")
        g = meet[0]
        alpha, beta = mat_solve([[p0[i], p1[i]] for i in range(4)], list(g))
        sa, sb = alpha.sign(), beta.sign()
        if sa * sb <= 0:
            continue
        if sa < 0:
            g = tuple(-x for x in g)
        if ref_ray_crosses_cell(zs, g):
            crossings += 1
    return crossings % 2 == 0


def ref_ray_crosses_cell(zs, g) -> bool:
    """Does the ray of g pass through the open spherical quad on zs?

    zs are four corner directions in cyclic order spanning a 3-space, g a
    direction in it.  In coordinates on three independent corners, g is
    inside when it lies on the side of z_{m+2} of every edge (z_m, z_{m+1}),
    by the sign of a 3x3 determinant; boundary contact raises.
    """
    basis = None
    for pick in itertools.combinations(range(4), 3):
        cand = [list(zs[i]) for i in pick]
        if mat_rank(cand) == 3:
            basis = cand
            break
    if basis is None:
        raise ValueError("degenerate boundary cell")
    cols = [[basis[0][i], basis[1][i], basis[2][i]] for i in range(4)]

    def local(x):
        sol = mat_solve(cols, list(x))
        if sol is None:
            raise ValueError("direction leaves the cell plane")
        return list(sol)

    zl = [local(z) for z in zs]
    gl = local(g)
    for i in range(4):
        a, b = zl[i], zl[(i + 1) % 4]
        ref = mat_det([a, b, zl[(i + 2) % 4]])
        d = mat_det([a, b, gl])
        if ref.sign() == 0:
            raise ValueError("degenerate boundary cell")
        if d.sign() == 0:
            raise ValueError("chord touches a boundary cell edge")
        if d.sign() != ref.sign():
            return False
    return True


def outcome(fn, *args):
    """A predicate's verdict, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def tamper_vertex(geo, vid, change):
    coords = list(geo.coords)
    coords[vid] = change(coords[vid])
    return GeoCCT(geo.abstract, tuple(coords), geo.kappas)


class TestPerVertexOracles:
    @pytest.mark.parametrize("width", range(3, 13))
    def test_generated_tubes(self, width):
        geo = generate(width)
        assert outcome(check_transversal, geo) == outcome(per_vertex_transversal, geo)
        assert outcome(check_oriented, geo) == outcome(per_square_oriented, geo)

    @pytest.mark.parametrize("lam", ["9", "1/2", "-1", "-3"])
    @pytest.mark.parametrize("level", range(6))
    def test_scaled_levels(self, level, lam):
        geo = scale_level(generate(5), level, lam)
        record = TubeRecord()
        assert check_symmetric(geo, record)
        want = outcome(per_vertex_transversal, geo)
        assert outcome(check_transversal, geo) == want
        assert outcome(_transversal_core, geo, record) == want
        assert outcome(check_oriented, geo) == outcome(per_square_oriented, geo)

    # Scaling pi0 and pi2 of one level by separate factors, after the screw
    # power 0 or 3, keeps the symmetry; these reach every error of the
    # orientation: collinear chord, degenerate cell span, chord plane inside
    # a cell plane, chord touching a cell edge.
    @pytest.mark.parametrize("width,level,a,b,rot", [
        (3, 3, "1/3", "-2", 0),
        (3, 3, "1/3", "-2", 3),
        (4, 1, "3", "0", 0),
        (4, 1, "-1", "0", 3),
        (4, 2, "-1", "3", 3),
        (4, 4, "0", "3", 0),
        (4, 4, "-2", "0", 3),
        (5, 3, "3", "1/3", 3),
        (6, 1, "1/3", "0", 0),
        (6, 6, "-1", "-2", 0),
    ])
    def test_plane_scaled_levels(self, width, level, a, b, rot):
        a, b = FieldElem(Fraction(a)), FieldElem(Fraction(b))

        def change(p):
            p = mat_vec(B_POW[rot], p)
            return (a * p[0], a * p[1], b * p[2], b * p[3], p[4])

        base = generate(width)
        geo = GeoCCT(base.abstract, tuple(
            change(p) if base.abstract.layers[vid] == level else p
            for vid, p in enumerate(base.coords)), base.kappas)
        assert check_symmetric(geo)
        assert outcome(check_transversal, geo) == outcome(per_vertex_transversal, geo)
        assert outcome(check_oriented, geo) == outcome(per_square_oriented, geo)

    @pytest.mark.parametrize("vid,change", [
        (17, lambda p: (p[0] * 2, p[1], p[2], p[3], p[4])),
        (17, lambda p: (-p[0], -p[1], -p[2], -p[3], p[4])),
        (43, lambda p: (p[0], p[1], -p[2], -p[3], p[4])),
        (70, lambda p: (p[1], p[0], p[2], p[3], p[4])),
    ])
    def test_tampered_non_representative_vertex(self, vid, change):
        bad = tamper_vertex(generate(5), vid, change)
        # the screw ties the vertex to the first of its level, so the tube
        # loses its symmetry and the orbit-reduced predicates refuse it
        record = TubeRecord()
        assert not check_symmetric(bad, record)
        refused = (ValueError, "symmetry violation")
        assert outcome(_transversal_core, bad, record) == refused
        assert outcome(_transversal_core, bad, TubeRecord()) == refused
        for check in (check_transversal, check_oriented):
            assert outcome(check, bad) == refused
        with pytest.raises(ValueError, match="predicate failure: symmetry"):
            extend(bad)


# ---------------------------------------------------------------------------
# The orientation's crossing test on random quads against
# ref_ray_crosses_cell: corners in random 3-spaces of R^4, either one per
# quadrant of a gnomonic chart or anywhere, some with three dependent
# consecutive corners; rays inside the quad, anywhere in its span, or on
# the line of one of its edges.


def crossing_case(rng):
    """(zs, w, g): four corners spanning the 3-space w-perp of R^4, and a
    direction g in that space."""
    while True:
        basis = [[fe(rng.randint(-3, 3), rng.choice((0, 0, 0, 1, -1)))
                  for _ in range(4)] for _ in range(3)]
        if rng.random() < 0.5:
            local = [(rng.randint(2, 4), sx * rng.randint(1, 3), sy * rng.randint(1, 3))
                     for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        else:
            local = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        m = rng.randrange(4)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        if rng.random() < 0.1:
            local[(m + 2) % 4] = tuple(a * x + b * y for x, y in
                                       zip(local[m], local[(m + 1) % 4]))
        elif rng.random() < 0.05:
            local[(m + 1) % 4] = tuple((a or 1) * x for x in local[m])
        zs = [tuple(vec_dot(c, col) for col in zip(*basis)) for c in local]
        null = mat_nullspace([list(z) for z in zs])
        if len(null) == 1:
            break
    ray = rng.randrange(3)
    if ray == 0:
        coefs = [rng.randint(1, 3) for _ in range(4)]
    elif ray == 1:
        coefs = [rng.randint(-3, 3) for _ in range(4)]
    else:
        coefs = [0] * 4
        coefs[m], coefs[(m + 1) % 4] = rng.randint(-2, 3), rng.randint(1, 3)
    g = tuple(vec_dot(coefs, col) for col in zip(*zs))
    return zs, null[0], g


CROSSING_CASES = [crossing_case(random.Random(f"crossing:{seed}"))
                  for seed in range(1000)]


class TestCrossingOracle:
    def test_crossings_match_reference(self):
        counts = Counter()
        for zs, w, g in CROSSING_CASES:
            want = outcome(ref_ray_crosses_cell, zs, g)
            assert outcome(cct_mod._crosses, zs, w, [None] * 4, g) == want
            counts[want] += 1
        # every outcome is reached
        assert set(counts) == {True, False,
                               (ValueError, "degenerate boundary cell"),
                               (ValueError, "chord touches a boundary cell edge")}
        assert min(counts.values()) >= 50


def counted_abstract(width):
    """The quotient complex built cell by cell through vertex_id, and its
    boundary squares found by counting 3-cells per square."""
    ab = AbstractCCT(width)
    edges, squares, cubes = set(), {}, []
    for vid, w in enumerate(ab.vertex_reps):
        level = ab.layers[vid]
        shift = lambda u, ax: tuple(x + (k == ax) for k, x in enumerate(u))
        if level + 1 <= width:
            for ax in range(3):
                edges.add(frozenset((vid, ab.vertex_id(shift(w, ax)))))
        if level + 2 <= width:
            for i, j in ((0, 1), (0, 2), (1, 2)):
                cyc = (vid, ab.vertex_id(shift(w, i)),
                       ab.vertex_id(shift(shift(w, i), j)), ab.vertex_id(shift(w, j)))
                squares[frozenset(cyc)] = (cyc, level)
        if level + 3 <= width:
            corners = []
            for bits in range(8):
                u = w
                for ax in range(3):
                    if (bits >> ax) & 1:
                        u = shift(u, ax)
                corners.append(ab.vertex_id(u))
            cubes.append(tuple(corners))
    count = dict.fromkeys(squares, 0)
    for corners in cubes:
        for i in range(3):
            for side in (0, 1):
                face = frozenset(c for b, c in enumerate(corners)
                                 if (b >> i) & 1 == side)
                if face in count:
                    count[face] += 1
    boundary = [cyc for key, (cyc, _) in squares.items() if count[key] == 1]
    return len(edges), list(squares.values()), cubes, boundary


@pytest.mark.parametrize("width", range(0, 13))
def test_level_shifted_cells_equal_cells_built_one_by_one(width):
    ab = AbstractCCT(width)
    edge_count, squares, cubes, boundary = counted_abstract(width)
    assert ab.f_vector() == (12 * (width + 1), edge_count, len(squares), len(cubes))
    assert squares == [(cyc, level) for level in range(width - 1)
                       for cyc in ab.level_squares(level)]
    assert list(ab._cubes3) == cubes
    assert [ab.cube_corners(i) for i in range(len(cubes))] == cubes
    assert ab.boundary_squares() == boundary
    # cell index i is the 3-cell based at vertex i
    assert all(corners[0] == i for i, (_, corners) in enumerate(ab.cubes.cubes)
               if width >= 3)


def prefix(geo, width):
    return GeoCCT(AbstractCCT(width), geo.coords[:12 * (width + 1)],
                  geo.kappas[:width + 1])


def scale_level(geo, level, lam):
    scale = FieldElem(Fraction(lam))
    return GeoCCT(geo.abstract, tuple(
        tuple(scale * x for x in p[:4]) + (p[4],)
        if geo.abstract.layers[vid] == level else p
        for vid, p in enumerate(geo.coords)), geo.kappas)


class TestIncrementalRecord:
    @pytest.mark.parametrize("tamper", [None, (3, "-1"), (7, "-1"), (5, "9")])
    def test_verdicts_equal_full_fold(self, tamper):
        full_tube = generate(12)
        if tamper:
            full_tube = scale_level(full_tube, *tamper)
        record = TubeRecord()
        for width in range(1, 13):
            geo = prefix(full_tube, width)
            assert check_symmetric(geo, record) == check_symmetric(geo)
            assert _transversal_core(geo, record) is check_transversal(geo)
        assert record.symmetric_levels == 13

    def test_generate_record_covers_every_level(self):
        record = TubeRecord()
        geo = generate(7, record)
        assert record.symmetric_levels == 8
        assert record.transversal_levels == 7
        assert check_symmetric(geo, record) == check_symmetric(geo)
        assert record.screw is check_symmetric(geo)
        assert _transversal_core(geo, record) is True
        assert record.transversal_levels == 8
        assert len(record.ray_keys) == 12 * 8

    def test_screw_powers_move_the_first_vertex_of_each_level(self):
        geo = generate(5)
        screw = check_symmetric(geo)
        for level in range(6):
            first = geo.coords[12 * level]
            for j, e in enumerate(screw.powers):
                assert geo.coords[12 * level + j] == mat_vec(B_POW[e], first)

    def test_rotate_is_the_screw_power(self):
        # B^e = R12^e R34^e, since the two block rotations commute
        geo = generate(4)
        for p in geo.coords + geo.kappas:
            for e in range(-12, 12):
                assert rotate(p, e, e) == tuple(mat_vec(B_POW[e % 12], p))

    def test_non_representative_tamper_is_a_symmetry_violation(self):
        geo = generate(5)
        coords = list(geo.coords)
        p = coords[17]
        coords[17] = (p[0], p[1], p[2] * 3, p[3], p[4])
        bad = GeoCCT(geo.abstract, tuple(coords), geo.kappas)
        with pytest.raises(ValueError, match="symmetry violation"):
            check_convex_position(bad)
        with pytest.raises(ValueError, match="predicate failure: symmetry"):
            extend(bad)
        narrow = prefix(bad, 2)
        with pytest.raises(ValueError, match="predicate failure: symmetry"):
            extend(narrow)

    def test_extend_keeps_the_input_coordinates(self):
        geo = scale_level(generate(4), 0, "9")
        wider = extend(geo)
        assert wider.coords[:60] == geo.coords
        assert wider.coords[60:] == generate(5).coords[60:]


@pytest.mark.parametrize("width", range(3, 13))
def test_generate_does_each_layer_once(width, tmp_path, capsys, monkeypatch):
    calls = {"certify_facet": [], "reconstruct_cube_corner": [], "_star_ok": [],
             "mat_nullspace": []}
    for name, seen in calls.items():
        real = getattr(cct_mod, name)

        def counting(*args, _real=real, _seen=seen):
            _seen.append(args[1:])
            return _real(*args)

        monkeypatch.setattr(cct_mod, name, counting)
    eliminations = []
    real_oriented = cct_mod._oriented_core

    def oriented(*args):
        before = len(calls["mat_nullspace"])
        try:
            return real_oriented(*args)
        finally:
            eliminations.append(len(calls["mat_nullspace"]) - before)

    monkeypatch.setattr(cct_mod, "_oriented_core", oriented)
    out_file = tmp_path / "tube.json"
    assert main(["cct", "generate", "--n", str(width), "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert calls["certify_facet"] == [(12 * b,) for b in range(width - 2)]
    assert calls["reconstruct_cube_corner"] == [
        (12 * b, 7) for b in range(width - 2)]
    # one star per (level, direction): the first vertex of the level
    stars = calls["_star_ok"]
    assert len(stars) == 2 * (width - 1)
    assert set(stars) == (
        {(12 * level, +1) for level in range(width - 1)}
        | {(12 * level, -1) for level in range(2, width + 1)})
    # one orientation per width from 3 up, each with at most seven
    # eliminations: one per screw orbit of boundary squares, three per level
    assert len(eliminations) == width - 2
    assert max(eliminations) <= 7


# ---------------------------------------------------------------------------
# The mirror relation as a matrix product: a copy of check_symmetric that
# applies the reflection by mat_vec.  The library's check must give the
# same screws, the same records and the same `cct verify` output on the
# tampered tubes of this file.


def ref_check_symmetric(t, record=None):
    record = TubeRecord() if record is None else record
    ab = t.abstract
    P = t.coords
    while record.screws and record.symmetric_levels <= t.width:
        start = 12 * record.symmetric_levels
        level = list(enumerate(ab.vertex_reps[start:start + 12], start))
        if any(P[ab.vertex_id((w[1], w[0], w[2]))] != mat_vec(S, P[vid])
               for vid, w in level):
            record.screws = ()
            break
        record.screws = tuple(
            screw for screw in record.screws
            if all(P[ab.vertex_id((w[0] - 1, w[1] + 1, w[2]))]
                   == mat_vec(B_POW[screw.tb], P[vid])
                   and P[ab.vertex_id((w[0], w[1] - 1, w[2] + 1))]
                   == mat_vec(B_POW[screw.tc], P[vid])
                   for vid, w in level))
        record.symmetric_levels += 1
    return record.screw


def tampered_tubes():
    ct3 = seed_ct3()
    bumped = list(ct3.coords)
    bumped[5] = (bumped[5][0] + 1,) + bumped[5][1:]
    width4, width5, width12 = generate(4), generate(5), generate(12)
    tubes = [
        ct3,
        GeoCCT(ct3.abstract, tuple(tuple(mat_vec(S, p)) for p in ct3.coords),
               ct3.kappas),
        GeoCCT(ct3.abstract, tuple(bumped), ct3.kappas),
        tamper_vertex(width4, 17, lambda p: (p[0] * 2,) + p[1:]),
    ]
    for vid in (0, 5, 17, 43, 70):
        for change in (lambda p: (p[0] * 2, p[1], p[2], p[3], p[4]),
                       lambda p: (-p[0], -p[1], -p[2], -p[3], p[4]),
                       lambda p: (p[0], p[1], -p[2], -p[3], p[4]),
                       lambda p: (p[0], p[1], p[2], -p[3], p[4]),
                       lambda p: (p[1], p[0], p[2], p[3], p[4])):
            tubes.append(tamper_vertex(width5, vid, change))
    for level, lam, _ in TestCertificateOracles.SCALED_LEVEL_VERDICTS:
        tubes.append(scale_level(width4, level, lam))
    for level, lam in ((3, "-1"), (7, "-1"), (5, "9")):
        tubes.append(scale_level(width12, level, lam))
    return tubes


class TestMirrorOracle:
    def test_screws_and_records_match_reference(self):
        for geo in tampered_tubes():
            got, want = TubeRecord(), TubeRecord()
            assert check_symmetric(geo, got) == ref_check_symmetric(geo, want)
            assert (got.screws, got.symmetric_levels) == \
                (want.screws, want.symmetric_levels)

    def test_verify_output_matches_reference(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tube.json"
        for geo in tampered_tubes():
            path.write_text(json.dumps(geo.to_json()))
            argv = ["cct", "verify", "--file", str(path)]
            got = main(argv), capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(cct_mod, "check_symmetric", ref_check_symmetric)
                want = main(argv), capsys.readouterr()
            assert got == want


# ---------------------------------------------------------------------------
# The tube's certificate: a copy of the checks that `cct generate` and
# `cct verify` ran before one library function owned them.  The library's
# must give the same (name, passed, witness) triples, the same normals or
# the same error, and leave its record in the same state, on generated
# tubes with the generating record and with a fresh one, and on the
# tampered tubes of this file.


def ref_certify(t, record):
    screw = check_symmetric(t, record)
    if not screw:
        raise ValueError("symmetry violation")
    checks = [
        ("symmetry", True, "screw motion invariance"),
        ("transversality", cct_mod._transversal_core(t, record),
         "tube rays cross every slab cell"),
        ("obtuse-slope", cct_mod._slope_core(t),
         "consecutive slope vectors at obtuse angles"),
    ]
    normals = None
    if t.width >= 3:
        checks.append(("orientation", cct_mod._oriented_core(t, screw),
                       "all cells tilt toward the core circle"))
        try:
            normals = check_convex_position(t, screw)
            checks.append(("convex-position", True,
                           f"{len(normals)} facets exactly exposed"))
        except ValueError as exc:
            checks.append(("convex-position", False, str(exc)))
    else:
        checks.append(("orientation", True, "skipped: width below three"))
        checks.append(("convex-position", True, "skipped: width below three"))
    return checks, normals


def certified(fn, t, record):
    """fn's certificate or the error it raised, and the record after it."""
    try:
        result = fn(t, record)
    except ValueError as exc:
        result = type(exc), str(exc)
    return result, (record.symmetric_levels, record.screws,
                    record.transversal_levels, record.ray_keys,
                    record.transversal)


class TestCertifyOracle:
    # the convex-position witness on each tube of SCALED_LEVEL_VERDICTS
    SCALED_LEVEL_WITNESSES = [
        "facet 0 is not flat",
        "facet 0 is not flat",
        "facet 0 is not flat",
        "facet 0 is not flat",
        "facet 0 is not flat",
        "exposure failure: vertex 48 on the wrong side of facet 0",
        "facet 12 is not flat",
    ]

    @pytest.mark.parametrize("width", range(1, 7))
    def test_generated_tubes(self, width):
        got, want = TubeRecord(), TubeRecord()
        geo = generate(width, got)
        generate(width, want)
        assert certified(certify, geo, got) == certified(ref_certify, geo, want)
        fresh = certified(ref_certify, geo, TubeRecord())
        assert certified(certify, geo, TubeRecord()) == fresh
        assert certify(geo) == fresh[0]

    def test_tampered_tubes(self):
        for geo in tampered_tubes():
            assert (certified(certify, geo, TubeRecord())
                    == certified(ref_certify, geo, TubeRecord()))

    def test_scaled_level_witnesses(self):
        for (level, lam, verdicts), witness in zip(
                TestCertificateOracles.SCALED_LEVEL_VERDICTS,
                self.SCALED_LEVEL_WITNESSES):
            checks, normals = certify(scale_level(generate(4), level, lam))
            assert [name for name, _, _ in checks] == [
                "symmetry", "transversality", "obtuse-slope", "orientation",
                "convex-position"]
            assert [("pass" if passed else "FAIL")
                    for _, passed, _ in checks] == verdicts.split()
            assert checks[-1] == ("convex-position", False, witness)
            assert normals is None
