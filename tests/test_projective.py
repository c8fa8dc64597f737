"""Incidence programs, point configurations, and cone constructions.

Expected coordinates in these tests were derived by hand with exact
arithmetic: every join/meet was solved as a small linear system and the
results frozen here before the module was written.
"""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyforge.exactfield import (
    FieldElem,
    ONE,
    ZERO,
    mat_det,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_vec,
    rotation_12,
    rotation_34,
)
from polyforge.cct import THETA0, seed_ct1
from polyforge.projective import (
    BASE_FRAME,
    FrameDerivation,
    IncidenceProgram,
    PPConfig,
    build_k_configuration,
    compile_polynomial,
    coor_config,
    derive_q3,
    evaluate_slp,
    flat_meet,
    flat_rank,
    flat_span,
    frame_replay,
    gadget_add,
    gadget_div,
    gadget_mul,
    gadget_sub,
    lattice_qd,
    lawrence_extension,
    lawrence_face_certificate,
    pcctp_counts,
    plane_join,
    plane_meet,
    poly_eval,
    proj_config,
    proj_equal,
    subdirect_cone,
    weak_triple_counts,
)

F = FieldElem
S2 = FieldElem.sqrt2()
S3 = FieldElem.sqrt3()
LAM = S2 - 1
HALF = F(Fraction(1, 2))


def pt(*xs):
    return tuple(x if isinstance(x, FieldElem) else F(x) for x in xs)


def axis_point(x):
    """Embed a field value as the point (x, 0, 1) of the plane."""
    return pt(x, 0, 1)


def run1(prog, **vals):
    out = evaluate_slp(prog, {k: v for k, v in vals.items()})
    return out[prog.outputs[0]]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestPlanePrimitives:
    def test_join_meet_cross(self):
        p = pt(1, 0, 1)
        q = pt(0, 1, 1)
        line = plane_join(p, q)
        # both points satisfy the line equation
        assert sum(a * b for a, b in zip(line, p)) == ZERO
        assert sum(a * b for a, b in zip(line, q)) == ZERO

    def test_meet_of_two_lines(self):
        l1 = plane_join(pt(0, 0, 1), pt(1, 1, 1))
        l2 = plane_join(pt(1, 0, 1), pt(0, 1, 1))
        assert proj_equal(plane_meet(l1, l2), pt(1, 1, 2))

    def test_join_of_equal_points_fails(self):
        with pytest.raises(ValueError):
            plane_join(pt(1, 2, 1), pt(2, 4, 2))

    def test_meet_of_equal_lines_fails(self):
        l1 = plane_join(pt(0, 0, 1), pt(1, 1, 1))
        with pytest.raises(ValueError):
            plane_meet(l1, tuple(x * 3 for x in l1))

    def test_proj_equal_ignores_scale(self):
        assert proj_equal(pt(2, 4, 6), pt(1, 2, 3))
        assert not proj_equal(pt(1, 0, 0), pt(0, 1, 0))


class TestFlats:
    def test_span_rank(self):
        f = flat_span([pt(1, 0, 0, 0, 1), pt(0, 1, 0, 0, 1)])
        assert flat_rank(f) == 2

    def test_meet_of_planes_in_four_space(self):
        # two planes through a common point meet in exactly that point
        f1 = flat_span([pt(1, 0, 1, S3, 1), pt(-1, 0, 1, -S3, 1)])
        f2 = flat_span([pt(-1, 0, 1, S3, 1), pt(1, 0, 1, -S3, 1)])
        m = flat_meet(f1, f2)
        assert flat_rank(m) == 1
        assert proj_equal(m[0], pt(0, 0, 1, 0, 1))

    def test_meet_can_be_empty(self):
        f1 = flat_span([pt(1, 0, 0)])
        f2 = flat_span([pt(0, 1, 0)])
        assert flat_rank(flat_meet(f1, f2)) == 0

    def test_span_is_canonical(self):
        f1 = flat_span([pt(2, 0, 2), pt(0, 3, 3)])
        f2 = flat_span([pt(1, 0, 1), pt(1, 3, 4)])
        assert f1 == f2


# entries of Q(sqrt2, sqrt3), zero twice as often as any other, so that
# random vectors have varied zero patterns
POOL = (ZERO, ZERO, ONE, -ONE, F(2), HALF, S2, S3, S2 + 1, S3 - S2,
        F(0, 0, 0, 1), F(Fraction(-3, 2), 1, 0, 0), S2 * S3 - HALF)


def random_vec(rng, n):
    while True:
        v = tuple(rng.choice(POOL) for _ in range(n))
        if any(v):
            return v


def combination(rng, vectors):
    """A random combination of the vectors, with nonzero coefficients."""
    n = len(vectors[0])
    out = [ZERO] * n
    for v in vectors:
        c = rng.choice([x for x in POOL if x])
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def ref_flat_meet(f1, f2):
    """The meet as the flat cut out by both operands' annihilators."""
    if not f1 or not f2:
        return ()
    constraints = list(mat_nullspace(list(f1))) + list(mat_nullspace(list(f2)))
    if not constraints:
        return f1
    return flat_span(mat_nullspace(constraints))


def flat_pair(rng, n, kind):
    """Two flats of ambient dimension n, the second one `kind` of the
    first: random, contained in it, equal to it, complementary to it
    (generically disjoint), or the whole space."""
    gens = [random_vec(rng, n) for _ in range(rng.randint(1, n))]
    if kind == "random":
        other = [random_vec(rng, n) for _ in range(rng.randint(1, n))]
    elif kind == "contained":
        other = [combination(rng, rng.sample(gens, rng.randint(1, len(gens))))]
    elif kind == "equal":
        other = [combination(rng, gens) for _ in gens] + gens
        rng.shuffle(other)
    elif kind == "disjoint":
        other = [random_vec(rng, n) for _ in range(n - len(gens))] or gens
    else:
        other = [random_vec(rng, n) for _ in range(n)] + [
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    return flat_span(gens), flat_span(other)


def as_numerators(flat):
    return tuple(tuple(x._n for x in row) for row in flat)


class TestFlatMeetOracle:
    def test_meet_matches_nullspace_formula(self):
        rng = random.Random("flat meet oracle")
        seen = set()
        for trial in range(300):
            n = 3 + trial % 3
            kind = ("random", "contained", "equal", "disjoint", "whole")[trial % 5]
            f1, f2 = flat_pair(rng, n, kind)
            if rng.random() < 0.5:
                f1, f2 = f2, f1
            got = flat_meet(f1, f2)
            assert as_numerators(got) == as_numerators(ref_flat_meet(f1, f2))
            if not got:
                seen.add("disjoint")
            elif len(f1) == n or len(f2) == n:
                seen.add("whole")
            elif got == f1 == f2:
                seen.add("equal")
            elif got in (f1, f2):
                seen.add("contained")
            else:
                seen.add("proper")
        assert seen == {"disjoint", "whole", "equal", "contained", "proper"}


class TestFlatMeetOperands:
    @pytest.mark.parametrize("f1", [
        (pt(2, 0, 0),),                     # a pivot that is not one
        (pt(1, 1, 0), pt(0, 1, 0)),         # a pivot column not cleared
        (pt(0, 1, 0), pt(1, 0, 0)),         # pivots out of order
        (pt(1, 0, 0), pt(1, 0, 0)),         # a repeated row
        (pt(0, 0, 0), pt(1, 0, 0)),         # a zero row above a pivot
    ], ids=["pivot-not-one", "column-not-cleared", "pivots-out-of-order",
            "repeated-row", "zero-row-first"])
    def test_first_operand_must_be_reduced(self, f1):
        with pytest.raises(ValueError, match="^first operand of flat_meet is not in "
                                             "reduced echelon form$"):
            flat_meet(f1, flat_span([pt(1, 1, 1), pt(0, 1, 0)]))

    def test_second_operand_is_any_spanning_set(self):
        rng = random.Random("second operand")
        for _ in range(40):
            n = rng.randint(3, 5)
            f1 = flat_span([random_vec(rng, n) for _ in range(rng.randint(1, n))])
            rows = [random_vec(rng, n) for _ in range(rng.randint(1, n))]
            rows += [combination(rng, rows)]  # dependent rows too
            want = flat_meet(f1, flat_span(rows))
            assert as_numerators(flat_meet(f1, rows)) == as_numerators(want)
            assert as_numerators(ref_flat_meet(f1, rows)) == as_numerators(want)

    def test_integer_operands(self):
        assert flat_meet(((1, 0, 0), (0, 1, 0)), ((1, 1, 1), (0, 0, 1))) == (pt(1, 1, 0),)


def ref_proj_equal(u, v):
    return any(u) and any(v) and mat_rank([u, v]) == 1


class TestProjEqualOracle:
    def test_proj_equal_matches_rank_one(self):
        rng = random.Random("proj equal oracle")
        outcomes = set()
        for trial in range(600):
            n = 2 + trial % 4
            u = random_vec(rng, n)
            kind = trial % 4
            if kind == 0:  # a scaled copy
                v = tuple(rng.choice([x for x in POOL if x]) * x for x in u)
            elif kind == 1:  # a scaled copy with one entry changed
                v = [rng.choice([x for x in POOL if x]) * x for x in u]
                i = rng.randrange(n)
                v[i] = rng.choice(POOL)
                v = tuple(v)
            elif kind == 2:  # the same zero pattern, other entries
                v = tuple(rng.choice([x for x in POOL if x]) if x else ZERO for x in u)
            else:  # an independent vector, zero patterns mismatched
                v = random_vec(rng, n)
            if rng.random() < 0.05:
                v = tuple(ZERO for _ in u)
            want = bool(ref_proj_equal(u, v))
            assert proj_equal(u, v) is want
            assert proj_equal(v, u) is want
            outcomes.add((kind, want))
        assert outcomes >= {(0, True), (1, True), (1, False), (2, False), (3, False)}

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            proj_equal(pt(1, 2, 3), pt(1, 2))


class TestGadgetArithmetic:
    def test_addition(self):
        out = run1(gadget_add(), x=axis_point(2), y=axis_point(3))
        assert proj_equal(out, axis_point(5))

    def test_multiplication(self):
        out = run1(gadget_mul(), x=axis_point(2), y=axis_point(3))
        assert proj_equal(out, axis_point(6))

    def test_multiplication_of_surds(self):
        out = run1(gadget_mul(), x=axis_point(S2), y=axis_point(S2))
        assert proj_equal(out, axis_point(2))

    def test_subtraction(self):
        out = run1(gadget_sub(), x=axis_point(5), y=axis_point(3))
        assert proj_equal(out, axis_point(2))

    def test_division(self):
        out = run1(gadget_div(), x=axis_point(6), y=axis_point(3))
        assert proj_equal(out, axis_point(2))

    def test_zero_operands(self):
        assert proj_equal(run1(gadget_add(), x=axis_point(0), y=axis_point(7)),
                          axis_point(7))
        assert proj_equal(run1(gadget_add(), x=axis_point(7), y=axis_point(0)),
                          axis_point(7))
        assert proj_equal(run1(gadget_mul(), x=axis_point(0), y=axis_point(5)),
                          axis_point(0))
        assert proj_equal(run1(gadget_mul(), x=axis_point(5), y=axis_point(0)),
                          axis_point(0))

    def test_division_by_zero_gives_infinity(self):
        out = run1(gadget_div(), x=axis_point(3), y=axis_point(0))
        assert proj_equal(out, pt(1, 0, 0))

    def test_zero_over_zero_fails(self):
        with pytest.raises(ValueError):
            run1(gadget_div(), x=axis_point(0), y=axis_point(0))

    @given(a=rationals, b=rationals)
    @settings(max_examples=25, deadline=None)
    def test_add_matches_field(self, a, b):
        out = run1(gadget_add(), x=axis_point(a), y=axis_point(b))
        assert proj_equal(out, axis_point(F(a) + F(b)))

    @given(a=rationals, b=rationals)
    @settings(max_examples=25, deadline=None)
    def test_mul_matches_field(self, a, b):
        out = run1(gadget_mul(), x=axis_point(a), y=axis_point(b))
        assert proj_equal(out, axis_point(F(a) * F(b)))


class TestProgramSerialization:
    def test_round_trip(self):
        prog = gadget_mul()
        back = IncidenceProgram.from_json(prog.to_json())
        assert back == prog
        out = run1(back, x=axis_point(4), y=axis_point(5))
        assert proj_equal(out, axis_point(20))

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            IncidenceProgram(
                inputs=("x",),
                base=(),
                steps=(("join", ("x", "nope")),),
                outputs=("s0",),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            IncidenceProgram(
                inputs=("x", "x"),
                base=(),
                steps=(),
                outputs=(),
            )

    # base points load before inputs, each in order: its presence, then a
    # zero vector, then the ambient dimension
    @pytest.mark.parametrize("base,inputs,err", [
        ({"o": pt(0, 0, 0)}, {}, "zero vector for point o"),
        ({"o": pt(0, 0, 1)}, {"y": pt(0, 0, 0)}, "missing input: x"),
        ({"o": pt(0, 0, 1)}, {"x": pt(1, 1), "y": pt(0, 0, 0)},
         "inconsistent ambient dimension"),
        ({}, {"x": pt(1, 1), "y": pt(0, 0, 0)}, "zero vector for point y"),
        ({}, {"x": pt(1, 1), "y": pt(1, 0, 1)}, "inconsistent ambient dimension"),
    ])
    def test_load_errors_in_order(self, base, inputs, err):
        with pytest.raises(ValueError, match=f"^{err}$"):
            evaluate_slp(gadget_mul(), inputs, base)

    def test_duplicate_derived_names_rejected(self):
        prog = IncidenceProgram(inputs=("x", "y"), base=(),
                                steps=(("join", ("x", "y")),),
                                outputs=("s0", "s0"))
        with pytest.raises(ValueError, match="derived names must be distinct"):
            FrameDerivation(("x", "y"), ("l", "l"), prog)


class TestCompiledPolynomials:
    def test_root_of_two(self):
        prog = compile_polynomial([-2, 0, 1])
        out = run1(prog, x=axis_point(S2))
        assert proj_equal(out, pt(0, 0, 1))

    def test_root_of_three(self):
        prog = compile_polynomial([-3, 0, 1])
        out = run1(prog, x=axis_point(S3))
        assert proj_equal(out, pt(0, 0, 1))

    def test_linear_rational_root(self):
        # 7x - 3 vanishes at 3/7
        prog = compile_polynomial([-3, 7])
        out = run1(prog, x=axis_point(Fraction(3, 7)))
        assert proj_equal(out, pt(0, 0, 1))

    def test_against_direct_evaluation(self):
        coeffs = [Fraction(1, 2), -2, 0, 3]
        prog = compile_polynomial(coeffs)
        for x in (F(0), F(1), F(-2), F(Fraction(5, 3)), S2, S3, ONE + S2):
            out = run1(prog, x=axis_point(x))
            assert proj_equal(out, axis_point(poly_eval(coeffs, x)))

    @given(
        coeffs=st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=4,
        ),
        x=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_polynomials(self, coeffs, x):
        prog = compile_polynomial(coeffs)
        out = run1(prog, x=axis_point(x))
        assert proj_equal(out, axis_point(poly_eval(coeffs, F(x))))

    def test_constant_polynomial(self):
        prog = compile_polynomial([Fraction(-5, 2)])
        out = run1(prog, x=axis_point(9))
        assert proj_equal(out, axis_point(Fraction(-5, 2)))

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            compile_polynomial([])

    def test_poly_eval(self):
        assert poly_eval([-2, 0, 1], S2) == ZERO
        assert poly_eval([1, 2, 3], F(2)) == F(17)


SAMPLE_MAPS = [
    ((1, 2, 0), (0, 1, 0), (1, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((2, 0, 1), (1, 3, 0), (0, 1, 1)),
]


class TestEquivariance:
    @pytest.mark.parametrize("mat", SAMPLE_MAPS)
    @pytest.mark.parametrize("make", [gadget_add, gadget_mul])
    def test_gadgets_commute_with_projective_maps(self, mat, make):
        m = tuple(pt(*row) for row in mat)
        assert mat_det(m) != ZERO
        prog = make()
        x, y = axis_point(3), axis_point(Fraction(5, 2))
        plain = run1(prog, x=x, y=y)
        moved_base = {name: tuple(mat_vec(m, p)) for name, p in prog.base}
        moved = evaluate_slp(
            prog,
            {"x": tuple(mat_vec(m, x)), "y": tuple(mat_vec(m, y))},
            base=moved_base,
        )[prog.outputs[0]]
        assert proj_equal(moved, tuple(mat_vec(m, plain)))


class TestLatticeConfigs:
    def test_counts(self):
        assert len(lattice_qd(1)) == 3
        assert len(lattice_qd(3)) == 27
        assert len(lattice_qd(4)) == 81

    def test_entries(self):
        pts = lattice_qd(2)
        assert pt(0, 0) in pts
        assert pt(-1, 1) in pts
        assert all(all(x in (F(-1), F(0), F(1)) for x in p) for p in pts)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            lattice_qd(0)

    def test_proj_config(self):
        cfg = proj_config([1, 2, 3])
        assert len(cfg.points) == 27
        assert len(cfg.frame) == 7
        assert pt(0, 0, 0) in cfg.points
        assert pt(1, 2, 3) in cfg.points
        assert pt(Fraction(1, 2), 1, Fraction(3, 2)) in cfg.points
        assert pt(0, 0, 0) in cfg.frame
        assert pt(1, 0, 0) in cfg.frame
        assert pt(0, 1, 0) in cfg.frame
        assert pt(Fraction(1, 2), 0, 0) in cfg.frame

    def test_proj_config_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            proj_config([1, 2])
        with pytest.raises(ValueError):
            proj_config([1, 0, 3])


class TestPointConfigurations:
    def test_valid_config(self):
        cfg = PPConfig(
            ambient_dim=2,
            polytope_vertices=(pt(0, 0), pt(1, 0), pt(0, 1)),
            free_points=(pt(2, 2),),
        )
        assert cfg.ambient_dim == 2

    def test_interior_vertex_rejected(self):
        with pytest.raises(ValueError):
            PPConfig(
                ambient_dim=2,
                polytope_vertices=(
                    pt(0, 0), pt(4, 0), pt(0, 4), pt(1, 1),
                ),
                free_points=(),
            )

    def test_free_point_inside_rejected(self):
        with pytest.raises(ValueError):
            PPConfig(
                ambient_dim=2,
                polytope_vertices=(pt(0, 0), pt(4, 0), pt(0, 4)),
                free_points=(pt(1, 1),),
            )

    def test_json_round_trip(self):
        cfg = PPConfig(
            ambient_dim=1,
            polytope_vertices=(pt(0), pt(1)),
            free_points=(pt(3),),
            metadata={"label": "segment"},
        )
        back = PPConfig.from_json(cfg.to_json())
        assert back.polytope_vertices == cfg.polytope_vertices
        assert back.free_points == cfg.free_points
        assert back.metadata["label"] == "segment"


class TestLawrence:
    def test_segment_with_one_free_point(self):
        cfg = PPConfig(
            ambient_dim=1,
            polytope_vertices=(pt(0), pt(1)),
            free_points=(pt(3),),
        )
        out = lawrence_extension(cfg)
        assert out.ambient_dim == 2
        assert len(out.polytope_vertices) == 4
        assert not out.free_points
        assert out.metadata["dim"] == 2
        assert pt(0, 0) in out.polytope_vertices
        assert pt(3, 1) in out.polytope_vertices
        assert pt(3, 2) in out.polytope_vertices

    def test_triangle_with_two_free_points(self):
        cfg = PPConfig(
            ambient_dim=2,
            polytope_vertices=(pt(0, 0), pt(1, 0), pt(0, 1)),
            free_points=(pt(2, 2), pt(3, -1)),
        )
        out = lawrence_extension(cfg)
        assert out.ambient_dim == 4
        assert len(out.polytope_vertices) == 7
        assert out.metadata["dim"] == 4
        assert pt(2, 2, 1, 0) in out.polytope_vertices
        assert pt(2, 2, 2, 0) in out.polytope_vertices
        assert pt(3, -1, 0, 2) in out.polytope_vertices

    def test_count_formula(self):
        cfg = PPConfig(
            ambient_dim=2,
            polytope_vertices=(pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)),
            free_points=(pt(5, 5), pt(-1, 3), pt(4, -2)),
        )
        out = lawrence_extension(cfg)
        assert len(out.polytope_vertices) == 4 + 2 * 3
        assert out.ambient_dim == 5

    def test_face_certificate(self):
        cfg = PPConfig(
            ambient_dim=1,
            polytope_vertices=(pt(0), pt(1)),
            free_points=(pt(3),),
        )
        out = lawrence_extension(cfg)
        normal, offset = lawrence_face_certificate(out)
        assert normal == pt(0, -1)
        assert offset == ZERO
        vals = [sum(a * b for a, b in zip(normal, p)) for p in out.polytope_vertices]
        on_face = [v for v in vals if v == offset]
        assert len(on_face) == 2
        assert all(v <= offset for v in vals)


class TestSubdirectCone:
    def wedge_input(self):
        p_pts = (pt(1, 1), pt(-1, 1), pt(1, 2), pt(-1, 2))
        q_pts = (pt(0, 0),)
        r_pts = (pt(1, 0), pt(-1, 0), pt(2, 0))
        wedge = (pt(0, 1), ZERO)
        return (p_pts, q_pts, r_pts), wedge

    def test_cone_points(self):
        triple, wedge = self.wedge_input()
        out = subdirect_cone(triple, wedge)
        assert out.ambient_dim == 3
        assert out.polytope_vertices[0] == pt(0, 0, 1)
        assert pt(HALF, HALF, HALF) in out.polytope_vertices
        assert pt(Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)) in out.polytope_vertices
        assert len(out.polytope_vertices) == 5
        assert len(out.free_points) == 4
        assert pt(2, 0, 0) in out.free_points

    def test_count_matches_formula(self):
        # coning off and then doubling the free points realizes the
        # advertised dimension and vertex counts exactly
        triple, wedge = self.wedge_input()
        out = subdirect_cone(triple, wedge)
        assert len(out.polytope_vertices) == 4 + 1
        counts = weak_triple_counts(p_dim=2, p_f0=4, q_f0=1, r_f0=3)
        lifted = lawrence_extension(out)
        assert len(lifted.polytope_vertices) == counts["f0"]
        assert lifted.ambient_dim == counts["dim"]
        assert lifted.metadata["dim"] == counts["dim"]

    def test_wedge_through_polytope_rejected(self):
        p_pts = (pt(1, 1), pt(-1, -1))
        q_pts = ()
        r_pts = (pt(1, 0), pt(-1, 0))
        with pytest.raises(ValueError, match="wedge"):
            subdirect_cone((p_pts, q_pts, r_pts), (pt(0, 1), ZERO))

    def test_free_points_must_span(self):
        p_pts = (pt(1, 1, 1),)
        q_pts = ()
        r_pts = (pt(1, 0, 0), pt(2, 0, 0))
        with pytest.raises(ValueError, match="span"):
            subdirect_cone((p_pts, q_pts, r_pts), (pt(0, 0, 1), ZERO))

    def test_shared_points_must_sit_on_wedge(self):
        p_pts = (pt(1, 1),)
        q_pts = (pt(0, 1),)
        r_pts = (pt(1, 0), pt(-1, 0))
        with pytest.raises(ValueError, match="hyperplane"):
            subdirect_cone((p_pts, q_pts, r_pts), (pt(0, 1), ZERO))

    def test_custom_apex(self):
        triple, wedge = self.wedge_input()
        out = subdirect_cone(triple, wedge, apex=pt(0, 0, 5))
        assert out.polytope_vertices[0] == pt(0, 0, 5)
        with pytest.raises(ValueError):
            subdirect_cone(triple, wedge, apex=pt(0, 3, 0))

    def test_negative_side_is_flipped(self):
        p_pts = (pt(0, -1),)
        q_pts = ()
        r_pts = (pt(1, 0), pt(-1, 0))
        out = subdirect_cone((p_pts, q_pts, r_pts), (pt(0, 1), ZERO))
        assert len(out.polytope_vertices) == 2


class TestCountFormulas:
    def test_weak_triple(self):
        counts = weak_triple_counts(p_dim=4, p_f0=24, q_f0=24, r_f0=40)
        assert counts["dim"] == 4 + 24 + 40 + 1
        assert counts["f0"] == 24 + 1 + 2 * 24 + 2 * 40

    def test_tower_counts(self):
        for n in range(1, 11):
            counts = pcctp_counts(n)
            assert counts["dim"] == 69
            assert counts["f0"] == 12 * (n + 1) + 129

    def test_tower_needs_positive_width(self):
        with pytest.raises(ValueError):
            pcctp_counts(0)


class TestCubeFrame:
    def test_replay(self):
        points, derivation = derive_q3()
        assert len(points) == 27
        assert frame_replay(points, derivation)

    def test_face_and_edge_points(self):
        points, _ = derive_q3()
        assert proj_equal(points["fxp"], pt(1, 0, 0, 1))
        assert proj_equal(points["mxpyp"], pt(1, 1, 0, 1))
        assert proj_equal(points["ctr"], pt(0, 0, 0, 1))

    def test_tamper_detected(self):
        points, derivation = derive_q3()
        bad = dict(points)
        bad["fxp"] = pt(1, 0, Fraction(1, 7), 1)
        assert not frame_replay(bad, derivation)


class TestKConfiguration:
    def test_point_count(self):
        k = build_k_configuration()
        assert len(k.points) == 64
        assert len(k.ct_vertex_names) == 24
        assert len(k.free_names) == 40
        assert set(k.ct_vertex_names) | set(k.free_names) == set(k.points)
        assert not set(k.ct_vertex_names) & set(k.free_names)

    def test_base_coordinates(self):
        k = build_k_configuration()
        assert k.points["x1p"] == pt(1, 0, -2, 0, 1)
        assert k.points["y1p"] == pt(0, 1, -2, 0, 1)
        assert k.points["x2p"] == pt(1, 0, 1, S3, 1)
        assert k.points["y3p"] == pt(0, 1, 1, -S3, 1)

    def test_derived_coordinates(self):
        k = build_k_configuration()
        assert k.points["center"] == pt(0, 0, 0, 0, 1)
        assert k.points["mid23"] == pt(0, 0, 1, 0, 1)
        assert k.points["mid13"] == pt(0, 0, Fraction(-1, 2), -S3 / 2, 1)
        assert k.points["y1m"] == pt(0, -1, -2, 0, 1)
        assert k.points["far_x1p"] == pt(1, 0, 2, 0, 1)
        assert k.points["far_y2m"] == pt(0, -1, -1, -S3, 1)
        assert k.points["sq1_center"] == pt(0, 0, -2, 0, 1)
        assert k.points["cross12_pp"] == pt(HALF, HALF, Fraction(-1, 2), S3 / 2, 1)
        assert k.points["cross12_pm"] == pt(HALF, -HALF, Fraction(-1, 2), S3 / 2, 1)

    def test_square_points(self):
        k = build_k_configuration()
        assert k.points["ring0_9"] == pt(LAM, LAM, -2, 0, 1)
        assert k.points["ring0_3"] == pt(-LAM, -LAM, -2, 0, 1)
        assert k.points["sq1_pm"] == pt(LAM, -LAM, -2, 0, 1)
        assert k.points["sq1_mp"] == pt(-LAM, LAM, -2, 0, 1)
        cut = ONE - S2 / 2
        assert k.points["ycut_a"] == pt(0, cut, -2, 0, 1)
        assert k.points["ycut_b"] == pt(0, -cut, -2, 0, 1)
        assert k.points["xcut_a"] == pt(cut, 0, -2, 0, 1)

    def test_infinity_points(self):
        k = build_k_configuration()
        assert proj_equal(k.points["inf_x"], pt(1, 0, 0, 0, 0))
        assert proj_equal(k.points["inf_y"], pt(0, 1, 0, 0, 0))
        assert proj_equal(k.points["inf_t12"], pt(0, 0, 3, S3, 0))
        assert proj_equal(k.points["inf_t23"], pt(0, 0, 0, 1, 0))

    def test_rings_are_rotation_orbits(self):
        k = build_k_configuration()
        assert k.points["ring0_0"] == THETA0
        assert k.points["ring1_0"] == pt(-1, 0, 1, 0, 1)
        screw = mat_mul(rotation_34(), rotation_12())
        for j in range(12):
            expect0 = tuple(mat_vec(mat_pow(screw, j), k.points["ring0_0"]))
            expect1 = tuple(mat_vec(mat_pow(screw, j), k.points["ring1_0"]))
            assert k.points[f"ring0_{j}"] == expect0
            assert k.points[f"ring1_{j}"] == expect1

    def test_ring_matches_narrowest_tube(self):
        k = build_k_configuration()
        ring = {k.points[name] for name in k.ct_vertex_names}
        assert ring == set(seed_ct1().coords)

    def test_replay(self):
        k = build_k_configuration()
        assert frame_replay(k.points, k.derivation)

    def test_tampered_square_parameter_detected(self):
        k = build_k_configuration()
        bad = dict(k.points)
        bad["ring0_9"] = pt(HALF, HALF, -2, 0, 1)
        assert not frame_replay(bad, k.derivation)

    def test_tampered_derived_point_detected(self):
        k = build_k_configuration()
        bad = dict(k.points)
        bad["center"] = pt(0, 0, 0, Fraction(1, 5), 1)
        assert not frame_replay(bad, k.derivation)

    def test_coplanarity_certificate(self):
        k = build_k_configuration()
        cert = k.certificate
        assert cert["parameter"] == LAM
        assert cert["rank_at_parameter"] == 4
        assert cert["rank_at_alternative"] == 5
        assert cert["alternative"] == Fraction(1, 2)
        rows = [k.points[name] for name in cert["six_points"]]
        assert mat_rank(rows) == 4
        assert poly_eval(cert["pinning"], LAM) == ZERO
        assert poly_eval(cert["pinning"], HALF) != ZERO

    def test_replay_is_projectively_equivariant(self):
        k = build_k_configuration()
        m = (
            pt(1, 0, 0, 0, 2),
            pt(0, 1, 1, 0, 0),
            pt(0, 0, 1, 0, 0),
            pt(0, 0, 0, 1, 0),
            pt(1, 0, 0, 0, 1),
        )
        assert mat_det(m) != ZERO
        moved = {name: tuple(mat_vec(m, p)) for name, p in k.points.items()}
        assert frame_replay(moved, k.derivation)


class TestCoordinateWindows:
    def test_rational_root(self):
        cfg = coor_config(Fraction(1, 2), [-1, 2], Fraction(0), Fraction(1))
        assert frame_replay(cfg.points, cfg.derivation)
        assert cfg.certificate["endpoint_check"] == "verified"

    def test_sqrt_two(self):
        cfg = coor_config(S2, [-2, 0, 1], 1, 2)
        assert frame_replay(cfg.points, cfg.derivation)
        assert cfg.certificate["root"] == S2

    def test_sqrt_three(self):
        cfg = coor_config(S3, [-3, 0, 1], Fraction(3, 2), 2)
        assert frame_replay(cfg.points, cfg.derivation)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            coor_config(S2, [-3, 0, 1], 1, 2)

    def test_no_sign_change_rejected(self):
        # the square of a quadratic touches zero without crossing it
        with pytest.raises(ValueError, match="sign"):
            coor_config(S2, [4, 0, -4, 0, 1], 1, 2)

    def test_window_must_bracket(self):
        with pytest.raises(ValueError, match="window"):
            coor_config(S2, [-2, 0, 1], 2, 3)

    def test_high_degree_skips_endpoint_check(self):
        # (x^2 - 2)(x^3 - 2) has degree five
        coeffs = [4, 0, -2, -2, 0, 1]
        cfg = coor_config(S2, coeffs, 1, 2)
        assert cfg.certificate["endpoint_check"].startswith("skipped")
        assert frame_replay(cfg.points, cfg.derivation)

    def test_lattice_base_included(self):
        cfg = coor_config(S2, [-2, 0, 1], 1, 2)
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                assert f"q{i}{j}" in cfg.points
        assert cfg.points["q21"] == pt(2, 1, 1)
        assert proj_equal(cfg.points["zeta"], pt(S2, 0, 1))
