"""The two workloads: seeded inputs, timed operations, independent checks.

A workload is run in passes.  ``setup`` imports what the workload calls
and fills the caches a user pays once per process; ``make_pass`` builds
the seeded inputs of one pass, afresh on every call; ``ops`` lists the
pass's operations.  Each operation is ``(kind, run, args, check)``:
``run(timer, *args)`` does the timed work, splitting it into producing
calls (``timer.generate``) and the program's own checking calls
(``timer.verify``); ``check`` then tests the result with code that does
not trust the producer.  No operation passes ``seed``, ``budget`` or
``jobs`` to the library or the CLI.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

TUBE_WIDTH = 4

# --------------------------------------------------------------------------
# independent helpers


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stellar_rounds(c, rounds: int, rng):
    for _ in range(rounds):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c


def _all_faces(facets) -> set:
    out = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def _euler(facets) -> int:
    return sum((-1) ** (len(f) - 1) for f in _all_faces(facets))


def _dual_adjacency(facets) -> list:
    by_ridge = {}
    for i, f in enumerate(facets):
        for r in itertools.combinations(f, len(f) - 1):
            by_ridge.setdefault(r, []).append(i)
    adj = [[] for _ in facets]
    for members in by_ridge.values():
        for a, b in itertools.combinations(members, 2):
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _bfs(adj, source) -> list:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _frac_solve(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [work[i][n] for i in range(n)]


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


# --------------------------------------------------------------------------
# tube: the paper's headline pipeline through the CLI


def tube_setup(seed: int, workdir: str):
    from polyforge import cli
    return SimpleNamespace(cli=cli, bundle=os.path.join(workdir, "tube.json"),
                           bundle_bytes=0)


def tube_pass(state, seed: int):
    # The pipeline takes no seeded input: every seed runs the same tube.
    return {"width": TUBE_WIDTH}


def _tube_generate(timer, state, width):
    with _quiet():
        return timer.generate(state.cli.main, [
            "cct", "generate", "--n", str(width), "--out", state.bundle])


def _tube_verify(timer, state):
    with _quiet():
        return timer.verify(state.cli.main, ["cct", "verify", "--file", state.bundle])


def _check_tube_bundle(state, width, code):
    if code != 0:
        return False
    state.bundle_bytes = os.path.getsize(state.bundle)
    with open(state.bundle, encoding="utf-8") as fh:
        doc = json.load(fh)
    return (doc["pass"] is True
            and all(c["pass"] is True for c in doc["checks"])
            and doc["subject"]["f0"] == 12 * (width + 1)
            and len(doc["cct"]["vertices"]) == 12 * (width + 1)
            and len(doc["facet_normals"]) == 12 * (width - 2))


def tube_ops(state, items):
    width = items["width"]
    return [
        ("generate", _tube_generate, (state, width),
         lambda code: _check_tube_bundle(state, width, code)),
        ("verify", _tube_verify, (state,), lambda code: code == 0),
    ]


def tube_summary(state, items):
    return {"width": items["width"], "f0": 12 * (items["width"] + 1),
            "three_cells": 12 * (items["width"] - 2),
            "ops": {"generate": 1, "verify": 1}, "seeded": False}


# --------------------------------------------------------------------------
# paths: non-revisiting facet paths on derived spheres

PATH_PAIRS_3 = 90   # facet pairs per derived 3-sphere
PATH_PAIRS_2 = 10   # facet pairs per derived 2-sphere


def _paths_pass(state, seed: int):
    rng = _rng("paths", seed)
    spheres = [(_stellar_rounds(state.cc.boundary_sphere(4), r, rng)
                .derived_subdivision(), PATH_PAIRS_3) for r in range(4)]
    spheres += [(_stellar_rounds(state.cc.boundary_sphere(3), r, rng)
                 .derived_subdivision(), PATH_PAIRS_2) for r in (1, 2)]
    return [(c, [tuple(rng.sample(range(len(c.facets)), 2)) for _ in range(n)])
            for c, n in spheres]


def _segment(timer, state, c, a, b):
    path = timer.generate(state.hp.combinatorial_segment, c, c.facets[a], c.facets[b])
    timer.verify(state.hp.validate_path, c, path)
    return path, timer.verify(state.hp.is_non_revisiting, path)


def _check_segment(c, adj, a, b, out):
    path, non_revisiting = out
    facets = path.facets
    if not non_revisiting or facets[0] != c.facets[a] or facets[-1] != c.facets[b]:
        return False
    known = set(c.facets)
    ridge = len(facets[0]) - 1
    if any(f not in known for f in facets):
        return False
    if any(len(set(f) & set(g)) != ridge for f, g in zip(facets, facets[1:])):
        return False
    return len(facets) - 1 >= _bfs(adj, a)[b]


def _diameter(timer, state, c):
    return timer.generate(state.hp.dual_diameter, c)


def _check_diameter(c, adj, diam):
    ecc = max(max(_bfs(adj, s)) for s in range(len(adj)))
    verts = {v for f in c.facets for v in f}
    return diam == ecc and diam <= len(verts) - len(c.facets[0])


def _paths_ops(state, items):
    ops = []
    for c, pairs in items:
        adj = _dual_adjacency(c.facets)
        ops.append(("diameter", _diameter, (state, c),
                    lambda d, c=c, adj=adj: _check_diameter(c, adj, d)))
        for a, b in pairs:
            ops.append(("segment", _segment, (state, c, a, b),
                        lambda out, c=c, adj=adj, a=a, b=b:
                        _check_segment(c, adj, a, b, out)))
    return ops


# --------------------------------------------------------------------------
# collapse: Morse collapses of balls and crossing ledgers

# Stellar rounds of the balls (derived 3-simplices); one round of the
# 3-simplex gives the same ball for every seed.  The largest ball, with
# LARGE_BALL_ROUNDS rounds, stars the same facets for every seed, so that
# neither the slowest operation nor the peak memory of its search moves
# with the seed.  The balls stay below 1,100 faces: a pass stays short, so
# each operation is repeated often enough within a run for its fastest
# repeat to be steady.
BALL_ROUNDS = (1, 1, 2, 2)
LARGE_BALL_ROUNDS = 3
LEDGERS = 6


def _collapse_pass(state, seed: int):
    cc = state.cc
    rng = _rng("collapse", seed)
    balls = [_stellar_rounds(cc.simplex_complex(3), r, rng).derived_subdivision()
             for r in BALL_ROUNDS]
    balls.append(_stellar_rounds(cc.simplex_complex(3), LARGE_BALL_ROUNDS,
                                 _rng("collapse", 0)).derived_subdivision())
    ledgers = []
    for i in range(LEDGERS):
        c = _stellar_rounds(cc.simplex_complex(3), 1 + i % 2, rng)
        facet = c.facets[rng.randrange(len(c.facets))]
        if i % 3 == 2:
            d = cc.SimplicialComplex(c.num_vertices, [facet])
        else:
            d = cc.SimplicialComplex(c.num_vertices, list(itertools.combinations(facet, 3)))
        ledgers.append((c, d, 2))
    return {"balls": balls, "ledgers": ledgers}


def _collapse(timer, state, c):
    m = timer.generate(state.morse.collapse_search, c)
    valid = timer.verify(state.morse.validate_matching, c, m)
    return m, valid, timer.verify(state.morse.critical_faces, c, m)


def _check_pairs(c, pairs) -> bool:
    faces = _all_faces(c.facets)
    for low, high in pairs:
        if low not in faces or len(high) != len(low) + 1 or not set(low) < set(high):
            return False
    return True


def _check_collapse(c, out):
    m, valid, crit = out
    if valid is not True or sum(len(v) for v in crit.values()) != 1 or 0 not in crit:
        return False
    matched = [k for pair in m.pairs for k in pair]
    unmatched = _all_faces(c.facets) - set(matched)
    return (len(matched) == len(set(matched)) and len(unmatched) == 1
            and len(next(iter(unmatched))) == 1 and _check_pairs(c, m.pairs))


def _ledger(timer, state, c, d, j):
    m, ledger = timer.generate(state.morse.out_j_collapse, c, d, j)
    return m, ledger, timer.verify(state.morse.validate_matching, c, m)


def _check_ledger(c, d, j, out):
    m, ledger, valid = out
    return (valid is True and _check_pairs(c, m.pairs)
            and len(ledger) == (-1) ** j * (_euler(d.facets) - 1))


def _collapse_ops(state, items):
    ops = [("collapse", _collapse, (state, c), lambda out, c=c: _check_collapse(c, out))
           for c in items["balls"]]
    ops += [("ledger", _ledger, (state, c, d, j),
             lambda out, c=c, d=d, j=j: _check_ledger(c, d, j, out))
            for c, d, j in items["ledgers"]]
    return ops


# --------------------------------------------------------------------------
# incidence: projective replay, polynomial programs, Lawrence lifts and
# subspace arrangements

# x^2 - 2 (the CLI's staudt example), x^3 - 3x + 1 and (x-2)(x-1)(x+1),
# each evaluated at one seeded point.
POLYNOMIALS = ((-2, 0, 1), (1, -3, 0, 1), (2, -1, -2, 1))
# Lawrence lifts of polytope vertices (i, i^2), i < m, with free points
# (50 + 10 trial + 3t, -9 - t), t < k, the shape of criterion 9's.  They
# are not seeded, because the exact LPs' cost moved by a third with seeded
# coordinates, and they are smaller than criterion 9's (4, 2) and (5, 1),
# so that the two lifts take about 0.4 s of a pass rather than 0.7 s.
LAWRENCE_CONFIGS = tuple(
    (tuple((Fraction(i), Fraction(i * i)) for i in range(m)),
     tuple((Fraction(50 + 10 * trial + 3 * t), Fraction(-9 - t)) for t in range(k)))
    for trial, (m, k) in enumerate(((4, 1), (3, 2))))
# Seeded arrangements: points in the plane, and planes in R^4 with a
# slicing hyperplane.
POINT_COUNTS = (4, 6)
PLANE_COUNTS = (2, 3)


# A replay maps the configuration by one unimodular shear with seeded row
# signs.  Row permutations or other entries would change the replay's cost
# by up to a quarter from seed to seed; sign changes leave it within a few
# percent.
SHEAR = ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1),
         (0, 0, 0, 0, 1))


def _replay_map(rng):
    return [[sign * x for x in row] for row, sign in zip(SHEAR, rng.choices((-1, 1), k=5))]


def _generic_planes(rng, count):
    """``count`` planes in R^4 meeting pairwise in distinct points, and a
    hyperplane x4 = c missing those points.  Every plane has a direction
    leaving x4 = 0, so each meets the hyperplane in a line."""
    while True:
        planes = []
        for _ in range(count):
            dirs = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
            off = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
            planes.append((dirs, off))
        if any(not (d[0][3] or d[1][3]) for d, _ in planes):
            continue
        points = []
        for (d1, o1), (d2, o2) in itertools.combinations(planes, 2):
            cols = [[d1[0][r], d1[1][r], -d2[0][r], -d2[1][r]] for r in range(4)]
            sol = _frac_solve(cols, [o2[r] - o1[r] for r in range(4)])
            if sol is None:
                break
            points.append(tuple(o1[r] + sol[0] * d1[0][r] + sol[1] * d1[1][r]
                                for r in range(4)))
        else:
            if len(set(points)) != len(points):
                continue
            c = Fraction(rng.randint(1, 50), 7)
            if all(q[3] != c for q in points):
                return planes, c


def _incidence_pass(state, seed: int):
    ef, ar = state.ef, state.ar
    rng = _rng("incidence", seed)
    m = [[ef.FieldElem(x) for x in row] for row in _replay_map(rng)]
    replay = {name: ef.mat_vec(m, p) for name, p in state.k.points.items()}
    polys = [(coeffs, ef.FieldElem(rng.randint(-3, 3), rng.randint(1, 3)))
             for coeffs in POLYNOMIALS]
    point_arrs = []
    for n in POINT_COUNTS:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
        point_arrs.append([ar.AffineSubspace(2, [], list(p)) for p in sorted(pts)])
    plane_arrs = []
    for n in PLANE_COUNTS:
        planes, c = _generic_planes(rng, n)
        arr = [ar.AffineSubspace(4, d, o) for d, o in planes]
        hyper = ar.AffineSubspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                                  [0, 0, 0, c])
        plane_arrs.append((arr, hyper))
    return {"replay": replay, "polys": polys, "lawrence": LAWRENCE_CONFIGS,
            "points": point_arrs, "planes": plane_arrs}


def _replay(timer, state, points):
    return timer.verify(state.pj.frame_replay, points, state.k.derivation)


def _poly(timer, state, coeffs, x):
    ef = state.ef
    prog = timer.generate(state.pj.compile_polynomial, coeffs)
    out = timer.verify(state.pj.evaluate_slp, prog, {"x": (x, ef.ZERO, ef.ONE)})
    return out[prog.outputs[0]], timer.verify(state.pj.poly_eval, coeffs, x)


def _check_poly(out):
    (a, b, c), value = out
    return b.is_zero() and not c.is_zero() and a == value * c


def _lawrence(timer, state, verts, free):
    pj = state.pj
    cfg = timer.generate(pj.PPConfig, ambient_dim=2, polytope_vertices=verts,
                         free_points=free)
    lifted = timer.generate(pj.lawrence_extension, cfg)
    return lifted, timer.generate(pj.lawrence_face_certificate, lifted)


def _check_lawrence(verts, free, out):
    lifted, (normal, offset) = out
    m, k = len(verts), len(free)
    if lifted.ambient_dim != 2 + k or len(lifted.polytope_vertices) != m + 2 * k:
        return False
    if not offset.is_zero():
        return False
    coords = [x for p in lifted.polytope_vertices for x in p] + list(normal)
    if not all(x.is_rational() for x in coords):
        return False
    values = [sum(a.a * b.a for a, b in zip(normal, p))
              for p in lifted.polytope_vertices]
    return (sum(1 for v in values if v == 0) == m
            and all(v < 0 for v in values if v != 0))


def _betti_points(timer, state, arr):
    return timer.generate(state.ar.gm_betti, arr, 1)


def _lefschetz(timer, state, arr, hyper):
    return timer.verify(state.ar.lefschetz_inequality_check, arr, hyper)


def _check_lefschetz(k, report):
    return (report["generic"] is True and all(report["satisfied"])
            and report["ambient"] == [1, k, k * (k - 1) // 2, 0]
            and report["sliced"] == [1, k, 0, 0])


def _incidence_ops(state, items):
    ops = [("replay", _replay, (state, items["replay"]), lambda ok: ok is True)]
    ops += [("polynomial", _poly, (state, coeffs, x), _check_poly)
            for coeffs, x in items["polys"]]
    ops += [("lawrence", _lawrence, (state, verts, free),
             lambda out, v=verts, f=free: _check_lawrence(v, f, out))
            for verts, free in items["lawrence"]]
    ops += [("betti_points", _betti_points, (state, arr),
             lambda b, n=len(arr): b == n) for arr in items["points"]]
    ops += [("lefschetz", _lefschetz, (state, arr, hyper),
             lambda rep, k=len(arr): _check_lefschetz(k, rep))
            for arr, hyper in items["planes"]]
    return ops


def _incidence_summary(state, items):
    return {"k_config_points": len(state.k.points),
            "replay_program_steps": len(state.k.derivation.program.steps),
            "lawrence_shapes": [[len(v), len(f)] for v, f in LAWRENCE_CONFIGS],
            "point_counts": list(POINT_COUNTS), "plane_counts": list(PLANE_COUNTS),
            "polynomials": [list(p) for p in POLYNOMIALS],
            "ops": {"replay": 1, "polynomial": len(items["polys"]),
                    "lawrence": len(LAWRENCE_CONFIGS), "betti_points": len(POINT_COUNTS),
                    "lefschetz": len(PLANE_COUNTS)}}


# --------------------------------------------------------------------------
# structures: the paths, collapse and incidence operations in one pass


def structures_setup(seed: int, workdir: str):
    from polyforge import arrangement, complexcore, exactfield, hirschpath, morse, projective
    return SimpleNamespace(cc=complexcore, hp=hirschpath, morse=morse, pj=projective,
                           ar=arrangement, ef=exactfield,
                           k=projective.build_k_configuration())


def structures_pass(state, seed: int):
    return {"spheres": _paths_pass(state, seed), **_collapse_pass(state, seed),
            "incidence": _incidence_pass(state, seed)}


def structures_ops(state, items):
    return (_paths_ops(state, items["spheres"]) + _collapse_ops(state, items)
            + _incidence_ops(state, items["incidence"]))


def structures_summary(state, items):
    spheres = items["spheres"]
    incidence = _incidence_summary(state, items["incidence"])
    return {"sphere_facets": [len(c.facets) for c, _ in spheres],
            "ball_faces": [len(_all_faces(c.facets)) for c in items["balls"]],
            "ledger_facets": [len(c.facets) for c, _, _ in items["ledgers"]],
            "incidence": incidence,
            "ops": {"segment": sum(len(p) for _, p in spheres), "diameter": len(spheres),
                    "collapse": len(items["balls"]), "ledger": len(items["ledgers"]),
                    **incidence["ops"]}}


# --------------------------------------------------------------------------
# field operands for the kernel timings, drawn from each workload's inputs


def _sample(values, n=64):
    step = max(1, len(values) // n)
    return values[::step][:n]


def tube_operands(state, items, cells):
    from polyforge.exactfield import FieldElem
    with open(state.bundle, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _sample([FieldElem.from_json(x) for p in doc["cct"]["vertices"] for x in p[:4]])


def structures_operands(state, items, cells):
    return _sample([x for p in items["incidence"]["replay"].values() for x in p])


def tube_cells():
    """8 x 5 corner rows of the twelve 3-cells of the width-3 tube."""
    from polyforge import cct
    geo = cct.generate(3)
    return [[list(geo.coords[v]) for v in corners]
            for dim, corners in geo.abstract.cubes.cubes if dim == 3]


WORKLOADS = {
    "tube": SimpleNamespace(setup=tube_setup, make_pass=tube_pass, ops=tube_ops,
                            summary=tube_summary, operands=tube_operands),
    "structures": SimpleNamespace(setup=structures_setup, make_pass=structures_pass,
                                  ops=structures_ops, summary=structures_summary,
                                  operands=structures_operands),
}
