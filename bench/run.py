"""Scaling ladder: best-of-k timings of the tube pipeline, facet paths,
arrangement homology, Morse collapses and the exact field kernels.

    python3 bench/run.py --tree parent=../old-checkout --tree change=. \
        --out BENCH_12.json

The ladder runs in 3 rounds.  In each round every rung runs once per
source tree, in one fresh single-threaded process that imports polyforge
from ``<tree>/src``; the trees take turns to go first from rung to rung
and from round to round, so that a slow phase of the host falls on both.
Within a process each timing runs at least 3 times after one untimed
warm-up run, and until its runs add up to at least 1 s, and is recorded
as ``{"min": ..., "median": ...}`` of those runs; the JSON keeps the
smallest of each over the rounds, so a minimum far below its median
marks a figure the host did not hold steady.  Every value that is not a
time must repeat exactly from round to round.

The ``tube`` rung, for every width n of the ladder (4, 12, 16, 24, 32,
64 and 128):

  * ``generate_s``: the library call ``cct.generate(n)``;
  * ``cct_generate_s``: ``polyforge cct generate --n n --out FILE``;
  * ``verify_s``: ``polyforge cct verify --file FILE`` on that bundle;

and ``cli_floor_s``, the fixed cost of one CLI call that does almost no
work of its own: ``polyforge cct kappa --upto 0``.

The ``paths`` rung, ``combinatorial_segment`` plus ``validate_path`` for
every facet pair of:

  * ``criterion6_s``: the 32 flag spheres of the release gate's path
    suite (criterion 6) with its sampled pairs, 9,607 segments;
  * ``sphere90_s``: 90 seeded pairs on one derived 3-sphere made like the
    largest of the benchmark's (three stellar rounds of the boundary of
    the 4-simplex, then a derived subdivision).

Every paths run gets fresh copies of the complexes, so whatever a complex
keeps from its first path is paid in every run.  ``criterion6_sha256`` and
``sphere90_sha256`` are the SHA-256 of every path's ``to_json()``.

The ``arrangements`` rung:

  * ``r{d}_{n}``: ``gm_betti`` in every degree 0..d-1 (``all_degrees_s``)
    on n seeded affine hyperplanes of R^d with integer coefficients in
    [-5, 5], for 6 to 9 planes in R^3 and 5, 6, 7, 11 and 16 in R^4, with
    the number of flats and the Betti numbers; ``gm_betti_all_s`` times
    the one-poset ``gm_betti_all``.  Each
    ``gm_betti`` call builds the whole poset, and at r4_16 four of them
    per run would add minutes to the ladder, so past ALL_DEGREES_MAX
    planes ``all_degrees_s`` is null and the Betti numbers come from
    ``gm_betti_all``;
  * ``lefschetz_s``: ``lefschetz_inequality_check`` on the slice inputs
    of the ``structures`` benchmark workload for seeds 1-5 (10 checks,
    drawn by ``perfbench/workloads.py`` of this checkout), with the
    reports' SHA-256.

The ``collapse`` rung, ``collapse_search`` plus ``validate_matching`` on a
fresh copy of each ball: ``ball1097_s`` on the fixed 1,097-face ball of
the ``structures`` workload (three stellar rounds of a 3-simplex, then a
derived subdivision) and ``ball5797_s`` on a 5,797-face ball made like
criterion 7's (one stellar round of the derived 3-cube, then a derived
subdivision), with the matchings' SHA-256; ``ball1097_poset_ms`` and
``ball5797_poset_ms`` time ``FacePoset.from_simplicial`` on fresh copies
of the two balls, in milliseconds; ``subdivide_s`` times
``derived_subdivision`` of fresh copies of the two balls' source
complexes and of ``solid_cube(4)``, with the subdivisions' SHA-256.

The ``kernels`` rung, each figure repeated until its runs add up to 1 s:

  * ``mul_ns``, ``inverse_ns`` and ``sign_ns``: nanoseconds per
    ``FieldElem`` multiplication, inverse and sign on fixed elements with
    all four coordinates nonzero;
  * ``rank_8x5_us`` and ``nullspace_8x5_us``: microseconds per
    ``mat_rank`` and ``mat_nullspace`` of a fixed 8x5 ``FieldElem``
    matrix of rank 3, with both answers;
  * ``rank_sparse_90x60_ms``: milliseconds per ``mat_rank`` of a seeded
    90x60 matrix of ``FieldElem`` entries, one in ten of them +-1 and the
    rest zero, with its rank;
  * ``screw_ns``: nanoseconds per screw image B^5 p of vertex 30 of the
    width-4 tube by ``rotate(p, 5, 5)``, and ``mat_vec_ns`` for the same
    image by ``mat_vec`` with the matrix B^5, B = R34 R12 built from
    ``rotation_34`` and ``rotation_12``.

The JSON written holds the machine (platform, processor, CPU count,
Python), each tree's git SHA, and the timings; standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIDTHS = (4, 12, 16, 24, 32, 64, 128)
REPEAT = 3
ROUNDS = 3
SPHERE_PAIRS = 90
HYPERPLANES = {3: (6, 7, 8, 9), 4: (5, 6, 7, 11, 16)}
ALL_DEGREES_MAX = 11
LEFSCHETZ_SEEDS = range(1, 6)


def _best(fn, prepare=lambda: None, min_total: float = 0.0) -> dict:
    """The smallest and the median seconds of at least REPEAT timed calls
    fn(prepare()), after one untimed call, repeated until the timed calls
    add up to min_total seconds; prepare runs untimed before every call."""
    fn(prepare())
    times = []
    while len(times) < REPEAT or sum(times) < min_total:
        arg = prepare()
        gc.collect()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return {"min": min(times), "median": statistics.median(times)}


def _scaled(timing: dict, factor: float) -> dict:
    return {k: v * factor for k, v in timing.items()}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def measure_tube() -> dict:
    from polyforge import cct, cli

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"polyforge {' '.join(argv)} exited with {code}")

    results = {}
    with tempfile.TemporaryDirectory() as work:
        bundle = os.path.join(work, "tube.json")
        for n in WIDTHS:
            gen_argv = ["cct", "generate", "--n", str(n), "--out", bundle]
            results[str(n)] = {
                "generate_s": _best(lambda _: cct.generate(n), min_total=1.0),
                "cct_generate_s": _best(lambda _: run_cli(gen_argv), min_total=1.0),
                "verify_s": _best(lambda _: run_cli(
                    ["cct", "verify", "--file", bundle]), min_total=1.0),
                "bundle_bytes": os.path.getsize(bundle),
            }
    results["cli_floor_s"] = _best(
        lambda _: run_cli(["cct", "kappa", "--upto", "0"]), min_total=1.0)
    return results


def _stellar_rounds(c, rounds: int, rng):
    for _ in range(rounds):
        c = c.stellar_subdivision(c.facets[rng.randrange(len(c.facets))])
    return c


def _criterion6_suite(cc) -> list:
    """(complex, facet index pairs) of the path suite, drawn as the
    release gate draws them."""
    rng = random.Random(416)
    suite = [cc.boundary_sphere(3).derived_subdivision(),
             cc.boundary_sphere(4).derived_subdivision()]
    while len(suite) < 32:
        base = 3 if (len(suite) - 2) % 3 else 2
        suite.append(_stellar_rounds(cc.boundary_sphere(base),
                                     rng.randrange(1, 5), rng)
                     .derived_subdivision())
    out = []
    for which, c in enumerate(suite):
        pairs = list(itertools.combinations(range(len(c.facets)), 2))
        if which >= 2 and len(pairs) > 80:
            pairs = rng.sample(pairs, 80)
        out.append((c, pairs))
    return out


def _sphere90(cc) -> list:
    rng = random.Random("paths-rung")
    c = _stellar_rounds(cc.boundary_sphere(4), 3, rng).derived_subdivision()
    return [(c, [tuple(rng.sample(range(len(c.facets)), 2))
                 for _ in range(SPHERE_PAIRS)])]


def _time_segments(cc, hp, items) -> float:
    def fresh():
        return [(cc.SimplicialComplex(c.num_vertices, c.facets), pairs)
                for c, pairs in items]

    def run(copies):
        for c, pairs in copies:
            for a, b in pairs:
                hp.validate_path(c, hp.combinatorial_segment(
                    c, c.facets[a], c.facets[b]))

    return _best(run, fresh, min_total=1.0)


def _paths_digest(hp, items) -> str:
    return _digest([hp.combinatorial_segment(c, c.facets[a], c.facets[b]).to_json()
                    for c, pairs in items for a, b in pairs])


def measure_paths() -> dict:
    from polyforge import complexcore as cc, hirschpath as hp

    suite, sphere = _criterion6_suite(cc), _sphere90(cc)
    return {
        "criterion6_s": _time_segments(cc, hp, suite),
        "criterion6_segments": sum(len(p) for _, p in suite),
        "criterion6_sha256": _paths_digest(hp, suite),
        "sphere90_s": _time_segments(cc, hp, sphere),
        "sphere90_facets": len(sphere[0][0].facets),
        "sphere90_sha256": _paths_digest(hp, sphere),
    }


def _hyperplanes(ar, d: int, n: int) -> list:
    """n distinct affine hyperplanes a.x = b of R^d, a and b drawn from
    [-5, 5] with seed 1, each given by a point and a basis."""
    rng = random.Random(1)
    out = []
    while len(out) < n:
        a = [rng.randint(-5, 5) for _ in range(d)]
        b = rng.randint(-5, 5)
        if not any(a):
            continue
        k = next(i for i, x in enumerate(a) if x)
        offset = [Fraction(0)] * d
        offset[k] = Fraction(b, a[k])
        basis = [[Fraction(-a[j], a[k]) if i == k else Fraction(int(i == j))
                  for i in range(d)] for j in range(d) if j != k]
        h = ar.AffineSubspace(d, basis, offset)
        if h not in out:
            out.append(h)
    return out


def _lefschetz_inputs(ar) -> list:
    """The (planes, hyperplane) slice inputs of the structures workload."""
    from polyforge import exactfield, projective

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    state = SimpleNamespace(ar=ar, ef=exactfield, k=projective.build_k_configuration())
    return [planes for seed in LEFSCHETZ_SEEDS
            for planes in workloads._incidence_pass(state, seed)["planes"]]


def measure_arrangements() -> dict:
    from polyforge import arrangement as ar

    results = {}
    for d, counts in HYPERPLANES.items():
        for n in counts:
            arr = _hyperplanes(ar, d, n)
            every_degree = lambda _: [ar.gm_betti(arr, i) for i in range(d)]
            small = n <= ALL_DEGREES_MAX
            results[f"r{d}_{n}"] = {
                "flats": ar.intersection_poset(arr).size(),
                "betti": every_degree(None) if small else ar.gm_betti_all(arr),
                "all_degrees_s": _best(every_degree, min_total=1.0) if small else None,
                "gm_betti_all_s": _best(
                    lambda _: ar.gm_betti_all(arr), min_total=1.0),
            }
    inputs = _lefschetz_inputs(ar)
    reports = [ar.lefschetz_inequality_check(arr, h) for arr, h in inputs]
    results["lefschetz_s"] = _best(
        lambda _: [ar.lefschetz_inequality_check(arr, h) for arr, h in inputs],
        min_total=1.0)
    results["lefschetz_checks"] = len(inputs)
    results["lefschetz_sha256"] = _digest(reports)
    return results


def measure_collapse() -> dict:
    from polyforge import complexcore as cc, morse

    sources = [
        _stellar_rounds(cc.simplex_complex(3), 3, random.Random("collapse:0")),
        _stellar_rounds(cc.solid_cube(3).derived_subdivision(), 1,
                        random.Random("collapse-rung")),
    ]
    balls = {"ball1097": sources[0].derived_subdivision(),
             "ball5797": sources[1].derived_subdivision()}

    def run(c):
        m = morse.collapse_search(c)
        if morse.validate_matching(c, m) is not True:
            raise RuntimeError("collapse_search returned an invalid matching")
        return m

    results = {}
    for name, c in balls.items():
        fresh = lambda c=c: cc.SimplicialComplex(c.num_vertices, c.facets)
        results[f"{name}_s"] = _best(run, fresh, min_total=1.0)
        results[f"{name}_poset_ms"] = _scaled(_best(
            cc.FacePoset.from_simplicial, fresh, min_total=1.0), 1e3)
        results[f"{name}_faces"] = sum(len(fs) for fs in c.faces().values())
        results[f"{name}_sha256"] = _digest(run(fresh()).to_json())

    def fresh_sources():
        return [cc.SimplicialComplex(c.num_vertices, c.facets) for c in sources] \
            + [cc.solid_cube(4)]

    results["subdivide_s"] = _best(
        lambda cs: [c.derived_subdivision() for c in cs], fresh_sources, min_total=1.0)
    results["subdivide_sha256"] = _digest(
        [c.derived_subdivision().to_json() for c in fresh_sources()])
    return results


def _kernel_inputs(ef):
    """(x, y, the 8x5 matrix, the sparse 90x60 matrix) of the kernels rung.
    Each row of the 8x5 matrix is a rational combination of three fixed
    rows with irrational entries."""
    fe = ef.FieldElem
    x = fe(Fraction(3, 7), -2, Fraction(5, 3), 1)
    y = fe(-1, Fraction(1, 2), 4, Fraction(-2, 5))
    base = [[fe(i - 2 * j, Fraction(j, i + 1), (i * j) % 3 - 1, Fraction(1, j + 2))
             for j in range(5)] for i in range(3)]
    coeffs = [[fe(Fraction((i * i + 3 * k) % 7 - 3, k + 1)) for k in range(3)]
              for i in range(8)]
    m8x5 = [[ef.vec_dot(tuple(c), tuple(row[j] for row in base)) for j in range(5)]
            for c in coeffs]
    rng = random.Random("kernels-rung")
    sparse = [[fe(rng.choice((-1, 1))) if rng.random() < 0.1 else ef.ZERO
               for _ in range(60)] for _ in range(90)]
    return x, y, m8x5, sparse


def _per_call(fn, calls: int, unit: float) -> dict:
    """The timing of `calls` back-to-back calls of fn(), per call, in
    units of `unit` seconds."""
    def run(_):
        for _ in range(calls):
            fn()
    return _scaled(_best(run, min_total=1.0), 1 / (calls * unit))


def measure_kernels() -> dict:
    from polyforge import cct, exactfield as ef

    x, y, m8x5, sparse = _kernel_inputs(ef)
    p = cct.generate(4).coords[30]
    b5 = ef.mat_pow(ef.mat_mul(ef.rotation_34(), ef.rotation_12()), 5)
    return {
        "mul_ns": _per_call(lambda: x * y, 10_000, 1e-9),
        "inverse_ns": _per_call(x.inverse, 10_000, 1e-9),
        "sign_ns": _per_call(x.sign, 10_000, 1e-9),
        "rank_8x5_us": _per_call(lambda: ef.mat_rank(m8x5), 200, 1e-6),
        "rank_8x5": ef.mat_rank(m8x5),
        "nullspace_8x5_us": _per_call(lambda: ef.mat_nullspace(m8x5), 200, 1e-6),
        "nullity_8x5": len(ef.mat_nullspace(m8x5)),
        "rank_sparse_90x60_ms": _per_call(lambda: ef.mat_rank(sparse), 5, 1e-3),
        "rank_sparse_90x60": ef.mat_rank(sparse),
        "screw_ns": _per_call(lambda: ef.rotate(p, 5, 5), 10_000, 1e-9),
        "mat_vec_ns": _per_call(lambda: ef.mat_vec(b5, p), 1_000, 1e-9),
    }


RUNGS = {"tube": measure_tube, "paths": measure_paths,
         "arrangements": measure_arrangements, "collapse": measure_collapse,
         "kernels": measure_kernels}



def _git(tree: str, *args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", tree, *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _processor() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_rung(label: str, tree: str, rung: str) -> dict:
    """One rung of one tree, timed in a fresh process."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("POLYFORGE_BUDGET", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--measure", rung]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{label}: measuring process failed\n{out.stderr}")
    return json.loads(out.stdout)


def _fold(best, new, where: str):
    """The smaller of two timings; any other value must be equal."""
    if isinstance(best, dict):
        return {k: _fold(best[k], new[k], f"{where}.{k}") for k in best}
    if isinstance(best, float):
        return min(best, new)
    if best != new:
        raise SystemExit(f"{where} differs between rounds: {best!r} and {new!r}")
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a source tree to measure (repeatable; default: "
                             "this checkout, labelled 'change')")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--measure", choices=RUNGS, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.measure:
        print(json.dumps(RUNGS[args.measure]()))
        return 0

    trees = []
    for spec in args.tree or ["change=" + ROOT]:
        label, sep, tree = spec.partition("=")
        if not sep or not label or not tree:
            parser.error(f"--tree takes LABEL=DIR, got {spec!r}")
        if not os.path.isfile(os.path.join(tree, "src", "polyforge", "__init__.py")):
            parser.error(f"{tree}: no polyforge source tree under src/")
        trees.append((label, tree))
    results = {label: {} for label, _ in trees}
    for r in range(ROUNDS):
        for k, rung in enumerate(RUNGS):
            for label, tree in trees if (r + k) % 2 == 0 else trees[::-1]:
                got = run_rung(label, tree, rung)
                done = results[label]
                done[rung] = _fold(done[rung], got, f"{label}.{rung}") if rung in done else got
    runs = []
    for label, tree in trees:
        status = _git(tree, "status", "--porcelain", "--untracked-files=no")
        runs.append({
            "label": label,
            "git_sha": _git(tree, "rev-parse", "HEAD"),
            "dirty": bool(status) if status is not None else None,
            "results": results[label],
        })
    doc = {
        "bench": "ladder",
        "metric": (f"smallest over {ROUNDS} rounds of the min and of the "
                   f"median of at least {REPEAT} wall-clock runs after one "
                   "warm-up run, runs adding up to at least 1 s"),
        "machine": {
            "platform": platform.platform(),
            "processor": _processor(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "widths": list(WIDTHS),
        "runs": runs,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
