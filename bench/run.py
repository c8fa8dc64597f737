"""Scaling ladder: best-of-k timings of the tube pipeline and of facet paths.

    python3 bench/run.py --tree parent=../old-checkout --tree change=. \
        --out BENCH_10.json

For each source tree, in the order given, one fresh single-threaded
process imports polyforge from ``<tree>/src`` and times two rungs.  Each
figure is the best of 3 runs after one untimed warm-up run.

The ``tube`` rung, for every width n of the ladder (4, 12, 16, 24, 32
and 64):

  * ``generate_s``: the library call ``cct.generate(n)``;
  * ``cct_generate_s``: ``polyforge cct generate --n n --out FILE``;
  * ``verify_s``: ``polyforge cct verify --file FILE`` on that bundle.

The ``paths`` rung, ``combinatorial_segment`` plus ``validate_path`` for
every facet pair of:

  * ``criterion6_s``: the 32 flag spheres of the release gate's path
    suite (criterion 6) with its sampled pairs, 9,607 segments;
  * ``sphere90_s``: 90 seeded pairs on one derived 3-sphere made like the
    largest of the benchmark's (three stellar rounds of the boundary of
    the 4-simplex, then a derived subdivision).

Every paths run gets fresh copies of the complexes, so whatever a complex
keeps from its first path is paid in every run.

The JSON written holds the machine (platform, processor, CPU count,
Python), each tree's git SHA, and the timings.  Trees are measured one
after another on the same machine, so their numbers compare; standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time

WIDTHS = (4, 12, 16, 24, 32, 64)
REPEAT = 3
SPHERE_PAIRS = 90


def _best(fn, prepare=lambda: None) -> float:
    """Best of REPEAT timed calls fn(prepare()), after one untimed call;
    prepare runs untimed before every call."""
    fn(prepare())
    best = float("inf")
    for _ in range(REPEAT):
        arg = prepare()
        gc.collect()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


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
                "generate_s": _best(lambda _: cct.generate(n)),
                "cct_generate_s": _best(lambda _: run_cli(gen_argv)),
                "verify_s": _best(lambda _: run_cli(
                    ["cct", "verify", "--file", bundle])),
                "bundle_bytes": os.path.getsize(bundle),
            }
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

    return _best(run, fresh)


def measure_paths() -> dict:
    from polyforge import complexcore as cc, hirschpath as hp

    suite, sphere = _criterion6_suite(cc), _sphere90(cc)
    return {
        "criterion6_s": _time_segments(cc, hp, suite),
        "criterion6_segments": sum(len(p) for _, p in suite),
        "sphere90_s": _time_segments(cc, hp, sphere),
        "sphere90_facets": len(sphere[0][0].facets),
    }


def measure() -> dict:
    """Time the rungs in this process; polyforge comes from sys.path."""
    return {"tube": measure_tube(), "paths": measure_paths()}


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


def run_tree(label: str, tree: str) -> dict:
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "polyforge", "__init__.py")):
        raise SystemExit(f"{tree}: no polyforge source tree under src/")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("POLYFORGE_BUDGET", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--measure"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{label}: measuring process failed\n{out.stderr}")
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {
        "label": label,
        "git_sha": _git(tree, "rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "results": json.loads(out.stdout),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a source tree to measure (repeatable; default: "
                             "this checkout, labelled 'change')")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.measure:
        print(json.dumps(measure()))
        return 0

    trees = args.tree or [
        "change=" + os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    runs = []
    for spec in trees:
        label, sep, tree = spec.partition("=")
        if not sep or not label or not tree:
            parser.error(f"--tree takes LABEL=DIR, got {spec!r}")
        runs.append(run_tree(label, tree))
    doc = {
        "bench": "ladder",
        "metric": f"best of {REPEAT} wall-clock seconds after one warm-up run",
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
