"""Tube scaling ladder: best-of-k timings of generate(n) and `cct verify`.

    python3 bench/run.py --tree parent=../old-checkout --tree change=. \
        --out BENCH_9.json

For each source tree, in the order given, one fresh single-threaded
process imports polyforge from ``<tree>/src`` and times, for every width
n of the ladder (4, 12, 16, 24, 32 and 64), the best of 3 runs of

  * ``generate_s``: the library call ``cct.generate(n)``;
  * ``cct_generate_s``: ``polyforge cct generate --n n --out FILE``;
  * ``verify_s``: ``polyforge cct verify --file FILE`` on that bundle.

The JSON written holds the machine (platform, processor, CPU count,
Python), each tree's git SHA, and the timings.  Trees are measured one
after another on the same machine, so their numbers compare; standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

WIDTHS = (4, 12, 16, 24, 32, 64)
REPEAT = 3


def _best(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict:
    """Time the ladder in this process; polyforge comes from sys.path."""
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
                "generate_s": _best(lambda: cct.generate(n)),
                "cct_generate_s": _best(lambda: run_cli(gen_argv)),
                "verify_s": _best(lambda: run_cli(
                    ["cct", "verify", "--file", bundle])),
                "bundle_bytes": os.path.getsize(bundle),
            }
    return results


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
        "bench": "tube-ladder",
        "metric": f"best of {REPEAT} wall-clock seconds",
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
