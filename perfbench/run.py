"""polyforge benchmark: the certification jobs, end to end and per module.

    python3 perfbench/run.py --workload tube|structures \
        --seed N --seconds S --trace 0|1

Run from the root of a polyforge source tree.  Every workload runs in
fresh single-threaded processes, one at a time.  With ``--trace 0`` two
set-up-only processes and one measuring process run; ``setup_s`` is the
median set-up time of the three and the other end-to-end figures come
from the measuring process.  With ``--trace 1`` one process runs a
warm-up pass, an untraced pass and the same pass traced, and reports the
per-module figures.

Earlier lines of standard output name every figure with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when a result was printed.
"""

import argparse
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import time

RUN_LIMIT_S = 175.0
SETUP_PROCESSES = 2  # set-up-only processes; the measuring process adds one sample


class BenchError(Exception):
    pass


def worker(root, workdir, args, mode, deadline) -> dict:
    env = dict(os.environ)
    # The CLI reads POLYFORGE_BUDGET; the benchmark runs with its default.
    env.pop("POLYFORGE_BUDGET", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process overran the run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tube", "structures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    # Turn a termination request into SystemExit, so the finally clauses
    # below still stop the running worker and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyforge", "__init__.py")):
        print("run from the root of a polyforge source tree: src/polyforge is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(root, ".bench_build", "perfbench", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = worker(root, workdir, args, "trace", deadline)
            setup_samples = [result["setup_s"]]
        else:
            setup_samples = [worker(root, workdir, args, "setup", deadline)["setup_s"]
                             for _ in range(SETUP_PROCESSES)]
            result = worker(root, workdir, args, "measure", deadline)
            setup_samples.append(result["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   **metrics}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"machine  {platform.system()} {platform.machine()}  "
          f"{platform.python_implementation()} {platform.python_version()}  "
          f"{os.cpu_count()} cpus")
    print(f"inputs   {json.dumps(result['summary'], sort_keys=True)}")
    print(f"passes   {result['passes']}  "
          f"setup samples {', '.join(f'{s:.4f}' for s in setup_samples)} s")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            pct = result["tail_percentile"]
            note = (f"  (p{pct:g} of {result['tail_samples']} operations)" if pct < 100
                    else f"  (maximum of {result['tail_samples']} operations)")
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'ops_attempted':<42} {result['attempted']:>16d} count")
    print(f"  {'ops_failed':<42} {result['failed']:>16d} count")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
