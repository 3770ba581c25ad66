"""Benchmark of ``dualdeg``: how long a user waits for the duality verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from ``src/``.
``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median time a fresh interpreter takes to import ``dualdeg`` and
  ``dualdeg.cli`` and build the workload's problem specs;
- ``verify_s``: median time of one pass over the workload's calls;
- ``peak_rss_mib``: peak resident memory of the process that ran the passes.

Both times are seconds at nominal machine speed (``speed.py``): a pass is
scaled by the reference kernel's times from probes taken during it, and a
set-up by the kernel's times right after it in the same interpreter, so that
the host's swings in speed cancel.  The wall times are saved in ``out/`` too.

``--trace 1`` runs the same passes, then one traced pass, and reports the
per-layer metrics of ``tracing.py`` instead.  The passes run in a child
process with ``RD_THREADS`` unset and the BLAS thread pools pinned to one
thread; the environment is printed and saved with every result in ``out/``.
The last line of standard output is the result as one JSON object.  The exit
code is 0 when the result was printed, and the result says whether every call
reproduced its expected outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0  # the whole run, child processes included

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# Timed inside the fresh interpreter, from before the first import of the
# package to the built specs: process start-up is not the package's cost, and
# timing it from outside adds the scheduler's wake-up latency to every sample.
# The reference kernel of ``speed.py`` then runs in the same interpreter.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import dualdeg
import dualdeg.cli
from dualdeg import problems
specs = [problems.get_problem(pid) for pid in sys.argv[2:]]
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import speed
print(seconds, *(speed.kernel_s() for _ in range(9)))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RD_THREADS", None)  # the thread pool is slower under the GIL
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(env: dict[str, str]) -> dict:
    cpu = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpu.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[0].lower()}"] = size
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(),
            "threads": {var: env.get(var, "unset")
                        for var in ("RD_THREADS",) + BLAS_THREAD_VARS}}


def measure_setup(env, pids, deadline: float) -> tuple[float, float]:
    """Median set-up time at nominal machine speed, and its median wall time."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE), *pids]
    walls, scaled = [], []
    # the first interpreter compiles the bytecode a user's install already has
    for i in range(1 + SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, text=True,
                              stdout=subprocess.PIPE,
                              timeout=deadline - time.monotonic())
        seconds, *kernel = map(float, proc.stdout.split())
        if i:
            walls.append(seconds)
            scaled.append(speed.scale(seconds, kernel))
    return statistics.median(scaled), statistics.median(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dualdeg" / "__init__.py").is_file():
        print(f"no dualdeg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_s, setup_wall_s = measure_setup(env, wl.problems, deadline)
        child = subprocess.run(
            [sys.executable, str(HERE / "harness.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(OUT / f"spans-{stem}.jsonl")],
            env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
    except subprocess.CalledProcessError as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark exceeded {RUN_LIMIT_S:g} s: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = raw["layers"]
    else:
        metrics = {"verify_s": {"value": raw["verify_s"], "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"}}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    env_info = environment(env)
    env_info["numpy"] = raw["numpy"]
    details = {"workload": args.workload, "seed": args.seed,
               "problem_seed": raw["problem_seed"], "seconds": args.seconds,
               "passes_wall_s": raw["passes"], "passes_s": raw["scaled_passes"],
               "kernel_s": raw["kernel_s"],
               "setup_s": setup_s, "setup_wall_s": setup_wall_s,
               "environment": env_info, "result": result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print("environment: " + json.dumps(env_info))
    print(f"workload {args.workload}: problem seed {raw['problem_seed']}, "
          f"{len(raw['passes'])} untraced passes, "
          f"failed_ratio {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']}/{raw['attempted']})")
    print(f"wall time: pass median {statistics.median(raw['passes']):.6g} s, "
          f"set-up median {setup_wall_s:.6g} s")
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} "
              f"{m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
