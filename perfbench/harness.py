"""One benchmark run, inside the child process that ``run.py`` starts.

A single client runs a closed loop: each call starts when the previous one
returns.  A call is ``problems.run(spec, "all", grid_m=..., seed=...)`` followed
by ``report.canonical_json`` of the result with ``timings`` removed, as
``dualdeg run`` does.  Passes over the workload's calls repeat while another
pass still fits in ``--seconds``; at least one pass always runs.  Every call is
checked against the expected outcome recorded in ``oracle.json``.  With
``--trace 1`` one more pass runs under the tracer and its per-layer metrics are
added.

Prints one JSON object with the raw figures as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dualdeg
import speed
from dualdeg import problems, report
from workloads import WORKLOADS, oracle_key, problem_seed

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"


def outcome(doc: dict) -> dict:
    """The parts of a report that a correct run must reproduce exactly."""
    return {
        "verdict": doc["verdict"],
        "duality": [{"pair": d["pair"], "eta": d.get("eta"),
                     "left": d["left"]["degree"], "right": d["right"]["degree"],
                     "sign_factor": d["sign_factor"],
                     "left_certified": d["left"]["certified"],
                     "right_certified": d["right"]["certified"],
                     "admissible": [c["admissible"] for c in d["certificates"]]}
                    for d in doc["duality"]],
        "admissible": [c["admissible"] for c in doc["certificates"]],
    }


def run_call(spec, grid_m, seed: int) -> tuple[dict, str]:
    """One workload call; module attributes are looked up at call time so that
    a traced pass sees the tracer's wrappers."""
    rep = problems.run(spec, "all", grid_m=grid_m, seed=seed)
    doc = rep.to_dict()
    del doc["timings"]
    return doc, report.canonical_json(doc)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    seconds: float  # wall time of the calls, probes left out
    scaled: float  # the same at nominal machine speed (``speed.scale``)
    kernel: list[float]  # the probes' kernel times during the pass
    failed: int
    digest_match: int


def run_pass(specs, grid_m, seed: int, oracle: dict, probe: speed.Probe,
             tracer=None) -> PassResult:
    """Time each call; check it against the oracle outside the timed region."""
    seconds = 0.0
    failed = digest_match = 0
    first_sample = len(probe.samples)
    for call, spec in enumerate(specs):
        if tracer is not None:
            tracer.call = call
        key = oracle_key(spec.pid, grid_m or spec.m, seed)
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            doc, text = run_call(spec, grid_m, seed)
        except Exception:
            seconds += time.perf_counter() - t0 - (probe.spent - spent)
            failed += 1
            print(f"{key}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        seconds += time.perf_counter() - t0 - (probe.spent - spent)
        expected = oracle.get(key)
        if expected is None:
            failed += 1
            print(f"{key}: no expected outcome recorded", file=sys.stderr)
            continue
        if outcome(doc) != expected["outcome"]:
            failed += 1
            print(f"{key}: outcome {json.dumps(outcome(doc))} differs from "
                  f"{json.dumps(expected['outcome'])}", file=sys.stderr)
        digest_match += digest(text) == expected["sha256"]
    kernel = probe.samples[first_sample:] or [speed.kernel_s()]
    return PassResult(seconds, speed.scale(seconds, kernel), kernel, failed,
                      digest_match)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", type=Path, help="JSON-lines file for the spans")
    args = ap.parse_args(argv)

    src = (HERE.parent / "src").resolve()
    if src not in Path(dualdeg.__file__).resolve().parents:
        print(f"dualdeg imported from {dualdeg.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    seed = problem_seed(args.seed)
    specs = [problems.get_problem(pid) for pid in wl.problems]
    oracle = json.loads(ORACLE.read_text())

    passes: list[float] = []
    scaled: list[float] = []
    kernel: list[list[float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    with speed.Probe() as probe:
        while True:
            res = run_pass(specs, wl.grid_m, seed, oracle, probe)
            passes.append(res.seconds)
            scaled.append(res.scaled)
            kernel.append(res.kernel)
            attempted += len(specs)
            failed += res.failed
            if time.perf_counter() - start + res.seconds > args.seconds:
                break
    verify_s = statistics.median(scaled)
    out = {"problem_seed": seed, "passes": passes, "scaled_passes": scaled,
           "kernel_s": kernel, "verify_s": verify_s,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "numpy": np.__version__}

    if args.trace:
        from tracing import LAYER_METRICS, Tracer

        # No probes here: their time would land in the self time of whatever
        # span they interrupt.
        tracer = Tracer()
        with tracer.installed():
            res = run_pass(specs, wl.grid_m, seed, oracle, speed.Probe(), tracer)
        attempted += len(specs)
        failed += res.failed
        values = tracer.metrics()
        values["report.digest_match"] = res.digest_match
        values["trace_overhead_ratio"] = res.seconds / statistics.median(passes)
        units = {**LAYER_METRICS, "report.digest_match": "count",
                 "trace_overhead_ratio": "ratio"}
        out["layers"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        if args.spans is not None:
            tracer.write_spans(args.spans)

    out.update(attempted=attempted, failed=failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
