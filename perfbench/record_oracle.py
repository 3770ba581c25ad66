"""Record the expected outcome and report digest of every workload call.

    PYTHONPATH=src python3 perfbench/record_oracle.py

Runs each workload's calls once for every seed in ``SEED_POOL`` and writes
``oracle.json``: per call, the outcome the benchmark checks (verdict, degrees,
sign factors, certified and admissible flags) and the SHA-256 digest of the
canonical report with ``timings`` removed.  Record it from the commit whose
behaviour later commits must reproduce.
"""

from __future__ import annotations

import json

from harness import ORACLE, digest, outcome, run_call
from workloads import SEED_POOL, WORKLOADS, oracle_key
from dualdeg import problems


def main() -> None:
    table = {}
    for wl in WORKLOADS.values():
        for pid in wl.problems:
            spec = problems.get_problem(pid)
            for seed in SEED_POOL:
                doc, text = run_call(spec, wl.grid_m, seed)
                key = oracle_key(pid, wl.grid_m or spec.m, seed)
                table[key] = {"outcome": outcome(doc), "sha256": digest(text)}
                print(key, "verdict", doc["verdict"], flush=True)
    ORACLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
