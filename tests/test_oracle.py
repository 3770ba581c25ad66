"""Byte identity of the benchmark's scalar-coarse calls.

Replays every call of the ``scalar-coarse`` workload (p1 and p2 at m = 64)
for each seed of ``perfbench/workloads.SEED_POOL``, the way
``perfbench/harness.run_call`` makes it, and checks the SHA-256 of each
canonical report against the digest recorded in ``perfbench/oracle.json``.
So a change that moves a byte of the workload's reports fails here, before
any benchmark run.  The benchmark's files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dualdeg import problems, report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
SCALAR_COARSE = WORKLOADS.WORKLOADS["scalar-coarse"]
ORACLE = json.loads((PERFBENCH / "oracle.json").read_text())


@pytest.mark.parametrize("seed", WORKLOADS.SEED_POOL)
@pytest.mark.parametrize("pid", SCALAR_COARSE.problems)
def test_scalar_coarse_digest(pid, seed):
    spec = problems.get_problem(pid)
    doc = problems.run(spec, "all", grid_m=SCALAR_COARSE.grid_m, seed=seed).to_dict()
    del doc["timings"]
    text = report.canonical_json(doc)
    key = WORKLOADS.oracle_key(pid, SCALAR_COARSE.grid_m, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE[key]["sha256"]
