"""Byte identity of every benchmark call.

Replays every call of each workload in ``perfbench/workloads.WORKLOADS``
(scalar-coarse, periodic-planar and bvp-delay) for each seed of
``SEED_POOL``, the way ``perfbench/harness.run_call`` makes it, and checks the
SHA-256 of each canonical report against the digest recorded in
``perfbench/oracle.json``.  So a change that moves a byte of any workload's
reports fails here, before any benchmark run.  The benchmark's files are only
read.
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
ORACLE = json.loads((PERFBENCH / "oracle.json").read_text())
SCALAR_COARSE = WORKLOADS.WORKLOADS["scalar-coarse"]
# the calls of every other workload, by workload name and problem id
OTHER_CALLS = [(name, pid) for name, wl in WORKLOADS.WORKLOADS.items()
               if name != "scalar-coarse" for pid in wl.problems]


def _digest_matches(workload: str, pid: str, seed: int) -> bool:
    wl = WORKLOADS.WORKLOADS[workload]
    spec = problems.get_problem(pid)
    doc = problems.run(spec, "all", grid_m=wl.grid_m, seed=seed).to_dict()
    del doc["timings"]
    text = report.canonical_json(doc)
    key = WORKLOADS.oracle_key(pid, wl.grid_m or spec.m, seed)
    return hashlib.sha256(text.encode()).hexdigest() == ORACLE[key]["sha256"]


@pytest.mark.parametrize("seed", WORKLOADS.SEED_POOL)
@pytest.mark.parametrize("pid", SCALAR_COARSE.problems)
def test_scalar_coarse_digest(pid, seed):
    assert _digest_matches("scalar-coarse", pid, seed)


@pytest.mark.parametrize("seed", WORKLOADS.SEED_POOL)
@pytest.mark.parametrize("workload,pid", OTHER_CALLS,
                         ids=[f"{name}-{pid}" for name, pid in OTHER_CALLS])
def test_workload_digest(workload, pid, seed):
    assert _digest_matches(workload, pid, seed)
