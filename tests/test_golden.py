"""Golden reports: byte identity of the canonical report of every builtin.

Each digest is the SHA-256 of ``report.canonical_json`` of
``problems.run(p, "all", grid_m=m)`` with ``timings`` removed, recorded with
the scalar vector-field layer (one rhs call per grid node and per RK4 state).
A change that moves any byte of a report fails here, so performance work can
keep reports identical without running the benchmark.  The grids keep each
run at about a second.

``SWEEPS`` covers runs that plan other sets of homotopy certificates: other
suites, other sign parameters and another boundary-sampling seed, all at
m = 32, recorded before homotopies were certified in lock step.
"""

import hashlib

import pytest

from dualdeg import problems, report

GOLDEN = {
    ("p1", 64): "7f2be88c42649204e433f5346c90599433af5ca05950e0cdee1922c478bf71ab",
    ("p2", 64): "4ffaf668d180717cbe3349195b6cf1fac8d0645deb720bc72f0ab0a91bf0b5ae",
    ("p3", 32): "a94f9aa8ace89a17c70e022f2d28ae9833a6198f0a0ac886af2014624bf9e6c6",
    ("p4", 64): "e1a4247ec6277da4c94a165915ac70fa4e47213d3b6c6c1009544430a9f45e78",
    ("p5", 64): "3c1169de9ae05d9919494e09c839d8a637ba9663f4ead9cfaf91eac7a736f55a",
    ("p6", 64): "c3f541101924a23635b04d96780a228da216297e932ae0fcfc3b123122ddb298",
    ("p7", 32): "1fd7ee62ae30b337955fe1cd5d66238f20c71060dcfe69bb36fb8bd07860bea0",
}

SWEEPS = {
    ("p3", "signs", (2.0, -0.5), None):
        "c6597fd5d4f5ac96f17e8bb4715d69843897d8fb59fa295ed266cda0c89949a3",
    ("p3", "operators", None, None):
        "99dd07b342096ab512640f07ec7a9ba955024ffb855ed72e27a69bb0cab56a35",
    ("p7", "operators", None, None):
        "9810ed7e103043c732af31b8abb0d9595baf90bf3d368276f87ca5e5c6224585",
    ("p1", "all", None, 5):
        "d2881b83f7b294f4e9a2b330e18dd8747d42fa0d2f8a4f08c25f9436b7a95691",
    ("p3", "all", None, 5):
        "d6c410084ba10f3861a29a51ac95d4c099ee88ac2789048142bea370fd700760",
}


def _digest(rep) -> str:
    doc = rep.to_dict()
    del doc["timings"]
    return hashlib.sha256(report.canonical_json(doc).encode()).hexdigest()


@pytest.mark.parametrize("pid,m", sorted(GOLDEN))
def test_report_digest(pid, m):
    rep = problems.run(problems.get_problem(pid), "all", grid_m=m)
    assert _digest(rep) == GOLDEN[(pid, m)]


@pytest.mark.parametrize("pid,suite,etas,seed", list(SWEEPS))
def test_sweep_digest(pid, suite, etas, seed):
    kw = {} if seed is None else {"seed": seed}
    rep = problems.run(problems.get_problem(pid), suite, grid_m=32, etas=etas, **kw)
    assert _digest(rep) == SWEEPS[(pid, suite, etas, seed)]
