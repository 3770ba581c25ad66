"""Which checks each duality verdict combines.

Every catalog problem runs at m = 32 once as is and once with one check
forced to fail: every homotopy certificate inadmissible, or the common core
rejected.  Exactly the verdicts that combine that check turn to
``equal=False``; every other verdict keeps its value.
"""

from dataclasses import replace

import pytest

from dualdeg import certify, problems

PIDS = [p.pid for p in problems.catalog()]

# pairs whose verdict reads each check
READS = {
    "certificates": {"krasnoselskii", "eta_sign", "delay"},
    "common_core": {"krasnoselskii", "eta_sign", "dirichlet_shooting", "delay"},
}


def _verdicts(pid: str) -> dict:
    rep = problems.run(problems.get_problem(pid), "all", grid_m=32)
    return {(d["pair"], d.get("eta")): d["equal"] for d in rep.duality}


@pytest.fixture(scope="module")
def baseline():
    return {pid: _verdicts(pid) for pid in PIDS}


def _break(monkeypatch, check: str):
    if check == "certificates":
        real = certify.certify_homotopies
        monkeypatch.setattr(certify, "certify_homotopies", lambda *a, **k: [
            replace(c, admissible=False) for c in real(*a, **k)])
    else:
        real = certify.check_common_core
        monkeypatch.setattr(certify, "check_common_core",
                            lambda *a, **k: replace(real(*a, **k), verdict=False))


@pytest.mark.parametrize("check", sorted(READS))
@pytest.mark.parametrize("pid", PIDS)
def test_failed_check_fails_exactly_the_verdicts_that_read_it(pid, check, baseline,
                                                              monkeypatch):
    _break(monkeypatch, check)
    broken = _verdicts(pid)
    assert broken.keys() == baseline[pid].keys()
    for (pair, eta), equal in broken.items():
        if pair in READS[check]:
            assert baseline[pid][(pair, eta)], (pair, eta)  # the check decides it
            assert equal is False, (pair, eta)
        else:
            assert equal == baseline[pid][(pair, eta)], (pair, eta)
