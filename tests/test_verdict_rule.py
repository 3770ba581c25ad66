"""Which checks each duality verdict combines, read from ``certify.PAIR_TABLE``.

Every catalog problem runs at m = 32 once as is and once with one check
forced to fail: every homotopy certificate inadmissible, or the common core
rejected.  Exactly the verdicts that combine that check turn to
``equal=False``; every other verdict keeps its value.  The table itself names
every pair a problem kind runs, and every side, sign rule and extra check of its
registries.
"""

from dataclasses import replace

import pytest

from dualdeg import certify, problems

PIDS = [p.pid for p in problems.catalog()]


def _reads(check: str) -> set:
    """The pairs with a row whose verdict reads the check: the certificates of
    its chain, or the common core."""
    return {pair for (pair, _), row in certify.PAIR_TABLE.items()
            if (row.chain if check == "certificates" else row.core)}


CHECKS = ("certificates", "common_core")


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


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("pid", PIDS)
def test_failed_check_fails_exactly_the_verdicts_that_read_it(pid, check, baseline,
                                                              monkeypatch):
    _break(monkeypatch, check)
    broken = _verdicts(pid)
    assert broken.keys() == baseline[pid].keys()
    for (pair, eta), equal in broken.items():
        if pair in _reads(check):
            assert baseline[pid][(pair, eta)], (pair, eta)  # the check decides it
            assert equal is False, (pair, eta)
        else:
            assert equal == baseline[pid][(pair, eta)], (pair, eta)


def test_pair_table_holds_the_pairs_the_kinds_run():
    runs = {pair for row in certify.KIND_TABLE.values()
            for pair in row.duality + ((row.signs,) if row.signs else ())}
    assert {pair for pair, _ in certify.PAIR_TABLE} == runs


def test_every_registry_entry_is_named_by_a_row():
    rows = certify.PAIR_TABLE.values()
    assert {name for row in rows for name in (row.left, row.right)} == set(certify.SIDES)
    assert {row.sign for row in rows} == set(certify.SIGNS)
    assert {row.extra for row in rows} - {None} == set(certify.EXTRAS)
