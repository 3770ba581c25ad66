import functools
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dualdeg import certify, degree, flows, gridfn, operators, problems, report as report_mod
from dualdeg.cli import main as cli_main
from dualdeg.problems import (ProblemSpec, ProblemValidationError, catalog,
                              get_problem, load_problem, run)


class TestCatalog:
    def test_at_least_seven_entries(self):
        assert len(catalog()) >= 7
        assert {p.pid for p in catalog()} >= {"p1", "p2", "p3", "p4", "p5",
                                              "p6", "p7"}

    def test_p1_solution_amplitude(self):
        p1 = get_problem("p1")
        fps = certify.find_fixed_points(operators.build("K", p1),
                                        p1.default_U1())
        amp = fps[0].sup_norm()
        assert amp == pytest.approx(1.0 / np.sqrt(1.0 + 4 * np.pi ** 2), abs=1e-4)

    def test_p4_shooting_is_sinh(self):
        p4 = get_problem("p4")
        out = flows.mu_dirichlet(p4.field(), [1.0], [0.0], m=p4.m).values[-1, 0]
        assert out == pytest.approx(np.sinh(1.0), abs=1e-6)

    def test_p7_averaged_field_is_the_node_loop(self):
        # one rhs call over the node array gives, bit for bit, the per-node loop
        p7 = get_problem("p7")
        g, nodes = problems._BUILTINS["p7"]["scalar_rhs"], p7.grid().nodes
        w = np.ones_like(nodes)
        w[0] = w[-1] = 0.5
        w *= p7.grid().h
        phi = p7.averaged_field()
        for u in (-1.0, 1.0, 0.3, -0.77, 2.5):
            assert phi(u) == float(-np.sum(w * np.array([g(t, u) for t in nodes])))

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_problem("p99")


class TestProblemValidation:
    def test_round_trip(self, tmp_path):
        spec = catalog()[0]
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_problem(path) == spec

    def test_tau_exceeding_period(self):
        with pytest.raises(ProblemValidationError, match="tau"):
            ProblemSpec("bad", "periodic_dde", 1, 1.0, {"id": "p6"}, 1.0, 128,
                        1.0, ((-1.0, 1.0),) * 8, tau=2.0, hist_nodes=8)

    @pytest.mark.parametrize("nodes", [2, 1, 0])
    def test_history_nodes_below_three(self, nodes):
        # fewer than 3 nodes put tau in one history step, which no delay run can use
        with pytest.raises(ProblemValidationError,
                           match=f"history_nodes must be at least 3, got {nodes}"):
            ProblemSpec("bad", "periodic_dde", 1, 1.0, {"id": "p6"}, 1.0, 128,
                        1.0, ((-1.0, 1.0),) * max(nodes, 1), tau=0.5, hist_nodes=nodes)

    def test_tau_on_non_dde(self):
        with pytest.raises(ProblemValidationError, match="tau"):
            ProblemSpec("bad", "periodic_ode", 1, 1.0, {"id": "p1"}, 1.0, 256,
                        1.0, ((-1.0, 1.0),), tau=0.5)

    @pytest.mark.parametrize("period,lipschitz,message", [
        (-1.0, 1.0, "period must be positive, got -1.0"),
        (1.0, -1.0, "lipschitz bound must be finite and >= 0, got -1.0")])
    def test_field_out_of_range(self, period, lipschitz, message):
        # the field spec is built with the problem, so its checks run there
        with pytest.raises(ProblemValidationError, match=message):
            ProblemSpec("bad", "periodic_ode", 1, period, {"id": "p1"}, lipschitz, 256,
                        1.0, ((-1.0, 1.0),))

    def test_one_field_spec_per_problem(self):
        spec = get_problem("p3")
        assert spec.field() is spec.field()

    def test_unknown_rhs_id(self):
        with pytest.raises(ProblemValidationError, match="unknown rhs id"):
            ProblemSpec("bad", "periodic_ode", 1, 1.0, {"id": "nope"}, 1.0,
                        256, 1.0, ((-1.0, 1.0),))

    def test_schema_violation_names_field(self, tmp_path):
        doc = catalog()[0].to_dict()
        del doc["lipschitz"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemValidationError, match="lipschitz"):
            load_problem(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemValidationError, match="parse error"):
            load_problem(path)

    def test_poly_table_matches_builtin_cubic(self):
        table = ProblemSpec("c", "periodic_ode", 1, 1.0,
                            {"poly": [0.0, 1.0, 0.0, -1.0]}, 26.0, 256,
                            3.0, ((-2.0, 2.0),))
        fps = certify.find_fixed_points(operators.build_finite("K2", table),
                                        table.default_U2())
        vals = sorted(fp[0] for fp in fps)
        np.testing.assert_allclose(vals, [-1.0, 0.0, 1.0], atol=1e-4)


class TestRun:
    def test_p1_duality(self):
        rep = run(get_problem("p1"), suite="duality")
        assert rep.verdict
        assert {d["pair"] for d in rep.duality} == \
            {"krasnoselskii", "inverse_poincare"}
        for d in rep.duality:
            assert d["equal"]
            assert d["right"]["degree"] == 1

    def test_p2_duality_three_solutions(self):
        rep = run(get_problem("p2"), suite="duality")
        assert rep.verdict
        kras = next(d for d in rep.duality if d["pair"] == "krasnoselskii")
        assert kras["left"]["degree"] == kras["right"]["degree"] == 1
        assert len(kras["common_core"]["matched_pairs"]) == 3

    def test_p1_signs(self):
        rep = run(get_problem("p1"), suite="signs", etas=(1.0, -1.0))
        assert rep.verdict
        assert [d["eta"] for d in rep.duality] == [1.0, -1.0]
        for d in rep.duality:
            assert d["equal"]
            assert d["left"]["degree"] == d["sign_factor"] * d["right"]["degree"]

    def test_grid_override(self):
        rep = run(get_problem("p1"), suite="duality", grid_m=128)
        assert rep.grid_m == 128 and rep.verdict

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run(get_problem("p1"), suite="bogus")

    @pytest.mark.parametrize("pid,suite,etas,message", [
        ("p4", "signs", None, "suite 'signs' runs no verdict on p4, a dirichlet_bvp problem"),
        ("p5", "signs", None, "suite 'signs' runs no verdict on p5"),
        ("p6", "signs", None, "suite 'signs' runs no verdict on p6, a periodic_dde problem"),
        ("p3", "duality", (2.0,), "eta values need a signs pair, and suite 'duality' runs none"),
        ("p1", "operators", (1.0,), "suite 'operators' runs none on p1"),
        ("p4", "all", (1.0,), "suite 'all' runs none on p4"),
        ("p6", "signs", (1.0,), "eta values need a signs pair")],
        ids=["signs-p4", "signs-p5", "signs-p6", "eta-duality-p3", "eta-operators-p1",
             "eta-p4", "eta-signs-p6"])
    def test_no_vacuous_suite_and_no_dropped_eta(self, pid, suite, etas, message, monkeypatch):
        # a suite with no verdict on the kind would PASS vacuously, and eta
        # values no signs pair reads would be dropped: both raise before any work
        monkeypatch.setattr(operators, "run_copy", None)
        with pytest.raises(problems.SuiteError, match=re.escape(message)):
            run(get_problem(pid), suite=suite, etas=etas)

    @pytest.mark.parametrize("pid", ["p1", "p3"])
    def test_common_core_checked_once_per_run(self, pid, monkeypatch):
        calls = []
        check = certify.check_common_core
        monkeypatch.setattr(certify, "check_common_core",
                            lambda *a, **k: calls.append(a) or check(*a, **k))
        rep = run(get_problem(pid), "all", grid_m=32)
        assert calls == [calls[0]] and rep.verdict
        assert sum(d["common_core"] is not None for d in rep.duality) == 3

    @staticmethod
    def _finite_degree_calls(monkeypatch) -> list:
        """(map, box) of every Brouwer computation of a fixed-point degree in
        the run, through either binding of ``fixed_point_degree``."""
        calls = []
        fpd = degree.fixed_point_degree

        def counted(F, box, *a, **k):
            calls.append((F, np.asarray(box.as_box())))
            return fpd(F, box, *a, **k)

        for mod in (degree, certify):
            monkeypatch.setattr(mod, "fixed_point_degree", counted)
        return calls

    @pytest.mark.parametrize("pid", ["p1", "p3"])
    def test_finite_degrees_computed_once_per_run(self, pid, monkeypatch):
        calls = self._finite_degree_calls(monkeypatch)
        p = get_problem(pid)
        rep = run(p, "all", grid_m=32)
        assert rep.verdict and len(calls) == 3
        # deg(I - P, U2), P the Poincare map, serves all six of its readers
        x = np.full(p.dim, 0.3)
        P = flows.poincare(p.field(), x, m=32)
        poincare_over_U2 = [np.array_equal(box, p.default_U2().as_box())
                            and np.array_equal(np.asarray(F(x)), P) for F, box in calls]
        assert sum(poincare_over_U2) == 1

    def test_history_space_degree_computed_once(self, monkeypatch):
        calls = self._finite_degree_calls(monkeypatch)
        rep = run(get_problem("p6"), "all", grid_m=32)
        assert rep.verdict and len(calls) == 1 and calls[0][1].shape == (8, 2)

    def test_finite_degrees_fresh_in_each_run(self, monkeypatch):
        # p4's Kdir2 has one name and params at every grid: a Newton search or
        # Jacobian kept past its run would be read at the next grid
        calls = self._finite_degree_calls(monkeypatch)
        runs = [(pid, m) for pid in ("p3", "p4") for m in (16, 32)]
        docs = []
        for pid, m in runs:
            doc = run(get_problem(pid), "all", grid_m=m).to_dict()
            doc.pop("timings")
            docs.append(report_mod.canonical_json(doc))
        assert len(calls) == 2 * 3 + 2 * 2
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for (pid, m), text in zip(runs, docs):
            code = ("from dualdeg import problems, report\n"
                    f"doc = problems.run(problems.get_problem('{pid}'), 'all', grid_m={m}).to_dict()\n"
                    "doc.pop('timings')\n"
                    "print(report.canonical_json(doc), end='')")
            fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout
            assert text == fresh

    @staticmethod
    def _sweep_counts(monkeypatch) -> dict:
        """RK4 sweeps (``flows._rk4`` calls, the delay solve's too) and FD
        Jacobians (through either binding of ``fd_jacobian``) made from now on."""
        counts = {"sweeps": 0, "jacobians": 0}

        def counted(fn, what):
            def wrapper(*a, **k):
                counts[what] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(flows, "_rk4", counted(flows._rk4, "sweeps"))
        jacobian = counted(degree.fd_jacobian, "jacobians")
        for mod in (degree, certify):
            monkeypatch.setattr(mod, "fd_jacobian", jacobian)
        return counts

    @pytest.mark.parametrize("pid,m,sweeps,jacobians", [
        pytest.param(pid, m, sweeps, jacobians, id=f"{pid}-{m}") for pid, m, sweeps, jacobians in
        (("p1", 64, 3, 2), ("p2", 64, 2, 1), ("p3", 32, 5, 6), ("p3", 128, 5, 6),
         ("p4", 64, 2, 4), ("p5", 64, 2, 4), ("p4", 256, 2, 4), ("p5", 256, 2, 4),
         ("p6", 64, 3, 3), ("p7", 64, 6, 6))])
    def test_sweeps_per_run(self, pid, m, sweeps, jacobians, monkeypatch):
        # one Newton search per finite handle and box, one Jacobian per zero,
        # one flow for K1 and Ktilde per certificate pass (at m = 128 too, where
        # a pass has several blocks), each finite row mapped once per run and
        # one stacked call per stage: a box's margin, seeds and seed stencil,
        # then each line-search try with its stencil; the common-core lift, the
        # witness probe, Kshoot's endpoints and the Kdir1 residual read states
        # the search already integrated (the run's alpha memo).  On the periodic
        # kinds the first K1 flow also maps the lifts of every level up to 2 and
        # the common core's opening rows, queued on its alpha.  The rows of the
        # Dirichlet block check's two Jacobians ride on the Newton try that
        # finds the zero, so the check maps none (p4 and p5 at their default
        # grid too, where the benchmark runs them)
        counts = self._sweep_counts(monkeypatch)
        assert run(get_problem(pid), "all", grid_m=m).verdict
        assert counts == {"sweeps": sweeps, "jacobians": jacobians}

    @pytest.mark.parametrize("pid,m,evals", [
        pytest.param(pid, m, evals, id=f"{pid}-{m}") for pid, m, evals in
        (("p1", 64, 769), ("p2", 64, 513), ("p3", 32, 642), ("p3", 128, 2567),
         ("p4", 64, 515), ("p5", 64, 515), ("p4", 256, 2051), ("p5", 256, 2051),
         ("p6", 64, 384), ("p7", 64, 1540))])
    def test_rhs_evaluations_per_run(self, pid, m, evals, monkeypatch):
        # every call of the problem's field rhs in one run, each on a whole
        # stack: the RK4 stages of the sweeps above, the Nemytskii images and
        # KhatP's backward field.  A stage does the same work however it checks
        calls, rhs = [], problems._BUILTINS[pid]["rhs"]
        monkeypatch.setitem(problems._BUILTINS[pid], "rhs",
                            lambda *a: calls.append(1) or rhs(*a))
        assert run(get_problem(pid), "all", grid_m=m).verdict
        assert len(calls) == evals

    @pytest.mark.parametrize("pid,builds,distinct", [
        ("p1", 15, 12), ("p3", 16, 12), ("p4", 6, 4), ("p6", 9, 7), ("p7", 13, 9)])
    def test_handles_built_once_per_run(self, pid, builds, distinct, monkeypatch):
        # the duality plans and the operator suite share the run's handles, so each
        # (name, params) they read is built once; the common core, its opening
        # queue and the pullback samples still build K2 (or Kdir2, Kdelay2) and
        # Ktilde themselves
        made, depth = [], []
        for fn in ("build", "build_finite"):
            def counted(name, problem, params=None, _real=getattr(operators, fn)):
                if not depth:
                    made.append((name, repr(sorted((params or {}).items())), problem.m))
                depth.append(1)
                try:
                    return _real(name, problem, params)
                finally:
                    depth.pop()
            monkeypatch.setattr(operators, fn, counted)
        assert run(get_problem(pid), "all", grid_m=64).verdict
        assert (len(made), len(set(made))) == (builds, distinct)

    @pytest.mark.parametrize("pid,boxes", [("p1", 1), ("p2", 1), ("p3", 2)])
    def test_one_opening_per_box_per_run(self, pid, boxes, monkeypatch):
        # the core's queue, the searches of K2 and of Khat2 and their margins read
        # one opening of U2; p3's inverse_poincare adds its image box
        built, opening = [], degree._opening

        def counted(b, openings):
            if b.tobytes() not in openings:
                built.append(b.tobytes())
            return opening(b, openings)

        monkeypatch.setattr(degree, "_opening", counted)
        assert run(get_problem(pid), "all", grid_m=64).verdict
        assert len(built) == len(set(built)) == boxes

    @staticmethod
    def _memos(monkeypatch) -> list:
        """The run memos (``operators.Solutions``) made from now on."""
        made, init = [], operators.Solutions.__init__

        def recorded(self):
            init(self)
            made.append(self)

        monkeypatch.setattr(operators.Solutions, "__init__", recorded)
        return made

    @pytest.mark.parametrize("pid,rows", [
        ("p4", {("alpha", 256): 205}), ("p5", {("alpha", 256): 205}),
        ("p6", {("alpha", 14): 3650, ("alpha", 128): 66})])
    def test_core_opening_queued_only_on_a_lifted_alpha(self, pid, rows, monkeypatch):
        # the core's opening rows ride on the first flow only where a lifted handle
        # reads its finite handle's alpha: a Dirichlet run has no lifted handle, and
        # the delay kind's Kdelay1 reads the full grid's alpha, not the history-node
        # one of Kdelay2.  So these runs queue no opening row, and every alpha memo
        # ends with the rows it held before there was a queue; a Dirichlet run
        # queues, and its memo holds, the block-check rows of every Newton iterate
        # tried inside U2, and a delay run queues nothing
        made, queued, queue = self._memos(monkeypatch), [], operators.queue
        monkeypatch.setattr(operators, "queue",
                            lambda problem, X: queued.append(X) or queue(problem, X))
        problem = get_problem(pid)
        assert run(problem, "all").verdict
        [memo] = made
        opening = {x.tobytes() for x in degree._opening(problem.default_U2().as_box(), {})[0]}
        assert bool(queued) == (problem.kind == "dirichlet_bvp")
        assert not any(x.tobytes() in opening for X in queued for x in X)
        assert {key: len(held) for key, held in memo.items()} == rows

    @pytest.mark.parametrize("pid,suite", [
        (p.pid, suite) for p in catalog() for suite in problems.SUITES
        if suite != "signs" or certify.KIND_TABLE[p.kind].signs])
    def test_no_queued_row_outlives_its_run(self, pid, suite, monkeypatch):
        # a queued row rides on the next call with new rows under its key; one
        # still queued when run returns was planned and never mapped
        made = self._memos(monkeypatch)
        run(get_problem(pid), suite, grid_m=64)
        [memo] = made
        assert all(not queue for queue in memo.queues.values())

    @pytest.mark.parametrize("pid,pair,eta,sweeps", [
        ("p4", "dirichlet_shooting", None, 2), ("p5", "dirichlet_shooting", None, 2),
        ("p6", "delay", None, 3), ("p2", "eta_sign", -1.0, 1)])
    def test_sweeps_per_verify_duality(self, pid, pair, eta, sweeps, monkeypatch):
        # verify_duality runs on a run copy with its own memo, like run: each
        # state the finite side, the lift and Kshoot read is integrated once, and
        # the Dirichlet block check's rows ride on the Newton tries
        counts = self._sweep_counts(monkeypatch)
        problem = replace(get_problem(pid), m=64)
        assert certify.verify_duality(problem, pair, eta=eta).equal
        assert counts["sweeps"] == sweeps

    @pytest.mark.parametrize("pid,core,degree_alone", [
        ("p1", 2, 1), ("p3", 2, 2), ("p4", 2, 2), ("p6", 2, 2)])
    def test_sweeps_standalone(self, pid, core, degree_alone, monkeypatch):
        # outside a run, each row is still mapped once, through a fresh memo:
        # the common core works on a run copy, so its lift reads the states the
        # search's stages integrated
        counts = self._sweep_counts(monkeypatch)
        problem = replace(get_problem(pid), m=64)
        U2 = problem.default_U2()
        assert certify.check_common_core(problem, problem.default_U1(), U2).verdict
        got = [counts["sweeps"]]
        counts["sweeps"] = 0
        fin = operators.build_finite(certify.KIND_TABLE[problem.kind].finite, problem)
        assert degree.fixed_point_degree(fin.apply_fn, U2).certified
        assert got + [counts["sweeps"]] == [core, degree_alone]

    @pytest.mark.parametrize("pid", ["p1", "p4"])
    def test_negative_seed_rejected(self, pid):
        # p1's homotopies read the seed, p4's run reads none: both reject it
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            run(get_problem(pid), seed=-1)

    def test_every_catalog_operator_is_reachable(self, monkeypatch):
        # every operator of the catalog is built by some suite of some problem
        built = set()
        for fn in ("build", "build_finite"):
            real = getattr(operators, fn)
            monkeypatch.setattr(operators, fn, lambda name, *a, _real=real, **k:
                                built.add(name) or _real(name, *a, **k))
        for p in catalog():
            run(p, "all", grid_m=64)
        assert built == set(operators.GRID_OPERATORS) | set(operators.FINITE_OPERATORS)

    @pytest.mark.parametrize("pid", ["p1", "p2", "p3", "p4", "p5", "p6", "p7"])
    def test_no_state_is_integrated_twice(self, pid, monkeypatch):
        # each initial state goes into an RK4 sweep once per run, in the
        # certificate passes too: K1's flow and every finite map read one memo.
        # A state is keyed by its bytes, its rhs (by code and what it closes
        # over, so the fresh closures of one field are one key; KhatP's
        # backward field is one of its own; a flow's checked rhs, a partial,
        # by the field rhs it checks) and its grid; a delay state by its
        # whole history, the input of the delay solve
        seen, repeats, delay = set(), [], []
        rk4, dde_flow = flows._rk4, flows.dde_flow

        def record(key, rows):
            for row in rows:
                if (key, row.tobytes()) in seen:
                    repeats.append(row)
                seen.add((key, row.tobytes()))

        def rk4_once(rhs, y0, a, h, m, *rest):
            if not delay:
                if isinstance(rhs, functools.partial):
                    assert rhs.func is flows._rhs_call
                    [rhs] = rhs.args
                cells = tuple(c.cell_contents for c in rhs.__closure__ or ())
                record((rhs.__code__, cells, a, h, m), y0.reshape(-1, y0.shape[-1]))
            return rk4(rhs, y0, a, h, m, *rest)

        def dde_once(f, history, horizon):
            record((f, history.grid, horizon), history.values.reshape(-1, history.values[0].size))
            delay.append(True)
            try:
                return dde_flow(f, history, horizon)
            finally:
                delay.pop()

        monkeypatch.setattr(flows, "_rk4", rk4_once)
        monkeypatch.setattr(flows, "dde_flow", dde_once)
        assert run(get_problem(pid), "all", grid_m=64).verdict
        assert seen and not repeats

    @pytest.mark.parametrize("pid,sweeps", [("p4", 2), ("p6", 3)])
    def test_alpha_memo_lives_one_run(self, pid, sweeps, monkeypatch):
        # a memo kept past its run would leave the next run fewer sweeps;
        # reference counting frees it when run returns, and the caller's spec
        # never holds one.  p6 makes 3 sweeps only if its history-node copies
        # share the run's memo, so the common-core lift reads it
        made, init = [], operators.Solutions.__init__

        def recorded(self):
            init(self)
            made.append(weakref.ref(self))

        monkeypatch.setattr(operators.Solutions, "__init__", recorded)
        counts, spec, per_run = self._sweep_counts(monkeypatch), get_problem(pid), []
        gc.disable()
        try:
            for _ in range(2):
                counts["sweeps"] = 0
                assert run(spec, "all", grid_m=64).verdict
                per_run.append(counts["sweeps"])
            alive = sum(ref() is not None for ref in made)
        finally:
            gc.enable()
        assert per_run == [sweeps, sweeps] and len(made) == 2 and alive == 0
        assert spec._solutions is None

    def test_finite_side_freed_by_reference_counting(self, monkeypatch):
        # a finite map that refers to itself, say through a stored defect
        # closure, waits for the cyclic collector, and each run's rows with it
        made, init = [], degree._Finite.__init__

        def recorded(self, *a, **k):
            init(self, *a, **k)
            made.append(weakref.ref(self))

        monkeypatch.setattr(degree._Finite, "__init__", recorded)
        gc.disable()
        try:
            assert run(get_problem("p1"), "all", grid_m=32).verdict
            alive = sum(ref() is not None for ref in made)
        finally:
            gc.enable()
        assert made and alive == 0

    def test_table_rhs_shares_nemytskii_images(self, monkeypatch):
        # a coefficient-table rhs is resolved once per problem, so its fields
        # are value-equal and a run superposes as often as for a builtin rhs
        table = ProblemSpec("t1", "periodic_ode", 1, 1.0,
                            {"poly": [0.0, -1.0], "cos": [[1.0, 2 * np.pi]]}, 1.0, 256,
                            1.0, ((-1.0, 1.0),))
        assert table.field() == table.field()
        calls, superpose = [], gridfn._superpose
        monkeypatch.setattr(gridfn, "_superpose", lambda *a: calls.append(a) or superpose(*a))
        counts = []
        for p in (get_problem("p1"), table):
            calls.clear()
            assert run(p, "all", grid_m=64).verdict
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_determinism_excluding_timings(self):
        docs = []
        for _ in range(2):
            doc = run(get_problem("p1"), suite="duality").to_dict()
            doc.pop("timings")
            docs.append(report_mod.canonical_json(doc))
        assert docs[0] == docs[1]


@pytest.fixture(scope="module")
def p1_report():
    return run(get_problem("p1"), suite="all").to_dict()


class TestEmit:
    def test_json_round_trip(self, p1_report, tmp_path):
        path = report_mod.emit(p1_report, "json", str(tmp_path))
        with open(path) as fh:
            back = json.load(fh)
        back.pop("timings")
        ref = json.loads(json.dumps(dict(p1_report)))
        ref.pop("timings")
        assert back == ref

    def test_csv_row_count(self, p1_report):
        text = report_mod.report_csv(p1_report)
        lines = text.strip().split("\n")
        assert lines[0] == "problem,pair,left,right,equal,min_residual"
        assert len(lines) == 1 + len(p1_report["duality"])
        assert "\r" not in text

    def test_svg_polyline_per_certificate(self, p1_report):
        text = report_mod.report_svg(p1_report)
        n_certs = sum(len(d["certificates"]) for d in p1_report["duality"])
        n_certs += len(p1_report["certificates"])
        assert text.count("<polyline") == n_certs

    def test_report_schema_validation(self, p1_report):
        import jsonschema
        from importlib import resources
        schema = json.loads(resources.files("dualdeg.schemas")
                            .joinpath("report.schema.json").read_text())
        jsonschema.Draft202012Validator(schema).validate(
            json.loads(report_mod.canonical_json(p1_report)))

    def test_unknown_format(self, p1_report, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            report_mod.emit(p1_report, "pdf", str(tmp_path))


class TestFloatFormatting:
    def test_17_digit_round_trip(self):
        for x in (1.0 / 3.0, np.pi, 1e-300, -2.5e17):
            assert float(report_mod.fmt_float(x)) == x

    def test_non_finite_null(self):
        assert report_mod.fmt_float(float("inf")) == "null"
        assert report_mod.fmt_float(float("nan")) == "null"


NAN, INF = float("nan"), float("inf")
# every branch of the canonical writer: nested and empty containers, escaped
# strings and keys, literals, ints, floats and float lists with non-finite items
CANONICAL_DOC = {
    "nested": {"list": [1, {"deep": [[]]}], "empty": {}},
    "escapes": "quote \" slash \\ nl \n tab \t e\u0301 \u00e9 \x01",
    "key \"q\"\n": [True, False, None],
    "ints": [0, -7, 12345678901234567890],
    "floats": [-0.0, 1.0, 1e-300, NAN, INF, -INF],
    "scalars": {"neg_zero": -0.0, "one": 1.0, "tiny": 1e-300, "nan": NAN,
                "inf": INF, "minus_inf": -INF, "third": 1 / 3},
    "nan_inside": [0.5, NAN, 2.0],
    "float_rows": [[0.1, 0.2], [0.30000000000000004]],
    "mixed": [1, 2.5, "x", True, None]}
# the writer's output for CANONICAL_DOC, byte for byte, as first recorded
CANONICAL_TEXT = r"""{
  "nested": {
    "list": [
      1,
      {
        "deep": [
          []
        ]
      }
    ],
    "empty": {}
  },
  "escapes": "quote \" slash \\ nl \n tab \t e\u0301 \u00e9 \u0001",
  "key \"q\"\n": [
    true,
    false,
    null
  ],
  "ints": [
    0,
    -7,
    12345678901234567890
  ],
  "floats": [
    -0,
    1,
    1e-300,
    null,
    null,
    null
  ],
  "scalars": {
    "neg_zero": -0,
    "one": 1,
    "tiny": 1e-300,
    "nan": null,
    "inf": null,
    "minus_inf": null,
    "third": 0.33333333333333331
  },
  "nan_inside": [
    0.5,
    null,
    2
  ],
  "float_rows": [
    [
      0.10000000000000001,
      0.20000000000000001
    ],
    [
      0.30000000000000004
    ]
  ],
  "mixed": [
    1,
    2.5,
    "x",
    true,
    null
  ]
}
"""
PLAIN_TYPES = (dict, list, str, int, float, bool, type(None))


def _non_plain(obj, path="$"):
    """Paths in ``obj`` that hold something other than plain JSON data."""
    if type(obj) not in PLAIN_TYPES:
        return [f"{path}: {type(obj).__name__}"]
    if type(obj) is dict:
        return [f"{path}: key {k!r}" for k in obj if type(k) is not str] + [
            p for k, v in obj.items() for p in _non_plain(v, f"{path}.{k}")]
    if type(obj) is list:
        return [p for i, v in enumerate(obj) for p in _non_plain(v, f"{path}[{i}]")]
    return []


class TestCanonicalJson:
    def test_every_branch_byte_for_byte(self):
        assert report_mod.canonical_json(CANONICAL_DOC) == CANONICAL_TEXT

    @pytest.mark.parametrize("value", [(1.0, 2.0), np.float64(1.5), np.int64(3),
                                       np.bool_(True), np.array([1.0]), {1.0}, object()],
                             ids=["tuple", "np.float64", "np.int64", "np.bool_",
                                  "ndarray", "set", "object"])
    def test_only_plain_data_is_written(self, value):
        # the writer takes what ``_plain`` makes; other types are the caller's bug
        with pytest.raises(TypeError, match="cannot serialize"):
            report_mod.canonical_json({"x": [value]})

    def test_plain_converts_numpy_once(self):
        doc = report_mod._plain({"t": (np.float64(0.5), np.float64(NAN)), 2: np.int64(3),
                                 "rows": (np.array([1.0, 2.0]), (np.float64(3.0),)),
                                 "flags": np.array([True, False]), "b": np.bool_(True),
                                 "grid": np.array([[0.25], [0.5]]), "mixed": [1.0, True, 2]})
        assert _non_plain(doc) == []
        assert report_mod.canonical_json(doc) == report_mod.canonical_json(
            {"t": [0.5, NAN], "2": 3, "rows": [[1.0, 2.0], [3.0]], "flags": [True, False],
             "b": True, "grid": [[0.25], [0.5]], "mixed": [1.0, True, 2]})
        assert [type(v) for v in doc["mixed"]] == [float, bool, int]

    @pytest.mark.parametrize("pid", ["p1", "p2", "p3", "p4", "p5", "p6", "p7"])
    def test_run_report_is_plain_data(self, pid):
        # no tuples, no numpy scalars: the writer's exact-type dispatch relies on it
        doc = run(get_problem(pid), "all", grid_m=None if pid == "p6" else 64).to_dict()
        assert _non_plain(doc) == []


class TestCli:
    def test_list(self):
        res = CliRunner().invoke(cli_main, ["list"])
        assert res.exit_code == 0
        for pid in ("p1", "p4", "p6", "p7"):
            assert pid in res.output

    def test_run_pass(self, tmp_path):
        res = CliRunner().invoke(
            cli_main, ["run", "p1", "--suite", "duality",
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "verdict: PASS" in res.output
        assert (tmp_path / "report-p1.json").exists()

    def test_run_degenerate_fails(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({
            "id": "zf", "kind": "periodic_ode", "dim": 1, "period": 1.0,
            "rhs": {"poly": [0.0]}, "lipschitz": 0.0, "m": 32,
            "u1_radius": 1.0, "u2_box": [[-1.0, 1.0]]}))
        res = CliRunner().invoke(
            cli_main, ["run", str(cfg), "--suite", "duality",
                       "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "verdict: FAIL" in res.output

    def test_run_negative_seed_one_error_line(self, tmp_path):
        res = CliRunner().invoke(cli_main, ["run", "p1", "--seed", "-1", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output  # click's usage error
        errors = [line for line in res.output.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and "'--seed': -1" in errors[0], res.output
        assert "Traceback" not in res.output and not list(tmp_path.iterdir())

    def test_run_unknown_problem(self):
        res = CliRunner().invoke(cli_main, ["run", "p99"])
        assert res.exit_code != 0
        assert "unknown problem" in res.output

    def test_degree_finite(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K2",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code == 0, res.output
        assert "degree=+1" in res.output

    def test_degree_reducible(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p4", "--operator", "Ktilde",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code == 0, res.output
        assert "degree=+1" in res.output

    def test_degree_non_reducible(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code != 0
        assert "finite-rank reduction" in res.output

    @pytest.mark.parametrize("pid", [p.pid for p in catalog()])
    def test_degree_prints_what_a_verdict_reads(self, pid):
        # the kind's finite handle over U2 is each verdict's right side; Ktilde over
        # U2 is krasnoselskii's left side, and over the slope block dirichlet_shooting's
        # (p6's left side reads the coarse history grid's Ktilde, which `degree` does not)
        p = get_problem(pid)
        box = [list(row) for row in p.u2_box]
        reads = []  # (operator, domain rows, the side a verdict reads)
        for d in run(p, suite="duality").duality:
            reads.append((certify.KIND_TABLE[p.kind].finite, box, d["right"]))
            if d["pair"] == "krasnoselskii":
                reads.append(("Ktilde", box, d["left"]))
            elif d["pair"] == "dirichlet_shooting":
                reads.append(("Ktilde", box[:p.dim], d["left"]))
        for operator, rows, side in reads:
            res = CliRunner().invoke(cli_main, ["degree", pid, "--operator", operator,
                                                "--domain", json.dumps(rows)])
            assert (res.exit_code, res.output) == (
                0 if side["certified"] else 1,
                f"degree={side['degree']:+d} method={side['method']} "
                f"certified={side['certified']} "
                f"min_boundary_norm={side['min_boundary_norm']:.3e}\n"), (operator, rows)

    def test_degree_bad_domain(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K2",
                       "--domain", "oops"])
        assert res.exit_code != 0
        assert "not valid JSON" in res.output

    @pytest.mark.parametrize("args,message", [
        (["degree", "p1", "--operator", "K2", "--domain", "[1,2,3]"],
         "--domain must be a list of [lo, hi] pairs"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[1,-1]]"],
         "box must have nonempty interior"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[null,1]]"],
         "box bounds must be finite"),
        # a bound that is no JSON number: an object, or a bool, which is no 1.0
        (["degree", "p1", "--operator", "K2", "--domain", '[[{{"a":1}},1]]'],
         "--domain: box bounds must be finite numbers"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[true,2]]"],
         "--domain: box bounds must be finite numbers"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[-1,1],[-1,1]]"],
         "--domain has dimension 2, K2 needs 1"),
        (["degree", "p1", "--operator", "K0", "--domain", "[[-1,1]]"],
         "unknown operator name 'K0'"),
        (["degree", "p1", "--operator", "Kbogus", "--domain", "[[-1,1]]"],
         "unknown operator name 'Kbogus'"),
        (["degree", "p1", "--operator", "Keta", "--domain", "[[-1,1]]"],
         "operator 'Keta' carries no finite-rank reduction witness"),
        (["run", "p1", "--grid", "1"], "grid needs m >= 2, got m=1"),
        (["run", "{schema_invalid}"], "'kind' is a required property"),
        (["degree", "{unparsable}", "--operator", "K2", "--domain", "[[-1,1]]"],
         "parse error"),
        (["run", "{p3_one_row}"], "u2_box has 1 rows, a periodic_ode problem of dim 2 needs 2"),
        (["run", "{p6_two_rows}"], "u2_box has 2 rows, a periodic_dde problem of dim 1 needs 8"),
        (["run", "{p4_one_row}"], "u2_box has 1 rows, a dirichlet_bvp problem of dim 1 needs 2"),
        (["run", "{p4_empty_row}"], "u2_box row [1.0, -1.0] is not a finite [lo, hi]"),
        (["run", "{p6_m101}"], "tau=0.5 is not an integer multiple of the grid step"),
        (["run", "p6", "--grid", "101"],
         "tau=0.5 is not an integer multiple of the grid step"),
        (["run", "{p6_m2}"], "tau=0.5 spans 1 grid step of h=0.5, and the delay history "
                             "needs at least 2"),
        (["run", "p6", "--grid", "2"], "tau=0.5 spans 1 grid step"),
        (["run", "{p6_two_history_nodes}"],
         "$.history_nodes: 2 is less than the minimum of 3"),
        (["run", "p1", "--suite", "signs", "--eta", "0"],
         "eta=0.0 makes exp(eta*T) - 1 negligible"),
        (["run", "p7", "--suite", "signs", "--eta", "0"],
         "eta = 0 is singular for the zero mode"),
        (["run", "p7", "--suite", "signs", "--eta", "1"], "I - A/eta is singular"),
        (["run", "{cubic_blow_up}"], "non-finite state while integrating"),
        (["run", "{duffing_blow_up}"], "non-finite state while integrating"),
        (["degree", "{duffing_blow_up}", "--operator", "K2", "--domain", "[[-1.5,1.5]]"],
         "non-finite state while integrating"),
        (["run", "{duffing_overflow}", "--suite", "operators"],
         "grid function values must be finite (no NaN/Inf)"),
        (["run", "p4", "--suite", "signs"], "suite 'signs' runs no verdict on p4"),
        (["run", "p5", "--suite", "signs"], "suite 'signs' runs no verdict on p5"),
        (["run", "p6", "--suite", "signs"], "suite 'signs' runs no verdict on p6"),
        (["run", "p3", "--suite", "duality", "--eta", "2"],
         "eta values need a signs pair, and suite 'duality' runs none on p3"),
        (["run", "p4", "--eta", "1"], "eta values need a signs pair, and suite 'all' runs none"),
        (["run", "p1", "--suite", "signs", "--eta", "nan"],
         "eta values must be finite, got [nan]"),
        (["run", "p1", "--suite", "signs", "--eta", "1", "--eta", "inf"],
         "eta values must be finite, got [1.0, inf]"),
        (["run", "p3", "--suite", "signs", "--eta", "-inf"], "eta values must be finite"),
        (["run", "p7", "--suite", "signs", "--eta", "nan"], "eta values must be finite"),
        (["run", "p1", "--suite", "signs", "--eta", "800"],
         "eta=800.0 overflows the eta-shifted periodic solve"),
        (["run", "p1", "--suite", "signs", "--eta", "-800"],
         "eta=-800.0 overflows the eta-shifted periodic solve"),
        (["run", "p1", "--suite", "signs", "--eta", "705"],
         "eta=705.0 overflows the eta-shifted periodic solve"),
        (["run", "p3", "--suite", "signs", "--eta", "800"],
         "eta=800.0 overflows the eta-shifted periodic solve"),
        (["run", "{u1_radius_nan}", "--suite", "duality"], "u1_radius must be finite, got nan"),
        (["run", "{u1_radius_inf}", "--suite", "duality"], "u1_radius must be finite, got inf"),
        (["run", "{period_nan}", "--suite", "duality"], "period must be finite, got nan"),
        (["run", "{period_inf}", "--suite", "duality"], "period must be finite, got inf"),
        (["run", "{lipschitz_nan}", "--suite", "duality"], "lipschitz must be finite, got nan"),
        (["run", "{lipschitz_inf}", "--suite", "duality"], "lipschitz must be finite, got inf"),
        (["run", "{p3_dim_1}"], "rhs id 'p3' needs dim 2, got dim 1"),
        (["run", "{p7_dim_3}"], "rhs id 'p7' needs dim 2, got dim 3"),
        (["run", "{nonlocal_p1}"], "nonlocal_1d needs a builtin rhs with a linearization table"),
        (["report", "{unparsable_report}", "--format", "csv"], "report-p1.json: parse error"),
        (["report", "{report_without_pair}", "--format", "csv"],
         "report-p1.json: $: 'format_version' is a required property"),
        (["report", "{report_without_pair}", "--format", "svg"],
         "$.duality[0]: 'pair' is a required property"),
    ], ids=["not-pairs", "empty-box", "nonfinite-box", "object-bound", "bool-bound",
            "dimension", "K0", "unknown-operator", "keta-no-witness", "grid-1",
            "schema-invalid-file", "unparsable-file", "u2-box-rows-p3", "u2-box-rows-p6", "u2-box-rows-p4",
            "u2-box-empty-row", "tau-misaligned-file", "tau-misaligned-grid",
            "p6_m2", "tau-one-step-grid", "history-nodes-2",
            "eta-singular-p1", "eta-zero-p7", "eta-collision-p7", "blow-up-run-cubic",
            "blow-up-run-duffing", "blow-up-degree-duffing", "overflow-operators-duffing",
            "signs-p4", "signs-p5",
            "signs-p6", "eta-duality-p3", "eta-p4", "eta-nan-p1", "eta-inf-p1",
            "eta-minus-inf-p3", "eta-nan-p7", "eta-overflow-p1", "eta-minus-overflow-p1",
            "eta-product-overflow-p1", "eta-overflow-p3", "u1-radius-nan", "u1-radius-inf",
            "period-nan", "period-inf", "lipschitz-nan", "lipschitz-inf", "planar-rhs-dim-1",
            "planar-rhs-dim-3", "nonlocal-without-table", "report-unparsable",
            "report-schema-invalid", "report-schema-invalid-svg"])
    def test_bad_input_one_line_error(self, args, message, tmp_path):
        box = lambda pid, rows: json.dumps(dict(get_problem(pid).to_dict(), u2_box=rows))
        # x' = x^3 and x' = x^3 - x: flows from parts of U2 blow up within T = 1
        poly = lambda coef, rows: json.dumps(dict(get_problem("p1").to_dict(), m=64,
                                                  rhs={"poly": coef}, u2_box=rows))
        files = {"schema_invalid": '{"id": "x"}', "unparsable": '{"id": ',
                 "p3_one_row": box("p3", [[-1, 1]]),
                 "p6_two_rows": box("p6", [[-1, 1]] * 2),
                 "p4_one_row": box("p4", [[-1, 1]]),
                 "p4_empty_row": box("p4", [[1, -1], [-1, 1]]),
                 "p6_m101": json.dumps(dict(get_problem("p6").to_dict(), m=101)),
                 "p6_m2": json.dumps(dict(get_problem("p6").to_dict(), m=2)),
                 "p6_two_history_nodes": json.dumps(dict(get_problem("p6").to_dict(),
                                                         history_nodes=2,
                                                         u2_box=[[-1, 1]] * 2)),
                 "cubic_blow_up": poly([0, 0, 0, 1], [[-2, 2]]),
                 "duffing_blow_up": poly([0, -1, 0, 1], [[-1.5, 1.5]]),
                 # x' = 1e306 x^3 - x: the grid operators overflow on U1's boundary samples
                 "duffing_overflow": json.dumps(dict(get_problem("p1").to_dict(), m=32,
                                                     rhs={"poly": [0, -1, 0, 1e306]},
                                                     u2_box=[[-1, 1]])),
                 # planar builtin rhs at another dim, and a nonlocal rhs with no A table
                 "p3_dim_1": json.dumps(dict(get_problem("p3").to_dict(), dim=1,
                                             u2_box=[[-1, 1]])),
                 "p7_dim_3": json.dumps(dict(get_problem("p7").to_dict(), dim=3,
                                             u2_box=[[-1, 1]] * 3)),
                 "nonlocal_p1": json.dumps(dict(get_problem("p1").to_dict(),
                                                kind="nonlocal_1d"))}
        # x' = x - x^3 over U2 = [-2, 2], one field not finite (json writes NaN, Infinity)
        files.update({f"{key}_{name}": json.dumps(dict(
            get_problem("p1").to_dict(), m=32, rhs={"poly": [0, 1, 0, -1]}, u2_box=[[-2, 2]],
            **{key: value})) for key in ("u1_radius", "period", "lipschitz")
            for name, value in (("nan", float("nan")), ("inf", float("inf")))})
        # a directory of one bad report each, for `report`
        reports = {"unparsable_report": '{"duality": ',
                   "report_without_pair": '{"duality": [{"problem": "p1"}]}'}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        for name, text in reports.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "report-p1.json").write_text(text)
        paths = {name: tmp_path / f"{name}.json" for name in files}
        paths.update({name: tmp_path / name for name in reports})
        args = [a.format(**paths) for a in args]
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), res.output
        assert message in lines[0]

    def test_config_sweep_verdict_or_one_error_line(self, tmp_path):
        # every builtin rhs and a coefficient table, on every kind at dim 1-3: each
        # `run` reaches a verdict or prints one Error: line, never a traceback
        rows_per_dim = {"periodic_ode": 1, "nonlocal_1d": 1, "dirichlet_bvp": 2,
                        "periodic_dde": 8}
        table = {"poly": [0.0, -1.0], "cos": [[1.0, 2 * np.pi]]}
        bad = []
        for rhs in [{"id": pid} for pid in sorted(problems._BUILTINS)] + [table]:
            for kind, rows in rows_per_dim.items():
                for dim in (1, 2, 3):
                    cfg = tmp_path / "sweep.json"
                    cfg.write_text(json.dumps(dict(
                        id="sweep", kind=kind, dim=dim, period=1.0, rhs=rhs, lipschitz=1.0,
                        m=16, u1_radius=2.0, u2_box=[[-1.0, 1.0]] * (rows * dim),
                        **({"tau": 0.5} if kind == "periodic_dde" else {}))))
                    res = CliRunner().invoke(cli_main, ["run", str(cfg), "--out", str(tmp_path)])
                    lines = res.output.splitlines()
                    if not (res.exit_code in (0, 1)
                            and isinstance(res.exception, (SystemExit, type(None)))
                            and (lines[-1:] and lines[-1].startswith("verdict: ")
                                 or len(lines) == 1 and lines[0].startswith("Error: "))):
                        bad.append((rhs, kind, dim, repr(res.exception), res.output))
        assert not bad, bad

    def test_report_reemit(self, tmp_path, p1_report):
        report_mod.emit(p1_report, "json", str(tmp_path))
        for fmt, suffix in (("csv", ".csv"), ("svg", ".svg")):
            res = CliRunner().invoke(
                cli_main, ["report", str(tmp_path), "--format", fmt])
            assert res.exit_code == 0, res.output
            assert (tmp_path / f"report-p1{suffix}").exists()

    def test_report_empty_dir(self, tmp_path):
        res = CliRunner().invoke(
            cli_main, ["report", str(tmp_path), "--format", "csv"])
        assert res.exit_code != 0
