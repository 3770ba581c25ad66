"""Self-tests of the benchmark's tracer and outcome check.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import signal
import time

import speed
from dualdeg import certify, degree, flows, problems
from harness import outcome, run_call
from tracing import LAYER_METRICS, Tracer


def test_counts_are_exact_on_a_poincare_map():
    tracer = Tracer()
    with tracer.installed():
        f = problems.get_problem("p1").field()
        flows.poincare(f, [0.0], m=8)
    metrics = tracer.metrics()
    assert metrics["flows.rk4_steps"] == 8
    assert metrics["flows.rhs_evals"] == 32  # four stages per RK4 step
    assert metrics["flows.flow.calls"] == 1


def test_every_binding_is_replaced_and_restored():
    original = degree.brouwer_nd_regular
    tracer = Tracer()
    with tracer.installed():
        assert certify.brouwer_nd_regular is degree.brouwer_nd_regular
        assert certify.brouwer_nd_regular is not original
        certify.fd_jacobian(lambda x: 2.0 * x, [1.0, 2.0])
    assert degree.brouwer_nd_regular is original
    assert certify.brouwer_nd_regular is original
    assert tracer.metrics()["degree.fd_jacobian.calls"] == 1


def test_traced_run_reproduces_the_untraced_run():
    spec = problems.get_problem("p1")
    doc, text = run_call(spec, 16, certify.DEFAULT_SEED)
    tracer = Tracer()
    with tracer.installed():
        traced_doc, traced_text = run_call(spec, 16, certify.DEFAULT_SEED)
    assert traced_text == text
    assert outcome(traced_doc) == outcome(doc)

    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["problems.run.calls"] == 1
    assert metrics["report.canonical_json.calls"] == 1
    assert metrics["operators.apply.calls"] > 0
    assert 0 < metrics["operators.apply.distinct_ratio"] <= 1
    # self times partition the time of the root spans
    totals = tracer.span_totals()
    roots = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
    assert math.isclose(sum(t["self_s"] for t in totals.values()), roots,
                        rel_tol=1e-9)


def test_probes_sample_the_kernel_and_count_their_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * speed.INTERVAL_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 2
    assert 0 < probe.spent < 5 * speed.INTERVAL_S
    assert math.isclose(probe.spent, sum(probe.samples), rel_tol=0.5)
    # at the nominal kernel time a second stays a second
    assert math.isclose(speed.scale(2.0, [speed.NOMINAL_S] * 3), 2.0)
    assert math.isclose(speed.scale(2.0, [2 * speed.NOMINAL_S]), 1.0)
