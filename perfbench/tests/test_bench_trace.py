"""Tracing leaves the library as it found it; the untraced run never wraps."""

import dataclasses
import json

import scipy.integrate

import checker
import layertrace
import run
import workloads

LIBRARY = ("melnikov_lab.contour", "melnikov_lab.certificate", "melnikov_lab.poincare")


def test_traced_pass_restores_every_name():
    run.import_library(LIBRARY)
    import melnikov_lab.elliptic as elliptic
    import melnikov_lab.melnikov as melnikov
    import melnikov_lab.pendulum as pendulum
    import melnikov_lab.poincare as poincare

    before = layertrace.snapshot()
    assert len(before) == len(layertrace.TARGETS)
    build = elliptic.EllipticModulus.__dict__["from_k_prime"]
    items = [i for i in workloads.strobo_items(1) if i["stratum"] == "rotating-_1_1"][:1]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert poincare.solve_ivp is not scipy.integrate.solve_ivp
        run.run_pass(workloads.WORKLOADS["stroboscopic"], items,
                     checker.PASS_CHECKS["stroboscopic"], run.Context(cli_env={}), tracer)
    finally:
        tracer.restore()
    assert tracer.spans and not tracer.missing
    assert layertrace.snapshot() == before
    assert poincare.solve_ivp is scipy.integrate.solve_ivp
    assert melnikov.orbit_state is pendulum.orbit_state
    assert elliptic.EllipticModulus.__dict__["from_k_prime"] is build


def test_untraced_run_installs_no_wrappers(monkeypatch, tmp_path, capsys):
    run.import_library(LIBRARY)
    original = layertrace.snapshot()
    seen = []
    workload = workloads.WORKLOADS["certify_grid"]

    def answer(item, ctx):
        seen.append(layertrace.snapshot())
        return workload.answer(item, ctx)

    def no_tracer():
        raise AssertionError("the untraced run constructed a Tracer")

    monkeypatch.setitem(workloads.WORKLOADS, "certify_grid",
                        dataclasses.replace(workload, answer=answer))
    monkeypatch.setattr(layertrace, "Tracer", no_tracer)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "certify_grid", "--seed", "3", "--seconds", "0",
                     "--trace", "0"])
    assert code == 0
    assert seen and all(s == original for s in seen)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == len(seen)
