"""The item checker rejects the library's audit-hook conventions."""

import math

import checker
import workloads
from melnikov_lab import melnikov, pendulum


def _first(items, **want):
    return next(i for i in items if all(i.get(k) == v for k, v in want.items()))


def test_default_conventions_pass_and_j1_arg_m_fails():
    items = workloads.oracle_items(11)
    item = _first(items, stratum="bulk", family="inner", m=5, n=3)
    out = workloads.answer_oracle(item)
    assert checker.check_oracle_item(item, out) is None

    r = melnikov.solve_resonance("inner", item["omega"], 5, 3)
    audit = melnikov.closed_form_subharmonic(r, item["beta"], item["delta"], j1_arg="m")
    out["closed"] = (audit.const_term, audit.cos_coeff)
    assert "closed form" in checker.check_oracle_item(item, out)


def test_homoclinic_phase_convention_t_fails():
    items = workloads.oracle_items(11)
    item = next(i for i in items if i["stratum"] == "homoclinic" and abs(i["omega"] - 1) > 0.1)
    out = workloads.answer_oracle(item)
    assert checker.check_oracle_item(item, out) is None

    sys_ = pendulum.pendulum_system(item["beta"], item["delta"], item["omega"])
    out["quad"] = [
        melnikov.homoclinic_quadrature(sys_, item["sign"], th, phase_convention="t")
        for th in workloads.THETA_GRID
    ]
    assert "quadrature misses" in checker.check_oracle_item(item, out)


def test_certificate_pattern_recomputes_the_chaos_verdict():
    omega, delta = 1.2, 0.5
    beta = 1.5 * workloads.chaos_threshold(omega) * delta
    cert = workloads.answer_certify({"beta": beta, "delta": delta, "omega": omega})
    assert checker.check_certificate(beta, delta, omega, cert) is None
    cert["chaos"]["condition_holds"] = False
    assert "status pattern" in checker.check_certificate(beta, delta, omega, cert)


def _strobo(stratum, eps, ratio, converged=True, residual=1e-13):
    item = {"stratum": stratum, "eps": eps}
    return item, {"converged": converged, "residual": residual,
                  "distance": ratio * eps, "eps": eps}


def test_strobo_band_and_negative_control():
    pairs = [
        _strobo("positive_3_1", 1e-3, 0.334),
        _strobo("positive_3_1", 5e-4, 0.335),
        _strobo("negative_3_1", 1e-3, 22.0, converged=False, residual=13.9),
        _strobo("negative_3_1", 5e-4, 0.34),  # looks like the positive control
        _strobo("inner_5_1", 1e-3, 0.3),
        _strobo("inner_5_1", 5e-4, 0.9),  # band 3 > 2
    ]
    items, outputs = zip(*pairs)
    misses = checker.check_strobo_pass(list(items), list(outputs))
    assert misses[:3] == [None, None, None]
    assert "negative control" in misses[3]
    assert all("band" in m for m in misses[4:])


def test_positive_control_residual_limit():
    item, out = _strobo("positive_3_1", 1e-3, 0.334, residual=2e-10)
    assert "no fixed point" in checker.check_strobo_pass([item], [out])[0]
    assert math.isclose(checker.NEWTON_TOL, 1e-10)
