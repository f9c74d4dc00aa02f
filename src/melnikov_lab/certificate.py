"""Machine-readable nonintegrability certificates.

Assembles, for given (beta, delta, omega), the numerically verified
hypotheses behind the three nonintegrability statements for the forced
damped pendulum: nonzero subharmonic/homoclinic Melnikov curves when the
damping is on (4a), nonconstant curves when the forcing is on (4b), and
nonvanishing complex contour integrals when the forcing is on (4c),
together with the homoclinic chaos threshold.  When beta = 0 the forcing
criteria report "inconclusive" rather than a negative.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .contour import contour_integral_closed, contour_integral_numeric, default_contour
from .melnikov import (
    K_WINDOW,
    Resonance,
    chaos_condition,
    closed_form_homoclinic,
    closed_form_subharmonic,
    enumerate_resonances,
    subharmonic_quadrature,
)
from .pendulum import INNER, ROTATING_MINUS, ROTATING_PLUS, pendulum_system

__all__ = ["CERT_SCHEMA", "build_certificate"]

CERT_SCHEMA = "melnikov-cert/1"

_EPS_NOTE = (
    "certificate concerns the perturbed system for sufficiently small eps != 0"
)


def _sample_resonances(omega: float, m_max: int, n_max: int) -> List[Resonance]:
    out = []
    for tag in (INNER, ROTATING_PLUS, ROTATING_MINUS):
        out.extend(enumerate_resonances(tag, omega, K_WINDOW, m_max, n_max))
    return out


def _curve_record(r: Resonance, beta, delta, verify_quadrature):
    """The closed-form curve; a witness is also checked by quadrature if asked.

    The witness is a nonconstant curve when beta > 0 (prop 4b), otherwise
    a nonzero one (prop 4a).
    """
    curve = closed_form_subharmonic(r, beta, delta)
    rec = {
        "family": r.family_tag,
        "m": r.m,
        "n": r.n,
        "k": r.modulus.k,
        "const_term": curve.const_term,
        "cos_coeff": curve.cos_coeff,
        "nonzero": abs(curve.const_term) > 0 or abs(curve.cos_coeff) > 0,
        "nonconstant": abs(curve.cos_coeff) > 0,
    }
    if verify_quadrature and rec["nonconstant" if beta > 0 else "nonzero"]:
        sys = pendulum_system(beta, delta, r.omega)
        quad = subharmonic_quadrature(sys, r, 0.0)
        rec["quadrature_at_0"] = quad
        rec["quadrature_agrees"] = bool(
            abs(quad - curve.evaluate(0.0)) <= 1e-6 * (1.0 + abs(quad))
        )
    return rec


def _contour_record(r: Resonance, beta, theta_points, verify_numeric):
    thetas = np.linspace(0.0, 2.0 * math.pi, theta_points, endpoint=False)
    min_abs = min(
        abs(contour_integral_closed(r, float(th), beta).value) for th in thetas
    )
    rec = {
        "family": r.family_tag,
        "m": r.m,
        "n": r.n,
        "k": r.modulus.k,
        "min_abs_integral": min_abs,
    }
    if verify_numeric:
        spec = default_contour(r)
        num = contour_integral_numeric(r, spec, beta, 0.0)
        closed = contour_integral_closed(r, spec.theta, beta)
        rec["numeric_check_diff"] = abs(num.value - closed.value)
    return rec


def build_certificate(
    beta: float,
    delta: float,
    omega: float,
    m_max: int = 9,
    n_max: int = 2,
    theta_points: int = 64,
    verify: bool = True,
) -> dict:
    """Structured applicability verdict for the three nonintegrability criteria.

    verify=True cross-checks by quadrature, per family, the first witness
    curve with m <= 5 in k order, and one contour value numerically; the
    rest use the (themselves test-covered) closed forms.
    """
    resonances = _sample_resonances(omega, m_max, n_max)

    verified = set()
    curve_records = []
    for r in resonances:
        do_verify = verify and r.family_tag not in verified and r.m <= 5
        rec = _curve_record(r, beta, delta, do_verify)
        if "quadrature_agrees" in rec:
            verified.add(r.family_tag)
        curve_records.append(rec)

    hom_plus = closed_form_homoclinic(+1, beta, delta, omega)
    homoclinic_nonzero = (
        abs(hom_plus.const_term) > 0 or abs(hom_plus.cos_coeff) > 0
    )

    nonzero_witnesses = [rec for rec in curve_records if rec["nonzero"]]
    nonconstant_witnesses = [rec for rec in curve_records if rec["nonconstant"]]

    applies_4a = delta > 0 and len(nonzero_witnesses) > 0
    applies_4b = beta > 0 and len(nonconstant_witnesses) > 0
    applies_4c = beta > 0

    contour_records = []
    if applies_4c:
        # contour verification needs the shift-phase alignment: n = 1,
        # and odd m for the inner family
        verified_c = set()
        for r in resonances:
            aligned = r.n == 1 and (r.family_tag != INNER or r.m % 2 == 1)
            do_verify = verify and aligned and r.family_tag not in verified_c
            if do_verify:
                verified_c.add(r.family_tag)
            contour_records.append(
                _contour_record(r, beta, theta_points, do_verify)
            )
        applies_4c = applies_4c and all(
            rec["min_abs_integral"] > 0 for rec in contour_records
        )

    chaos = chaos_condition(beta, delta, omega)

    return {
        "schema": CERT_SCHEMA,
        "parameters": {
            "beta": beta,
            "delta": delta,
            "omega": omega,
            "eps_note": _EPS_NOTE,
        },
        "conventions": {"j1_arg": "n", "hom_phase": "omega-t"},
        "prop_4a": {
            "applies": applies_4a,
            "status": "applies" if applies_4a else "inconclusive",
            "witness": {
                "resonances": nonzero_witnesses,
                "homoclinic_nonzero": homoclinic_nonzero and delta > 0,
            },
        },
        "prop_4b": {
            "applies": applies_4b,
            "status": "applies" if applies_4b else "inconclusive",
            "witness": {"nonconstant_curves": nonconstant_witnesses},
        },
        "prop_4c": {
            "applies": applies_4c,
            "status": "applies" if applies_4c else "inconclusive",
            "witness": {"contour_integrals": contour_records},
        },
        "chaos": {
            "condition_holds": chaos.holds,
            "ratio": chaos.ratio,
            "threshold": chaos.threshold,
        },
    }
