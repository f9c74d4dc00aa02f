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

# called through the module, so a wrapper installed on contour.contour_kernels
# (perfbench's layer tracer) also sees the certificate's calls
from . import contour
from .melnikov import (
    K_WINDOW,
    Resonance,
    ResidueOverflowError,
    chaos_condition,
    closed_form_subharmonic,
    enumerate_resonances,
    subharmonic_quadrature,
)
from .pendulum import FAMILIES, pendulum_system

__all__ = ["CERT_SCHEMA", "build_certificate"]

CERT_SCHEMA = "melnikov-cert/1"

_EPS_NOTE = (
    "certificate concerns the perturbed system for sufficiently small eps != 0"
)
# A witness curve is checked where cos(theta) = 1 and where sin(theta) = 1, so
# both the cos and the sin kernel of its quadrature enter the check.
_WITNESS_THETAS = (0.0, 0.5 * math.pi)


def _record(r: Resonance, **fields):
    """A witness record: the resonance's (family, m, n, k), then fields."""
    return {"family": r.family_tag, "m": r.m, "n": r.n, "k": r.modulus.k, **fields}


def _proposition(applies, witness):
    """A proposition's verdict: whether it applies, its status and its witness."""
    return {
        "applies": applies,
        "status": "applies" if applies else "inconclusive",
        "witness": witness,
    }


def _curve_record(r: Resonance, beta, delta, verify_quadrature):
    """The closed-form curve; a witness is also checked by quadrature if asked.

    The witness is a nonconstant curve when beta > 0 (prop 4b), otherwise
    a nonzero one (prop 4a).  Its quadrature must match the closed curve
    at theta = 0 and at theta = pi/2.
    """
    curve = closed_form_subharmonic(r, beta, delta)
    rec = _record(
        r,
        const_term=curve.const_term,
        cos_coeff=curve.cos_coeff,
        nonzero=abs(curve.const_term) > 0 or abs(curve.cos_coeff) > 0,
        nonconstant=abs(curve.cos_coeff) > 0,
    )
    if verify_quadrature and rec["nonconstant" if beta > 0 else "nonzero"]:
        sys = pendulum_system(beta, delta, r.omega)
        quad = subharmonic_quadrature(sys, r, _WITNESS_THETAS)
        closed = curve.evaluate(_WITNESS_THETAS)
        rec["quadrature_at_0"] = float(quad[0])
        rec["quadrature_agrees"] = all(abs(quad - closed) <= 1e-6 * (1.0 + abs(quad)))
    return rec


def _contour_record(r: Resonance, beta, verify_numeric):
    """The least |contour integral| over theta, 4*pi*|beta|*sinh x.

    The integral is also taken numerically at theta = 0 if asked, and
    compared with its residue closed form.  Raises ResidueOverflowError
    where the minimum overflows.
    """
    _, _, sinh = contour.residue_terms(r)
    min_abs = 4.0 * math.pi * abs(beta) * sinh
    if not math.isfinite(min_abs):
        raise ResidueOverflowError(
            f"least contour integral {min_abs!r} of the {r.family_tag} {r.m}/{r.n} "
            f"resonance at omega={r.omega!r}, beta={beta!r} overflows the float range"
        )
    rec = _record(r, min_abs_integral=min_abs)
    if verify_numeric:
        num = contour.contour_kernels(r, contour.default_contour(r)).value(0.0, beta, 0.0)
        closed = contour.contour_integral_closed(r, 0.0, beta)
        rec["numeric_check_diff"] = abs(num - closed.value)
    return rec


def build_certificate(
    beta: float,
    delta: float,
    omega: float,
    m_max: int = 9,
    n_max: int = 2,
    verify: bool = True,
) -> dict:
    """Structured applicability verdict for the three nonintegrability criteria.

    verify=True cross-checks by quadrature, per family, the first witness
    curve with m <= 5 in k order, and numerically the first contour record
    per family; the rest use the (themselves test-covered) closed forms.
    """
    resonances = [
        r for tag in FAMILIES for r in enumerate_resonances(tag, omega, K_WINDOW, m_max, n_max)
    ]

    verified = set()
    curve_records = []
    for r in resonances:
        do_verify = verify and r.family_tag not in verified and r.m <= 5
        rec = _curve_record(r, beta, delta, do_verify)
        if "quadrature_agrees" in rec:
            verified.add(r.family_tag)
        curve_records.append(rec)

    nonzero_witnesses = [rec for rec in curve_records if rec["nonzero"]]
    nonconstant_witnesses = [rec for rec in curve_records if rec["nonconstant"]]

    applies_4a = delta > 0 and len(nonzero_witnesses) > 0
    applies_4b = beta > 0 and len(nonconstant_witnesses) > 0
    applies_4c = beta > 0

    # after every curve record, so that where both overflow the Melnikov
    # value is the one reported
    contour_records = []
    if applies_4c:
        seen = set()
        for r in resonances:
            do_verify = verify and r.family_tag not in seen
            seen.add(r.family_tag)
            contour_records.append(_contour_record(r, beta, do_verify))
        applies_4c = len(contour_records) > 0 and all(
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
        "prop_4a": _proposition(applies_4a, {
            "resonances": nonzero_witnesses,
            # the homoclinic curves' const term is -8 delta, nonzero iff delta > 0
            "homoclinic_nonzero": delta > 0,
        }),
        "prop_4b": _proposition(applies_4b, {"nonconstant_curves": nonconstant_witnesses}),
        "prop_4c": _proposition(applies_4c, {"contour_integrals": contour_records}),
        "chaos": {
            "condition_holds": chaos.holds,
            "ratio": chaos.ratio,
            "threshold": chaos.threshold,
        },
    }
