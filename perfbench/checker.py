"""Item checker: every answer against a reference the library does not compute.

The references are the paper's closed forms evaluated here with
``scipy.special`` elliptic integrals (not the library's AGM), the chaos
threshold recomputed from (4/pi) cosh(pi omega / 2), and the acceptance
suite's own tolerances.  A check returns ``None`` for a pass or a one-line
reason for a miss; misses are counted, never raised.
"""

from __future__ import annotations

import csv
import io
import json
import math

from scipy.special import ellipe, ellipk, ellipkm1

from workloads import THETA_GRID, chaos_threshold

# Acceptance-suite tolerances (tests/test_acceptance.py).
QUADRATURE_TOL = 1e-8  # criteria 2 and 3: quadrature vs closed form
CONTOUR_TOL = 1e-8  # criterion 5: numeric contour vs residue
NEWTON_TOL = 1e-10  # criterion 8: fixed-point residual
SCALING_BAND = 2.0  # criterion 8: max/min of distance/eps
CERT_QUADRATURE_DIFF = 1e-6  # criterion 9: certificate contour witness
# Resonance equation residual, relative to its right-hand side
# (tests/test_melnikov.py holds solved resonances to 1e-10).
RESONANCE_TOL = 1e-10


# -- references -----------------------------------------------------------------


def ref_integrals(k_prime):
    """(k, K, E, K') from the complementary modulus, by scipy.special."""
    p = k_prime * k_prime
    return math.sqrt(1.0 - p), float(ellipkm1(p)), float(ellipe(1.0 - p)), float(ellipk(p))


def resonance_target(family, omega, m, n):
    if family == "inner":
        return math.pi * m / (2.0 * n * omega)
    return math.pi * m / (n * omega)


def resonance_rel_residual(family, omega, m, n, k_prime):
    k, K, _, _ = ref_integrals(k_prime)
    lhs = K if family == "inner" else k * K
    target = resonance_target(family, omega, m, n)
    return abs(lhs - target) / target


def ref_subharmonic(family, m, n, omega, beta, delta, k_prime):
    """(const, cos coefficient) of the subharmonic Melnikov curve."""
    k, K, E, Kp = ref_integrals(k_prime)
    if family == "inner":
        const = -delta * 16.0 * n * (E - k_prime**2 * K)
        cos = beta * 4.0 * math.pi / math.cosh(omega * Kp) if n == 1 and m % 2 else 0.0
        return const, cos
    sign = -1.0 if family == "rotating-" else 1.0
    const = -delta * 8.0 * n * E / k
    cos = sign * beta * 2.0 * math.pi / math.cosh(k * omega * Kp) if n == 1 else 0.0
    return const, cos


def ref_homoclinic(sign, omega, beta, delta):
    s = 1.0 if sign >= 0 else -1.0
    return -8.0 * delta, s * 2.0 * math.pi * beta / math.cosh(0.5 * math.pi * omega)


def ref_residue(family, omega, beta, k_prime, theta):
    k, _, _, Kp = ref_integrals(k_prime)
    if family == "inner":
        sign, arg = 1.0, omega * Kp
    else:
        sign, arg = (-1.0 if family == "rotating-" else 1.0), omega * k * Kp
    return sign * 4.0 * math.pi * beta * (
        math.cosh(arg) * math.cos(theta) - 1j * math.sinh(arg) * math.sin(theta)
    )


def ref_solve_k_prime(family, omega, m, n):
    """k' solving the resonance by bisection on log k' (scipy elliptic K).

    Returns None where the inner family has no resonance (m/n <= omega).
    """
    target = resonance_target(family, omega, m, n)
    if family == "inner" and target <= math.pi / 2.0:
        return None

    def f(log_kp):
        k, K, _, _ = ref_integrals(math.exp(log_kp))
        return (K if family == "inner" else k * K) - target

    lo, hi = math.log(1e-300), math.log(1.0 - 1e-16)
    for _ in range(200):  # f decreases in log k'
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def chaos_expected(beta, delta, omega):
    if delta == 0.0:
        return beta > 0.0
    return beta / delta > chaos_threshold(omega)


# -- per-workload checks ------------------------------------------------------------


def _oracle_curve(item, out):
    """Reference (const, cos coefficient) of an oracle_sweep item's curve."""
    if item["stratum"] == "homoclinic":
        return ref_homoclinic(item["sign"], item["omega"], item["beta"], item["delta"])
    return ref_subharmonic(item["family"], item["m"], item["n"], item["omega"],
                           item["beta"], item["delta"], out["k_prime"])


def oracle_errors(item, out):
    """(max |quadrature - reference|, max |numeric contour - residue|) of one item."""
    const, cos = _oracle_curve(item, out)
    quad_err = max(abs(q - (const + cos * math.cos(th)))
                   for q, th in zip(out["quad"], THETA_GRID))
    contour_err = max(
        (abs(num - ref_residue(item["family"], item["omega"], item["beta"],
                               out["k_prime"], th))
         for th, num in zip(THETA_GRID, out.get("contour_numeric", ()))),
        default=0.0,
    )
    return quad_err, contour_err


def check_oracle_item(item, out):
    if item["stratum"] != "homoclinic":
        rel = resonance_rel_residual(item["family"], item["omega"], item["m"], item["n"],
                                     out["k_prime"])
        if not rel <= RESONANCE_TOL:
            return f"resonance relative residual {rel:.3e} at k'={out['k_prime']:.3e}"
    ref = _oracle_curve(item, out)
    if max(abs(a - b) for a, b in zip(out["closed"], ref)) > QUADRATURE_TOL:
        return f"closed form {out['closed']} differs from reference {ref}"
    for th, closed in zip(THETA_GRID, out.get("contour_closed", ())):
        want = ref_residue(item["family"], item["omega"], item["beta"], out["k_prime"], th)
        if abs(closed - want) > CONTOUR_TOL:
            return f"residue closed form differs from reference by {abs(closed - want):.3e}"
    quad_err, contour_err = oracle_errors(item, out)
    if quad_err > QUADRATURE_TOL:
        return f"quadrature misses reference by {quad_err:.3e}"
    if contour_err > CONTOUR_TOL:
        return f"numeric contour misses residue by {contour_err:.3e}"
    return None


def check_certificate(beta, delta, omega, cert):
    """Criterion 9's status pattern, generalised to any (beta, delta, omega)."""
    if cert.get("schema") != "melnikov-cert/1":
        return f"unexpected schema {cert.get('schema')!r}"
    want = (
        "applies" if delta > 0 else "inconclusive",
        "applies" if beta > 0 else "inconclusive",
        "applies" if beta > 0 else "inconclusive",
        chaos_expected(beta, delta, omega),
    )
    got = (
        cert["prop_4a"]["status"],
        cert["prop_4b"]["status"],
        cert["prop_4c"]["status"],
        cert["chaos"]["condition_holds"],
    )
    if got != want:
        return f"status pattern {got} != expected {want}"
    threshold = chaos_threshold(omega)
    if abs(cert["chaos"]["threshold"] - threshold) > 1e-12 * threshold:
        return f"chaos threshold {cert['chaos']['threshold']} != {threshold}"
    for rec in cert["prop_4a"]["witness"]["resonances"]:
        if rec.get("quadrature_agrees") is False:
            return f"quadrature witness disagrees at {rec['family']} {rec['m']}/{rec['n']}"
    for rec in cert["prop_4c"]["witness"]["contour_integrals"]:
        if rec.get("numeric_check_diff", 0.0) > CERT_QUADRATURE_DIFF:
            return f"contour witness off by {rec['numeric_check_diff']:.3e}"
    return None


def check_certify_item(item, out):
    return check_certificate(item["beta"], item["delta"], item["omega"], out)


def check_strobo_pass(items, outputs):
    """Criterion 8 per ladder: converged, residual, and the scaling band.

    Every stratum but the negative control must converge on each rung with
    residual <= 1e-10 and keep distance/eps within a factor 2 across its
    rungs.  A negative-control rung passes when it does not look like the
    positive control's O(eps) subharmonic: it fails to converge, or its
    distance/eps exceeds twice the positive control's largest ratio.
    """
    misses = [None] * len(items)
    by_stratum = {}
    for i, item in enumerate(items):
        by_stratum.setdefault(item["stratum"], []).append(i)
    positive_ratios = []
    for stratum, idx in by_stratum.items():
        if stratum.startswith("negative"):
            continue
        ratios = []
        for i in idx:
            out = outputs[i]
            if out is None:  # raised; the run loop records why
                continue
            if not out["converged"] or not out["residual"] <= NEWTON_TOL:
                misses[i] = (
                    f"no fixed point: converged={out['converged']} "
                    f"residual={out['residual']:.3e}"
                )
            else:
                ratios.append(out["distance"] / out["eps"])
        positive = [r for r in ratios if r > 0]
        if positive and max(positive) / min(positive) > SCALING_BAND:
            for i in idx:
                misses[i] = misses[i] or f"distance/eps outside band: {ratios}"
        if stratum == "positive_3_1" and len(ratios) == len(idx):
            positive_ratios = ratios
    for stratum, idx in by_stratum.items():
        if not stratum.startswith("negative"):
            continue
        for i in idx:
            out = outputs[i]
            if out is None:
                continue
            if not positive_ratios:
                misses[i] = "no positive-control ratios to compare against"
                continue
            looks_positive = (
                out["converged"]
                and out["residual"] <= NEWTON_TOL
                and out["distance"] / out["eps"] <= 2.0 * max(positive_ratios)
            )
            if looks_positive:
                misses[i] = "negative control scales like the positive control"
    return misses


# -- cli_cold ------------------------------------------------------------------------


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _check_cli_resonances(item, stdout):
    header, rows = _rows(stdout)
    if header != ["family", "m", "n", "k", "period", "omega_check"]:
        return f"unexpected header {header}"
    family, omega = item["family"], item["omega"]
    want = {}
    for m in range(1, item["m_max"] + 1):
        for n in range(1, item["n_max"] + 1):
            if math.gcd(m, n) != 1:
                continue
            kp = ref_solve_k_prime(family, omega, m, n)
            if kp is None:
                continue
            k = math.sqrt((1.0 - kp) * (1.0 + kp))
            if 1e-6 <= k <= 1.0 - 1e-15:
                want[(m, n)] = k
    got = {(int(r[1]), int(r[2])): float(r[3]) for r in rows}
    if set(got) != set(want):
        return f"resonance set {sorted(got)} != reference {sorted(want)}"
    for key, k in got.items():
        if abs(k - want[key]) > 1e-12:
            return f"k at {key} is {k!r}, reference {want[key]!r}"
    if any(abs(float(r[5])) > 1e-9 for r in rows):
        return "omega_check column above 1e-9"
    return None


def _check_cli_melnikov(item, stdout):
    header, rows = _rows(stdout)
    if header != ["theta", "quadrature", "closed_form", "difference"] or len(rows) != 64:
        return f"unexpected table: header {header}, {len(rows)} rows"
    omega, beta, delta = item["omega"], item["beta"], item["delta"]
    if item["stratum"] == "melnikov_homoclinic":
        ref = ref_homoclinic(item["sign"], omega, beta, delta)
    else:
        kp = ref_solve_k_prime(item["family"], omega, item["m"], item["n"])
        ref = ref_subharmonic(item["family"], item["m"], item["n"], omega, beta, delta, kp)
    for row in rows:
        th, quad, closed = (float(x) for x in row[:3])
        want = ref[0] + ref[1] * math.cos(th)
        if abs(closed - want) > QUADRATURE_TOL:
            return f"closed_form column off reference by {abs(closed - want):.3e}"
        if abs(quad - want) > QUADRATURE_TOL:
            return f"quadrature column off reference by {abs(quad - want):.3e}"
    return None


def _check_cli_contour(item, stdout):
    header, rows = _rows(stdout)
    want_header = ["theta", "radius", "re_numeric", "im_numeric", "re_closed", "im_closed"]
    if header != want_header or len(rows) != 64 * 3:
        return f"unexpected table: header {header}, {len(rows)} rows"
    kp = ref_solve_k_prime(item["family"], item["omega"], item["m"], item["n"])
    for row in rows:
        th, _, re_n, im_n, re_c, im_c = (float(x) for x in row)
        want = ref_residue(item["family"], item["omega"], item["beta"], kp, th)
        if abs(complex(re_c, im_c) - want) > CONTOUR_TOL:
            return "residue columns off reference"
        if abs(complex(re_n, im_n) - want) > CONTOUR_TOL:
            return f"numeric contour off residue by {abs(complex(re_n, im_n) - want):.3e}"
    return None


def check_cli_item(item, out):
    if out["code"] != 0:
        tail = out["stderr"].strip().splitlines()[-1:] or [""]
        return f"exit code {out['code']}: {tail[0]}"
    stratum, stdout = item["stratum"], out["stdout"]
    if stratum == "resonances":
        return _check_cli_resonances(item, stdout)
    if stratum.startswith("melnikov"):
        return _check_cli_melnikov(item, stdout)
    if stratum == "contour":
        return _check_cli_contour(item, stdout)
    return check_certificate(item["beta"], item["delta"], item["omega"], json.loads(stdout))


def _per_item(check):
    def check_pass(items, outputs):
        return [
            None if out is None else check(item, out)
            for item, out in zip(items, outputs)
        ]

    return check_pass


PASS_CHECKS = {
    "oracle_sweep": _per_item(check_oracle_item),
    "certify_grid": _per_item(check_certify_item),
    "stroboscopic": check_strobo_pass,
    "cli_cold": _per_item(check_cli_item),
}
