"""Seeded inputs for the four benchmark workloads and the calls that answer them.

An item is one user-level answer: one resonance checked against its
oracles, one certificate, one stroboscopic fixed point, or one CLI
invocation.  ``generate(seed, pass_index)`` gives the items of one pass.
Every pass and every seed has the same number of items per stratum, and
inside a stratum the free parameters are drawn one per equal sub-interval,
so a fresh seed does the same kind and amount of work.  Seeded values are
drawn afresh for each pass, so an input does not repeat across the passes
of a run and a cross-call cache in the library cannot turn repeats into
free work.

Library calls go through module attributes (``melnikov.solve_resonance``,
not a local name), so the traced run sees them when it wraps those names.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

FAMILIES = ("inner", "rotating+", "rotating-")
OMEGA_RANGE = (0.8, 1.5)
# The theta grid on which every oracle_sweep curve is compared.
THETA_GRID = tuple(float(t) for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
# Inner resonances need m/n > omega; staying below 0.9 m/n keeps items off
# the k -> 0 edge where the resonance only just exists.
INNER_OMEGA_MARGIN = 0.9
# The near-separatrix stratum spans these complementary moduli.
NEAR_KP_RANGE = (1e-40, 1e-14)
# Largest relative offset the seed gives a grid input (oracle_sweep,
# cli_cold).  It leaves every bulk item's node count as it is; the
# near-separatrix quadratures, which do not settle within their tolerance,
# moved by up to 6k of the 1.66M nodes of a pass between two seeds.
GRID_OFFSET = 1e-9
# The R2 sequence's steps (1/g, 1/g^2 with g^3 = g + 1), spreading the bulk
# items' (beta, delta) evenly over the square.
_R2 = (0.7548776662466927, 0.5698402909980532)
# 1/phi, the step of the one-dimensional golden-ratio sequence.
_GOLDEN = 0.6180339887498949
# The stroboscopic workload runs at the criterion-8 frequency and phase.
STROBO_OMEGA = 1.0
STROBO_THETA0 = math.pi / 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # (seed, pass_index) -> list of item dicts
    answer: Callable  # (item, ctx) -> output
    library_modules: Tuple[str, ...]  # imported during set-up


def _spread(rng, count):
    """One uniform draw in each of ``count`` equal slices of [0, 1), shuffled."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return [float(x) for x in rng.permutation(u)]


def _scale(u, lo, hi):
    return lo + u * (hi - lo)


def _coprime_pairs(limit):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if math.gcd(m, n) == 1
    ]


def _omega_for(family, m, n, u):
    hi = OMEGA_RANGE[1]
    if family == "inner":
        hi = min(hi, INNER_OMEGA_MARGIN * m / n)
    return _scale(u, OMEGA_RANGE[0], hi)


def _near_separatrix_m_range(family, omega):
    """Integer m (n = 1) whose resonant k' lies inside NEAR_KP_RANGE.

    Near the separatrix K(k) = ln(4/k') to within O(k'^2), so the inner
    condition K = pi m / (2 omega) and the rotating condition
    k K = pi m / omega give m directly; one unit of margin on each side
    keeps the solved k' inside the range.
    """
    scale = (2.0 if family == "inner" else 1.0) * omega / math.pi
    lo = scale * math.log(4.0 / NEAR_KP_RANGE[1])
    hi = scale * math.log(4.0 / NEAR_KP_RANGE[0])
    return math.ceil(lo) + 1, math.floor(hi) - 1


# -- oracle_sweep --------------------------------------------------------------


def oracle_items(seed, pass_index=0):
    """Homoclinic items are seeded; the bulk and near-separatrix grids are fixed.

    A resonance's quadrature cost is a step function of (m/n)/omega, beta
    and delta: node doubling stops at a power of two, so a small change of
    input can double an item's cost, and near the separatrix one item can
    cost twenty times its neighbour.  Drawn freely, the inputs put a
    different set of items in the slowest 2% on every seed: the tail
    latency of five seeds spread by a quarter of its median, against a
    twentieth for five runs of one seed.  Each bulk (family, m, n) therefore
    takes one omega at the centre of each sixth of its range, with beta and
    delta on a fixed low-discrepancy sequence, and the near-separatrix
    stratum is a fixed diagonal grid over (omega, m), so the cost of a pass
    and the number of near-separatrix misses do not depend on the seed.
    The seed moves each grid input by a relative GRID_OFFSET at most, fresh
    on every pass, so no input repeats within a run while every item keeps
    its cost, and the items run in the same order on every pass.
    """
    rng = np.random.default_rng([seed, 1, pass_index])
    items = []
    bulk = [
        (family, m, n)
        for family in FAMILIES
        for m, n in _coprime_pairs(7)
        if family != "inner" or m / n > OMEGA_RANGE[0] / INNER_OMEGA_MARGIN
    ]
    slices = 6
    for k in range(slices):
        for family, m, n in bulk:
            i = len(items)
            items.append({
                "stratum": "bulk", "family": family, "m": m, "n": n,
                "omega": _omega_for(family, m, n, (k + 0.5) / slices),
                "beta": _scale((0.5 + i * _R2[0]) % 1.0, 0.5, 1.5),
                "delta": _scale((0.5 + i * _R2[1]) % 1.0, 0.5, 1.5),
            })
    per_family = 4
    for family in FAMILIES:
        for i in range(per_family):
            u = (i + 0.5) / per_family
            omega = _scale(u, *OMEGA_RANGE)
            m_lo, m_hi = _near_separatrix_m_range(family, omega)
            items.append({
                "stratum": "near_separatrix", "family": family,
                "m": m_lo + round(u * (m_hi - m_lo)), "n": 1, "omega": omega,
                "beta": 1.0, "delta": 1.0,
            })
    for item in items:
        for key in ("omega", "beta", "delta"):
            item[key] *= 1.0 + GRID_OFFSET * float(rng.uniform(-1.0, 1.0))
    count = 8
    for i, (u, ub, ud) in enumerate(zip(*(_spread(rng, count) for _ in range(3)))):
        items.append(
            {
                "stratum": "homoclinic",
                "sign": 1 if i % 2 == 0 else -1,
                "omega": _scale(u, *OMEGA_RANGE),
                "beta": _scale(ub, 0.5, 1.5),
                "delta": _scale(ud, 0.5, 1.5),
            }
        )
    return _numbered(items)


def contour_aligned(family, m, n):
    """The residue closed form applies for n = 1, and odd m on the inner family."""
    return n == 1 and (family != "inner" or m % 2 == 1)


def answer_oracle(item, ctx=None):
    from melnikov_lab import contour, melnikov, pendulum

    beta, delta, omega = item["beta"], item["delta"], item["omega"]
    sys_ = pendulum.pendulum_system(beta, delta, omega)
    if item["stratum"] == "homoclinic":
        sign = item["sign"]
        curve = melnikov.closed_form_homoclinic(sign, beta, delta, omega)
        quad = [melnikov.homoclinic_quadrature(sys_, sign, th) for th in THETA_GRID]
        return {"closed": (curve.const_term, curve.cos_coeff), "quad": quad}
    family, m, n = item["family"], item["m"], item["n"]
    r = melnikov.solve_resonance(family, omega, m, n)
    curve = melnikov.closed_form_subharmonic(r, beta, delta)
    quad = [melnikov.subharmonic_quadrature(sys_, r, th) for th in THETA_GRID]
    out = {
        "k_prime": r.modulus.k_prime,
        "closed": (curve.const_term, curve.cos_coeff),
        "quad": quad,
    }
    if contour_aligned(family, m, n):
        ker = contour.contour_kernels(r, contour.default_contour(r), tol=1e-10)
        out["contour_numeric"] = [
            beta * (ker.cos_kernel * math.cos(th) - ker.sin_kernel * math.sin(th))
            - delta * ker.damping_kernel
            for th in THETA_GRID
        ]
        out["contour_closed"] = [
            contour.contour_integral_closed(r, th, beta).value for th in THETA_GRID
        ]
    return out


# -- certify_grid ----------------------------------------------------------------


def chaos_threshold(omega):
    return (4.0 / math.pi) * math.cosh(0.5 * math.pi * omega)


def certify_items(seed, pass_index=0):
    """Rows beta = 0, delta = 0, and both positive below and above the threshold."""
    rng = np.random.default_rng([seed, 2, pass_index])
    per_row = 12
    items = []
    for row, ratio_range in (
        ("beta0", None),
        ("delta0", None),
        ("below_threshold", (0.5, 0.9)),
        ("above_threshold", (1.1, 2.0)),
    ):
        for u, ub, ud in zip(*(_spread(rng, per_row) for _ in range(3))):
            omega = _scale(u, *OMEGA_RANGE)
            delta = _scale(ud, 0.2, 2.0)
            if row == "beta0":
                beta = 0.0
            elif row == "delta0":
                beta, delta = _scale(ub, 0.2, 2.0), 0.0
            else:
                beta = _scale(ub, *ratio_range) * chaos_threshold(omega) * delta
            items.append({"stratum": row, "beta": beta, "delta": delta, "omega": omega})
    return _numbered(items)


def answer_certify(item, ctx=None):
    from melnikov_lab import certificate

    return certificate.build_certificate(
        item["beta"], item["delta"], item["omega"], verify=True
    )


# -- stroboscopic ------------------------------------------------------------------

# (stratum, family, m, epsilon ladder): the criterion-8 positive control and
# its damped negative control on inner 3/1, then inner 5/1 and the rotating
# 1/1 pair.  The ladders are fixed, not seeded: whether find_subharmonic
# converges changes with eps on a fine scale (the positive control has no
# fixed point at eps = 6.8538506e-4 although 7.07e-4 and 5e-4 converge), so
# a seeded eps would make the failure count a property of the seed.  That
# eps is kept as its own stratum so the defect shows on every run.  The
# twelve slow rungs (positive control and inner 5/1, 1 to 2 s each) are the
# twelve slowest of 19 items, so the median and most of the weight of the
# p47 tail estimate (ten items beyond it) fall among them.
LADDER = tuple(1e-3 * 2.0 ** (-0.5 * j) for j in range(8))
STROBO_STRATA = (
    ("positive_3_1", "inner", 3, LADDER),
    ("positive_3_1_newton_gap", "inner", 3, (6.853850625855076e-4,)),
    ("negative_3_1", "inner", 3, LADDER[:2]),
    ("inner_5_1", "inner", 5, LADDER[:4]),
    ("rotating+_1_1", "rotating+", 1, LADDER[:2]),
    ("rotating-_1_1", "rotating-", 1, LADDER[:2]),
)


def strobo_items(seed, pass_index=0):
    """Every rung of every ladder, in an order the seed and pass permute."""
    rng = np.random.default_rng([seed, 3, pass_index])
    items = [
        {"stratum": stratum, "family": family, "m": m, "eps": eps}
        for stratum, family, m, ladder in STROBO_STRATA
        for eps in ladder
    ]
    return _numbered([items[i] for i in rng.permutation(len(items))])


def negative_control_delta(r, closed_form_subharmonic):
    """Criterion 8's damping: twice what removes every zero of the 3/1 curve."""
    mod = r.modulus
    coeff = closed_form_subharmonic(r, 1.0, 0.0).cos_coeff
    return 2.0 * coeff / (16.0 * (mod.E - mod.k_prime**2 * mod.K))


def answer_strobo(item, ctx=None):
    from melnikov_lab import melnikov, pendulum, poincare

    r = melnikov.solve_resonance(item["family"], STROBO_OMEGA, item["m"], 1)
    delta = 0.0
    if item["stratum"].startswith("negative"):
        delta = negative_control_delta(r, melnikov.closed_form_subharmonic)
    sys_ = pendulum.pendulum_system(1.0, delta, STROBO_OMEGA)
    res = poincare.find_subharmonic(sys_, item["eps"], r, STROBO_THETA0)
    return {
        "converged": bool(res.converged),
        "residual": float(res.residual),
        "distance": float(res.distance_to_unperturbed),
        "eps": item["eps"],
    }


# -- cli_cold ------------------------------------------------------------------------

# Runs the same entry point the installed ``melnikov-lab`` script runs.
CLI_ENTRY = "import sys; from melnikov_lab.cli import main; sys.exit(main())"


def cli_items(seed, pass_index=0):
    """Three rounds of resonances, melnikov (both kinds), contour and certify calls.

    Every argument comes from a fixed golden-ratio sequence in [0, 1),
    which the seed moves by GRID_OFFSET at most, fresh on every pass, so
    every seed makes the same calls.  A call's compute time depends on its
    (m, n) and on where its arguments fall in the quadrature's node
    doubling; with freely drawn arguments the item_p50_ms of ten seeds
    spread 0.092 of its median, against 0.059 for five runs of one seed.

    No item passes --threads and the child environment drops
    MELNIKOV_LAB_THREADS, so sweeps use the default pool of os.cpu_count().
    """
    rng = np.random.default_rng([seed, 4, pass_index])
    items = []
    drawn = 0

    def draw():
        nonlocal drawn
        u = (0.5 + drawn * _GOLDEN) % 1.0 + GRID_OFFSET * float(rng.uniform(-1.0, 1.0))
        drawn += 1
        return min(max(u, 0.0), 1.0 - GRID_OFFSET)

    for _ in range(3):
        items.extend(_cli_round(draw))
    return _numbered(items)


def _cli_round(draw):
    items = []
    for family in FAMILIES:
        omega = _scale(draw(), *OMEGA_RANGE)
        m_max = 7 if family == "inner" else 4
        argv = ["resonances", "--family", family, "--omega", repr(omega),
                "--m-max", str(m_max), "--n-max", "2"]
        items.append({"stratum": "resonances", "argv": argv, "family": family,
                      "omega": omega, "m_max": m_max, "n_max": 2})
    pairs = _coprime_pairs(5)
    for family in FAMILIES:
        eligible = [(m, n) for m, n in pairs
                    if family != "inner" or m / n > OMEGA_RANGE[0] / INNER_OMEGA_MARGIN]
        m, n = eligible[min(int(draw() * len(eligible)), len(eligible) - 1)]
        omega = _omega_for(family, m, n, draw())
        beta, delta = _scale(draw(), 0.5, 1.5), _scale(draw(), 0.5, 1.5)
        argv = ["melnikov", "--family", family, "--m", str(m), "--n", str(n),
                "--omega", repr(omega), "--beta", repr(beta), "--delta", repr(delta)]
        items.append({"stratum": "melnikov", "argv": argv, "family": family, "m": m,
                      "n": n, "omega": omega, "beta": beta, "delta": delta})
    for sign in (1, -1):
        omega = _scale(draw(), *OMEGA_RANGE)
        beta, delta = _scale(draw(), 0.5, 1.5), _scale(draw(), 0.5, 1.5)
        argv = ["melnikov", "--homoclinic", "--sign", str(sign), "--omega", repr(omega),
                "--beta", repr(beta), "--delta", repr(delta)]
        items.append({"stratum": "melnikov_homoclinic", "argv": argv, "sign": sign,
                      "omega": omega, "beta": beta, "delta": delta})
    for family, m_choices in (("inner", (3, 5)), ("rotating+", (1, 2, 3))):
        m = m_choices[min(int(draw() * len(m_choices)), len(m_choices) - 1)]
        omega = _omega_for(family, m, 1, draw())
        beta, delta = _scale(draw(), 0.5, 1.5), _scale(draw(), 0.5, 1.5)
        argv = ["contour", "--family", family, "--m", str(m), "--n", "1",
                "--omega", repr(omega), "--beta", repr(beta), "--delta", repr(delta)]
        items.append({"stratum": "contour", "argv": argv, "family": family, "m": m,
                      "n": 1, "omega": omega, "beta": beta, "delta": delta})
    for row in ("both_positive", "delta0"):
        omega = _scale(draw(), *OMEGA_RANGE)
        beta = _scale(draw(), 0.2, 2.0) * chaos_threshold(omega)
        delta = 0.0 if row == "delta0" else _scale(draw(), 0.5, 1.5)
        argv = ["certify", "--beta", repr(beta), "--delta", repr(delta),
                "--omega", repr(omega)]
        items.append({"stratum": "certify", "argv": argv, "beta": beta,
                      "delta": delta, "omega": omega})
    return items


def cli_env(src_dir):
    env = {k: v for k, v in os.environ.items() if k != "MELNIKOV_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class _Wait4Popen(subprocess.Popen):
    """Popen whose wait records the child's own ru_maxrss."""

    peak_rss_kb = 0

    def _try_wait(self, wait_flags):
        try:
            pid, status, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return self.pid, 0
        if pid == self.pid:
            self.peak_rss_kb = usage.ru_maxrss
        return pid, status


def answer_cli(item, ctx):
    cmd = [sys.executable]
    if ctx.trace_imports:
        cmd += ["-X", "importtime"]
    cmd += ["-c", CLI_ENTRY] + item["argv"]
    proc = _Wait4Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ctx.cli_env, text=True
    )
    try:
        out, err = proc.communicate(timeout=120.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    ctx.child_rss_kb = max(ctx.child_rss_kb, proc.peak_rss_kb)
    return {"code": proc.returncode, "stdout": out, "stderr": err}


def _numbered(items):
    for i, item in enumerate(items):
        item["id"] = i
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle_sweep", oracle_items, answer_oracle,
                 ("melnikov_lab.melnikov", "melnikov_lab.contour")),
        Workload("certify_grid", certify_items, answer_certify,
                 ("melnikov_lab.certificate",)),
        Workload("stroboscopic", strobo_items, answer_strobo,
                 ("melnikov_lab.poincare",)),
        Workload("cli_cold", cli_items, answer_cli, ("melnikov_lab.cli",)),
    )
}
