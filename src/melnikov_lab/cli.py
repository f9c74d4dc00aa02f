"""Command-line front end: melnikov-lab.

Subcommands emit plot-ready CSV/JSON tables or JSON documents:

  resonances   solve the resonance condition over an (m, n) range
  melnikov     subharmonic/homoclinic curve, quadrature vs closed form
  contour      complex contour integral, numeric vs residue closed form
  certify      nonintegrability certificate as JSON
  verify       stroboscopic-map fixed points and epsilon scaling, as JSON

Each subcommand takes only the flags it reads.

Exit codes: 0 success (empty results included), 2 usage error,
3 numerical non-convergence / integration failure / unsolvable or
out-of-range resonance / argument at a Jacobi pole / residue closed form
beyond the float range.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np

from .certificate import build_certificate
from .contour import contour_integral_closed, contour_kernels, default_contour
from .elliptic import PoleProximityError
from .melnikov import (
    K_WINDOW,
    IntegrationFailure,
    NonConvergenceError,
    ResidueOverflowError,
    ResonanceError,
    closed_form_homoclinic,
    closed_form_subharmonic,
    enumerate_resonances,
    homoclinic_quadrature,
    simple_zeros,
    solve_resonance,
    subharmonic_quadrature,
)
from .pendulum import FAMILIES, pendulum_system

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
_MAX_THETA_POINTS = 2**20


def _fmt(x) -> str:
    return f"{x:.16e}"


def _write(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(_usage_error(f"cannot write --out {args.out}: {exc.strerror}"))
    else:
        sys.stdout.write(text)


def _emit(args, header, rows):
    """A table as CSV, or as JSON records under --format json."""
    if args.format == "json":
        _emit_json(args, [dict(zip(header, row)) for row in rows])
        return
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    _write(args, out.getvalue())


def _emit_json(args, document):
    _write(args, json.dumps(document, indent=2) + "\n")


def _theta_grid(args):
    return np.linspace(0.0, 2.0 * math.pi, args.theta_points, endpoint=False)


def _resonance(args):
    """The requested resonance; an inner m/n <= omega has none (exit 3)."""
    r = solve_resonance(args.family, args.omega, args.m, args.n)
    if r is None:
        raise ResonanceError(
            f"no resonance: inner family needs m/n > omega "
            f"(m={args.m}, n={args.n}, omega={args.omega})"
        )
    return r


def cmd_resonances(args) -> int:
    found = enumerate_resonances(
        args.family, args.omega, (args.k_min, args.k_max), args.m_max, args.n_max
    )
    rows = []
    for r in found:
        rows.append(
            [
                r.family_tag,
                r.m,
                r.n,
                _fmt(r.modulus.k),
                _fmt(r.orbit.period),
                _fmt(r.residual()),
            ]
        )
    _emit(args, ["family", "m", "n", "k", "period", "omega_check"], rows)
    return EXIT_OK


def cmd_melnikov(args) -> int:
    sys_ = pendulum_system(args.beta, args.delta, args.omega)
    thetas = _theta_grid(args)
    if args.homoclinic:
        closed = closed_form_homoclinic(args.sign, args.beta, args.delta, args.omega)
        quad_vals = homoclinic_quadrature(sys_, args.sign, thetas)
    else:
        r = _resonance(args)
        closed = closed_form_subharmonic(r, args.beta, args.delta)
        quad_vals = subharmonic_quadrature(sys_, r, thetas)

    rows = []
    sup = 0.0
    for th, qv in zip(thetas, quad_vals):
        cv = float(closed.evaluate(th))
        sup = max(sup, abs(qv - cv))
        rows.append([_fmt(th), _fmt(qv), _fmt(cv), _fmt(qv - cv)])
    _emit(args, ["theta", "quadrature", "closed_form", "difference"], rows)
    print(f"sup |quadrature - closed_form| = {_fmt(sup)}", file=sys.stderr)
    return EXIT_OK


def cmd_contour(args) -> int:
    r = _resonance(args)
    fractions = (0.05, 0.1, 0.2)
    specs = [default_contour(r, radius_fraction=f) for f in fractions]
    # a phase omega*t past cosh's range raises NonConvergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        kernel_sets = [contour_kernels(r, spec) for spec in specs]
    thetas = _theta_grid(args)
    rows = []
    for th in thetas:
        closed = contour_integral_closed(r, float(th), args.beta).value
        for spec, kernels in zip(specs, kernel_sets):
            numeric = kernels.value(th, args.beta, args.delta)
            rows.append(
                [
                    _fmt(th),
                    _fmt(spec.radius),
                    _fmt(numeric.real),
                    _fmt(numeric.imag),
                    _fmt(closed.real),
                    _fmt(closed.imag),
                ]
            )
    _emit(
        args,
        ["theta", "radius", "re_numeric", "im_numeric", "re_closed", "im_closed"],
        rows,
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    cert = build_certificate(
        args.beta, args.delta, args.omega, m_max=args.m_max, n_max=args.n_max
    )
    _emit_json(args, cert)
    chaos = cert["chaos"]
    summary = [
        f"prop 4a: {cert['prop_4a']['status']}",
        f"prop 4b: {cert['prop_4b']['status']}",
        f"prop 4c: {cert['prop_4c']['status']}",
        f"chaos condition: {'holds' if chaos['condition_holds'] else 'fails'}"
        f" (ratio {chaos['ratio']:.6g})",
    ]
    print("; ".join(summary), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    # scipy.integrate costs most of the start-up; only verify needs it
    from .poincare import find_subharmonic, scaling_band

    r = _resonance(args)
    sys_ = pendulum_system(args.beta, args.delta, args.omega)
    if args.theta0 is not None:
        theta0 = args.theta0
        hypothesis_ok = True
    else:
        zeros = simple_zeros(closed_form_subharmonic(r, args.beta, args.delta))
        hypothesis_ok = any(z.simple for z in zeros)
        theta0 = zeros[0].theta if zeros else 0.0

    records = []
    distances, eps_used = [], []
    for eps in args.eps:
        if eps == 0.0:
            records.append(
                {"eps": 0.0, "converged": True, "residual": 0.0, "distance": 0.0}
            )
            continue
        result = find_subharmonic(sys_, eps, r, theta0)
        rec = {
            "eps": eps,
            "converged": result.converged,
            "residual": result.residual,
            "distance": result.distance_to_unperturbed,
            "x1": result.point.x1,
            "x2": result.point.x2,
        }
        records.append(rec)
        if result.converged:
            distances.append(result.distance_to_unperturbed)
            eps_used.append(eps)
    in_band, ratios = scaling_band(eps_used, distances)
    scaling_ok = in_band and len(eps_used) == len([e for e in args.eps if e != 0.0])
    document = {
        "resonance": {
            "family": r.family_tag,
            "m": r.m,
            "n": r.n,
            "k": r.modulus.k,
            "omega": r.omega,
        },
        "theta0": theta0,
        "simple_zero_hypothesis": hypothesis_ok,
        "results": records,
        "scaling": {
            "ratios": ratios,
            "within_band": scaling_ok,
            "hypothesis_violated": not (hypothesis_ok and scaling_ok),
        },
    }
    _emit_json(args, document)
    return EXIT_OK


# Flags that more than one subcommand reads: dest -> add_argument keywords.
_SHARED_FLAGS = {
    "omega": dict(type=float, default=1.0, help="forcing frequency > 0"),
    "beta": dict(type=float, default=1.0, help="forcing amplitude >= 0"),
    "delta": dict(type=float, default=0.0, help="damping >= 0"),
    "family": dict(choices=FAMILIES, default="inner", help="resonant orbit family"),
    "m": dict(type=int, default=3),
    "n": dict(type=int, default=1),
    "theta_points": dict(type=int, default=64),
    "out": dict(type=str, default=None, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
}


# melnikov flags that only the subharmonic curve reads: dest -> default.
_SUBHARMONIC_DEFAULTS = {
    dest: _SHARED_FLAGS[dest]["default"] for dest in ("family", "m", "n")
}
# melnikov flags that only the homoclinic curve reads: dest -> default.
_HOMOCLINIC_DEFAULTS = {"sign": 1}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: no prefix matching, and -5e-4 read as a number.

    No prefix matching, so --m cannot reach --m-max where there is no --m.
    argparse takes only -5 and -.5 for negative numbers and reads -5e-4 as
    a flag; here exponent notation counts too.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


def _add_flags(p, *dests):
    for dest in dests:
        p.add_argument("--" + dest.replace("_", "-"), **_SHARED_FLAGS[dest])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melnikov-lab",
        description="Melnikov analysis of the periodically forced damped pendulum",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )
    system = ("omega", "beta", "delta")
    resonance = ("family", "m", "n")

    p = sub.add_parser("resonances", help="enumerate resonant moduli")
    _add_flags(p, "omega", "family", "out", "format")
    p.add_argument("--m-max", type=int, default=9)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--k-min", type=float, default=K_WINDOW[0])
    p.add_argument("--k-max", type=float, default=K_WINDOW[1])
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("melnikov", help="Melnikov curve, quadrature vs closed form")
    _add_flags(p, *system, *resonance, "theta_points", "out", "format")
    p.add_argument("--homoclinic", action="store_true")
    p.add_argument("--sign", type=int, choices=(-1, 1))
    # left unset so _validate can tell a given flag from its default
    p.set_defaults(**dict.fromkeys(_SUBHARMONIC_DEFAULTS))
    p.set_defaults(func=cmd_melnikov)

    p = sub.add_parser("contour", help="contour integral, numeric vs closed form")
    _add_flags(p, *system, *resonance, "theta_points", "out", "format")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("certify", help="emit a nonintegrability certificate (JSON)")
    _add_flags(p, *system, "out")
    p.add_argument("--m-max", type=int, default=9)
    p.add_argument("--n-max", type=int, default=2)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="stroboscopic-map fixed points and scaling (JSON)")
    _add_flags(p, *system, *resonance, "out")
    p.add_argument(
        "--eps",
        type=float,
        nargs="+",
        default=[1e-3, 5e-4, 2.5e-4],
        help="epsilon values for the scaling table",
    )
    p.add_argument("--theta0", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _validate(args) -> None:
    names = ("omega", "beta", "delta", "k_min", "k_max", "theta0")
    reals = [getattr(args, name, None) for name in names]
    reals += getattr(args, "eps", None) or []
    if not all(math.isfinite(x) for x in reals if x is not None):
        raise SystemExit(_usage_error("real-valued arguments must be finite"))
    if getattr(args, "omega", 1.0) <= 0:
        raise SystemExit(_usage_error("omega must be positive"))
    if getattr(args, "beta", 0.0) < 0 or getattr(args, "delta", 0.0) < 0:
        raise SystemExit(_usage_error("beta and delta must be nonnegative"))
    if args.command == "melnikov":
        mode, read, unread = ("--homoclinic", _HOMOCLINIC_DEFAULTS, _SUBHARMONIC_DEFAULTS)
        if not args.homoclinic:
            mode, read, unread = ("without --homoclinic", unread, read)
        given = [d for d in unread if getattr(args, d) is not None]
        if given:
            flags = ", ".join("--" + d.replace("_", "-") for d in given)
            raise SystemExit(_usage_error(f"melnikov {mode} does not read {flags}"))
        for dest, default in read.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
    if hasattr(args, "m") and not getattr(args, "homoclinic", False):
        if args.m < 1 or args.n < 1:
            raise SystemExit(_usage_error("m and n must be positive"))
        if math.gcd(args.m, args.n) != 1:
            raise SystemExit(_usage_error("m and n must be coprime"))
    if hasattr(args, "m_max") and (args.m_max < 1 or args.n_max < 1):
        raise SystemExit(_usage_error("m-max and n-max must be positive"))
    if not 1 <= getattr(args, "theta_points", 1) <= _MAX_THETA_POINTS:
        raise SystemExit(_usage_error(f"theta-points must lie in [1, {_MAX_THETA_POINTS}]"))
    if hasattr(args, "k_min") and not 0.0 < args.k_min < args.k_max < 1.0:
        raise SystemExit(_usage_error("k window must satisfy 0 < k-min < k-max < 1"))


def _usage_error(message: str) -> int:
    print(f"melnikov-lab: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"melnikov-lab: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrationFailure as exc:
        print(f"melnikov-lab: integration failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ResonanceError, PoleProximityError, ResidueOverflowError) as exc:
        print(f"melnikov-lab: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
