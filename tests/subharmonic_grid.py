"""The 1,008-case find_subharmonic grid: what a change to the flows or to Newton moves.

Run from the repository root:

    PYTHONPATH=src python tests/subharmonic_grid.py OUT.json

The grid is omega in {0.6, 0.8, 1, 1.2, 1.4}; inner 1/1 (omega < 1 only),
3/1 and 5/1 and rotating+- 1/1, 2/1 and 3/1; beta 1; delta in {0, 0.2};
theta0 in {0, pi/2, 2, 4}; eps in {1e-3, 5e-4, 2.5e-4}.  Each case is one
find_subharmonic call.  Flows and RHS evaluations are counted by wrapping
poincare.solve_ivp.  The script prints one JSON line, {"cases",
"converged", "flows", "rhs_evals"}, and writes every case to OUT.json:
its inputs, the converged flag, the distance to the unperturbed orbit and
its flows and RHS evaluations.  Run it on two trees and compare the two
files case by case.  It takes 10-15 s on a 2-CPU Xeon; pytest does not
collect it.
"""

import json
import math
import sys

from melnikov_lab import poincare
from melnikov_lab.melnikov import solve_resonance
from melnikov_lab.pendulum import pendulum_system

OMEGAS = (0.6, 0.8, 1.0, 1.2, 1.4)
RESONANCES = [("inner", m) for m in (1, 3, 5)] + [
    (family, m) for family in ("rotating+", "rotating-") for m in (1, 2, 3)
]
DELTAS = (0.0, 0.2)
THETA0S = (0.0, math.pi / 2.0, 2.0, 4.0)
EPSILONS = (1e-3, 5e-4, 2.5e-4)


def run_grid():
    """Every case of the grid, as a list of dicts in a fixed order."""
    flows = []
    solve_ivp = poincare.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        flows.append(sol.nfev)
        return sol

    poincare.solve_ivp = counted
    cases = []
    try:
        for omega in OMEGAS:
            for family, m in RESONANCES:
                r = solve_resonance(family, omega, m, 1)
                if r is None:  # inner 1/1 needs omega < 1
                    continue
                for delta in DELTAS:
                    sys_ = pendulum_system(1.0, delta, omega)
                    for theta0 in THETA0S:
                        for eps in EPSILONS:
                            flows.clear()
                            res = poincare.find_subharmonic(sys_, eps, r, theta0)
                            cases.append({
                                "omega": omega, "family": family, "m": m,
                                "delta": delta, "theta0": theta0, "eps": eps,
                                "converged": res.converged,
                                "distance": res.distance_to_unperturbed,
                                "flows": len(flows), "rhs_evals": sum(flows),
                            })
    finally:
        poincare.solve_ivp = solve_ivp
    return cases


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tests/subharmonic_grid.py OUT.json")
    cases = run_grid()
    with open(argv[0], "w") as fh:
        json.dump(cases, fh, indent=1)
    print(json.dumps({
        "cases": len(cases),
        "converged": sum(c["converged"] for c in cases),
        "flows": sum(c["flows"] for c in cases),
        "rhs_evals": sum(c["rhs_evals"] for c in cases),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
