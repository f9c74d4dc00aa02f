"""The 1,008-case find_subharmonic grid: what a change to the flows or to Newton moves.

Run from the repository root:

    PYTHONPATH=src python tests/subharmonic_grid.py OUT.json [--against OTHER.json]

The grid is omega in {0.6, 0.8, 1, 1.2, 1.4}; inner 1/1 (omega < 1 only),
3/1 and 5/1 and rotating+- 1/1, 2/1 and 3/1; beta 1; delta in {0, 0.2};
theta0 in {0, pi/2, 2, 4}; eps in {1e-3, 5e-4, 2.5e-4}.  Each case is one
find_subharmonic call.  Flows and RHS evaluations are read from each
poincare._dop853_flow call's own attempts (tests/oracles.py's
counted_flows).  The script prints one JSON line, {"cases",
"converged", "flows", "rhs_evals"}, and writes every case to OUT.json:
its inputs, the converged flag, the distance to the unperturbed orbit and
its flows and RHS evaluations.  Run it on two trees and compare the two
files case by case: with --against OTHER.json, OTHER.json being the other
tree's file, it also prints a second JSON line, this run against OTHER
(see compare).  It takes 10-15 s on a 2-CPU Xeon; pytest does not collect
it.
"""

import json
import math
import sys

from melnikov_lab import poincare
from melnikov_lab.melnikov import solve_resonance
from melnikov_lab.pendulum import pendulum_system
from oracles import counted_flows

OMEGAS = (0.6, 0.8, 1.0, 1.2, 1.4)
RESONANCES = [("inner", m) for m in (1, 3, 5)] + [
    (family, m) for family in ("rotating+", "rotating-") for m in (1, 2, 3)
]
DELTAS = (0.0, 0.2)
THETA0S = (0.0, math.pi / 2.0, 2.0, 4.0)
EPSILONS = (1e-3, 5e-4, 2.5e-4)
_NEAR = 1e-6  # relative move of a converged distance that compare counts as near


def run_grid():
    """Every case of the grid, as a list of dicts in a fixed order."""
    cases = []
    with counted_flows() as flows:
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
                                "flows": len(flows),
                                "rhs_evals": sum(flow.nfev for flow in flows),
                            })
    return cases


def _key(case):
    return tuple(case[name] for name in ("omega", "family", "m", "delta", "theta0", "eps"))


def _ladders_in_band(cases):
    """Ladders (a case's inputs but eps) whose rungs all converge within scaling_band."""
    ladders = {}
    for case in cases:
        ladders.setdefault(_key(case)[:-1], []).append(case)
    return sum(
        all(c["converged"] for c in rungs)
        and poincare.scaling_band([c["eps"] for c in rungs], [c["distance"] for c in rungs])[0]
        for rungs in ladders.values()
    )


def compare(cases, other):
    """This run's cases against other's, case by case (the same grid).

    lost and gained count the cases that converge on one side only.  Of the
    cases that converge on both, identical have the same distance bit for
    bit, near moved by at most _NEAR relative (near_largest being the
    largest such move), and far moved by more: each far case is listed with
    its distance on both sides.  Of the cases that converge on neither
    side, unconverged_identical have the same distance bit for bit and
    unconverged_moved do not.  in_band counts, on each side, the ladders
    with every rung converged within the factor-2 band, and rhs_evals sums
    each side's RHS evaluations.
    """
    theirs = {_key(c): c for c in other}
    if sorted(theirs) != sorted(_key(c) for c in cases):
        raise SystemExit("the two files hold different grids")
    names = ("lost", "gained", "identical", "near", "unconverged_identical", "unconverged_moved")
    counts = dict.fromkeys(names, 0)
    far, largest_near = [], 0.0
    for case in cases:
        was = theirs[_key(case)]
        same = case["distance"] == was["distance"]
        if was["converged"] != case["converged"]:
            counts["lost" if was["converged"] else "gained"] += 1
        elif not case["converged"]:
            counts["unconverged_identical" if same else "unconverged_moved"] += 1
        elif same:
            counts["identical"] += 1
        else:
            moved = abs(case["distance"] - was["distance"]) / was["distance"]
            if moved <= _NEAR:
                counts["near"] += 1
                largest_near = max(largest_near, moved)
            else:
                far.append({**case, "other_distance": was["distance"]})
    return {
        **counts,
        "near_largest": largest_near,
        "far": far,
        "in_band": {"this": _ladders_in_band(cases), "other": _ladders_in_band(other)},
        "rhs_evals": {
            "this": sum(c["rhs_evals"] for c in cases),
            "other": sum(c["rhs_evals"] for c in other),
        },
    }


def main(argv):
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--against"):
        sys.exit("usage: python tests/subharmonic_grid.py OUT.json [--against OTHER.json]")
    cases = run_grid()
    with open(argv[0], "w") as fh:
        json.dump(cases, fh, indent=1)
    print(json.dumps({
        "cases": len(cases),
        "converged": sum(c["converged"] for c in cases),
        "flows": sum(c["flows"] for c in cases),
        "rhs_evals": sum(c["rhs_evals"] for c in cases),
    }))
    if len(argv) == 3:
        with open(argv[2]) as fh:
            print(json.dumps(compare(cases, json.load(fh))))


if __name__ == "__main__":
    main(sys.argv[1:])
