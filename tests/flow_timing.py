"""Wall time of this tree's seed-7 stroboscopic pass, for pairing two trees.

Run from the repository root:

    PYTHONPATH=src python tests/flow_timing.py [PASSES]

It answers perfbench/workloads.py's seed-7 stroboscopic items in process,
with the workload's own item generator and answer call: one warm-up pass,
which also counts the work, then PASSES timed passes (default 5), timed
with time.perf_counter and nothing wrapped.  It prints one JSON line,
{"passes", "median_s", "best_s", "flows", "attempts", "accepted",
"rhs_evals"}: the median and the best pass time, and the warm-up pass's
flows and RHS evaluations (counted by wrapping poincare.solve_ivp, as
tests/answer_digest.py does) and its step attempts and accepted steps
(counted by wrapping poincare._attempt, which the kernel reads once per
flow).  Run it alternately on two trees to pair a kernel change: one
traced perfbench pass per side cannot resolve one, as its poincare.flow_s
has read 1.6x apart for the same work, and the untraced run times whole
items.  Each pass takes about 0.15 s on a 2-CPU Xeon; pytest does not
collect it.
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from melnikov_lab import poincare  # noqa: E402

SEED = 7


def run_pass():
    for item in workloads.strobo_items(SEED):
        workloads.answer_strobo(item)


def counted_pass():
    """{flows, attempts, accepted, rhs_evals} of one pass."""
    nfevs, attempts = [], []
    solve_ivp, attempt = poincare.solve_ivp, poincare._attempt

    def counted_flow(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    def counted_attempt(*args):
        result = attempt(*args)
        attempts.append(result[0] < 1.0)
        return result

    poincare.solve_ivp, poincare._attempt = counted_flow, counted_attempt
    try:
        run_pass()
    finally:
        poincare.solve_ivp, poincare._attempt = solve_ivp, attempt
    return {
        "flows": len(nfevs),
        "attempts": len(attempts),
        "accepted": sum(attempts),
        "rhs_evals": sum(nfevs),
    }


def main(passes):
    counts = counted_pass()
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        run_pass()
        times.append(time.perf_counter() - start)
    timing = {"passes": passes, "median_s": statistics.median(times), "best_s": min(times)}
    return timing | counts


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)))
