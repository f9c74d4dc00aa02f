"""Wall time of this tree's seed-7 stroboscopic pass, for pairing two trees.

Run from the repository root:

    PYTHONPATH=src python tests/flow_timing.py [ROUNDS]
    PYTHONPATH=src python tests/flow_timing.py --against OTHER_SRC [ROUNDS]

Alone, it answers perfbench/workloads.py's seed-7 stroboscopic items in
process, with the workload's own item generator and answer call: one
warm-up pass, which also counts the work, then ROUNDS timed passes
(default 5), timed with time.perf_counter and nothing wrapped.  It prints
one JSON line, {"passes", "median_s", "best_s", "flows", "attempts",
"accepted", "rhs_evals"}: the median and the best pass time, and the
warm-up pass's flows, step attempts, accepted steps and RHS evaluations,
read from each poincare._dop853_flow call's own counts
(tests/oracles.py's counted_flows, as tests/answer_digest.py reads them).

With --against, OTHER_SRC is another tree's src directory, whose
melnikov_lab is imported under the alias other_melnikov_lab.  One pass
records every poincare._variational_map call (P(z) and DP(z) of one flow)
of this tree with tests/oracles.py's recorded_maps; each call's (P, DP)
must be bit-equal on the other tree, or both must raise the same message.
Then ROUNDS rounds (default 10) run every recorded call through both trees,
alternating which runs first, and it prints {"rounds", "calls", "median_s",
"other_median_s", "ratio_median", "faster_rounds"}: the median flow time of
the calls per side, the median over rounds of this tree's time over the
other's, and the rounds this tree was faster in.  One process times both
trees on the same calls, without the items' Newton bookkeeping, which the
traced poincare.flow_s of one perfbench pass per side cannot do: it has
read 1.6x apart for the same work.  A pass takes about 0.15 s on a 2-CPU
Xeon; pytest does not collect this file, and tests/test_poincare.py pins
the counts of its pass.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from melnikov_lab import poincare  # noqa: E402
from oracles import counted_flows, recorded_maps  # noqa: E402

SEED = 7
ALIAS = "other_melnikov_lab"


def run_pass():
    for item in workloads.strobo_items(SEED):
        workloads.answer_strobo(item)


def counted_pass():
    """{flows, attempts, accepted, rhs_evals} of one pass."""
    with counted_flows() as flows:
        run_pass()
    return {
        "flows": len(flows),
        "attempts": sum(flow.attempts for flow in flows),
        "accepted": sum(flow.accepted for flow in flows),
        "rhs_evals": sum(flow.nfev for flow in flows),
    }


def timed_passes(passes):
    counts = counted_pass()
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        run_pass()
        times.append(time.perf_counter() - start)
    timing = {"passes": passes, "median_s": statistics.median(times), "best_s": min(times)}
    return timing | counts


def other_poincare(src):
    """The poincare module of the melnikov_lab package under src, imported as ALIAS."""
    package = Path(src).resolve() / "melnikov_lab"
    spec = importlib.util.spec_from_file_location(
        ALIAS, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[ALIAS] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{ALIAS}.poincare")


def _outcome(module, args):
    """(P, DP) of one _variational_map call of a poincare module, or the failure it raised."""
    try:
        return module._variational_map(*args)
    except module.IntegrationFailure as exc:  # each tree has its own class
        return exc


def recorded_calls():
    """[(args, outcome)] of every _variational_map call of one pass."""
    with recorded_maps() as maps:
        run_pass()
    return [(call.args, call.outcome) for call in maps]


def _same(got, want):
    if isinstance(got, Exception) or isinstance(want, Exception):
        return type(got).__name__ == type(want).__name__ and str(got) == str(want)
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def _time_calls(module, calls):
    start = time.perf_counter()
    for args, _ in calls:
        _outcome(module, args)
    return time.perf_counter() - start


def paired_rounds(src, rounds):
    other = other_poincare(src)
    calls = recorded_calls()
    for i, (args, outcome) in enumerate(calls):
        if not _same(_outcome(other, args), outcome):
            raise RuntimeError(f"call {i} of {len(calls)} differs between the trees: {args}")
    sides = (poincare, other)
    for module in sides:  # warm-up
        _time_calls(module, calls)
    times = [], []
    for i in range(rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            times[side].append(_time_calls(sides[side], calls))
    ratios = [this / that for this, that in zip(*times)]
    return {
        "rounds": rounds,
        "calls": len(calls),
        "median_s": statistics.median(times[0]),
        "other_median_s": statistics.median(times[1]),
        "ratio_median": statistics.median(ratios),
        "faster_rounds": sum(ratio < 1.0 for ratio in ratios),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rounds", nargs="?", type=int, default=None)
    parser.add_argument("--against", metavar="OTHER_SRC")
    args = parser.parse_args(argv)
    if args.against:
        return paired_rounds(args.against, 10 if args.rounds is None else args.rounds)
    return timed_passes(5 if args.rounds is None else args.rounds)


if __name__ == "__main__":
    print(json.dumps(main()))
