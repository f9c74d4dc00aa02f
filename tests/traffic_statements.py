"""The statements of src/melnikov_lab that the benchmark's traffic never runs.

Run from the repository root:

    python tests/traffic_statements.py

In one process, under tests/unrun_statements.py's line trace, it answers
the items of perfbench/workloads.py with that file's own item generators
and answer calls: oracle_sweep and certify_grid at seeds 1 and 7,
stroboscopic at seed 7, and cli_cold at seeds 1 and 7, whose argv go to
melnikov_lab.cli.main in this process (tests/golden/regen.py's call)
instead of a fresh interpreter.  It then runs every argv of
tests/golden/regen.py.  It prints each statement
that none of these reached, in unrun_statements' format: what it lists
serves no benchmark item and no golden case (error paths, mostly).  It
takes about 14 s on a 2-CPU Xeon; pytest does not collect it.
"""

import sys

from unrun_statements import ROOT, line_trace, print_unrun

# (workload, seeds) whose first pass is answered
RUNS = (("oracle_sweep", (1, 7)), ("certify_grid", (1, 7)), ("stroboscopic", (7,)),
        ("cli_cold", (1, 7)))


def traffic():
    """Answer every item of RUNS, then every golden argv."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests" / "golden")]
    import regen
    import workloads

    for name, seeds in RUNS:
        workload = workloads.WORKLOADS[name]
        answer = (lambda item: regen.call(item["argv"])) if name == "cli_cold" else workload.answer
        for seed in seeds:
            for item in workload.generate(seed):
                answer(item)
    for argv in regen.CASES:
        regen.run(argv)


if __name__ == "__main__":
    print_unrun(line_trace(traffic)[1])
