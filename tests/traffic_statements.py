"""The statements of src/melnikov_lab that the benchmark's traffic never runs.

Run from the repository root:

    python tests/traffic_statements.py

In one process, under tests/unrun_statements.py's line trace, it answers
the items of perfbench/workloads.py with tests/answer_digest.py's four
runners: oracle_sweep and certify_grid at seeds 1 and 7, stroboscopic at
seed 7, and cli_cold at seeds 1 and 7, whose argv go to
melnikov_lab.cli.main in this process (tests/golden/regen.py's call)
instead of a fresh interpreter.  It then runs every argv of
tests/golden/regen.py.  It prints each statement that none of these
reached, in unrun_statements' format: what it lists serves no benchmark
item and no golden case (error paths, mostly).  It takes about 14 s on a
2-CPU Xeon; pytest does not collect it.
"""

from unrun_statements import line_trace, print_unrun


def traffic():
    """Answer every item of answer_digest's runners, then every golden argv."""
    import answer_digest
    from golden import regen

    answer_digest.oracle_sweep()
    answer_digest.certify_grid()
    answer_digest.stroboscopic()
    answer_digest.cli_cold()
    for argv in regen.CASES:
        regen.run(argv)


if __name__ == "__main__":
    print_unrun(line_trace(traffic)[1])
