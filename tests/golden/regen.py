"""Regenerate the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:

    python tests/golden/regen.py

Each case runs one melnikov-lab argv in-process and records its exit code
and its parsed stdout in cli_outputs.json.  Regenerate only for a change that
is meant to move an answer, and say in the change which answers moved.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_outputs.json"

CASES = (
    ("certify", "--beta", "1", "--delta", "1", "--omega", "1"),
    ("certify", "--beta", "1", "--delta", "0", "--omega", "1"),
    ("certify", "--beta", "1", "--delta", "0", "--omega", "80"),
    ("melnikov", "--homoclinic", "--omega", "1000"),
    ("contour", "--family", "inner", "--m", "3", "--theta-points", "16"),
    ("contour", "--family", "rotating+", "--m", "2", "--n", "1"),
    ("resonances", "--family", "rotating-", "--omega", "1.2", "--m-max", "7",
     "--n-max", "3", "--format", "json"),
    ("resonances", "--family", "inner", "--m-max", "9"),
    ("melnikov", "--family", "inner", "--m", "3", "--n", "1", "--beta", "1",
     "--delta", "1"),
    ("melnikov", "--homoclinic", "--sign", "-1", "--beta", "1", "--delta", "1"),
    ("verify", "--m", "3", "--eps", "1e-3", "5e-4"),
    # exit 3: an infinite resonance target, and a first level past the node cap
    ("melnikov", "--family", "inner", "--m", "5", "--n", "1", "--omega", "5e-324",
     "--beta", "1", "--delta", "1", "--theta-points", "1"),
    ("melnikov", "--homoclinic", "--omega", "3e306"),
)


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(stdout):
    """A JSON document as it stands; a table (CSV, or JSON records) as typed records.

    Table cells are the CLI's %.16e strings; each becomes an int, a float
    or stays a string, whichever it spells.
    """
    if stdout.lstrip().startswith("{"):
        return json.loads(stdout)
    if stdout.lstrip().startswith("["):
        records = json.loads(stdout)
    else:
        records = csv.DictReader(io.StringIO(stdout))
    return [{name: _cell(str(v)) for name, v in rec.items()} for rec in records]


def run(argv):
    """{argv, exit, output} of one in-process melnikov-lab call."""
    from melnikov_lab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "output": _parse(out.getvalue())}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
