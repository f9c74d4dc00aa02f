"""Regenerate the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:

    python tests/golden/regen.py

Each case runs one melnikov-lab argv in-process and records its exit code
and its parsed stdout in cli_outputs.json.  Before it writes, it prints each
value that differs from the recorded one: its path, the old and the new value
and their relative change.  Regenerate only for a change that is meant to
move an answer, and say in the change which answers moved.
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
    ("contour", "--family", "inner", "--m", "3", "--n", "2", "--theta-points", "4"),
    ("resonances", "--family", "rotating-", "--omega", "1.2", "--m-max", "7",
     "--n-max", "3", "--format", "json"),
    ("resonances", "--family", "inner", "--m-max", "9"),
    # inner 1/1 at k = 6.3e-6: a K_WINDOW that starts at 1e-5 drops it
    ("resonances", "--family", "inner", "--omega", "0.99999999999", "--m-max", "3"),
    ("melnikov", "--family", "inner", "--m", "3", "--n", "1", "--beta", "1",
     "--delta", "1"),
    ("melnikov", "--homoclinic", "--sign", "-1", "--beta", "1", "--delta", "1"),
    # a rotating family at n >= 2, an inner 5/1, and the rotating- contour
    ("melnikov", "--family", "rotating-", "--m", "3", "--n", "2", "--omega", "1.3",
     "--beta", "0.7", "--delta", "0.2", "--theta-points", "8"),
    ("melnikov", "--family", "inner", "--m", "5", "--n", "1", "--omega", "1.7",
     "--beta", "1.4", "--delta", "0.03", "--theta-points", "8"),
    ("contour", "--family", "rotating-", "--m", "1", "--n", "1", "--omega", "0.8",
     "--beta", "0.7", "--theta-points", "4"),
    ("verify", "--m", "3", "--eps", "1e-3", "5e-4"),
    # a rotating family with damping, so the tangent map's -eps*delta term counts
    ("verify", "--family", "rotating+", "--m", "1", "--delta", "0.05", "--eps", "1e-3",
     "5e-4"),
    # forcing at omega != 1 and beta != 1, so the kernel's phase omega * (t + c_i * h)
    # and its beta both count
    ("verify", "--m", "3", "--omega", "1.3", "--beta", "0.7", "--delta", "0.01", "--eps",
     "1e-3", "5e-4"),
    ("verify", "--family", "rotating-", "--m", "2", "--omega", "1.7", "--beta", "1.4",
     "--delta", "0.03", "--eps", "1e-3", "5e-4"),
    # the weak-twist ladder: Newton cannot place a point that the forcing moves by
    # about 1e-16, so it goes on in place at _FLOW_TOL after a resolving re-flow.
    # It pins where Newton stops along the weak-twist direction, which rests on
    # Newton's path: residuals 6.0-6.1e-11 and distances 2.9e-12 here, against
    # 1.5-2.5e-12 and 1.6e-13 when the same runs start over from the seed.  A
    # change to Newton's path that keeps the map can move it; read its
    # regeneration as that, not as a moved answer
    ("verify", "--m", "3", "--beta", "1e-13", "--eps", "1e-3", "5e-4", "2.5e-4"),
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


def call(argv):
    """(exit code, stdout, stderr) of one in-process melnikov-lab call, usage errors included."""
    from melnikov_lab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv):
    """{argv, exit, output} of one in-process melnikov-lab call."""
    code, out, _ = call(argv)
    return {"argv": list(argv), "exit": code, "output": _parse(out)}


def _moved(old, new, path):
    """(path, old, new) for each value of a recorded output that differs in new."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for name in old:
            yield from _moved(old[name], new[name], f"{path}.{name}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from _moved(o, n, f"{path}[{i}]")
    elif type(old) is not type(new) or not (old == new or old != old and new != new):
        yield path, old, new


def _relative(old, new):
    if not all(type(v) in (int, float) for v in (old, new)):
        return "-"
    scale = max(abs(old), abs(new))
    return f"{abs(new - old) / scale:.2g}" if scale else "0"


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    cases = [run(argv) for argv in CASES]
    recorded = {}
    if GOLDEN.exists():
        recorded = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    for case in cases:
        argv = tuple(case["argv"])
        if argv not in recorded:
            print(f"{' '.join(argv)}: new case")
            continue
        for path, old, new in _moved(recorded.pop(argv), case, " ".join(argv)):
            print(f"{path}: {old!r} -> {new!r} (relative change {_relative(old, new)})")
    for argv in recorded:
        print(f"{' '.join(argv)}: case dropped")
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
