"""Golden CLI outputs: a refactor must give the answers recorded in tests/golden.

Keys, strings, ints, bools and exit codes must match exactly and every
other float to 1e-12 relative.  The error measures (a numeric value minus
its closed form, a resonance residual, or the map residual of a verified
fixed point) are round-off, so they are held to a bound instead of to their
recorded value.
"""

import json
import math

import pytest

from golden.regen import CASES, GOLDEN, run

REL = 1e-12
# error measure -> largest |value| accepted (a verify residual: Newton's stop)
ERROR_BOUNDS = {
    "numeric_check_diff": 1e-6,
    "difference": 1e-8,
    "omega_check": 1e-9,
    "residual": 1e-10,
}

RECORDED = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def _assert_same(got, want, path, key=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for name in want:
            _assert_same(got[name], want[name], f"{path}.{name}", name)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]", key)
    elif isinstance(want, float) and key in ERROR_BOUNDS:
        assert isinstance(got, float) and abs(got) <= ERROR_BOUNDS[key], (path, got)
    elif isinstance(want, float):
        assert isinstance(got, float), path
        same = got == want or (math.isnan(got) and math.isnan(want))
        assert same or abs(got - want) <= REL * max(abs(got), abs(want)), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    _assert_same(run(argv), RECORDED[argv], " ".join(argv))
