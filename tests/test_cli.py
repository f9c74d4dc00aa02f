import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import melnikov_lab
from golden.regen import call
from melnikov_lab import cli, poincare  # so no timed call pays scipy.integrate's import
from melnikov_lab.certificate import build_certificate
from melnikov_lab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from melnikov_lab.elliptic import PoleProximityError
from melnikov_lab.melnikov import K_WINDOW, MelnikovKernels
from melnikov_lab.pendulum import FAMILIES
from oracles import recorded

SRC = str(Path(melnikov_lab.__file__).resolve().parents[1])
SUBPROCESS_PYTHONPATH = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestResonancesCommand:
    def test_inner_n1_table(self):
        code, out, _ = call(["resonances", "--omega", "1.0", "--m-max", "9"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["family", "m", "n", "k", "period", "omega_check"]
        assert [int(r[1]) for r in rows] == [2, 3, 4, 5, 6, 7, 8, 9]
        ks = [float(r[3]) for r in rows]
        assert ks == sorted(ks)
        assert all(abs(float(r[5])) <= 1e-9 for r in rows)
        # full precision survives the round trip
        assert all(len(r[3].split("e")[0].rstrip("0")) >= 10 for r in rows)

    def test_empty_result_is_success(self):
        code, out, _ = call(["resonances", "--omega", "50.0", "--m-max", "3"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == []

    def test_out_of_window_resonance_is_skipped(self):
        # k K = 1000 pi needs k' ~ 4 exp(-3142): outside every k window
        code, out, _ = call(
            ["resonances", "--family", "rotating+", "--omega", "1e-3", "--m-max", "2"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == []

    def test_unresolvable_moduli_do_not_stop_the_table(self):
        # inner m >= 79 at omega = 1 lies beyond what the bisection resolves
        code, out, _ = call(["resonances", "--omega", "1.0", "--m-max", "100"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [int(r[1]) for r in rows] == list(range(2, 12))

    @pytest.mark.parametrize(
        "argv",
        [
            ["resonances", "--family", "rotating+", "--omega", "4000", "--m-max", "3"],
            ["certify", "--beta", "1", "--delta", "1", "--omega", "2500"],
        ],
    )
    def test_unresolvably_small_rotating_moduli_are_skipped(self, argv):
        # rotating+ 1/1 at k ~ 5e-4 (omega = 4000) and 1/2 at k ~ 4e-4
        # (omega = 2500) lie below what the k' bisection resolves
        code, _, err = call(argv)
        assert code == EXIT_OK
        assert "melnikov-lab:" not in err

    def test_json_format(self):
        code, out, _ = call(["resonances", "--m-max", "3", "--format", "json"])
        assert code == EXIT_OK
        records = json.loads(out)
        assert all(rec["family"] == "inner" for rec in records)

    def test_output_file(self, tmp_path):
        target = tmp_path / "resonances.csv"
        code, out, _ = call(["resonances", "--m-max", "3", "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        header, _ = parse_csv(target.read_text())
        assert header[0] == "family"


class TestMelnikovCommand:
    def test_subharmonic_agreement(self):
        code, out, err = call(
            [
                "melnikov", "--family", "inner", "--m", "3", "--n", "1",
                "--beta", "1", "--delta", "1", "--theta-points", "8",
            ],
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["theta", "quadrature", "closed_form", "difference"]
        assert len(rows) == 8
        assert all(abs(float(r[3])) <= 1e-8 for r in rows)
        assert "sup |quadrature - closed_form|" in err

    def test_homoclinic_agreement(self):
        code, out, _ = call(
            [
                "melnikov", "--homoclinic", "--sign", "-1", "--beta", "1",
                "--delta", "1", "--theta-points", "8",
            ],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(abs(float(r[3])) <= 1e-8 for r in rows)
        # sign -1 flips the cosine coefficient: theta = 0 below -8*delta
        assert float(rows[0][2]) < -8.0

    def test_homoclinic_sign_defaults_to_plus(self):
        argv = ["melnikov", "--homoclinic", "--theta-points", "4"]
        code, out, _ = call(argv)
        assert code == EXIT_OK
        assert out == call([*argv, "--sign", "1"])[1]
        assert out != call([*argv, "--sign", "-1"])[1]

    def test_subharmonic_flags_keep_their_defaults(self):
        explicit = ["--family", "inner", "--m", "3", "--n", "1"]
        code, out, _ = call(["melnikov", "--theta-points", "4", *explicit])
        assert code == EXIT_OK
        assert out == call(["melnikov", "--theta-points", "4"])[1]

    def test_theta_points_rows(self):
        code, out, _ = call(["melnikov", "--m", "3", "--theta-points", "4"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 4


class TestLargeOmega:
    """Past omega ~ 452 the closed forms' cosh overflows; no traceback, no exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["melnikov", "--homoclinic", "--omega", "1000"],
            ["melnikov", "--m", "501", "--omega", "460", "--theta-points", "2"],
            ["certify", "--omega", "1000"],
            ["certify", "--omega", "500", "--beta", "0"],
        ],
    )
    def test_exits_0_or_3(self, argv):
        code, out, _ = call(argv)
        assert code in (EXIT_OK, EXIT_NUMERIC)
        if code == EXIT_OK and argv[0] == "certify":
            assert json.loads(out)["chaos"]["threshold"] == math.inf

    def test_overflowing_contour_exits_3(self):
        code, out, err = call(["contour", "--beta", "1e308"])
        assert code == EXIT_NUMERIC and out == ""
        assert "residue closed form (inf+nanj)" in err

    # a numpy warning would be raised as an exception here, and escape main;
    # the other overflowing argvs are rows of FAILURES
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["contour"]], ids=" ".join)
    def test_overflow_prints_one_line(self, argv):
        code, out, err = call([*argv, "--beta", "1e308"])
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("melnikov-lab: ") and err.count("\n") == 1
        assert "residue closed form (inf+nanj)" in err and "overflows the float range" in err

    def test_overflowing_residue_exits_3(self):
        # the numeric kernels fail first at this resonance; skip them to reach the residue
        zero = MelnikovKernels(0j, 0j, 0j, 128, 0.0)
        with recorded(cli, "contour_kernels", lambda r, spec: zero):
            code, out, err = call(
                ["contour", "--m", "501", "--omega", "460", "--theta-points", "2"]
            )
        assert code == EXIT_NUMERIC and out == ""
        assert "overflows" in err


class TestContourCommand:
    def test_pole_proximity_exits_3(self):
        def at_pole(*args, **kwargs):
            raise PoleProximityError("argument within pole clearance")

        with recorded(cli, "contour_kernels", at_pole):
            code, out, err = call(["contour", "--m", "3"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "pole" in err

    def test_three_radii_match_closed_form(self):
        for family in ("rotating+", "inner"):
            code, out, _ = call(
                [
                    "contour", "--family", family, "--m", "2", "--n", "1",
                    "--theta-points", "4",
                ],
            )
            assert code == EXIT_OK
            header, rows = parse_csv(out)
            assert header == [
                "theta", "radius", "re_numeric", "im_numeric", "re_closed", "im_closed",
            ]
            assert len(rows) == 12  # 4 thetas x 3 radii
            assert len({r[1] for r in rows}) == 3
            for r in rows:
                assert abs(float(r[2]) - float(r[4])) <= 1e-8
                assert abs(float(r[3]) - float(r[5])) <= 1e-8


class TestCertifyCommand:
    def test_certificate_document(self):
        code, out, err = call(["certify", "--beta", "1", "--delta", "1", "--m-max", "5"])
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["schema"] == "melnikov-cert/1"
        assert cert["prop_4a"]["status"] == "applies"
        assert cert["prop_4b"]["status"] == "applies"
        assert cert["prop_4c"]["status"] == "applies"
        assert not cert["chaos"]["condition_holds"]
        assert "prop 4a: applies" in err

    @pytest.mark.parametrize("delta", [1.0, 0.0])
    def test_certificate_holds_only_json_values(self, delta):
        # plain json.dumps, as the CLI writes it.  Python's json reads Infinity,
        # which strict parsers reject: at delta = 0 the chaos ratio is inf, the
        # exception README names, and every other value is strict JSON, which
        # allow_nan=False refuses to write otherwise
        cert = build_certificate(1.0, delta, 1.0)
        assert json.loads(json.dumps(cert)) == cert
        if delta == 0.0:
            assert cert["chaos"]["ratio"] == math.inf
            cert = dict(cert, chaos=dict(cert["chaos"], ratio=0.0))
        json.dumps(cert, allow_nan=False)

    def test_unresolvable_moduli_do_not_stop_the_certificate(self):
        # rotating 8/1 at omega = 0.2 needs k' ~ 1e-54, beyond the bisection
        code, out, _ = call(["certify", "--omega", "0.2"])
        assert code == EXIT_OK
        assert json.loads(out)["prop_4b"]["status"] == "applies"

    def test_no_resonance_leaves_every_proposition_inconclusive(self):
        # at omega = 0.01 every resonant modulus lies beyond K_WINDOW
        code, out, err = call(["certify", "--beta", "1", "--delta", "1", "--omega", "0.01"])
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4c"]["witness"]["contour_integrals"] == []
        for prop in ("prop_4a", "prop_4b", "prop_4c"):
            assert cert[prop]["status"] == "inconclusive"
        assert "prop 4c: inconclusive" in err

    def test_zero_forcing_is_inconclusive(self):
        code, out, _ = call(["certify", "--beta", "0", "--delta", "1", "--m-max", "5"])
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4a"]["status"] == "applies"
        assert cert["prop_4b"]["status"] == "inconclusive"
        assert cert["prop_4c"]["status"] == "inconclusive"

    def test_zero_damping_chaos(self):
        code, out, _ = call(["certify", "--beta", "1", "--delta", "0", "--m-max", "5"])
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4a"]["status"] == "inconclusive"
        assert cert["prop_4c"]["status"] == "applies"
        assert cert["chaos"]["condition_holds"]


class TestVerifyCommand:
    def test_scaling_document(self):
        code, out, _ = call(
            [
                "verify", "--family", "inner", "--m", "3", "--n", "1",
                "--beta", "1", "--delta", "0",
                "--eps", "1e-3", "5e-4",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["simple_zero_hypothesis"]
        assert all(rec["converged"] for rec in doc["results"])
        assert all(rec["residual"] <= 1e-10 for rec in doc["results"])
        assert doc["scaling"]["within_band"]
        assert not doc["scaling"]["hypothesis_violated"]

    def test_explicit_theta0(self):
        code, out, _ = call(
            [
                "verify", "--m", "3", "--delta", "0",
                "--theta0", str(math.pi / 2.0), "--eps", "1e-3",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta0"] == pytest.approx(math.pi / 2.0)

    def test_theta0_leaves_the_hypothesis_check(self):
        # at delta = 1 the inner 3/1 curve has no simple zero, whatever the section phase
        for theta0 in ([], ["--theta0", str(math.pi / 2.0)]):
            code, out, _ = call(["verify", "--m", "3", "--delta", "1", "--eps", "0", *theta0])
            doc = json.loads(out)
            assert code == EXIT_OK and not doc["simple_zero_hypothesis"]
            assert doc["scaling"]["hypothesis_violated"]

    def test_small_beta_seeds_at_a_simple_zero(self):
        # the beta = 1 curve scaled by 1e-13 has the same simple zeros
        code, out, _ = call(["verify", "--m", "3", "--beta", "1e-13", "--eps", "1e-3", "5e-4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta0"] == 0.5 * math.pi
        assert doc["simple_zero_hypothesis"]
        assert all(rec["converged"] for rec in doc["results"])

    def test_zero_eps_rung_is_recorded_but_not_scaled(self):
        code, out, _ = call(["verify", "--m", "3", "--eps", "0", "1e-3", "5e-4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"][0] == {
            "eps": 0.0, "converged": True, "residual": 0.0, "distance": 0.0
        }
        assert [rec["eps"] for rec in doc["results"][1:]] == [1e-3, 5e-4]
        assert all(rec["converged"] for rec in doc["results"])
        # the scaling ratios cover the two nonzero rungs only
        assert len(doc["scaling"]["ratios"]) == 2
        assert doc["scaling"]["within_band"]

    def test_negative_eps_in_exponent_notation(self):
        # argparse alone reads -5e-4 as an unknown flag and exits 2
        code, out, _ = call(["verify", "--m", "3", "--eps", "1e-3", "-5e-4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [rec["eps"] for rec in doc["results"]] == [1e-3, -5e-4]
        assert all(rec["converged"] for rec in doc["results"])
        assert doc["scaling"]["within_band"]

    def test_integration_failure_exits_3(self):
        flow = poincare._dop853_flow

        def spent(t, y, t_bound, forcing, tol, max_steps):
            # the flow's own failure: its set-up, stopped by a budget of 0
            return flow(t, y, t_bound, forcing, tol, 0)

        with recorded(poincare, "_dop853_flow", spent):
            code, out, err = call(["verify", "--m", "3", "--eps", "1e-3"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "integration failure: step budget of 0 spent" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["resonances", "--omega", "-1"],
            ["melnikov", "--beta", "-2"],
            ["melnikov", "--m", "2", "--n", "4"],
            ["melnikov", "--m", "0"],
            ["contour", "--theta-points", "0"],
            # 2^62 points: past numpy's largest array, so a lost bound fails at once
            ["melnikov", "--theta-points", str(2**62)],
            ["contour", "--theta-points", str(2**20 + 1)],
            ["resonances", "--k-min", "0"],
            ["resonances", "--k-min", "0.5", "--k-max", "0.2"],
            ["resonances", "--k-max", "1"],
            ["melnikov", "--omega", "nan"],
            ["certify", "--omega", "inf"],
            ["melnikov", "--beta", "inf", "--m", "3"],
            ["contour", "--delta", "nan"],
            ["verify", "--eps", "1e-3", "nan"],
            ["verify", "--theta0", "inf"],
            # -inf may still read as a flag; either way it is a usage error
            ["verify", "--eps", "-inf"],
            ["resonances", "--m-max", "-3"],
            ["resonances", "--n-max", "0"],
            ["certify", "--m-max", "-1", "--delta", "1"],
            ["certify", "--n-max", "0"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv):
        code, _, err = call(argv)
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "command, target, reason",
        [
            (["resonances", "--m-max", "3"], "missing/x.csv", "No such file or directory"),
            (["certify"], ".", "Is a directory"),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, command, target, reason):
        path = tmp_path / target
        code, out, err = _exit_code(command + ["--out", str(path)])
        assert code == EXIT_USAGE and out == ""
        assert err == f"melnikov-lab: error: cannot write --out {path}: {reason}\n"

    def test_unwritable_stdout_exits_2(self):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        with contextlib.redirect_stdout(BrokenPipe()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(["resonances", "--m-max", "3"])
        assert exc.value.code == EXIT_USAGE
        assert err.getvalue() == "melnikov-lab: error: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exits_2_with_one_line(self):
        # stdout buffered, so anything the failed write leaves the exit's flush meets again
        env = dict(os.environ, PYTHONPATH=SUBPROCESS_PYTHONPATH, PYTHONUNBUFFERED="")
        argv = [sys.executable, "-m", "melnikov_lab.cli", "resonances", "--m-max", "3"]
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "melnikov-lab: error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["resonances", "--beta", "1"],
            ["resonances", "--m", "2", "--n", "4"],
            ["certify", "--m", "3"],
            ["certify", "--format", "csv"],
            ["certify", "--j1-arg", "m"],
            ["verify", "--theta-points", "0"],
        ],
    )
    def test_unread_flags_exit_2(self, argv):
        # argparse rejects a flag the subcommand does not read, before validation
        code, _, err = call(argv)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["verify", "--eps", "-1e-3"], "eps", [-1e-3]),
            (["verify", "--eps", "1e-3", "-5E+2", "-.5e-1", "-2."], "eps",
             [1e-3, -5e2, -0.05, -2.0]),
            (["verify", "--theta0", "-1e-3"], "theta0", -1e-3),
            (["resonances", "--omega", "-2.5e-1"], "omega", -0.25),
        ],
        ids=["eps", "eps-ladder", "theta0", "omega"],
    )
    def test_negative_exponent_notation_is_a_value(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        system, resonance = {"omega", "beta", "delta"}, {"family", "m", "n"}
        expected = {
            "resonances": {"omega", "family", "out", "format"}
            | {"m_max", "n_max", "k_min", "k_max"},
            "melnikov": system | resonance | {"theta_points", "out", "format"}
            | {"homoclinic", "sign"},
            "contour": system | resonance | {"theta_points", "out", "format"},
            "certify": system | {"out", "m_max", "n_max"},
            "verify": system | resonance | {"out", "eps", "theta0"},
        }
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        dests = {
            name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()
        }
        assert dests == expected

    def test_k_window_defaults_are_the_library_window(self):
        args = build_parser().parse_args(["resonances"])
        assert (args.k_min, args.k_max) == K_WINDOW

def test_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ, PYTHONPATH=SUBPROCESS_PYTHONPATH)
    code = "import sys, melnikov_lab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body once it has run this long, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _exit_code(argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors included.

    A warning is raised as an exception here, and escapes main: from a shell
    it would print lines of its own.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(argv)


def _failure(argv, code, stderr, seconds=5.0):
    return pytest.param(argv, code, stderr, seconds, id=" ".join(a[:24] for a in argv))


N_PAST_FLOAT = 5 * 10**307  # rotating m/n = (n + 1)/n ~ 1 solves at this n

# Every failing argv: its exit code, its stderr, where each ... stands for any
# text, and its wall-time bound in seconds.  Stdout stays empty, and stderr is
# one "melnikov-lab: " line except where argparse prints its usage line first.
FAILURES = [
    # the homoclinic curve reads no resonance, even a flag at its default value
    *(_failure(["melnikov", "--homoclinic", *flags], EXIT_USAGE, "...--homoclinic does not read...")
      for flags in (["--m", "2", "--n", "4"], ["--m", "3"], ["--family", "inner"])),
    _failure(["melnikov", "--m", "3", "--sign", "-1"], EXIT_USAGE,
             "melnikov-lab: error: melnikov without --homoclinic does not read --sign\n"),
    # the value -1e-3 gets _validate's message, not argparse's
    _failure(["melnikov", "--omega", "-1e-3"], EXIT_USAGE,
             "melnikov-lab: error: omega must be positive\n"),
    _failure(["frobnicate"], EXIT_USAGE, "usage: ...invalid choice: 'frobnicate'..."),
    _failure(["melnikov", "--family", "inner", "--m", "1", "--n", "2"], EXIT_NUMERIC,
             "...no resonance..."),
    # the bisection's root misses k K = pi / 4000 by more than 1e-10 of it
    _failure(["melnikov", "--family", "rotating+", "--m", "1", "--omega", "4000"], EXIT_NUMERIC,
             "...residual..."),
    # inner 450/1 at omega = 1 needs K = 706.9, past K(k' = 1e-300) = 692.16
    _failure(["melnikov", "--m", "450", "--omega", "1"], EXIT_NUMERIC, "...out of range..."),
    # beta = 1e308 overflows the Melnikov values and the residue closed form
    _failure(["melnikov", "--beta", "1e308", "--delta", "1e308"], EXIT_NUMERIC,
             "...Melnikov value nan at beta=1e+308..."),
    # contour --beta 1e308 is pinned in TestLargeOmega
    _failure(["melnikov", "--m", "3", "--beta", "1e308"], EXIT_NUMERIC,
             "...overflows the float range..."),
    # the least contour integral overflows too, but the curve records are
    # built first, so the Melnikov value is the one reported
    *(_failure([*argv, "--beta", "1e308"], EXIT_NUMERIC,
               f"melnikov-lab: Melnikov value inf at beta=1e+308, delta={delta} overflows the"
               " float range\n")
      for argv, delta in ((["certify"], "0.0"), (["certify", "--delta", "1"], "1.0"))),
    # inner 461/1 at omega = 460 has omega K' ~ 1733, past cosh's range
    _failure(["certify", "--omega", "460", "--m-max", "461", "--n-max", "1"], EXIT_NUMERIC,
             "...inner 461/1...overflows..."),
    # omega = 5e-324 overflows the resonance target to inf; omega >= 2e306 the
    # homoclinic cycle count, toward which the first level doubled forever
    # (1e306 printed a 309-digit node count)
    _failure(["melnikov", "--family", "inner", "--m", "5", "--n", "1", "--omega", "5e-324",
              "--beta", "1", "--delta", "1", "--theta-points", "1"], EXIT_NUMERIC,
             "melnikov-lab: inner 5/1 resonance at omega=5e-324 is out of range: target inf"
             " lies outside the periods [1.5708, 692.162] reachable for k' in [1e-300,"
             " 0.9999999999999999]\n", 1.0),
    *(_failure(["melnikov", "--homoclinic", "--omega", omega], EXIT_NUMERIC,
               "melnikov-lab: non-convergence: quadrature not converged at 4194304 nodes: last"
               " max |cur - prev| = inf, tolerance 1.0e-10 * (1 + |cur|)\n", 1.0)
      for omega in ("3e306", "1e306", "1e308")),
    # past the float range, m or n leaves no resonance to solve
    *(_failure([command, f"--m={10**400}"], EXIT_NUMERIC,
               "melnikov-lab: inner resonance at omega=1.0 is out of range: m or n lies past"
               " the float range\n")
      for command in ("melnikov", "contour", "verify")),
    # rotating m/n ~ 1 solves, but the contour's center 4 n k K overflows; the
    # draws of test_huge_m_or_n_exits_0_2_or_3 never reach an n this large with m/n ~ 1
    _failure(["contour", "--family", "rotating+", "--m", str(N_PAST_FLOAT + 1),
              "--n", str(N_PAST_FLOAT), "--omega", "1", "--beta", "1", "--delta", "0"],
             EXIT_NUMERIC, "melnikov-lab: contour center (inf+...overflows the float range\n"),
    # the same resonance: the closed-form damping coefficient 8nE/k overflows,
    # and at delta = 0 its term is -0 * inf = nan, which simple_zeros divided
    # by (a ZeroDivisionError traceback, exit 1); verify reads its simple-zero
    # hypothesis from that curve whether or not --theta0 is given
    *(_failure(["verify", *theta0, "--family", "rotating+", "--m", str(N_PAST_FLOAT + 1),
                "--n", str(N_PAST_FLOAT), "--omega", "1"], EXIT_NUMERIC,
               "melnikov-lab: Melnikov curve coefficients nan and 0.0 overflow the float range\n",
               2.0)
      for theta0 in ([], ["--theta0", "0.5"])),
    # 10^300 + 1 forcing periods: the flow's full step budget passes its cap
    _failure(["verify", "--family", "rotating+", f"--m={10**300 + 1}", f"--n={10**300}",
              "--omega", "495.51095434752307"], EXIT_NUMERIC,
             "melnikov-lab: integration failure: flow of 1.26802e+298 passes the 16777216-step"
             " cap\n", 1.0),
    # epsilon 1e30 shrinks the flow's steps without end (it hung); at 1e300
    # scipy's first-step guess overflows, which printed three numpy warnings
    *(_failure(["verify", "--m", "3", "--eps", eps], EXIT_NUMERIC,
               "melnikov-lab: integration failure: ...")
      for eps in ("1e30", "1e300")),
    # the distance over a subnormal eps overflows: the ratio printed as Infinity,
    # which is not JSON, and the run exited 0
    _failure(["verify", "--eps", "5e-324"], EXIT_NUMERIC,
             "melnikov-lab: distance/|eps| of the eps 5e-324 rung (distance ...) overflows the"
             " float range\n"),
    # with a huge m_max every n has some m in the window, so the walk never ended;
    # a request whose (m, n) pairs to check pass 2^17 is refused before any solve
    *(_failure(argv, EXIT_USAGE,
               "melnikov-lab: error: --m-max and --n-max give more than 131072 (m, n) pairs to"
               " check; lower them\n", 1.0)
      for argv in (["certify", f"--m-max={N_PAST_FLOAT + 1}", f"--n-max={N_PAST_FLOAT}"],
                   ["certify", "--m-max", "1000", "--n-max", "1000"],
                   ["certify", "--omega", "5e-324", "--n-max", str(10**12)],
                   ["resonances", "--m-max", "1000", "--n-max", "1000"])),
]


# a numpy warning would be raised as an exception here, and escape main
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, stderr, seconds", FAILURES)
def test_failing_argv_exits_as_pinned(argv, code, stderr, seconds):
    start = time.perf_counter()
    with _deadline(seconds):
        exit_code, out, err = _exit_code(argv)
    assert time.perf_counter() - start < seconds
    assert (exit_code, out) == (code, "")
    pattern = ".*".join(re.escape(part) for part in stderr.split("..."))
    assert re.fullmatch(pattern, err, re.DOTALL), err
    if not stderr.startswith("usage: "):
        assert err.startswith("melnikov-lab: ") and err.count("\n") == 1


# the walk over (m, n) stops at the k window's edges; a rectangle scan never ended
@pytest.mark.parametrize("argv", [["resonances", "--m-max", "HUGE"],
                                  ["resonances", "--m-max", "9", "--n-max", "HUGE"],
                                  ["certify", "--m-max", "HUGE"]], ids=" ".join)
def test_huge_m_max_or_n_max_lists_what_100_lists(argv):
    with _deadline(2.0):
        code, out, err = _exit_code([str(10**400) if a == "HUGE" else a for a in argv])
    assert code == EXIT_OK
    assert (out, err) == _exit_code(["100" if a == "HUGE" else a for a in argv])[1:]


def test_slowest_inner_resonance_verifies():
    # inner 1/1 near the smallest omega it solves at (0.01276): each flow lasts
    # 491 time units and takes up to 4,032 attempted steps
    argv = ["verify", "--m", "1", "--omega", "0.0128", "--eps", "1e-3"]
    code, out, _ = call(argv)
    assert code == EXIT_OK
    assert math.isfinite(json.loads(out)["results"][0]["residual"])


def test_infinite_resonance_target_is_skipped_in_tables():
    code, out, _ = call(["resonances", "--family", "inner", "--omega", "5e-324"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header[0] == "family" and rows == []


REAL = st.one_of(
    st.floats(1e-2, 1e2),  # finite
    st.floats(5e-324, 2.0**-1022, exclude_max=True),  # subnormal
    st.floats(1e300, 1.7976931348623157e308),  # huge
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]),  # edge and non-finite
)


@st.composite
def _argv(draw, command):
    """argv for one subcommand; --flag=value keeps '-inf' from reading as a flag."""
    names = ["omega"] if command == "resonances" else ["omega", "beta", "delta"]
    argv = [command] + [f"--{name}={draw(REAL)!r}" for name in names]
    if command == "resonances":
        return argv + [f"--family={draw(st.sampled_from(FAMILIES))}",
                       f"--m-max={draw(st.integers(0, 12))}"]
    if command == "certify":
        return argv + ["--m-max=5", "--n-max=1"]
    if command == "melnikov" and draw(st.booleans()):
        return argv + ["--homoclinic", "--theta-points=2"]
    # mostly coprime pairs, so that few draws stop at the usage check
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (3, 2), (2, 2), (0, 1)]))
    return argv + [f"--family={draw(st.sampled_from(FAMILIES))}", f"--m={m}", f"--n={n}",
                   "--theta-points=2"]


@pytest.mark.parametrize("command", ["resonances", "melnikov", "contour", "certify"])
# No shrinking: every hanging draw it tried would cost the full alarm.
@settings(max_examples=8, phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_0_2_or_3(command, data):
    argv = data.draw(_argv(command), label="argv")
    with _deadline(2.0):
        code, _, err = _exit_code(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (argv, err)
    if code != EXIT_OK:
        assert err.startswith("melnikov-lab: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


# --m and --n: small, or near and past the float range (1.8e308)
HUGE_OR_SMALL = st.one_of(st.integers(1, 20), st.integers(10**300, 10**400))
HUGE = 10**400


@settings(max_examples=200, phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["melnikov", "contour"]), family=st.sampled_from(FAMILIES),
       m=HUGE_OR_SMALL, n=HUGE_OR_SMALL,
       omega=st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308]))
# n alone past the float range leaves no inner resonance; m = omega = 1e300
# sends the contour's phase omega*t past cosh's range
@example(command="melnikov", family="inner", m=1, n=HUGE, omega=1.0)
@example(command="contour", family="rotating-", m=10**300, n=1, omega=1e300)
def test_huge_m_or_n_exits_0_2_or_3(command, family, m, n, omega):
    argv = [command, f"--family={family}", f"--m={m}", f"--n={n}", f"--omega={omega!r}",
            "--theta-points=2"]
    with _deadline(2.0):
        code, _, err = _exit_code(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (argv, err)
    if code != EXIT_OK:
        assert err.startswith("melnikov-lab: ") and err.count("\n") == 1, (argv, err)
