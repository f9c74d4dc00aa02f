import argparse
import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import melnikov_lab
from melnikov_lab.certificate import build_certificate
from melnikov_lab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from melnikov_lab.melnikov import K_WINDOW
from melnikov_lab.pendulum import FAMILIES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestResonancesCommand:
    def test_inner_n1_table(self, capsys):
        code, out, _ = run_cli(capsys, ["resonances", "--omega", "1.0", "--m-max", "9"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["family", "m", "n", "k", "period", "omega_check"]
        assert [int(r[1]) for r in rows] == [2, 3, 4, 5, 6, 7, 8, 9]
        ks = [float(r[3]) for r in rows]
        assert ks == sorted(ks)
        assert all(abs(float(r[5])) <= 1e-9 for r in rows)
        # full precision survives the round trip
        assert all(len(r[3].split("e")[0].rstrip("0")) >= 10 for r in rows)

    def test_empty_result_is_success(self, capsys):
        code, out, _ = run_cli(
            capsys, ["resonances", "--omega", "50.0", "--m-max", "3"]
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == []

    def test_out_of_window_resonance_is_skipped(self, capsys):
        # k K = 1000 pi needs k' ~ 4 exp(-3142): outside every k window
        code, out, _ = run_cli(
            capsys,
            ["resonances", "--family", "rotating+", "--omega", "1e-3", "--m-max", "2"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == []

    def test_unresolvable_moduli_do_not_stop_the_table(self, capsys):
        # inner m >= 79 at omega = 1 lies beyond what the bisection resolves
        code, out, _ = run_cli(capsys, ["resonances", "--omega", "1.0", "--m-max", "100"])
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
    def test_unresolvably_small_rotating_moduli_are_skipped(self, capsys, argv):
        # rotating+ 1/1 at k ~ 5e-4 (omega = 4000) and 1/2 at k ~ 4e-4
        # (omega = 2500) lie below what the k' bisection resolves
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert "melnikov-lab:" not in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["resonances", "--m-max", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert all(rec["family"] == "inner" for rec in records)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "resonances.csv"
        code, out, _ = run_cli(
            capsys, ["resonances", "--m-max", "3", "--out", str(target)]
        )
        assert code == EXIT_OK
        assert out == ""
        header, _ = parse_csv(target.read_text())
        assert header[0] == "family"


class TestMelnikovCommand:
    def test_subharmonic_agreement(self, capsys):
        code, out, err = run_cli(
            capsys,
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

    def test_homoclinic_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys,
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

    def test_homoclinic_rejects_resonance_flags(self, capsys):
        # the homoclinic curve reads no resonance, even a flag at its default value
        for flags in (["--m", "2", "--n", "4"], ["--m", "3"], ["--family", "inner"]):
            with pytest.raises(SystemExit) as exc:
                main(["melnikov", "--homoclinic", *flags])
            assert exc.value.code == EXIT_USAGE
            assert "--homoclinic does not read" in capsys.readouterr().err

    def test_subharmonic_rejects_sign(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["melnikov", "--m", "3", "--sign", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "melnikov-lab: error: melnikov without --homoclinic does not read --sign\n"
        )

    def test_homoclinic_sign_defaults_to_plus(self, capsys):
        argv = ["melnikov", "--homoclinic", "--theta-points", "4"]
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert out == run_cli(capsys, [*argv, "--sign", "1"])[1]
        assert out != run_cli(capsys, [*argv, "--sign", "-1"])[1]

    def test_subharmonic_flags_keep_their_defaults(self, capsys):
        explicit = ["--family", "inner", "--m", "3", "--n", "1"]
        code, out, _ = run_cli(capsys, ["melnikov", "--theta-points", "4", *explicit])
        assert code == EXIT_OK
        assert out == run_cli(capsys, ["melnikov", "--theta-points", "4"])[1]

    def test_unsolvable_resonance_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, ["melnikov", "--family", "inner", "--m", "1", "--n", "2"]
        )
        assert code == EXIT_NUMERIC
        assert "no resonance" in err

    def test_unresolved_resonance_exits_3(self, capsys):
        # the bisection's root misses k K = pi / 4000 by more than 1e-10 of it
        code, out, err = run_cli(capsys, ["melnikov", "--family", "rotating+", "--m", "1",
                                          "--omega", "4000"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "residual" in err

    def test_out_of_range_resonance_exits_3(self, capsys):
        # inner 450/1 at omega = 1 needs K = 706.9, past K(k' = 1e-300) = 692.16
        code, out, err = run_cli(capsys, ["melnikov", "--m", "450", "--omega", "1"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "out of range" in err

    def test_theta_points_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, ["melnikov", "--m", "3", "--theta-points", "4"]
        )
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
    def test_exits_0_or_3(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code in (EXIT_OK, EXIT_NUMERIC)
        if code == EXIT_OK and argv[0] == "certify":
            assert json.loads(out)["chaos"]["threshold"] == math.inf

    def test_overflowing_quadrature_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["melnikov", "--beta", "1e308", "--delta", "1e308"])
        assert code == EXIT_NUMERIC
        assert "Melnikov value nan at beta=1e+308" in err

    def test_overflowing_contour_exits_3(self, capsys):
        code, out, err = run_cli(capsys, ["contour", "--beta", "1e308"])
        assert code == EXIT_NUMERIC and out == ""
        assert "residue closed form (inf+nanj)" in err

    # a numpy warning would be raised as an exception here, and escape main
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["contour"], ["melnikov", "--m", "3"], ["certify"], ["certify", "--delta", "1"]],
        ids=" ".join,
    )
    def test_overflow_prints_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, [*argv, "--beta", "1e308"])
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("melnikov-lab: ") and err.count("\n") == 1
        assert "overflows the float range" in err
        if argv[0] == "certify":
            # the least contour integral overflows too, but the curve records
            # are built first, so the Melnikov value is the one reported
            delta = 1.0 if "--delta" in argv else 0.0
            assert err == (
                f"melnikov-lab: Melnikov value inf at beta=1e+308, delta={delta}"
                " overflows the float range\n"
            )

    def test_overflowing_certificate_residue_exits_3(self, capsys):
        # inner 461/1 at omega = 460 has omega K' ~ 1733, past cosh's range
        code, out, err = run_cli(
            capsys, ["certify", "--omega", "460", "--m-max", "461", "--n-max", "1"]
        )
        assert code == EXIT_NUMERIC and out == ""
        assert "inner 461/1" in err and "overflows" in err

    def test_overflowing_residue_exits_3(self, capsys, monkeypatch):
        from melnikov_lab import cli
        from melnikov_lab.melnikov import MelnikovKernels

        # the numeric kernels fail first at this resonance; skip them to reach the residue
        zero = MelnikovKernels(0j, 0j, 0j, 128, 0.0)
        monkeypatch.setattr(cli, "contour_kernels", lambda r, spec: zero)
        code, out, err = run_cli(
            capsys, ["contour", "--m", "501", "--omega", "460", "--theta-points", "2"]
        )
        assert code == EXIT_NUMERIC and out == ""
        assert "overflows" in err


class TestContourCommand:
    def test_pole_proximity_exits_3(self, capsys, monkeypatch):
        import melnikov_lab.cli as cli
        from melnikov_lab.elliptic import PoleProximityError

        def at_pole(*args, **kwargs):
            raise PoleProximityError("argument within pole clearance")

        monkeypatch.setattr(cli, "contour_kernels", at_pole)
        code, out, err = run_cli(capsys, ["contour", "--m", "3"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "pole" in err

    def test_three_radii_match_closed_form(self, capsys):
        for family in ("rotating+", "inner"):
            code, out, _ = run_cli(
                capsys,
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
    def test_certificate_document(self, capsys):
        code, out, err = run_cli(
            capsys, ["certify", "--beta", "1", "--delta", "1", "--m-max", "5"]
        )
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
        # plain json.dumps, as the CLI writes it
        cert = build_certificate(1.0, delta, 1.0)
        assert json.loads(json.dumps(cert)) == cert

    def test_unresolvable_moduli_do_not_stop_the_certificate(self, capsys):
        # rotating 8/1 at omega = 0.2 needs k' ~ 1e-54, beyond the bisection
        code, out, _ = run_cli(capsys, ["certify", "--omega", "0.2"])
        assert code == EXIT_OK
        assert json.loads(out)["prop_4b"]["status"] == "applies"

    def test_no_resonance_leaves_every_proposition_inconclusive(self, capsys):
        # at omega = 0.01 every resonant modulus lies beyond K_WINDOW
        code, out, err = run_cli(
            capsys, ["certify", "--beta", "1", "--delta", "1", "--omega", "0.01"]
        )
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4c"]["witness"]["contour_integrals"] == []
        for prop in ("prop_4a", "prop_4b", "prop_4c"):
            assert cert[prop]["status"] == "inconclusive"
        assert "prop 4c: inconclusive" in err

    def test_zero_forcing_is_inconclusive(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", "--beta", "0", "--delta", "1", "--m-max", "5"]
        )
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4a"]["status"] == "applies"
        assert cert["prop_4b"]["status"] == "inconclusive"
        assert cert["prop_4c"]["status"] == "inconclusive"

    def test_zero_damping_chaos(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", "--beta", "1", "--delta", "0", "--m-max", "5"]
        )
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["prop_4a"]["status"] == "inconclusive"
        assert cert["prop_4c"]["status"] == "applies"
        assert cert["chaos"]["condition_holds"]


class TestVerifyCommand:
    def test_scaling_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
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

    def test_explicit_theta0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "--m", "3", "--delta", "0",
                "--theta0", str(math.pi / 2.0), "--eps", "1e-3",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta0"] == pytest.approx(math.pi / 2.0)

    def test_small_beta_seeds_at_a_simple_zero(self, capsys):
        # the beta = 1 curve scaled by 1e-13 has the same simple zeros
        code, out, _ = run_cli(
            capsys, ["verify", "--m", "3", "--beta", "1e-13", "--eps", "1e-3", "5e-4"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta0"] == 0.5 * math.pi
        assert doc["simple_zero_hypothesis"]
        assert all(rec["converged"] for rec in doc["results"])

    def test_zero_eps_rung_is_recorded_but_not_scaled(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--m", "3", "--eps", "0", "1e-3", "5e-4"])
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

    def test_negative_eps_in_exponent_notation(self, capsys):
        # argparse alone reads -5e-4 as an unknown flag and exits 2
        code, out, _ = run_cli(capsys, ["verify", "--m", "3", "--eps", "1e-3", "-5e-4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [rec["eps"] for rec in doc["results"]] == [1e-3, -5e-4]
        assert all(rec["converged"] for rec in doc["results"])
        assert doc["scaling"]["within_band"]

    def test_integration_failure_exits_3(self, capsys, monkeypatch):
        import melnikov_lab.poincare as poincare

        def collapsed(*args, **kwargs):
            return SimpleNamespace(success=False, message="step size collapsed")

        monkeypatch.setattr(poincare, "solve_ivp", collapsed)
        code, out, err = run_cli(capsys, ["verify", "--m", "3", "--eps", "1e-3"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "integration failure" in err


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
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

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
    def test_unread_flags_exit_2(self, capsys, argv):
        # argparse rejects a flag the subcommand does not read, before validation
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_exponent_value_reaches_validation(self, capsys):
        # the value -1e-3 gets _validate's message, not argparse's
        with pytest.raises(SystemExit) as exc:
            main(["melnikov", "--omega", "-1e-3"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == "melnikov-lab: error: omega must be positive\n"

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

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


def test_import_leaves_scipy_integrate_unloaded():
    src = str(Path(melnikov_lab.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# omega = 5e-324 overflows the resonance target to inf; omega >= 2e306 the
# homoclinic cycle count, toward which the first level doubled forever
# (1e306 printed a 309-digit node count)
EXIT_3_ARGV = [
    ["melnikov", "--family", "inner", "--m", "5", "--n", "1", "--omega", "5e-324",
     "--beta", "1", "--delta", "1", "--theta-points", "1"],
    ["melnikov", "--homoclinic", "--omega", "3e306"],
    ["melnikov", "--homoclinic", "--omega", "1e306"],
    ["melnikov", "--homoclinic", "--omega", "1e308"],
]


@pytest.mark.parametrize("argv", EXIT_3_ARGV, ids=" ".join)
def test_extreme_omega_exits_3_at_once(argv):
    start = time.perf_counter()
    with _deadline(2.0):
        code, out, err = _exit_code(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("melnikov-lab: ") and err.count("\n") == 1
    assert len(err) < 200


def test_flow_past_the_step_cap_fails_before_it_runs():
    # 10^300 + 1 forcing periods: the flow's full step budget passes its cap
    import melnikov_lab.poincare  # noqa: F401  (scipy.integrate's import is not timed)

    argv = ["verify", "--family", "rotating+", f"--m={10**300 + 1}", f"--n={10**300}",
            "--omega", "495.51095434752307"]
    start = time.perf_counter()
    with _deadline(2.0):
        code, out, err = _exit_code(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC and out == ""
    assert err == ("melnikov-lab: integration failure: flow of 1.26802e+298 passes the "
                   "16777216-step cap\n")


# epsilon 1e30 shrinks the flow's steps without end (it hung); at 1e300
# scipy's first-step guess overflows, which printed three numpy warnings
HUGE_EPS_ARGV = [["verify", "--m", "3", "--eps", eps] for eps in ("1e30", "1e300")]


@pytest.mark.parametrize("argv", HUGE_EPS_ARGV, ids=" ".join)
def test_huge_eps_fails_the_flow_in_one_line(argv):
    with _deadline(5.0):
        code, out, err = _exit_code(argv)
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("melnikov-lab: integration failure: ") and err.count("\n") == 1


# the walk over (m, n) stops at the k window's edges; a rectangle scan never ended
@pytest.mark.parametrize("argv", [["resonances", "--m-max", "HUGE"],
                                  ["resonances", "--m-max", "9", "--n-max", "HUGE"],
                                  ["certify", "--m-max", "HUGE"]], ids=" ".join)
def test_huge_m_max_or_n_max_lists_what_100_lists(argv):
    with _deadline(2.0):
        code, out, err = _exit_code([str(10**400) if a == "HUGE" else a for a in argv])
    assert code == EXIT_OK
    assert (out, err) == _exit_code(["100" if a == "HUGE" else a for a in argv])[1:]


def test_slowest_inner_resonance_verifies(capsys):
    # inner 1/1 near the smallest omega it solves at (0.01276): each flow lasts
    # 491 time units and takes up to 4,032 attempted steps
    argv = ["verify", "--m", "1", "--omega", "0.0128", "--eps", "1e-3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert math.isfinite(json.loads(out)["results"][0]["residual"])


def test_infinite_resonance_target_is_skipped_in_tables(capsys):
    code, out, _ = run_cli(capsys, ["resonances", "--family", "inner", "--omega", "5e-324"])
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
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), suppress_health_check=[HealthCheck.too_slow])
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


@pytest.mark.parametrize("command", ["melnikov", "contour", "verify"])
def test_m_past_the_float_range_is_out_of_range(command):
    code, out, err = _exit_code([command, f"--m={HUGE}"])
    assert code == EXIT_NUMERIC and out == ""
    assert err == ("melnikov-lab: inner resonance at omega=1.0 is out of range: "
                   "m or n lies past the float range\n")


def test_contour_center_past_the_float_range_exits_3():
    # rotating m/n ~ 1 solves, but the contour's center 4 n k K overflows; the
    # draws of the property below never reach an n this large with m/n ~ 1
    n = 5 * 10**307
    code, out, err = _exit_code(["contour", "--family", "rotating+", "--m", str(n + 1),
                                 "--n", str(n), "--omega", "1", "--beta", "1", "--delta", "0"])
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("melnikov-lab: contour center (inf+") and err.count("\n") == 1
    assert err.endswith("overflows the float range\n")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), suppress_health_check=[HealthCheck.too_slow])
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
