import ast
import functools
import inspect
import math
import re
import textwrap

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import rk

from melnikov_lab import poincare
from melnikov_lab.melnikov import (
    IntegrationFailure,
    closed_form_subharmonic,
    simple_zeros,
    solve_resonance,
)
from melnikov_lab.pendulum import (
    INNER,
    orbit_state,
    pendulum_system,
    wrap_angle,
)
from melnikov_lab.poincare import (
    _FLOW_TOL,
    _RESIDUAL_TOL,
    _melnikov_seeds,
    _newton,
    _variational_map,
    _winding,
    find_subharmonic,
    scaling_band,
)
from oracles import fixed_tolerance_newton


# Hypothesis phases of the properties that run flows: no shrinking, which
# under a kernel fault would rerun failing flows for up to five minutes per
# property; a failure reports the first failing example as drawn
NO_SHRINK = (Phase.explicit, Phase.generate)

# Damping coefficients of the properties that run flows: exactly 0 as well as
# positive, since the kernel forms stage velocities only where eps*delta != 0
DELTAS = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

# criterion 8's positive-control ladder on inner 3/1, with the rung that once
# fell in a Newton gap, and the two rotating 1/1 rungs per direction
POSITIVE_LADDER = [1e-3 * 2.0 ** (-0.5 * j) for j in range(8)] + [6.853850625855076e-4]
FIXED_POINT_RUNGS = [("inner", 3, eps) for eps in POSITIVE_LADDER] + [
    (family, 1, eps)
    for family in ("rotating+", "rotating-")
    for eps in (1e-3, 1e-3 / math.sqrt(2.0))
]

# (family, m, beta, delta, eps list): criterion 8's positive control and its
# damped negative control (delta None), the rotating 1/1 rungs, and verify
# --m 3 --beta 1e-13, where ||J^-1|| reaches 5.5e9: with no re-flow of a
# coarse flow that cannot resolve its step, its distances double
MATCHED_TOL_CASES = [
    ("inner", 3, 1.0, 0.0, (1e-3, 5e-4, 2.5e-4)),
    ("inner", 3, 1.0, None, (1e-3, 5e-4)),
    ("rotating+", 1, 1.0, 0.0, (1e-3, 1e-3 / math.sqrt(2.0))),
    ("rotating-", 1, 1.0, 0.0, (1e-3, 1e-3 / math.sqrt(2.0))),
    ("inner", 3, 1e-13, 0.0, (1e-3, 5e-4, 2.5e-4)),
]


def _scipy_map(sys_, eps, m, z, theta):
    """scipy's own DOP853 on the 2-D forced pendulum from z, at the library's tolerance."""
    beta, delta, omega = sys_.beta, sys_.delta, sys_.omega

    def rhs(t, y):
        forcing = eps * (beta * math.cos(omega * t + theta) - delta * y[1])
        return [y[1], -math.sin(y[0]) + forcing]

    duration = 2.0 * math.pi * m / omega
    sol = solve_ivp(rhs, (0.0, duration), z, method="DOP853", rtol=_FLOW_TOL, atol=_FLOW_TOL)
    assert sol.success
    return sol


@pytest.fixture(scope="module")
def resonance():
    return solve_resonance(INNER, 1.0, 3, 1)


@pytest.fixture(scope="module")
def system():
    return pendulum_system(1.0, 0.0, 1.0)


class TestStroboscopicMap:
    def test_origin_is_fixed_unforced(self, system):
        out, _ = _variational_map(system, 0.0, 1, (0.0, 0.0), 0.0)
        assert np.max(np.abs(out)) <= 1e-12

    def test_resonant_orbit_closes_at_eps_zero(self, system, resonance):
        # the m-fold forcing period equals n unperturbed periods
        start = orbit_state(resonance.orbit, 0.8)
        out, _ = _variational_map(system, 0.0, resonance.m, (start.x1, start.x2), 0.0)
        assert out == pytest.approx([start.x1, start.x2], abs=1e-9)

    def test_energy_preserved_at_eps_zero(self, system):
        start = (1.0, 0.3)
        out, _ = _variational_map(system, 0.0, 2, start, 0.0)
        h = lambda p: 1.0 - math.cos(p[0]) + 0.5 * p[1] ** 2
        assert h(out) == pytest.approx(h(start), abs=1e-10)

    def test_forcing_moves_the_origin(self, system):
        out, _ = _variational_map(system, 1e-3, 1, (0.0, 0.0), 0.0)
        assert np.hypot(*out) > 1e-5


class TestFindSubharmonic:
    def test_positive_control_converges(self, system, resonance):
        res = find_subharmonic(system, 1e-3, resonance, math.pi / 2.0)
        assert res.converged
        assert res.residual <= 1e-10
        # persists at O(eps) distance from the unperturbed orbit
        assert 1e-5 < res.distance_to_unperturbed < 1e-2
        assert res.floquet_multipliers is not None
        # delta = 0 keeps the map area-preserving: multipliers multiply to 1
        prod = res.floquet_multipliers[0] * res.floquet_multipliers[1]
        assert abs(prod) == pytest.approx(1.0, abs=1e-3)

    def test_fixed_point_is_actually_fixed(self, system, resonance):
        res = find_subharmonic(system, 1e-3, resonance, math.pi / 2.0)
        z = (res.point.x1, res.point.x2)
        out, _ = _variational_map(system, 1e-3, resonance.m, z, math.pi / 2.0)
        assert out == pytest.approx(z, abs=1e-9)

    def test_system_omega_must_be_the_resonance_omega(self, resonance, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("flowed a system off the resonance's omega")

        monkeypatch.setattr(poincare, "solve_ivp", no_flow)
        with pytest.raises(ValueError, match="omega"):
            find_subharmonic(pendulum_system(1.0, 0.0, 1.05), 1e-3, resonance, math.pi / 2.0)

    @pytest.mark.parametrize(
        "eps, theta0",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1e-3, math.inf), (1e-3, math.nan)],
    )
    def test_non_finite_eps_or_theta0_flows_nothing(
        self, system, resonance, eps, theta0, monkeypatch
    ):
        def no_flow(*args, **kwargs):
            raise AssertionError("flowed a non-finite eps or theta0")

        monkeypatch.setattr(poincare, "solve_ivp", no_flow)
        with pytest.raises(ValueError, match="must be finite"):
            find_subharmonic(system, eps, resonance, theta0)

    def test_newton_gap_rung_converges_in_band(self, system, resonance):
        # eps = 6.8538506e-4 sat between converging rungs but found no fixed
        # point with the finite-difference Jacobian
        eps_list = [1e-3, 6.853850625855076e-4]
        distances = []
        for eps in eps_list:
            res = find_subharmonic(system, eps, resonance, math.pi / 2.0)
            assert res.converged
            assert res.residual <= 1e-10
            distances.append(res.distance_to_unperturbed)
        ok, ratios = scaling_band(eps_list, distances)
        assert ok, ratios

    @pytest.mark.parametrize("family", ["rotating+", "rotating-"])
    def test_rotating_orbit_converges(self, family):
        # x1 winds by sign * 2*pi per period; the residual must discount it
        r = solve_resonance(family, 1.0, 1, 1)
        sys_ = pendulum_system(1.0, 0.0, 1.0)
        eps_list = [1e-3, 1e-3 / math.sqrt(2.0)]
        distances = []
        for eps in eps_list:
            res = find_subharmonic(sys_, eps, r, math.pi / 2.0)
            assert res.converged
            assert res.residual <= 1e-10
            distances.append(res.distance_to_unperturbed)
        ok, ratios = scaling_band(eps_list, distances)
        assert ok, ratios
        assert all(1e-2 < q < 1e1 for q in ratios)

    @pytest.mark.parametrize("family, m, eps", FIXED_POINT_RUNGS)
    def test_fixed_point_holds_under_the_plain_map(self, family, m, eps):
        # Newton judges convergence on the variational flow alone; scipy's
        # own 2-D flow from the reported point must agree
        r = solve_resonance(family, 1.0, m, 1)
        theta0 = math.pi / 2.0
        sys_ = pendulum_system(1.0, 0.0, 1.0)
        res = find_subharmonic(sys_, eps, r, theta0)
        assert res.converged
        z = np.array([res.point.x1, res.point.x2])
        gap = _scipy_map(sys_, eps, m, z, theta0).y[:, -1] - z - _winding(r)
        plain = float(np.linalg.norm(gap))
        assert plain <= _RESIDUAL_TOL
        assert abs(res.residual - plain) <= 1e-11

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_multipliers_obey_liouville(self, resonance, delta):
        # Liouville: the flow contracts area at rate eps * delta, so
        # det DP = exp(-eps * delta * period)
        eps = 1e-3
        sys_ = pendulum_system(1.0, delta, 1.0)
        res = find_subharmonic(sys_, eps, resonance, math.pi / 2.0)
        assert res.floquet_multipliers is not None
        prod = res.floquet_multipliers[0] * res.floquet_multipliers[1]
        period = 2.0 * math.pi * resonance.m / sys_.omega
        assert abs(prod - math.exp(-eps * delta * period)) <= 1e-8


class TestMelnikovSeeds:
    @pytest.mark.parametrize("family, m", [("inner", 3), ("rotating+", 1), ("rotating-", 1)])
    def test_newton_converges_within_eps_of_its_seed(self, family, m):
        # delta puts the zeros at cos(theta*) = +-0.5, so theta* and -theta*
        # differ and theta0 = 0.3 tells the seed t0 = (theta0 - theta*)/omega
        # from the mirrored (theta* - theta0)/omega, whose Newton runs end
        # 1.6e3 to 7.5e3 eps away from their seeds
        eps, theta0 = 2.5e-4, 0.3
        r = solve_resonance(family, 1.0, m, 1)
        coeff = closed_form_subharmonic(r, 1.0, 0.0).cos_coeff
        delta = 0.5 * abs(coeff) / -closed_form_subharmonic(r, 0.0, 1.0).const_term
        zeros = simple_zeros(closed_form_subharmonic(r, 1.0, delta))
        assert [round(math.cos(z.theta), 12) for z in zeros] == [
            math.copysign(0.5, coeff)
        ] * 2
        sys_ = pendulum_system(1.0, delta, 1.0)
        seeds = _melnikov_seeds(sys_, r, theta0)
        assert len(seeds) == 2
        gaps = []
        for seed in seeds:
            z, _, converged, _ = _newton(
                sys_, eps, m, (seed.x1, seed.x2), theta0, _winding(r)
            )
            if converged:
                gaps.append(math.hypot(wrap_angle(z[0] - seed.x1), z[1] - seed.x2))
        assert gaps
        assert max(gaps) <= eps

    def test_last_newton_step_is_checked(self, system, resonance, monkeypatch):
        # the second seed meets _RESIDUAL_TOL at the point after its 3rd step:
        # with _NEWTON_MAX = 3 that point is the last one Newton flows, and
        # it converges on a flow at _FLOW_TOL
        theta0 = math.pi / 2.0
        monkeypatch.setattr(poincare, "_NEWTON_MAX", 3)
        flows = []
        variational = poincare._variational_map

        def counted(sys_, eps, m, z, theta, tol):
            flows.append((tuple(z), tol))
            return variational(sys_, eps, m, z, theta, tol)

        monkeypatch.setattr(poincare, "_variational_map", counted)
        seed = _melnikov_seeds(system, resonance, theta0)[1]
        z, f, converged, _ = _newton(
            system, 1e-3, resonance.m, (seed.x1, seed.x2), theta0, _winding(resonance)
        )
        # a re-flow at the same z is not a step
        points = [p for i, (p, _) in enumerate(flows) if i == 0 or p != flows[i - 1][0]]
        assert len(points) == 4 and len(set(points)) == 4
        assert flows[-1] == (tuple(z), _FLOW_TOL)
        assert np.linalg.norm(f) <= _RESIDUAL_TOL
        assert converged

    def test_singular_jacobian_stops_after_one_flow(self, system, resonance, monkeypatch):
        # DP = I makes J = DP - I singular, so no Newton step can be taken
        flows = []

        def identity_tangent(sys_, eps, m, z, theta0, tol):
            flows.append(z)
            return np.array([1e-3, 0.0]), np.eye(2)

        monkeypatch.setattr(poincare, "_variational_map", identity_tangent)
        z, f, converged, dp = _newton(
            system, 1e-3, resonance.m, (0.0, 0.0), 0.0, _winding(resonance)
        )
        assert len(flows) == 1
        assert not converged
        assert np.array_equal(z, [0.0, 0.0])
        assert np.array_equal(f, [1e-3, 0.0])
        assert np.array_equal(dp, np.eye(2))

    def test_run_that_stops_contracting_is_the_fixed_tolerance_run(self, monkeypatch):
        # rotating+ 1/1's first seed wanders: its third step is longer than
        # its second, so Newton starts over at _FLOW_TOL and answers exactly
        # as the fixed-tolerance run, which ends unconverged after 26 flows
        flows = []
        variational = poincare._variational_map

        def counted(sys_, eps, m, z, theta, tol):
            flows.append(tol)
            return variational(sys_, eps, m, z, theta, tol)

        r = solve_resonance("rotating+", 1.0, 1, 1)
        sys_, theta0 = pendulum_system(1.0, 0.0, 1.0), math.pi / 2.0
        seed = _melnikov_seeds(sys_, r, theta0)[0]
        args = (sys_, 1e-3, 1, (seed.x1, seed.x2), theta0, _winding(r))
        want = fixed_tolerance_newton(*args)
        monkeypatch.setattr(poincare, "_variational_map", counted)
        got = _newton(*args)
        assert not got[2]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert flows[0] == poincare._COARSE_FLOW_TOL
        assert flows[-26:] == [_FLOW_TOL] * 26 and len(flows) > 26

    def test_coarse_flow_past_its_share_falls_back(self, system, resonance, monkeypatch):
        # at 5 attempts per unit time a flow at _FLOW_TOL of this map spends
        # its budget of 95, and one at _COARSE_FLOW_TOL would fit it: its
        # share of 24 fails it, so Newton falls back to _FLOW_TOL and fails
        # as the fixed-tolerance run does
        monkeypatch.setattr(poincare, "_STEPS_PER_UNIT_TIME", 5)
        seed = _melnikov_seeds(system, resonance, math.pi / 2.0)[1]
        args = (system, 1e-3, resonance.m, (seed.x1, seed.x2), math.pi / 2.0)
        with pytest.raises(IntegrationFailure, match="step budget of 95 spent"):
            fixed_tolerance_newton(*args, _winding(resonance))
        with pytest.raises(IntegrationFailure, match="step budget of 95 spent"):
            _newton(*args, _winding(resonance))
        monkeypatch.setattr(poincare, "_COARSE_BUDGET", 1.0)
        _variational_map(*args, poincare._COARSE_FLOW_TOL)

    def test_failure_after_starting_over_is_raised(self, resonance, monkeypatch):
        # J = I makes each step f itself: the second, from a coarse flow, is
        # no shorter than the first, so Newton starts over from z0 at
        # _FLOW_TOL, and the fixed-tolerance run's second flow fails
        flows = []

        def stub(sys_, eps, m, z, theta0, tol):
            flows.append((tuple(z), tol))
            if len(flows) == 4:
                raise IntegrationFailure("step budget spent")
            assert len(flows) < 4
            return z + np.array([1e-3, 0.0]), 2.0 * np.eye(2)

        monkeypatch.setattr(poincare, "_variational_map", stub)
        with pytest.raises(IntegrationFailure, match="step budget spent"):
            _newton(None, 1e-3, resonance.m, (0.0, 0.0), 0.0, np.zeros(2))
        assert [z for z, _ in flows] == [(0.0, 0.0), (-1e-3, 0.0)] * 2
        assert [tol > _FLOW_TOL for _, tol in flows] == [True, True, False, False]

    def test_coarse_step_that_stops_contracting_starts_over(self, resonance, monkeypatch):
        # J = I makes each step f itself.  The coarse seed flow's step of 1e-7
        # is unresolved, so z0 flows again at _FLOW_TOL and steps by 1e-3;
        # the next flow is coarse and its step no shorter, so Newton starts
        # over from z0 at _FLOW_TOL, though every step so far came from a
        # flow at _FLOW_TOL, and answers as the fixed-tolerance run
        flows = []

        def stub(sys_, eps, m, z, theta0, tol):
            flows.append((tuple(z), tol))
            f = {
                ((0.0, 0.0), True): 1e-7,
                ((0.0, 0.0), False): 1e-3,
                ((-1e-3, 0.0), True): 1e-3,
                ((-1e-3, 0.0), False): 1e-12,
            }[tuple(z), tol > _FLOW_TOL]
            return z + np.array([f, 0.0]), 2.0 * np.eye(2)

        monkeypatch.setattr(poincare, "_variational_map", stub)
        args = (None, 1e-3, resonance.m, (0.0, 0.0), 0.0, np.zeros(2))
        want = fixed_tolerance_newton(*args)
        flows.clear()
        got = _newton(*args)
        assert got[2]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert [z for z, _ in flows] == [(0.0, 0.0)] * 2 + [(-1e-3, 0.0), (0.0, 0.0), (-1e-3, 0.0)]
        assert [tol > _FLOW_TOL for _, tol in flows] == [True, False, True, False, False]

    @pytest.mark.parametrize("fixed_run_fails", [False, True])
    def test_failed_full_flow_off_the_fixed_path_starts_over(
        self, resonance, monkeypatch, fixed_run_fails
    ):
        # J = I makes each step f itself.  The coarse seed flow's step of
        # 1e-5 is resolved and short enough that the next flow runs at
        # _FLOW_TOL, which fails; that step did not come from a flow at
        # _FLOW_TOL, so Newton starts over from z0 at _FLOW_TOL and raises
        # only if a flow of that run fails
        flows = []
        fixed_step = 1e-5 if fixed_run_fails else 2e-5

        def stub(sys_, eps, m, z, theta0, tol):
            flows.append((tuple(z), tol))
            if z[0] == -1e-5:
                raise IntegrationFailure("step budget spent")
            f = (1e-5 if tol > _FLOW_TOL else fixed_step) if z[0] == 0.0 else 1e-12
            return z + np.array([f, 0.0]), 2.0 * np.eye(2)

        monkeypatch.setattr(poincare, "_variational_map", stub)
        args = (None, 1e-3, resonance.m, (0.0, 0.0), 0.0, np.zeros(2))
        if fixed_run_fails:
            with pytest.raises(IntegrationFailure, match="step budget spent"):
                _newton(*args)
        else:
            want = fixed_tolerance_newton(*args)
            flows.clear()
            got = _newton(*args)
            assert got[2]
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert flows == [
            ((0.0, 0.0), poincare._COARSE_FLOW_TOL),
            ((-1e-5, 0.0), _FLOW_TOL),
            ((0.0, 0.0), _FLOW_TOL),
            ((-fixed_step, 0.0), _FLOW_TOL),
        ]

    def test_positive_control_takes_few_narrow_flows(self, system, resonance, monkeypatch):
        flows = []

        def counted(rhs, span, y0, **options):
            sol = solve_ivp(rhs, span, y0, **options)
            flows.append((len(y0), sol.nfev))
            return sol

        monkeypatch.setattr(poincare, "solve_ivp", counted)
        res = find_subharmonic(system, 1e-3, resonance, math.pi / 2.0)
        assert res.converged
        # one Newton run per Melnikov zero on state + tangent-map flows and no
        # other flow; all at _FLOW_TOL took 9,360 RHS evaluations in 6 flows
        assert all(size == 6 for size, _ in flows)
        assert sum(nfev for _, nfev in flows) <= 8000

    def test_matched_tolerances_keep_the_fixed_tolerance_answers(self, monkeypatch):
        # each seed's Newton run against the same run with every flow at
        # _FLOW_TOL: the same converged flags and fixed points.  A run that
        # contracts to the end on matched flows takes fewer RHS evaluations;
        # one that stops contracting answers as the reference, bit for bit,
        # after the coarse flows it ran before it stopped (at most 3 here)
        flows = []

        def counted(*args, **options):
            sol = solve_ivp(*args, **options)
            flows.append(sol.nfev)
            return sol

        monkeypatch.setattr(poincare, "solve_ivp", counted)
        totals = {False: [0, 0], True: [0, 0]}  # by "the same answer, bit for bit"
        for family, m, beta, delta, eps_list in MATCHED_TOL_CASES:
            r = solve_resonance(family, 1.0, m, 1)
            if delta is None:
                mod = r.modulus
                coeff = closed_form_subharmonic(r, 1.0, 0.0).cos_coeff
                delta = 2.0 * coeff / (16.0 * (mod.E - mod.k_prime**2 * mod.K))
            sys_, theta0 = pendulum_system(beta, delta, 1.0), math.pi / 2.0
            for eps in eps_list:
                for seed in _melnikov_seeds(sys_, r, theta0):
                    runs, costs = [], []
                    for newton in (_newton, fixed_tolerance_newton):
                        start = len(flows)
                        runs.append(
                            newton(sys_, eps, m, (seed.x1, seed.x2), theta0, _winding(r))
                        )
                        costs.append(sum(flows[start:]))
                    (z, _, converged, _), (want_z, _, want_converged, _) = runs
                    assert converged == want_converged, (family, beta, delta, eps)
                    if converged:
                        got, want = (poincare._distance_to_orbit(p, r) for p in (z, want_z))
                        assert abs(got - want) <= 1e-9 * want, (family, beta, delta, eps)
                    same = all(np.array_equal(a, b) for a, b in zip(*runs))
                    totals[same] = [t + c for t, c in zip(totals[same], costs)]
        (matched, reference), (fallen_back, its_reference) = totals[False], totals[True]
        assert matched <= 0.85 * reference, totals
        assert fallen_back <= 1.1 * its_reference, totals


class TestVariationalEngine:
    def test_dp_matches_central_difference(self, system, resonance):
        eps, theta, z = 1e-3, math.pi / 2.0, np.array([0.9, 0.4])
        final, dp = _variational_map(system, eps, resonance.m, z, theta)

        def strobe(point):
            return _variational_map(system, eps, resonance.m, point, theta)[0]

        h = 1e-5
        fd = np.zeros((2, 2))
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = h
            fd[:, j] = (strobe(z + dz) - strobe(z - dz)) / (2.0 * h)
        assert final == pytest.approx(strobe(z), abs=1e-9)
        assert np.max(np.abs(dp - fd)) <= 1e-6

    @settings(
        max_examples=24, deadline=None, derandomize=True, database=None, phases=NO_SHRINK
    )
    @given(
        st.sampled_from([("inner", 3), ("inner", 5), ("rotating+", 1), ("rotating-", 1)]),
        st.floats(0.0, 1.0),
        st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
        st.floats(-5.0, -3.0),
        DELTAS,
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_state_is_the_stroboscopic_map(self, family, phase, offset, log_eps, delta, theta):
        # the variational flow steps on (x1, x2) alone, so its state is
        # scipy's 2-D map up to round-off, not up to the flow tolerance
        tag, m = family
        r = solve_resonance(tag, 1.0, m, 1)
        start = orbit_state(r.orbit, phase * r.orbit.period)
        z = np.array([start.x1, start.x2]) + offset
        sys_, eps = pendulum_system(1.0, delta, 1.0), 10.0**log_eps
        final, dp = _variational_map(sys_, eps, m, z, theta)
        bound = 1e-11
        if m == 5:
            # near the separatrix the map magnifies round-off up to 1e5-fold:
            # there the 2-D map itself moves by up to 3.5e-9 when its
            # tolerance changes by four ulps
            bound += 1e-12 * np.linalg.norm(dp)
        want = _scipy_map(sys_, eps, m, z, theta).y[:, -1]
        assert np.max(np.abs(final - want)) <= bound


# The sums of the kernel's stage code in source order, each named by the
# tableau row it reads: stage i's position (abar_i = (A A)_i, from stage 3
# on, as abar's first two rows are 0) and damping term (a_i), the new pair
# (bbar = b A, then b), and in the state pass alone the error terms (e5 A,
# e3 A, e5, e3).  Entry j of row r is named r + j, as aa31 for abar_31 and
# ee5_4 for (e5 A)_4.
_STAGE_ROWS = [row for i in range(2, 13) for row in ([f"aa{i}"] if i > 2 else []) + [f"a{i}"]]
PASS_ROWS = {
    "state": _STAGE_ROWS + ["bb", "b", "ee5_", "ee3_", "e5_", "e3_"],
    "column": _STAGE_ROWS + ["bb", "b"],
}


def _times_a(w):
    """w A for a row w of scipy's DOP853 weights, each entry one math.fsum."""
    rows = DOP853.A.tolist()
    return [math.fsum(wj * row[k] for wj, row in zip(w, rows)) for k in range(12)]


def _literal_terms(node, sign=1.0):
    """[(weight, name)] if node is a sum of float-literal * name products, else None.

    A term after a minus counts with its weight negated.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _literal_terms(node.left, sign)
        right = _literal_terms(node.right, -sign if isinstance(node.op, ast.Sub) else sign)
        return None if left is None or right is None else left + right
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        if isinstance(node.right, ast.Name):
            try:
                weight = ast.literal_eval(node.left)
            except ValueError:
                return None
            if isinstance(weight, float):
                return [(sign * weight, node.right.id)]
    return None


def _literal_sums(node):
    """Each sum of float-literal * name products in node, in source order."""
    terms = _literal_terms(node)
    if terms is not None:
        return [terms]
    return [s for child in ast.iter_child_nodes(node) for s in _literal_sums(child)]


def _kernel_weights():
    """{pass: {prefix: {name: value}}} of the weight literals of poincare._attempt.

    They are read from the kernel's source with ast, so these are the
    values it computes with.  Pass "forcing" holds the c_i that multiply h
    in the stage forcings efi.  Passes "state" and "column" (the loop over
    the tangent columns) hold the c_i that multiply the velocity (x2, v) in
    the stage positions, and their sums of weight * gj, named after
    PASS_ROWS.  Each sum reads its terms in tableau order.  The error
    norm's 0.01 * sum3 is the one other literal sum.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(poincare._attempt)))
    c_terms = {"h": [], "x2": [], "v": []}
    stage_sums, others = [], []
    for terms in _literal_sums(tree):
        names = [name for _, name in terms]
        if len(terms) == 1 and names[0] in c_terms:
            c_terms[names[0]].append(terms[0][0])
        elif all(re.fullmatch(r"g\d+", name) for name in names):
            stage_sums.append([(w, int(name[1:])) for w, name in terms])
        else:
            others.append(terms)
    assert others == [[(0.01, "sum3")]]
    c_names = [f"c{i}" for i in range(2, 13)]
    weights = {"forcing": {"c": dict(zip(c_names, c_terms["h"], strict=True))}}
    for pass_, velocity in (("state", "x2"), ("column", "v")):
        rows, named = PASS_ROWS[pass_], {"c": dict(zip(c_names, c_terms[velocity], strict=True))}
        for row, terms in zip(rows, stage_sums[: len(rows)], strict=True):
            columns = [j for _, j in terms]
            assert columns == sorted(set(columns))  # summed in tableau order
            entries = named.setdefault(row.rstrip("0123456789"), {})
            entries |= {f"{row}{j}": w for w, j in terms}
        weights[pass_], stage_sums = named, stage_sums[len(rows):]
    assert not stage_sums
    return weights


def _nonzero(prefix, weights):
    """{name: weight} of the nonzero weights, named as _kernel_weights names them.

    Indices count from 1, and a matrix's row index comes before its column.
    """
    named = {}
    for j, w in enumerate(weights, 1):
        if isinstance(w, list):
            named |= _nonzero(f"{prefix}{j}", w)
        elif w != 0.0:
            named[f"{prefix}{j}"] = w
    return named


def _kernel_and_scipy(monkeypatch):
    """Pair each library flow with scipy's own DOP853 on the same rhs and tolerances.

    The pairs hold the rhs with forcing bound, as scipy's reference takes it.
    """
    pairs = []

    def both(rhs, span, y0, method, max_steps, forcing, args, **tols):
        # scipy's set-up and the kernel see one system
        assert args == (forcing,)
        sol = solve_ivp(
            rhs, span, y0, method=method, max_steps=max_steps, forcing=forcing, args=args,
            **tols,
        )
        bound = functools.partial(rhs, forcing=forcing)
        pairs.append((bound, sol, solve_ivp(bound, span, y0, method="DOP853", **tols)))
        return sol

    monkeypatch.setattr(poincare, "solve_ivp", both)
    return pairs


def _accepted_steps(monkeypatch):
    """Record (t, y, h, y_new) of every accepted attempt of the flows that follow.

    One step() covers a whole flow, so sol.t holds its two ends alone; the
    kernel reads poincare._attempt once per flow, so this wrapper sees each
    attempt.
    """
    steps = []
    attempt = poincare._attempt

    def recorded(t, y, k1, h, forcing, tol):
        error_norm, y_new, f_new = attempt(t, y, k1, h, forcing, tol)
        if error_norm < 1.0:
            steps.append((t, y, h, y_new))
        return error_norm, y_new, f_new

    monkeypatch.setattr(poincare, "_attempt", recorded)
    return steps


def _close(got, want, rel):
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


class TestDOP853Kernel:
    def test_kernel_reads_every_nonzero_tableau_entry(self):
        # each pass reads exactly the nonzero weights, each at its value, so
        # every weight it leaves out is exactly 0
        weights = _kernel_weights()
        E5, E3 = DOP853.E5.tolist()[:12], DOP853.E3.tolist()[:12]
        assert DOP853.E5[12] == DOP853.E3[12] == 0.0
        c = {f"c{i}": c for i, c in enumerate(DOP853.C.tolist()[1:], 2)}
        assert weights["forcing"]["c"] == c
        for pass_ in ("state", "column"):
            assert weights[pass_]["c"] == c
            assert weights[pass_]["a"] == _nonzero("a", DOP853.A.tolist())
            assert weights[pass_]["b"] == _nonzero("b", DOP853.B.tolist())
        assert weights["state"]["e5_"] == _nonzero("e5_", E5)
        assert weights["state"]["e3_"] == _nonzero("e3_", E3)
        rule = (poincare._SAFETY, poincare._MIN_FACTOR, poincare._MAX_FACTOR)
        assert rule == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)

    def test_nystrom_weights_are_the_exact_products(self):
        # abar = A A, bbar = b A and the error weights e A, each entry one
        # correctly rounded sum of the products of scipy's tableau
        weights = _kernel_weights()
        abar = [_times_a(row) for row in DOP853.A.tolist()]
        assert not any(abar[0]) and not any(abar[1]) and all(any(r) for r in abar[2:])
        for pass_ in ("state", "column"):
            assert weights[pass_]["aa"] == _nonzero("aa", abar)
            assert len(weights[pass_]["aa"]) == 48
        rows = [("state", "bb", DOP853.B), ("column", "bb", DOP853.B)]
        rows += [("state", "ee5_", DOP853.E5[:12]), ("state", "ee3_", DOP853.E3[:12])]
        for pass_, prefix, row in rows:
            assert weights[pass_][prefix] == _nonzero(prefix, _times_a(row.tolist()))
            assert len(weights[pass_][prefix]) == 9
        # stage i's position reads ci v in place of sum_j a_ij v: the exact
        # row sums of the rounded tableau are ci to 1.8e-15 (stage 10)
        for row, c in zip(DOP853.A.tolist(), DOP853.C.tolist()):
            assert abs(math.fsum(row + [-c])) <= 2e-15

    # inner 3/1 from the point TestVariationalEngine uses (on its orbit point
    # the tangent map grows to 290 and magnifies round-off past 1e-13),
    # damped and undamped, so both branches of the stage code run, and
    # rotating+ 1/1 from its orbit point, damped.  The kernel sums in
    # another order than scipy's BLAS dot, so a step decision that rests on
    # round-off can differ (one of 200 random flows took one more rejected
    # step); no decision of these flows, nor of any other flow in the tests
    # or the stroboscopic benchmark, does.  So the exact step and nfev
    # comparison rests on the summation order of the BLAS scipy is built
    # with; another BLAS could move one step with no fault in the kernel.
    # The pinned nfev and final states are those the Nystrom kernel
    # computed, equal to the last bit.
    @pytest.mark.parametrize(
        "family, m, delta, nfev, final",
        [
            pytest.param("inner", 3, 0.5, 1550, [
                -0.04892190937845947, 0.9565632344958152, -1.8955210087411818,
                -2.1708799882722603, 0.7128012900098948, 0.29373800526370897,
            ], id="inner-3"),
            pytest.param("inner", 3, 0.0, 1550, [
                -0.054615228809960475, 0.9605048288282715, -1.920929344648164,
                -2.189263053335831, 0.7036584719547221, 0.2813708355947613,
            ], id="inner-3-undamped"),
            pytest.param("rotating+", 1, 0.5, 626, [
                7.712483363980123, 1.546988605240746, 28.940947021181437,
                42.580770076592884, -17.881263626011457, -26.274230461243,
            ], id="rotating+-1"),
        ],
    )
    def test_kernel_takes_scipys_steps(self, family, m, delta, nfev, final, monkeypatch):
        pairs = _kernel_and_scipy(monkeypatch)
        steps = _accepted_steps(monkeypatch)
        r = solve_resonance(family, 1.0, m, 1)
        start = orbit_state(r.orbit, 0.8)
        z = (0.9, 0.4) if family == INNER else (start.x1, start.x2)
        sys_, eps, theta = pendulum_system(1.0, delta, 1.0), 1e-3, math.pi / 2.0
        _variational_map(sys_, eps, m, z, theta)
        ((_, sol, ref),) = pairs
        assert sol.success and len(steps) == len(ref.t) - 1
        assert sol.t.tolist() == [0.0, 2.0 * math.pi * m]
        assert sol.nfev == ref.nfev
        # 12 evaluations per attempted step after scipy's two at the start
        rejected = (sol.nfev - 2) // 12 - len(steps)
        assert rejected > 0
        assert _close(sol.y[:, -1], ref.y[:, -1], 1e-13)
        # the state is scipy's 2-D map too
        assert _close(sol.y[:2, -1], _scipy_map(sys_, eps, m, z, theta).y[:, -1], 1e-13)
        assert sol.nfev == nfev and sol.y[:, -1].tolist() == final

    # Whole inner 5/1 flows at omega = 1 pinned to the last bit, as the
    # kernel computed them while it read its weights from a closure built at
    # import: the first flow of the undamped Newton run (at
    # _COARSE_FLOW_TOL from its Melnikov seed), and flows at _FLOW_TOL from
    # the damped run's seed and, undamped, from the orbit point a sixth of a
    # period in, where the tangent map grows to 3e4.  Of 40 reorderings of
    # one stage sum (its second and third terms swapped), 12 move these
    # pins, and 23 move no bit of 19 flows tried nor of the seed-7
    # stroboscopic pass.
    @pytest.mark.parametrize(
        "delta, start, tol, final, dp",
        [
            pytest.param(
                0.0, "seed", poincare._COARSE_FLOW_TOL,
                [-2.9524882544706603, -0.1676149727992961],
                [[0.056850825749676426, 32.46853426607752],
                 [-0.06128292802323952, -17.409893540731787]],
                id="coarse-undamped",
            ),
            pytest.param(
                0.2, "seed", _FLOW_TOL,
                [-3.022955886675487, -0.07165535409887375],
                [[7.599714038716195, 12.62482032197187],
                 [14.148972759159923, 23.635359754589572]],
                id="damped",
            ),
            pytest.param(
                0.0, "orbit", _FLOW_TOL,
                [-14.280172491985526, -1.3092802498134586],
                [[28724.308500878178, 28731.542957707927],
                 [-21710.99808872889, -21716.466149984397]],
                id="undamped",
            ),
        ],
    )
    def test_inner_5_flow_keeps_every_bit(self, delta, start, tol, final, dp):
        r = solve_resonance("inner", 1.0, 5, 1)
        sys_, theta = pendulum_system(1.0, delta, 1.0), math.pi / 2.0
        if start == "seed":
            point = _melnikov_seeds(sys_, r, theta)[0]
        else:
            point = orbit_state(r.orbit, r.orbit.period / 6.0)
        got_final, got_dp = _variational_map(sys_, 1e-3, 5, (point.x1, point.x2), theta, tol)
        assert got_final.tolist() == final and got_dp.tolist() == dp

    # The benchmark forces at omega = beta = 1 only, where a misplaced omega
    # or beta in the kernel's inlined forcing would not show.  Over a whole
    # flow the tangent map magnifies round-off (near the separatrix the final
    # states differ from scipy's by up to 2.4e-9 relative), so each accepted
    # step is replayed with scipy's own stage code from the kernel's state.
    @settings(
        max_examples=30, deadline=None, derandomize=True, database=None, phases=NO_SHRINK
    )
    @given(
        st.sampled_from(
            [("inner", 1), ("inner", 3), ("inner", 5), ("rotating+", 1), ("rotating-", 1)]
        ),
        st.floats(0.0, 1.0),
        st.floats(-5.0, -2.0),
        DELTAS,
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 3.0).filter(lambda b: b != 1.0),
        st.sampled_from([0.5, 2.3]),
    )
    def test_inlined_rhs_is_the_derivative(
        self, family, phase, log_eps, delta, theta, beta, omega
    ):
        tag, m = family
        r = solve_resonance(tag, omega, m, 1)
        assume(r is not None)  # inner 1/1 needs omega < 1
        start = orbit_state(r.orbit, phase * r.orbit.period)
        with pytest.MonkeyPatch.context() as mp:
            pairs = _kernel_and_scipy(mp)
            steps = _accepted_steps(mp)
            _variational_map(
                pendulum_system(beta, delta, omega), 10.0**log_eps, m, (start.x1, start.x2), theta
            )
        ((rhs, sol, ref),) = pairs
        assert sol.success and ref.success
        assert abs(sol.nfev - ref.nfev) <= 12
        # the accepted steps chain the flow's start to its end
        starts, ends = [list(s[1]) for s in steps], [list(s[3]) for s in steps]
        assert starts[1:] == ends[:-1]
        assert starts[0] == sol.y[:, 0].tolist() and ends[-1] == sol.y[:, -1].tolist()
        stages = np.empty((DOP853.n_stages + 1, 6))
        for t, y, h, got in steps:
            y, got = np.array(y), np.array(got)
            want, _ = rk.rk_step(
                rhs, t, y, np.asarray(rhs(t, y)), h, DOP853.A, DOP853.B, DOP853.C, stages
            )
            assert _close(got[:2], want[:2], 1e-12)
            # the tangent map's round-off scales with its largest entry
            scale = max(1.0, np.max(np.abs(want[2:])))
            assert np.max(np.abs(got[2:] - want[2:])) <= 1e-12 * scale

    def test_nfev_is_every_rhs_call(self, system, resonance, monkeypatch):
        # scipy's set-up calls the RHS twice (first derivative, first-step
        # guess); each attempted step then evaluates 12 stages inline
        flows, attempts = [], []
        attempt = poincare._attempt

        def counted_attempt(*args):
            attempts.append(args[0])
            return attempt(*args)

        def counted(rhs, span, y0, **options):
            calls = []

            def counting(t, y, forcing):
                calls.append(t)
                return rhs(t, y, forcing)

            sol = solve_ivp(counting, span, y0, **options)
            flows.append((sol.nfev, len(calls), len(attempts)))
            return sol

        monkeypatch.setattr(poincare, "_attempt", counted_attempt)
        monkeypatch.setattr(poincare, "solve_ivp", counted)
        _variational_map(system, 1e-3, resonance.m, (0.9, 0.4), math.pi / 2.0)
        ((nfev, calls, steps),) = flows
        assert calls == 2 and steps > 0
        assert nfev == calls + 12 * steps

    def test_spent_step_budget_fails_the_flow(self, system, monkeypatch):
        # one attempt per unit time over 3 periods of 2*pi: ceil(6*pi) = 19
        monkeypatch.setattr(poincare, "_STEPS_PER_UNIT_TIME", 1)
        with pytest.raises(IntegrationFailure, match="step budget of 19 spent"):
            _variational_map(system, 1e-3, 3, (0.9, 0.4), 0.0)

    def test_derivative_serves_the_set_up_and_each_accepted_step(
        self, system, resonance, monkeypatch
    ):
        # scipy's set-up calls _derivative twice (first derivative, first-step
        # guess); each accepted attempt then calls it once, at its new t, for
        # the next step's k1, and a rejected attempt not at all
        steps = _accepted_steps(monkeypatch)
        calls = []
        derivative = poincare._derivative

        def counted(t, y, forcing):
            calls.append(t)
            return derivative(t, y, forcing)

        monkeypatch.setattr(poincare, "_derivative", counted)
        _variational_map(system, 1e-3, resonance.m, (0.9, 0.4), math.pi / 2.0)
        assert steps and len(calls) == 2 + len(steps)
        assert calls[2:] == [t + h for t, _, h, _ in steps]

    def test_no_dense_output(self):
        forcing = (0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(NotImplementedError):
            solve_ivp(
                poincare._derivative, (0.0, 1.0), [0.9, 0.4, 1.0, 0.0, 0.0, 1.0],
                method=poincare._DOP853Kernel, max_steps=100,
                forcing=forcing, args=(forcing,), dense_output=True,
            )


class TestDistanceToOrbit:
    def test_stops_where_g_is_not_convex(self, resonance):
        # the nearest orbit point to the origin is (0, 2k), at s = 0, where
        # g = 0 and g' = 4k^2 - |gamma'|^2 = 0: the steps stop at once
        assert poincare._distance_to_orbit((0.0, 0.0), resonance) == 2.0 * resonance.modulus.k

    # Newton on g(s) = <z - gamma(s), gamma'(s)> ends where g is round-off:
    # the error of the orbit state times the orbit's speed.  A search that
    # stops at sqrt(machine eps)*|s|, as Brent's bounded minimum does, leaves
    # |g| near 1e-8 |gamma'|^2, far above this bound.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([("inner", 3), ("inner", 5), ("rotating+", 1), ("rotating-", 1)]),
        st.floats(0.0, 1.0),
        st.floats(-8.0, -2.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_nearest_point_zeroes_g_to_round_off(self, family, phase, log_offset, angle):
        tag, m = family
        r = solve_resonance(tag, 1.0, m, 1)
        start = orbit_state(r.orbit, phase * r.orbit.period)
        offset = 10.0**log_offset
        z = (start.x1 + offset * math.cos(angle), start.x2 + offset * math.sin(angle))
        visited = []

        def recorded(family, t):
            point = orbit_state(family, t)
            if np.ndim(t) == 0:
                visited.append(point)
            return point

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poincare, "orbit_state", recorded)
            distance = poincare._distance_to_orbit(z, r)
        assert distance <= offset * (1.0 + 1e-9)
        d = [(float(wrap_angle(z[0] - p.x1)), z[1] - p.x2, p) for p in visited]
        d1, d2, p = next(e for e in d if math.hypot(e[0], e[1]) == distance)
        speed = math.hypot(p.x2, math.sin(p.x1))
        g = d1 * p.x2 - d2 * math.sin(p.x1)
        assert abs(g) <= 256.0 * np.finfo(float).eps * speed * max(1.0, *map(abs, z))


class TestScalingBand:
    def test_constant_ratio_within_band(self):
        ok, ratios = scaling_band([1e-3, 5e-4], [3e-4, 1.6e-4])
        assert ok
        assert ratios == pytest.approx([0.3, 0.32])

    def test_divergent_ratio_out_of_band(self):
        for sign in (1.0, -1.0):
            ok, ratios = scaling_band([sign * 1e-3, sign * 5e-4], [1e-4, 3e-4])
            assert not ok
            assert ratios == pytest.approx([0.1, 0.6])

    def test_empty_input(self):
        ok, ratios = scaling_band([], [])
        assert ok and ratios == []

    def test_zero_eps_is_named(self):
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match=rf"eps {zero!r} has no distance/\|eps\| ratio"):
                scaling_band([zero, 1e-3], [0.0, 1e-4])

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="3 eps values against 2 distances"):
            scaling_band([1e-3, 5e-4, 2.5e-4], [1e-4, 5e-5])

    def test_nan_eps_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            scaling_band([math.nan, 1e-3], [1e-4, 1e-4])

    def test_nan_distance_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            scaling_band([1e-3, 1e-3], [math.nan, 1e-4])
