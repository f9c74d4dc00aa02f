import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    OrbitPoint,
    orbit_state,
    pendulum_system,
    wrap_angle,
)
from melnikov_lab.poincare import (
    _RESIDUAL_TOL,
    _melnikov_seeds,
    _newton,
    _variational_map,
    _winding,
    find_subharmonic,
    scaling_band,
    stroboscopic_map,
)


# criterion 8's positive-control ladder on inner 3/1, with the rung that once
# fell in a Newton gap, and the two rotating 1/1 rungs per direction
POSITIVE_LADDER = [1e-3 * 2.0 ** (-0.5 * j) for j in range(8)] + [6.853850625855076e-4]
FIXED_POINT_RUNGS = [("inner", 3, eps) for eps in POSITIVE_LADDER] + [
    (family, 1, eps)
    for family in ("rotating+", "rotating-")
    for eps in (1e-3, 1e-3 / math.sqrt(2.0))
]


@pytest.fixture(scope="module")
def resonance():
    return solve_resonance(INNER, 1.0, 3, 1)


@pytest.fixture(scope="module")
def system():
    return pendulum_system(1.0, 0.0, 1.0)


class TestStroboscopicMap:
    def test_origin_is_fixed_unforced(self, system):
        out = stroboscopic_map(system, 0.0, 1, OrbitPoint(0.0, 0.0))
        assert abs(out.x1) <= 1e-12
        assert abs(out.x2) <= 1e-12

    def test_resonant_orbit_closes_at_eps_zero(self, system, resonance):
        # the m-fold forcing period equals n unperturbed periods
        start = orbit_state(resonance.orbit, 0.8)
        out = stroboscopic_map(system, 0.0, resonance.m, start)
        assert out.x1 == pytest.approx(start.x1, abs=1e-9)
        assert out.x2 == pytest.approx(start.x2, abs=1e-9)

    def test_energy_preserved_at_eps_zero(self, system):
        start = OrbitPoint(1.0, 0.3)
        out = stroboscopic_map(system, 0.0, 2, start)
        h = lambda p: 1.0 - math.cos(p.x1) + 0.5 * p.x2**2
        assert h(out) == pytest.approx(h(start), abs=1e-10)

    def test_forcing_moves_the_origin(self, system):
        out = stroboscopic_map(system, 1e-3, 1, OrbitPoint(0.0, 0.0))
        assert np.hypot(out.x1, out.x2) > 1e-5


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
        out = stroboscopic_map(
            system, 1e-3, resonance.m, res.point, theta_section=math.pi / 2.0
        )
        assert out.x1 == pytest.approx(res.point.x1, abs=1e-9)
        assert out.x2 == pytest.approx(res.point.x2, abs=1e-9)

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
        # Newton judges convergence on the variational flow alone; an
        # independent 2-D flow from the reported point must agree
        r = solve_resonance(family, 1.0, m, 1)
        theta0 = math.pi / 2.0
        sys_ = pendulum_system(1.0, 0.0, 1.0)
        res = find_subharmonic(sys_, eps, r, theta0)
        assert res.converged
        out = stroboscopic_map(sys_, eps, m, res.point, theta0)
        gap = np.array([out.x1 - res.point.x1, out.x2 - res.point.x2]) - _winding(r)
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
        zeros = simple_zeros(closed_form_subharmonic(r, 1.0, delta)).zeros
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

    def test_positive_control_takes_few_narrow_flows(self, system, resonance, monkeypatch):
        widths = []
        integrate = poincare._integrate

        def counted(rhs, state, duration, tol):
            widths.append(len(state))
            return integrate(rhs, state, duration, tol)

        monkeypatch.setattr(poincare, "_integrate", counted)
        res = find_subharmonic(system, 1e-3, resonance, math.pi / 2.0)
        assert res.converged
        # one Newton run per Melnikov zero, one state + tangent-map flow per iteration
        assert len(widths) <= 6
        assert set(widths) == {6}


class TestVariationalEngine:
    def test_dp_matches_central_difference(self, system, resonance):
        eps, theta, z = 1e-3, math.pi / 2.0, np.array([0.9, 0.4])
        final, dp = _variational_map(system, eps, resonance.m, z, theta)

        def strobe(point):
            out = stroboscopic_map(system, eps, resonance.m, OrbitPoint(*point), theta)
            return np.array([out.x1, out.x2])

        h = 1e-5
        fd = np.zeros((2, 2))
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = h
            fd[:, j] = (strobe(z + dz) - strobe(z - dz)) / (2.0 * h)
        assert final == pytest.approx(strobe(z), abs=1e-9)
        assert np.max(np.abs(dp - fd)) <= 1e-6

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([("inner", 3), ("inner", 5), ("rotating+", 1), ("rotating-", 1)]),
        st.floats(0.0, 1.0),
        st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
        st.floats(-5.0, -3.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_state_is_the_stroboscopic_map(self, family, phase, offset, log_eps, delta, theta):
        # the variational flow steps on (x1, x2) alone, so its state is the
        # map up to round-off, not up to the flow tolerance
        tag, m = family
        r = solve_resonance(tag, 1.0, m, 1)
        start = orbit_state(r.orbit, phase * r.orbit.period)
        z = np.array([start.x1, start.x2]) + offset
        sys_, eps = pendulum_system(1.0, delta, 1.0), 10.0**log_eps
        final, dp = _variational_map(sys_, eps, m, z, theta)
        out = stroboscopic_map(sys_, eps, m, OrbitPoint(*z), theta)
        bound = 1e-11
        if m == 5:
            # near the separatrix the map magnifies round-off up to 1e5-fold:
            # there the 2-D map itself moves by up to 3.5e-9 when its
            # tolerance changes by four ulps
            bound += 1e-12 * np.linalg.norm(dp)
        assert np.max(np.abs(final - np.array([out.x1, out.x2]))) <= bound


# Columns of each DOP853.A row that the kernel's stage code reads; B, E5 and
# E3 it reads at stages 1 and 6-12.  Every other entry must be zero.
KERNEL_A_COLUMNS = {1: {0}, 2: {0, 1}, 3: {0, 2}, 4: {0, 2, 3}} | {
    s: {0} | set(range(3, s)) for s in range(5, 12)
}
KERNEL_WEIGHTS = {0} | set(range(5, 12))


def _library_flows(sys_, eps, m, z, theta):
    """Run the 2-D map and the 6-D variational flow from z."""
    stroboscopic_map(sys_, eps, m, OrbitPoint(*z), theta)
    _variational_map(sys_, eps, m, np.array(z), theta)


class TestDOP853Kernel:
    def test_kernel_reads_every_nonzero_tableau_entry(self):
        for s, row in enumerate(DOP853.A):
            assert all(a == 0.0 for j, a in enumerate(row) if j not in KERNEL_A_COLUMNS.get(s, ()))
        for weights in (DOP853.B, DOP853.E5, DOP853.E3):
            assert all(w == 0.0 for j, w in enumerate(weights) if j not in KERNEL_WEIGHTS)
        rule = (poincare._SAFETY, poincare._MIN_FACTOR, poincare._MAX_FACTOR)
        assert rule == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)

    # inner 3/1 from the point TestVariationalEngine uses (on its orbit point
    # the tangent map grows to 290 and magnifies round-off past 1e-13), and
    # rotating+ 1/1 from its orbit point, both damped.  The kernel sums in
    # another order than scipy's BLAS dot, so a step decision that rests on
    # round-off can differ (one of 200 random flows took one more rejected
    # step); no decision of these flows, nor of any other flow in the tests
    # or the stroboscopic benchmark, does.  So the exact step and nfev
    # comparison rests on the summation order of the BLAS scipy is built
    # with; another BLAS could move one step with no fault in the kernel.
    @pytest.mark.parametrize("family, m", [("inner", 3), ("rotating+", 1)])
    def test_kernel_takes_scipys_steps(self, family, m, monkeypatch):
        pairs = []

        def both(rhs, span, y0, method, max_steps, **tols):
            sol = solve_ivp(rhs, span, y0, method=method, max_steps=max_steps, **tols)
            pairs.append((sol, solve_ivp(rhs, span, y0, method="DOP853", **tols)))
            return sol

        monkeypatch.setattr(poincare, "solve_ivp", both)
        r = solve_resonance(family, 1.0, m, 1)
        start = orbit_state(r.orbit, 0.8)
        z = (0.9, 0.4) if family == INNER else (start.x1, start.x2)
        _library_flows(pendulum_system(1.0, 0.5, 1.0), 1e-3, m, z, math.pi / 2.0)
        assert [sol.y.shape[0] for sol, _ in pairs] == [2, 6]
        for sol, ref in pairs:
            assert sol.success and len(sol.t) == len(ref.t)
            assert sol.nfev == ref.nfev
            # 12 evaluations per attempted step after scipy's two at the start
            rejected = (sol.nfev - 2) // 12 - (len(sol.t) - 1)
            assert rejected > 0
            got, want = sol.y[:, -1], ref.y[:, -1]
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_nfev_is_every_rhs_call(self, system, resonance, monkeypatch):
        flows = []

        def counted(rhs, span, y0, **options):
            calls = []

            def counting(t, y):
                calls.append(t)
                return rhs(t, y)

            sol = solve_ivp(counting, span, y0, **options)
            flows.append((len(calls), sol.nfev))
            return sol

        monkeypatch.setattr(poincare, "solve_ivp", counted)
        _library_flows(system, 1e-3, resonance.m, (0.9, 0.4), math.pi / 2.0)
        assert len(flows) == 2
        assert all(calls == nfev > 0 for calls, nfev in flows)

    def test_spent_step_budget_fails_the_flow(self, system, monkeypatch):
        # one attempt per unit time over 3 periods of 2*pi: ceil(6*pi) = 19
        monkeypatch.setattr(poincare, "_STEPS_PER_UNIT_TIME", 1)
        with pytest.raises(IntegrationFailure, match="step budget of 19 spent"):
            stroboscopic_map(system, 1e-3, 3, OrbitPoint(0.9, 0.4))

    def test_no_dense_output(self):
        with pytest.raises(NotImplementedError):
            solve_ivp(
                lambda t, y: [y[1], -math.sin(y[0])], (0.0, 1.0), [0.9, 0.4],
                method=poincare._DOP853Kernel, max_steps=100, dense_output=True,
            )


class TestScalingBand:
    def test_constant_ratio_within_band(self):
        ok, ratios = scaling_band([1e-3, 5e-4], [3e-4, 1.6e-4])
        assert ok
        assert ratios == pytest.approx([0.3, 0.32])

    def test_divergent_ratio_out_of_band(self):
        ok, _ = scaling_band([1e-3, 5e-4], [1e-4, 3e-4])
        assert not ok

    def test_empty_input(self):
        ok, ratios = scaling_band([], [])
        assert ok and ratios == []
