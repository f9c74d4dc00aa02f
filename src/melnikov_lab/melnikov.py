"""Resonances and Melnikov functions for the forced pendulum.

Subharmonic and homoclinic Melnikov functions are computed two ways: by
node-doubling trapezoid quadrature of the defining integrals (spectrally
accurate, the integrands being periodic or exponentially decaying), and
through the sech / elliptic-integral closed forms.  Every curve has the
shape const + coeff*cos(theta), so zeros, tangencies and the chaos
threshold are available in closed form as well.

The defining integral of x2*(beta*cos(omega t + theta) - delta*x2) is
affine in cos(theta), sin(theta) and delta, so the quadrature integrates
the three kernels x2*cos(omega t), x2*sin(omega t) and x2^2 in one pass
and serves a scalar theta or a whole array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .elliptic import EllipticModulus
from .pendulum import (
    INNER,
    ROTATING_MINUS,
    ROTATING_PLUS,
    ForcedSystem,
    OrbitFamily,
    orbit_state,
)

__all__ = [
    "K_WINDOW",
    "NonConvergenceError",
    "IntegrationFailure",
    "ResonanceError",
    "Resonance",
    "MelnikovCurve",
    "MelnikovZero",
    "ZeroAnalysis",
    "ChaosVerdict",
    "solve_resonance",
    "subharmonic_quadrature",
    "closed_form_subharmonic",
    "homoclinic_quadrature",
    "closed_form_homoclinic",
    "simple_zeros",
    "chaos_condition",
    "enumerate_resonances",
    "homoclinic_limit_check",
]

_RESONANT_TAGS = (INNER, ROTATING_PLUS, ROTATING_MINUS)


class NonConvergenceError(RuntimeError):
    """Node-doubling quadrature failed to reach its tolerance.

    Carries the node count of the last level, the tolerance and the last
    max |cur - prev| between successive levels.
    """

    def __init__(self, nodes: int, tol: float, last_diff: float):
        super().__init__(
            f"quadrature not converged at {nodes} nodes: last max |cur - prev| "
            f"= {last_diff:.3e}, tolerance {tol:.1e} * (1 + |cur|)"
        )
        self.nodes, self.tol, self.last_diff = nodes, tol, last_diff


class IntegrationFailure(RuntimeError):
    """The adaptive integrator failed (step-size collapse or similar)."""


class ResonanceError(RuntimeError):
    """The resonance condition has no solution among representable moduli."""


_RESONANCE_RTOL = 1e-10  # largest |residual| / target that solve_resonance accepts
_K_PRIME_RANGE = (1e-300, 1.0 - 1e-16)  # searched by the resonance bisection
K_WINDOW = (1e-6, 1.0 - 1e-15)  # moduli that resonance tables and certificates list
_SLOPE_TOL = 1e-10  # simple_zeros: a zero with a larger |slope| is simple,
_TANGENCY_TOL = 1e-12  # one with | |const| - |coeff| | <= this * scale a tangency


@dataclass(frozen=True)
class Resonance:
    """A resonant orbit: n unperturbed periods fit m forcing periods."""

    family_tag: str
    m: int
    n: int
    modulus: EllipticModulus
    omega: float

    def __post_init__(self):
        if self.family_tag not in _RESONANT_TAGS:
            raise ValueError(f"unsupported resonance family {self.family_tag!r}")
        if self.m < 1 or self.n < 1 or math.gcd(self.m, self.n) != 1:
            raise ValueError("m, n must be coprime positive integers")

    @property
    def orbit(self) -> OrbitFamily:
        return OrbitFamily(self.family_tag, self.modulus)

    @property
    def forcing_interval(self) -> float:
        return 2.0 * math.pi * self.m / self.omega

    def residual(self) -> float:
        """Residual of the defining resonance equation."""
        target, period = _resonance_equation(self.family_tag, self.omega, self.m, self.n)
        return period(self.modulus) - target


def _cosh(x: float) -> float:
    """math.cosh, or inf where it overflows (|x| beyond ~710.5).

    Dividing by it gives a sech factor that underflows to 0 instead of
    raising, and is math.cosh's quotient bit for bit wherever that is finite.
    """
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _quarter_period(mod: EllipticModulus) -> float:
    return mod.K


def _rotating_period(mod: EllipticModulus) -> float:
    return mod.k * mod.K


def _resonance_equation(family_tag: str, omega: float, m: int, n: int):
    """(target, period) such that the m/n resonance is period(modulus) = target.

    period increases with k: K(k) for inner orbits, k*K(k) for rotating
    ones (k*K runs from 0 to inf as k' decreases from 1 to 0).
    """
    if family_tag not in _RESONANT_TAGS:
        raise ValueError(f"unsupported resonance family {family_tag!r}")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if family_tag == INNER:
        return math.pi * m / (2.0 * n * omega), _quarter_period
    return math.pi * m / (n * omega), _rotating_period


def _bisect_k_prime(target_fn, target: float, what: str) -> EllipticModulus:
    # target_fn(mod) is strictly decreasing in k'; a target beyond its range over
    # _K_PRIME_RANGE (by more than the acceptance tolerance) has no root to bisect for
    lo, hi = _K_PRIME_RANGE
    top = target_fn(EllipticModulus.from_k_prime(lo))
    bottom = target_fn(EllipticModulus.from_k_prime(hi))
    slack = _RESONANCE_RTOL * target
    if not bottom - slack <= target <= top + slack:
        raise ResonanceError(
            f"{what} is out of range: target {target:.6g} lies outside the "
            f"periods [{bottom:.6g}, {top:.6g}] reachable for k' in [{lo:g}, {hi!r}]"
        )
    f_lo = top - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = target_fn(EllipticModulus.from_k_prime(mid)) - target
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return EllipticModulus.from_k_prime(0.5 * (lo + hi))


def solve_resonance(family_tag: str, omega: float, m: int, n: int) -> Optional[Resonance]:
    """Solve the resonance condition for the modulus k.

    Inner orbits need K(k) = pi*m/(2*n*omega) which is solvable iff
    m/n > omega; returns None in that case (a valid outcome).  Rotating
    orbits need k*K(k) = pi*m/(n*omega).
    Raises ResonanceError, without bisecting, when the target lies
    outside the periods that k' in [1e-300, 1 - 1e-16] reaches, and when
    the solved modulus misses the target by more than 1e-10 relative: the
    bisection cannot resolve moduli much closer to 1 than k' ~ 1e-52, nor
    rotating ones much closer to 0 than k ~ 1e-3.
    """
    target, period = _resonance_equation(family_tag, omega, m, n)
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise ValueError("m, n must be coprime positive integers")
    if family_tag == INNER and target <= math.pi / 2.0:
        return None
    what = f"{family_tag} {m}/{n} resonance at omega={omega!r}"
    mod = _bisect_k_prime(period, target, what)
    r = Resonance(family_tag, m, n, mod, omega)
    residual = r.residual()
    if not abs(residual) <= _RESONANCE_RTOL * target:
        raise ResonanceError(
            f"{what} is out of range: residual {residual:.3e} against target "
            f"{target:.6g} (k' = {mod.k_prime:.3e})"
        )
    return r


def _new_nodes(n, n0):
    """Indices j of the grid j/n that the call sample_mean(n) evaluates.

    The first call, n = 2*n0, takes all 2*n0 nodes: the even ones are the
    n0-node level, the odd ones its midpoints.  Every later call takes
    only the n/2 odd-indexed nodes, the midpoints of the previous level.
    """
    return np.arange(n) if n == 2 * n0 else np.arange(1, n, 2)


def _level_means(n, n0, block, combine):
    """sample_mean(n) from a (kernels, nodes) block over the nodes _new_nodes(n, n0).

    Returns combine(row means); at the first call, n = 2*n0, the pair
    (over the even nodes, over the odd nodes).  A row sum divided by the
    node count is np.mean of that row, bit for bit.
    """
    if n == 2 * n0:
        return (
            combine(block[:, 0::2].sum(axis=1) / n0),
            combine(block[:, 1::2].sum(axis=1) / n0),
        )
    return combine(block.sum(axis=1) / (n // 2))


def _trapezoid_doubling(sample_mean, length, tol, n0=64, n_max=2**20):
    """length * mean(f) with nested node doubling until successive values agree.

    No level can be accepted before it is compared with the one before,
    so the first call sample_mean(2*n0) returns both first levels: the
    pair (mean of f over the even nodes, mean over the odd nodes) of the
    2*n0-node grid, the even nodes being the n0-node level.  After that
    sample_mean(n) is the mean over the n/2 odd-indexed nodes that level
    n adds, the midpoints of the previous level.  Each node is evaluated
    once and T_2n = (T_n + M_n) / 2.  sample_mean(n) may return arrays;
    every element must agree.  A level whose value is not finite raises
    NonConvergenceError at once.
    """
    n = 2 * n0
    mean, mid = sample_mean(n)
    while True:
        prev = length * mean
        mean = 0.5 * (mean + mid)
        cur = length * mean
        diff = np.abs(cur - prev)
        if not np.isfinite(cur).all():
            raise NonConvergenceError(n, tol, float(np.max(diff)))
        if (diff <= tol * (1.0 + np.abs(cur))).all():
            return cur
        if n >= n_max:
            raise NonConvergenceError(n, tol, float(np.max(diff)))
        n *= 2
        mid = sample_mean(n)


def _melnikov_values(sys: ForcedSystem, theta, sample_orbit, length, tol, n0):
    """beta*(C cos(theta) - S sin(theta)) - delta*D by node doubling.

    sample_orbit(n) returns x2 and the forcing phase at the nodes
    _new_nodes(n, n0); C, S and D are the means of x2*cos(phase),
    x2*sin(phase) and x2^2.  theta is a scalar (float result) or an
    array (array result, numpy-style).
    """
    scalar = np.ndim(theta) == 0
    trig = math if scalar else np  # math's cos/sin skip numpy's ufunc dispatch
    theta = float(theta) if scalar else np.asarray(theta, dtype=float)
    if not (math.isfinite(theta) if scalar else np.isfinite(theta).all()):
        raise ValueError("theta must be finite")
    cos_th, sin_th = trig.cos(theta), trig.sin(theta)

    def combine(means):
        cos_k, sin_k, damp_k = means
        return sys.beta * (cos_k * cos_th - sin_k * sin_th) - sys.delta * damp_k

    def sample_mean(n):
        x2, phase = sample_orbit(n)
        block = np.empty((3, x2.size))
        np.cos(phase, out=block[0])
        np.sin(phase, out=block[1])
        block[:2] *= x2
        np.multiply(x2, x2, out=block[2])
        return _level_means(n, n0, block, combine)

    value = _trapezoid_doubling(sample_mean, length, tol, n0=n0)
    return float(value) if scalar else value


def subharmonic_quadrature(sys: ForcedSystem, r: Resonance, theta, tol: float = 1e-10):
    """M^{m/n}(theta) by trapezoid quadrature over [0, 2*pi*m/omega].

    The integrand is periodic over the full interval at a resonance, so
    the composite trapezoid rule converges spectrally under doubling.
    """
    family = r.orbit
    length = r.forcing_interval
    n0 = 64

    def sample_orbit(n):
        t = _new_nodes(n, n0) * (length / n)
        return orbit_state(family, t).x2, sys.omega * t

    return _melnikov_values(sys, theta, sample_orbit, length, tol, n0=n0)


@dataclass(frozen=True)
class MelnikovCurve:
    """theta |-> const_term + cos_coeff * cos(theta)."""

    const_term: float
    cos_coeff: float

    def evaluate(self, theta):
        return self.const_term + self.cos_coeff * np.cos(theta)


def closed_form_subharmonic(
    r: Resonance, beta: float, delta: float, j1_arg: str = "n"
) -> MelnikovCurve:
    """Closed-form subharmonic Melnikov curve at a resonance.

    Inner: -delta*16n(E - k'^2 K) + beta*4pi*sech(omega K') cos(theta),
    the cosine term present only for n = 1 and m odd.  Rotating:
    -delta*8nE/k +/- beta*2pi*sech(k omega K') cos(theta), cosine term
    only for n = 1.  j1_arg="m" substitutes m for n in the damping
    coefficient (audit hook for the alternative reading; quadrature
    confirms "n").
    """
    if j1_arg not in ("n", "m"):
        raise ValueError("j1_arg must be 'n' or 'm'")
    mod = r.modulus
    count = r.n if j1_arg == "n" else r.m
    if r.family_tag == INNER:
        j1 = 16.0 * count * (mod.E - mod.k_prime**2 * mod.K)
        if r.n == 1 and r.m % 2 == 1:
            j2 = 4.0 * math.pi / _cosh(r.omega * mod.K_prime)
        else:
            j2 = 0.0
        return MelnikovCurve(-delta * j1, beta * j2)
    sign = -1.0 if r.family_tag == ROTATING_MINUS else 1.0
    j1 = 8.0 * count * mod.E / mod.k
    if r.n == 1:
        j2 = 2.0 * math.pi / _cosh(mod.k * r.omega * mod.K_prime)
    else:
        j2 = 0.0
    return MelnikovCurve(-delta * j1, sign * beta * j2)


def homoclinic_quadrature(
    sys: ForcedSystem,
    sign: int,
    theta,
    tol: float = 1e-10,
    phase_convention: str = "omega-t",
):
    """M_+-(theta) by truncated trapezoid quadrature over the separatrix.

    The integrand decays like sech(t), so truncation at T leaves a tail
    below 1e-13; node doubling then drives the trapezoid error to tol.
    theta is a scalar or an array, as for subharmonic_quadrature.
    phase_convention="t" evaluates the forcing at t + theta instead of
    omega*t + theta (audit hook; the closed forms use omega*t + theta).
    """
    if phase_convention not in ("omega-t", "t"):
        raise ValueError("phase_convention must be 'omega-t' or 't'")
    rate = sys.omega if phase_convention == "omega-t" else 1.0
    s = 1.0 if sign >= 0 else -1.0
    half = 40.0 + 5.0 * math.log10(1.0 / tol)
    n0 = 512

    def sample_orbit(n):
        t = -half + _new_nodes(n, n0) * (2.0 * half / n)
        return s * 2.0 / np.cosh(t), rate * t

    return _melnikov_values(sys, theta, sample_orbit, 2.0 * half, tol, n0=n0)


def closed_form_homoclinic(
    sign: int, beta: float, delta: float, omega: float
) -> MelnikovCurve:
    """M_+-(theta) = -8 delta +/- 2 pi beta sech(pi omega / 2) cos(theta)."""
    s = 1.0 if sign >= 0 else -1.0
    return MelnikovCurve(
        -8.0 * delta, s * 2.0 * math.pi * beta / _cosh(0.5 * math.pi * omega)
    )


@dataclass(frozen=True)
class MelnikovZero:
    theta: float
    slope: float
    simple: bool


@dataclass(frozen=True)
class ZeroAnalysis:
    zeros: Tuple[MelnikovZero, ...]
    tangency: bool

    @property
    def has_simple_zero(self) -> bool:
        return any(z.simple for z in self.zeros)


def simple_zeros(curve: MelnikovCurve) -> ZeroAnalysis:
    """All zeros of the curve in [0, 2pi) with simplicity flags.

    Zeros exist iff |const_term| <= |cos_coeff|; at equality the single
    zero is a tangency (reported, flagged not simple) rather than
    dropped, so certificates can tell "no zero" from "degenerate zero".
    """
    c, a = curve.const_term, curve.cos_coeff
    scale = max(abs(c), abs(a), 1.0)
    if abs(a) <= _TANGENCY_TOL * scale:
        return ZeroAnalysis((), tangency=False)
    if abs(abs(c) - abs(a)) <= _TANGENCY_TOL * scale:
        theta0 = 0.0 if c * a < 0 else math.pi
        return ZeroAnalysis((MelnikovZero(theta0, 0.0, False),), tangency=True)
    if abs(c) > abs(a):
        return ZeroAnalysis((), tangency=False)
    theta0 = math.acos(-c / a)
    zeros = []
    for theta in (theta0, 2.0 * math.pi - theta0):
        slope = -a * math.sin(theta)
        zeros.append(MelnikovZero(theta, slope, abs(slope) > _SLOPE_TOL))
    return ZeroAnalysis(tuple(zeros), tangency=False)


@dataclass(frozen=True)
class ChaosVerdict:
    holds: bool
    ratio: float
    threshold: float


def chaos_condition(beta: float, delta: float, omega: float) -> ChaosVerdict:
    """beta/delta > (4/pi) cosh(pi omega / 2), with the margin ratio.

    The threshold is inf where cosh overflows (omega beyond ~452): no
    finite forcing ratio then meets it.
    """
    threshold = (4.0 / math.pi) * _cosh(0.5 * math.pi * omega)
    if delta == 0.0:
        ratio = math.inf if beta > 0 else 0.0
        return ChaosVerdict(beta > 0, ratio, threshold)
    ratio = (beta / delta) / threshold
    return ChaosVerdict(ratio > 1.0, ratio, threshold)


def enumerate_resonances(
    family_tag: str,
    omega: float,
    k_window: Tuple[float, float],
    m_max: int,
    n_max: int,
) -> List[Resonance]:
    """All coprime (m, n) resonances whose modulus lies in the window.

    Exhibits a finite sample of the key set; with n_max = 1 the inner
    moduli increase monotonically toward 1 with m.  An (m, n) whose
    resonance target lies outside the targets of the window edges is
    skipped unsolved, so moduli too close to 0 or 1 to resolve (which
    solve_resonance reports with ResonanceError) never stop the search.
    """
    k_lo, k_hi = k_window
    if not 0.0 < k_lo < k_hi < 1.0:
        raise ValueError("k window must satisfy 0 < k_lo < k_hi < 1")
    _, period = _resonance_equation(family_tag, omega, 1, 1)
    edge_lo = period(EllipticModulus.from_k(k_lo))
    edge_hi = period(EllipticModulus.from_k(k_hi))
    found = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            if math.gcd(m, n) != 1:
                continue
            target, _ = _resonance_equation(family_tag, omega, m, n)
            if not edge_lo <= target <= edge_hi:
                continue
            r = solve_resonance(family_tag, omega, m, n)
            if r is not None and k_lo <= r.modulus.k <= k_hi:
                found.append(r)
    found.sort(key=lambda r: r.modulus.k)
    return found


def homoclinic_limit_check(
    family_tag: str,
    omega: float,
    beta: float,
    delta: float,
    m_list,
    theta_grid,
) -> List[float]:
    """Sup-norm gaps between m/1 subharmonic curves and their limits.

    Inner curves converge to the homoclinic pair traversed half a forcing
    period apart, M_+(theta) + M_-(theta + pi) for odd m; rotating curves
    converge to M_+- directly.  The returned gaps decrease to 0 along an
    increasing m_list.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if family_tag == INNER:
        plus = closed_form_homoclinic(+1, beta, delta, omega)
        minus = closed_form_homoclinic(-1, beta, delta, omega)
        limit = MelnikovCurve(
            plus.const_term + minus.const_term, plus.cos_coeff - minus.cos_coeff
        )
    else:
        sign = -1 if family_tag == ROTATING_MINUS else +1
        limit = closed_form_homoclinic(sign, beta, delta, omega)
    gaps = []
    for m in m_list:
        r = solve_resonance(family_tag, omega, m, 1)
        if r is None:
            raise ValueError(f"resonance m={m}, n=1 unsolvable at omega={omega}")
        curve = closed_form_subharmonic(r, beta, delta)
        gap = np.max(np.abs(curve.evaluate(theta_grid) - limit.evaluate(theta_grid)))
        gaps.append(float(gap))
    return gaps
