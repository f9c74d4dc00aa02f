"""Resonances and Melnikov functions for the forced pendulum.

Subharmonic and homoclinic Melnikov functions are computed two ways: by
node-doubling trapezoid quadrature of the defining integrals (spectrally
accurate, the integrands being periodic or exponentially decaying), and
through the sech / elliptic-integral closed forms.  Every curve has the
shape const + coeff*cos(theta), so zeros, tangencies and the chaos
threshold are available in closed form as well.

The defining integral of x2*(beta*cos(omega t + theta) - delta*x2) is
affine in cos(theta), sin(theta) and delta, so one node-doubling pass
integrates the three kernels x2*cos(omega t), x2*sin(omega t) and x2^2
into a MelnikovKernels, and MelnikovKernels.value evaluates it for any
scalar or array theta and any (beta, delta) with plain arithmetic.  A
Resonance computes its kernels once, on first use.  The contour module's
complex-time integrals are MelnikovKernels of the same pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .elliptic import EllipticModulus, _complementary, _complete_K
from .pendulum import FAMILIES, INNER, ForcedSystem, OrbitFamily, orbit_state

__all__ = [
    "K_WINDOW",
    "NonConvergenceError",
    "IntegrationFailure",
    "ResonanceError",
    "ResidueOverflowError",
    "Resonance",
    "MelnikovKernels",
    "MelnikovCurve",
    "MelnikovZero",
    "ChaosVerdict",
    "solve_resonance",
    "subharmonic_quadrature",
    "closed_form_subharmonic",
    "homoclinic_quadrature",
    "closed_form_homoclinic",
    "simple_zeros",
    "chaos_condition",
    "enumerate_resonances",
]


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


class ResidueOverflowError(OverflowError):
    """A Melnikov or contour value, or a residue closed form, lies beyond the float range."""


# Both quadratures stop where every kernel has |cur - prev| <= this * (1 + |cur|).
_QUADRATURE_TOL = 1e-10
_N_MAX = 2**20  # the most nodes a quadrature samples before it gives up
# The separatrix integrand decays like sech(t); cut at +-this, its tail is below 1e-13.
_HOMOCLINIC_HALF = 40.0 + 5.0 * math.log10(1.0 / _QUADRATURE_TOL)
_RESONANCE_RTOL = 1e-10  # largest |residual| / target that solve_resonance accepts
_K_PRIME_RANGE = (1e-300, 1.0 - 1e-16)  # searched by the resonance bisection
# A target whose separatrix estimate k'0 = 4 exp(-target) lies below this is
# bisected on k'0 (1 +- _SEPARATRIX_BRACKET), which holds the root (_bisect_k_prime).
_SEPARATRIX_K_PRIME = 1e-3
_SEPARATRIX_BRACKET = 1e-5
K_WINDOW = (1e-6, 1.0 - 1e-15)  # moduli that resonance tables and certificates list
# Rotating moduli below this are not listed.  The bisection ends within one
# float step of k' near 1, which moves k by 2^-53 / k^2 relative: more than
# _RESONANCE_RTOL below k = 1.054e-3 (the largest failing k found is 1.051e-3).
_ROTATING_K_MIN = 1.1e-3
# simple_zeros: a curve with | |const| - |coeff| | <= this * max(|const|, |coeff|) is tangent
_TANGENCY_TOL = 1e-12


@dataclass(frozen=True)
class Resonance:
    """A resonant orbit: n unperturbed periods fit m forcing periods."""

    family_tag: str
    m: int
    n: int
    modulus: EllipticModulus
    omega: float

    def __post_init__(self):
        if self.family_tag not in FAMILIES:
            raise ValueError(f"unsupported resonance family {self.family_tag!r}")
        if self.m < 1 or self.n < 1 or math.gcd(self.m, self.n) != 1:
            raise ValueError("m, n must be coprime positive integers")

    @cached_property
    def orbit(self) -> OrbitFamily:
        return OrbitFamily(self.family_tag, self.modulus)

    @property
    def forcing_interval(self) -> float:
        return 2.0 * math.pi * self.m / self.omega

    def residual(self) -> float:
        """Residual of the defining resonance equation."""
        target, _ = _resonance_equation(self.family_tag, self.omega, self.m, self.n)
        return self.orbit.time_scale * self.modulus.K - target

    @cached_property
    def kernels(self) -> "MelnikovKernels":
        """The orbit's Melnikov kernels over [0, 2*pi*m/omega], integrated on first use.

        The integrand is periodic over the full interval at a resonance, so
        the composite trapezoid rule converges spectrally under doubling.
        The first level has more than 2m nodes, so the m forcing periods on
        the interval cannot alias.
        """
        family = self.orbit

        def sample_orbit(t):
            x2 = orbit_state(family, t).x2
            return x2, x2, self.omega * t

        return _melnikov_kernels(sample_orbit, self.forcing_interval, _first_level(64, self.m))


def _cosh(x: float) -> float:
    """math.cosh, or inf where it overflows (|x| beyond ~710.5).

    Dividing by it gives a sech factor that underflows to 0 instead of
    raising, and is math.cosh's quotient bit for bit wherever that is finite.
    """
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _rotating_period(k: float, k_prime: float) -> float:
    return k * _complete_K(k, k_prime)


def _resonance_equation(family_tag: str, omega: float, m: int, n: int):
    """(target, period) such that the m/n resonance is period(k, k') = target.

    period increases with k: K(k) for inner orbits, k*K(k) for rotating
    ones (k*K runs from 0 to inf as k' decreases from 1 to 0).  It equals
    the EllipticModulus expression (mod.K or mod.k * mod.K) bit for bit.
    """
    if family_tag not in FAMILIES:
        raise ValueError(f"unsupported resonance family {family_tag!r}")
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if omega <= 0:
        raise ValueError("omega must be positive")
    try:
        if family_tag == INNER:
            return math.pi * m / (2.0 * n * omega), _complete_K
        return math.pi * m / (n * omega), _rotating_period
    except OverflowError:
        # m or n past the float range; an inner m/n <= omega has no resonance
        if family_tag == INNER and m <= n and m / n <= omega:
            return 0.0, _complete_K
        raise ResonanceError(
            f"{family_tag} resonance at omega={omega!r} is out of range: "
            "m or n lies past the float range"
        ) from None


def _bisect_k_prime(period, target: float, what: str) -> EllipticModulus:
    """The modulus at the bisected root of period(k, k') = target in k'.

    period is strictly decreasing in k'; a target beyond its range over
    _K_PRIME_RANGE (by more than the acceptance tolerance) has no root to
    bisect for.  Each step costs one AGM descent (period at k = sqrt((1 - k')
    (1 + k')), as from_k_prime forms it) and builds no modulus; the one
    EllipticModulus is built at the returned midpoint.

    Near the separatrix the bisection starts from k'0 = 4 exp(-target).
    With L = ln(4/k'), K = L + (k'^2/4)(L - 1) + O(k'^4 L) and
    k K = L - (k'^2/4)(L + 1) + O(k'^4 L) (Abramowitz & Stegun 17.3.26), so
    the root k' lies within |ln(k'/k'0)| <= k'^2 (L + 1)/4 of k'0: below
    2.4e-6 for k'0 < 1e-3 (2.3e-6 measured at k' = 1e-3; rounding
    exp(-target) adds at most 5e-14).  Such a target bisects on the bracket
    k'0 (1 +- 1e-5), cut below at 1e-300, in 36-38 steps, where
    [1e-300, 1 - 1e-16] took up to 200 and resolved no k' below ~1e-52.
    Every other target bisects on [1e-300, 1 - 1e-16].  The bracket ends
    share the sign of period - target at the range ends, so the loop reads
    f_lo from the range check either way.
    """

    def period_at(k_prime):
        return period(_complementary(k_prime), k_prime)

    lo, hi = _K_PRIME_RANGE
    top = period_at(lo)
    bottom = period_at(hi)
    slack = _RESONANCE_RTOL * target
    # an infinite target (pi*m/(n*omega) past the float range) meets both bounds
    if not (math.isfinite(target) and bottom - slack <= target <= top + slack):
        raise ResonanceError(
            f"{what} is out of range: target {target:.6g} lies outside the "
            f"periods [{bottom:.6g}, {top:.6g}] reachable for k' in [{lo:g}, {hi!r}]"
        )
    f_lo = top - target
    k_prime_0 = 4.0 * math.exp(-target)
    if k_prime_0 < _SEPARATRIX_K_PRIME:
        lo = max(lo, k_prime_0 * (1.0 - _SEPARATRIX_BRACKET))
        hi = k_prime_0 * (1.0 + _SEPARATRIX_BRACKET)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = period_at(mid) - target
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
    The bisection in k' runs one AGM descent per step and builds one
    EllipticModulus, at the root; near the separatrix (k' < 1e-3) it starts
    from k' = 4 exp(-target) and a solve takes 40-42 descents in all.
    Raises ResonanceError, without bisecting, when m, n or the target is past the
    float range or lies outside the periods k' in [1e-300, 1 - 1e-16] reaches, and when
    the solved modulus misses the target by more than 1e-10 relative: every
    k' >= 1e-300 resolves, but rotating moduli much closer to 0 than
    k ~ 1e-3 do not.
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


def _first_level(n0, cycles):
    """The smallest n0 * 2^j above 2 * cycles, the forcing's Nyquist count.

    A coarser first grid aliases the forcing cos(omega t) to a slow
    oscillation on the first two levels, which then agree on a wrong value.
    The doubling stops at the first n0 * 2^j past _N_MAX, a level that
    _trapezoid_doubling refuses before sampling, so an infinite count ends.
    """
    while n0 <= 2.0 * cycles and n0 <= _N_MAX:
        n0 *= 2
    return n0


def _trapezoid_doubling(sample_mean, length, tol, n0, n_max):
    """(length * mean(f), nodes, last max |cur - prev|) by nested node doubling.

    No level can be accepted before it is compared with the one before,
    so the first call sample_mean(2*n0) returns both first levels: the
    pair (mean of f over the even nodes, mean over the odd nodes) of the
    2*n0-node grid, the even nodes being the n0-node level.  After that
    sample_mean(n) is the mean over the n/2 odd-indexed nodes that level
    n adds, the midpoints of the previous level.  Each node is evaluated
    once and T_2n = (T_n + M_n) / 2.  sample_mean(n) may return arrays,
    as the sampler of _melnikov_kernels (the one caller) returns the three
    kernels' means; every element must agree.  A level whose value is not
    finite raises NonConvergenceError at once, as does an n0 beyond
    n_max / 2, before any sampling.
    """
    n = 2 * n0
    if n > n_max:
        raise NonConvergenceError(n, tol, math.inf)
    mean, mid = sample_mean(n)
    while True:
        prev = length * mean
        mean = 0.5 * (mean + mid)
        cur = length * mean
        diff = np.abs(cur - prev)
        if not np.isfinite(cur).all():
            raise NonConvergenceError(n, tol, float(np.max(diff)))
        if (diff <= tol * (1.0 + np.abs(cur))).all():
            return cur, n, float(np.max(diff))
        if n >= n_max:
            raise NonConvergenceError(n, tol, float(np.max(diff)))
        n *= 2
        mid = sample_mean(n)


def _finite_theta(theta):
    """theta as a float or a float array; ValueError unless every element is finite."""
    if np.ndim(theta) == 0:
        theta = float(theta)
        finite = math.isfinite(theta)
    else:
        theta = np.asarray(theta, dtype=float)
        finite = np.isfinite(theta).all()
    if not finite:
        raise ValueError("theta must be finite")
    return theta


@dataclass(frozen=True)
class MelnikovKernels:
    """One node-doubling pass: integrals of x2*cos(phase), x2*sin(phase) and x2^2 dt.

    Real on a real time interval, complex on a contour.  nodes is the
    node count of the accepted level and last_diff the largest
    |cur - prev| of the three kernels there.
    """

    cos_kernel: complex
    sin_kernel: complex
    damping_kernel: complex
    nodes: int
    last_diff: float

    def value(self, theta, beta: float, delta: float):
        """beta*(C cos(theta) - S sin(theta)) - delta*D for a scalar or array theta.

        A scalar theta gives a scalar (float or complex, as the kernels
        are), an array an array.  A value that is not finite (parameters
        near the float range) raises ResidueOverflowError, which names it.
        """
        theta = _finite_theta(theta)
        if isinstance(theta, float):
            # math's cos/sin skip numpy's ufunc dispatch
            forcing = self.cos_kernel * math.cos(theta) - self.sin_kernel * math.sin(theta)
            out = beta * forcing - delta * self.damping_kernel
            if cmath.isfinite(out):
                return out
            bad = out
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                forcing = self.cos_kernel * np.cos(theta) - self.sin_kernel * np.sin(theta)
                out = beta * forcing - delta * self.damping_kernel
            finite = np.isfinite(out)
            if finite.all():
                return out
            bad = out[~finite].item(0)
        raise ResidueOverflowError(
            f"Melnikov value {bad!r} at beta={beta!r}, delta={delta!r} overflows the float range"
        )


def _melnikov_kernels(
    sample_orbit, length, n0, tol=_QUADRATURE_TOL, n_max=_N_MAX
) -> MelnikovKernels:
    """The three kernels over a parameter interval of this length by node doubling.

    sample_orbit(s) returns (w, x2, phase) at the nodes s = j*length/n that
    sample_mean(n) takes: every j < 2*n0 for the first level pair, the odd
    j after that (see _trapezoid_doubling).  w = x2 * dt/ds is x2 times the
    derivative of time along s (x2 itself on a real time interval).  Each
    mean is a row sum over the node count, np.mean's value bit for bit.
    Every kernel must meet the tolerance on its own.
    """

    def sample_mean(n):
        first = n == 2 * n0
        j = np.arange(n) if first else np.arange(1, n, 2)
        w, x2, phase = sample_orbit(j * (length / n))
        block = np.empty((3, x2.size), dtype=w.dtype)
        np.cos(phase, out=block[0])
        np.sin(phase, out=block[1])
        np.multiply(w, block[:2], out=block[:2])
        np.multiply(w, x2, out=block[2])
        if first:
            return block[:, 0::2].sum(axis=1) / n0, block[:, 1::2].sum(axis=1) / n0
        return block.sum(axis=1) / (n // 2)

    kernels, nodes, last_diff = _trapezoid_doubling(sample_mean, length, tol, n0, n_max)
    return MelnikovKernels(*kernels.tolist(), nodes, last_diff)


def subharmonic_quadrature(sys: ForcedSystem, r: Resonance, theta):
    """M^{m/n}(theta) by trapezoid quadrature over [0, 2*pi*m/omega].

    The value of r.kernels (see Resonance.kernels), which the first call
    on r integrates; theta is a scalar (float result) or an array (array
    result).  sys.omega must be the resonance's omega.
    """
    if sys.omega != r.omega:
        raise ValueError(f"system omega {sys.omega!r} != resonance omega {r.omega!r}")
    theta = _finite_theta(theta)
    return r.kernels.value(theta, sys.beta, sys.delta)


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
        amplitude = 4.0 * math.pi if r.n == 1 and r.m % 2 == 1 else 0.0
    else:
        j1 = 8.0 * count * mod.E / mod.k
        amplitude = 2.0 * math.pi if r.n == 1 else 0.0
    j2 = amplitude / _cosh(r.omega * r.orbit.time_scale * mod.K_prime)
    return MelnikovCurve(-delta * j1, r.orbit.sign * beta * j2)


def homoclinic_quadrature(
    sys: ForcedSystem, sign: int, theta, phase_convention: str = "omega-t"
):
    """M_+-(theta) by truncated trapezoid quadrature over the separatrix.

    The interval is [-T, T] with T = _HOMOCLINIC_HALF, and node doubling
    drives the trapezoid error of each kernel below the tolerance, from a
    first level of more than two nodes per forcing period.  Nothing holds
    the kernels, so every call integrates them again.  theta is a scalar
    or an array, as for subharmonic_quadrature.  phase_convention="t" evaluates the forcing at
    t + theta instead of omega*t + theta (audit hook; the closed forms use
    omega*t + theta).
    """
    if phase_convention not in ("omega-t", "t"):
        raise ValueError("phase_convention must be 'omega-t' or 't'")
    theta = _finite_theta(theta)
    rate = sys.omega if phase_convention == "omega-t" else 1.0
    orientation = 1.0 if sign >= 0 else -1.0
    half = _HOMOCLINIC_HALF
    n0 = _first_level(512, rate * half / math.pi)

    def sample_orbit(s):
        t = -half + s
        x2 = orientation * 2.0 / np.cosh(t)
        return x2, x2, rate * t

    kernels = _melnikov_kernels(sample_orbit, 2.0 * half, n0)
    return kernels.value(theta, sys.beta, sys.delta)


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
    simple: bool


def simple_zeros(curve: MelnikovCurve) -> Tuple[MelnikovZero, ...]:
    """All zeros of the curve in [0, 2pi), in a tuple, with simplicity flags.

    Zeros exist iff |const_term| <= |cos_coeff|; at equality the single
    zero is a tangency, reported with simple=False rather than dropped,
    so certificates can tell "no zero" from "degenerate zero".  Every
    other zero has |slope| >= 1e-6 |cos_coeff| and is simple.  Both tests
    are relative to max(|const_term|, |cos_coeff|), so a curve and its
    scaled copies have the same zeros.
    """
    c, a = curve.const_term, curve.cos_coeff
    scale = max(abs(c), abs(a))
    if abs(a) <= _TANGENCY_TOL * scale:
        return ()
    if abs(abs(c) - abs(a)) <= _TANGENCY_TOL * scale:
        return (MelnikovZero(0.0 if c * a < 0 else math.pi, False),)
    if abs(c) > abs(a):
        return ()
    theta0 = math.acos(-c / a)
    return (MelnikovZero(theta0, True), MelnikovZero(2.0 * math.pi - theta0, True))


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
    """All coprime (m, n) resonances whose modulus lies in the window, by k then (m, n).

    Exhibits a finite sample of the key set; with n_max = 1 the inner
    moduli increase monotonically toward 1 with m.  An (m, n) whose
    resonance target lies outside the targets of the window edges is
    skipped unsolved, and the rotating window starts no lower than
    k = 1.1e-3, so moduli too close to 0 or 1 to resolve (which
    solve_resonance reports with ResonanceError) never stop the search.
    The walk stops m at the first target above the window and n once m_max's
    target lies below it (targets rise with m and fall with n, rounded too).
    """
    k_lo, k_hi = k_window
    if not 0.0 < k_lo < k_hi < 1.0:
        raise ValueError("k window must satisfy 0 < k_lo < k_hi < 1")
    if family_tag != INNER:
        k_lo = max(k_lo, _ROTATING_K_MIN)
    _, period = _resonance_equation(family_tag, omega, 1, 1)
    edge_lo = period(k_lo, _complementary(k_lo))
    edge_hi = period(k_hi, _complementary(k_hi))
    if m_max < 1:
        return []
    found = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            target, _ = _resonance_equation(family_tag, omega, m, n)
            if target > edge_hi:
                break
            if target < edge_lo or math.gcd(m, n) != 1:
                continue
            r = solve_resonance(family_tag, omega, m, n)
            if r is not None and k_lo <= r.modulus.k <= k_hi:
                found.append(r)
        if target < edge_lo:
            break
    found.sort(key=lambda r: (r.modulus.k, r.m, r.n))
    return found

