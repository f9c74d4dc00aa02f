"""Complex-time contour integrals around the Jacobi pole lattice.

The resonant-orbit integral is evaluated on a small circle around one
pole of the complexified orbit velocity and cross-checked against the
residue closed forms 4*pi*beta*(cosh(.)cos(theta) - i sinh(.)sin(theta)).
The damping kernel contributes zero residue, so the value is independent
of delta; theta enters only through the cos/sin kernels, which are
integrated once per resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .elliptic import EllipticModulus, jacobi_complex
from .melnikov import Resonance, _level_means, _new_nodes, _trapezoid_doubling
from .pendulum import INNER, ROTATING_MINUS, orbit_complex_values

__all__ = [
    "SingleEnclosureViolation",
    "ResidueOverflowError",
    "ContourSpec",
    "ContourValue",
    "ContourKernels",
    "admissible_radius",
    "default_contour",
    "contour_kernels",
    "contour_integral_numeric",
    "contour_integral_closed",
    "laurent_probe",
    "substitution_check",
]


_CONTOUR_N0 = 64  # trapezoid nodes on the first node-doubling level
_PROBE_NODES = 1024  # trapezoid nodes on each Laurent probe circle
_SUBSTITUTION_TOL = 1e-10  # quad tolerance of both sides of substitution_check


class SingleEnclosureViolation(ValueError):
    """Contour radius too large: more than one pole could be enclosed."""


class ResidueOverflowError(OverflowError):
    """The residue closed form lies beyond the float range (its cosh overflows)."""


@dataclass(frozen=True)
class ContourSpec:
    """A positively oriented circle in complex time."""

    center: complex
    radius: float
    theta: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class ContourValue:
    value: complex
    theta: float
    family_tag: str


@dataclass(frozen=True)
class ContourKernels:
    """One contour sweep: cos / sin forcing kernels and damping kernel."""

    cos_kernel: complex
    sin_kernel: complex
    damping_kernel: complex

    def value(self, theta, beta: float, delta: float):
        """beta*(C cos(theta) - S sin(theta)) - delta*D for a scalar or array theta."""
        if np.ndim(theta) == 0:  # numpy's vector cos/sin may round apart from libm's
            cos_th, sin_th = math.cos(theta), math.sin(theta)
        else:
            cos_th, sin_th = np.cos(theta), np.sin(theta)
        forcing = self.cos_kernel * cos_th - self.sin_kernel * sin_th
        return beta * forcing - delta * self.damping_kernel


def admissible_radius(family_tag: str, mod: EllipticModulus) -> float:
    """Half the minimal pole-lattice spacing of the orbit velocity."""
    if family_tag == INNER:
        return min(mod.K, mod.K_prime)
    return mod.k * min(mod.K, mod.K_prime)


def default_contour(
    r: Resonance, radius_fraction: float = 0.25, theta: float = 0.0
) -> ContourSpec:
    """Circle around one enclosed pole, clear of the excluded lines.

    Inner family: center iK' + 2K (the half-period shift); the residue
    closed form then comes out for n = 1, m odd.  Rotating family: the
    half-period point is a zero of dn, not a pole, so the center sits a
    whole number of periods along, at i k K' + 4 n k K, which keeps the
    circle off the lines Re t = 0 and Re t = 2 pi m / omega and leaves
    the value unchanged by periodicity.
    """
    mod = r.modulus
    if r.family_tag == INNER:
        center = 2.0 * mod.K + 1j * mod.K_prime
    else:
        center = 4.0 * r.n * mod.k * mod.K + 1j * mod.k * mod.K_prime
    bound = admissible_radius(r.family_tag, mod)
    radius = radius_fraction * bound
    spec = ContourSpec(center=center, radius=radius, theta=theta)
    _validate_spec(r, spec)
    return spec


def _validate_spec(r: Resonance, spec: ContourSpec):
    bound = admissible_radius(r.family_tag, r.modulus)
    if spec.radius >= bound:
        raise SingleEnclosureViolation(
            f"radius {spec.radius:g} >= admissible bound {bound:g}"
        )
    re = spec.center.real
    for line in (0.0, 2.0 * math.pi * r.m / r.omega):
        if abs(re - line) <= spec.radius:
            raise SingleEnclosureViolation(
                "contour intersects an excluded vertical line"
            )


def contour_kernels(r: Resonance, spec: ContourSpec, tol: float = 1e-9) -> ContourKernels:
    """Contour integrals of x2*cos(wt), x2*sin(wt) and x2^2 in one pass."""
    _validate_spec(r, spec)
    family = r.orbit
    omega = r.omega

    def sample_mean(n):
        e = np.exp(1j * (_new_nodes(n, _CONTOUR_N0) * (2.0 * math.pi / n)))
        t = spec.center + spec.radius * e
        x2 = orbit_complex_values(family, t)[1]
        x2_dt = x2 * 1j * spec.radius * e
        phase = omega * t
        block = np.empty((3, t.size), dtype=complex)
        np.cos(phase, out=block[0])
        np.sin(phase, out=block[1])
        np.multiply(x2_dt, block[:2], out=block[:2])
        np.multiply(x2_dt, x2, out=block[2])
        return _level_means(n, _CONTOUR_N0, block)

    (cos_k, sin_k, damp_k), _, _ = _trapezoid_doubling(
        sample_mean, 2.0 * math.pi, tol, n0=_CONTOUR_N0, n_max=2**18
    )
    return ContourKernels(cos_k, sin_k, damp_k)


def contour_integral_numeric(
    r: Resonance,
    spec: ContourSpec,
    beta: float,
    delta: float,
    tol: float = 1e-9,
    kernels: ContourKernels = None,
) -> ContourValue:
    """Numeric contour integral of DH . g around the enclosed pole."""
    if kernels is None:
        kernels = contour_kernels(r, spec, tol)
    value = kernels.value(spec.theta, beta, delta)
    return ContourValue(complex(value), spec.theta, r.family_tag)


def contour_integral_closed(r: Resonance, theta: float, beta: float) -> ContourValue:
    """Residue closed form of the contour integral.

    Inner: 4*pi*beta*(cosh(w K')cos(theta) - i sinh(w K')sin(theta));
    rotating: the same with k*K' and an overall +/- sign.  Nonzero for
    every theta whenever beta > 0.  Raises ResidueOverflowError where the
    cosh overflows.
    """
    mod = r.modulus
    if r.family_tag == INNER:
        sign, arg = 1.0, r.omega * mod.K_prime
    else:
        sign = -1.0 if r.family_tag == ROTATING_MINUS else 1.0
        arg = r.omega * mod.k * mod.K_prime
    try:
        cosh, sinh = math.cosh(arg), math.sinh(arg)
    except OverflowError:
        raise ResidueOverflowError(
            f"residue closed form of the {r.family_tag} {r.m}/{r.n} resonance at "
            f"omega={r.omega!r} overflows: cosh({arg:.6g})"
        ) from None
    value = (
        sign * 4.0 * math.pi * beta * (cosh * math.cos(theta) - 1j * sinh * math.sin(theta))
    )
    return ContourValue(value, theta, r.family_tag)


_PROBE_KERNELS = ("cn", "dn", "dn_scaled", "cn2", "cos", "sin", "cos_cn", "sin_cn")


def laurent_probe(
    kernel: str,
    mod: EllipticModulus,
    radii,
    omega: float = None,
) -> List[Tuple[complex, complex]]:
    """(residue, constant term) of a kernel at its pole, per radius.

    The circle moments (1/2pi) int f(c + r e^{is}) r e^{is} ds and
    (1/2pi) int f ds pick out the Laurent coefficients a_{-1} and a_0
    exactly within the annulus of convergence, so values at different
    radii must agree; disagreement flags an evaluation problem.

    Kernels "cn", "dn", "cn2", "cos", "sin", "cos_cn", "sin_cn" probe at
    t = iK'; "dn_scaled" probes dn(t/k) at t = i k K'.
    """
    if kernel not in _PROBE_KERNELS:
        raise ValueError(f"unknown probe kernel {kernel!r}")
    if kernel in ("cos", "sin", "cos_cn", "sin_cn") and omega is None:
        raise ValueError(f"kernel {kernel!r} needs omega")

    if kernel == "dn_scaled":
        center = 1j * mod.k * mod.K_prime

        def f(t):
            return jacobi_complex(t / mod.k, mod).dn

    else:
        center = 1j * mod.K_prime

        def f(t):
            tri = jacobi_complex(t, mod) if "cn" in kernel or "dn" in kernel else None
            if kernel == "cn":
                return tri.cn
            if kernel == "dn":
                return tri.dn
            if kernel == "cn2":
                return tri.cn**2
            if kernel == "cos":
                return np.cos(omega * t)
            if kernel == "sin":
                return np.sin(omega * t)
            if kernel == "cos_cn":
                return tri.cn * np.cos(omega * t)
            return tri.cn * np.sin(omega * t)

    out = []
    s = np.linspace(0.0, 2.0 * math.pi, _PROBE_NODES, endpoint=False)
    e = np.exp(1j * s)
    # dn(t/k) has the rotating orbits' pole lattice, the other kernels the inner one
    bound = admissible_radius(ROTATING_MINUS if kernel == "dn_scaled" else INNER, mod)
    for radius in radii:
        if not 0.0 < radius < bound:
            raise SingleEnclosureViolation(
                f"probe radius {radius:g} outside admissible annulus (0, {bound:g})"
            )
        vals = f(center + radius * e)
        residue = complex(np.mean(vals * radius * e))
        constant = complex(np.mean(vals))
        out.append((residue, constant))
    return out


def substitution_check(mod: EllipticModulus, t_lo: float, t_hi: float) -> float:
    """Discrepancy in the substitution s = 1/sn(t) for int cn^2 dt.

    Compares int_{t_lo}^{t_hi} cn^2 t dt against
    -int (1/s^2) sqrt((1-s^2)/(k^2-s^2)) ds over the image interval;
    both sides by adaptive quadrature.  Requires 0 < t_lo <= t_hi < K,
    where sn is positive and cn/dn keeps the branch of the square root.
    """
    from scipy.integrate import quad

    from .elliptic import jacobi_real

    if t_lo == t_hi:
        return 0.0
    if not 0.0 < t_lo < t_hi < mod.K:
        raise ValueError("path must lie in (0, K)")

    def cn2(t):
        return jacobi_real(t, mod).cn ** 2

    lhs, _ = quad(cn2, t_lo, t_hi, epsabs=_SUBSTITUTION_TOL, epsrel=_SUBSTITUTION_TOL)

    def s_of(t):
        return 1.0 / jacobi_real(t, mod).sn

    def g(s):
        # (1-s^2)/(k^2-s^2) stays positive for |s| > 1
        return (1.0 / s**2) * math.sqrt((s**2 - 1.0) / (s**2 - mod.k**2))

    s_lo, s_hi = s_of(t_lo), s_of(t_hi)
    rhs_val, _ = quad(g, s_lo, s_hi, epsabs=_SUBSTITUTION_TOL, epsrel=_SUBSTITUTION_TOL)
    rhs = -rhs_val
    return abs(lhs - rhs)
