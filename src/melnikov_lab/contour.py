"""Complex-time contour integrals around the Jacobi pole lattice.

The resonant-orbit integral is evaluated on a small circle around one
pole of the complexified orbit velocity and cross-checked against the
residue closed forms 4*pi*beta*(cosh(.)cos(theta) - i sinh(.)sin(theta)).
The damping kernel contributes zero residue, so the value is independent
of delta; theta enters only through the cos/sin kernels, which one
node-doubling pass integrates into a complex MelnikovKernels, the type of
the real quadratures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .elliptic import EllipticModulus, jacobi_complex
from .melnikov import MelnikovKernels, Resonance, ResidueOverflowError, _melnikov_kernels
from .pendulum import INNER, ROTATING_MINUS, orbit_complex_values

__all__ = [
    "SingleEnclosureViolation",
    "ResidueOverflowError",
    "ContourSpec",
    "ContourValue",
    "admissible_radius",
    "default_contour",
    "contour_kernels",
    "contour_integral_closed",
    "residue_terms",
    "laurent_probe",
]


_CONTOUR_N0 = 64  # trapezoid nodes on the first node-doubling level
_PROBE_NODES = 1024  # trapezoid nodes on each Laurent probe circle


class SingleEnclosureViolation(ValueError):
    """Contour radius too large: more than one pole could be enclosed."""


@dataclass(frozen=True)
class ContourSpec:
    """A positively oriented circle in complex time."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class ContourValue:
    value: complex


def admissible_radius(family_tag: str, mod: EllipticModulus) -> float:
    """Half the minimal pole-lattice spacing of the orbit velocity."""
    if family_tag == INNER:
        return min(mod.K, mod.K_prime)
    return mod.k * min(mod.K, mod.K_prime)


def default_contour(r: Resonance, radius_fraction: float = 0.25) -> ContourSpec:
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
    spec = ContourSpec(center=center, radius=radius)
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


def contour_kernels(r: Resonance, spec: ContourSpec, tol: float = 1e-9) -> MelnikovKernels:
    """Contour integrals of x2*cos(wt), x2*sin(wt) and x2^2 dt in one pass.

    The circle t = center + radius*e^{is} is integrated over s in [0, 2 pi],
    where dt/ds = i*radius*e^{is}.
    """
    _validate_spec(r, spec)
    family = r.orbit

    def sample_orbit(s):
        e = np.exp(1j * s)
        t = spec.center + spec.radius * e
        x2 = orbit_complex_values(family, t)[1]
        return x2 * 1j * spec.radius * e, x2, r.omega * t

    return _melnikov_kernels(sample_orbit, 2.0 * math.pi, _CONTOUR_N0, tol, n_max=2**18)


def residue_terms(r: Resonance) -> Tuple[float, float, float]:
    """(sign, cosh x, sinh x) of the residue closed form of r's contour integral.

    x = omega*K' for inner orbits and omega*k*K' for rotating ones; sign is
    -1 on the rotating- family, else +1.  Raises ResidueOverflowError
    where cosh x lies beyond the float range.
    """
    mod = r.modulus
    if r.family_tag == INNER:
        sign, arg = 1.0, r.omega * mod.K_prime
    else:
        sign = -1.0 if r.family_tag == ROTATING_MINUS else 1.0
        arg = r.omega * mod.k * mod.K_prime
    try:
        return sign, math.cosh(arg), math.sinh(arg)
    except OverflowError:
        raise ResidueOverflowError(
            f"residue closed form of the {r.family_tag} {r.m}/{r.n} resonance at "
            f"omega={r.omega!r} overflows: cosh({arg:.6g})"
        ) from None


def contour_integral_closed(r: Resonance, theta: float, beta: float) -> ContourValue:
    """Residue closed form of the contour integral.

    Inner: 4*pi*beta*(cosh(w K')cos(theta) - i sinh(w K')sin(theta));
    rotating: the same with k*K' and an overall +/- sign.  Its modulus
    squared is (4*pi*beta)^2 (sinh^2 + cos^2(theta)), least at theta = pi/2,
    where it is 4*pi*|beta|*sinh: nonzero for every theta whenever beta > 0.
    Raises ResidueOverflowError where the cosh or the value overflows.
    """
    sign, cosh, sinh = residue_terms(r)
    value = (
        sign * 4.0 * math.pi * beta * (cosh * math.cos(theta) - 1j * sinh * math.sin(theta))
    )
    if not cmath.isfinite(value):
        raise ResidueOverflowError(
            f"residue closed form {value!r} of the {r.family_tag} {r.m}/{r.n} resonance "
            f"at omega={r.omega!r}, theta={theta!r}, beta={beta!r} overflows the float range"
        )
    return ContourValue(value)


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

