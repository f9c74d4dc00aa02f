"""Complex-time contour integrals around the Jacobi pole lattice.

The resonant-orbit integral is evaluated on a small circle around one pole
of the complexified orbit velocity and cross-checked against the residue
closed form 4*pi*beta*(cosh(.)cos(phi) - i sinh(.)sin(phi)), phi = theta +
a phase set by the pole.  The damping kernel contributes zero residue, so
the value is independent of delta; theta enters only through the cos/sin
kernels, which one node-doubling pass integrates into a complex
MelnikovKernels, the type of the real quadratures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .elliptic import EllipticModulus, jacobi_complex
from .melnikov import MelnikovKernels, Resonance, ResidueOverflowError, _melnikov_kernels
from .pendulum import INNER, OrbitFamily, orbit_complex_values

__all__ = [
    "SingleEnclosureViolation",
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
        if not (cmath.isfinite(self.center) and 0.0 < self.radius < math.inf):
            raise ValueError("a contour needs a finite center and a finite positive radius")


@dataclass(frozen=True)
class ContourValue:
    value: complex


def admissible_radius(orbit: OrbitFamily) -> float:
    """Half the minimal pole-lattice spacing of the orbit velocity."""
    return orbit.time_scale * min(orbit.modulus.K, orbit.modulus.K_prime)


def default_contour(r: Resonance, radius_fraction: float = 0.25) -> ContourSpec:
    """Circle around one enclosed pole, clear of the excluded lines.

    Inner family: center iK' + 2K (the half-period shift), where the
    forcing phase is omega*2K = pi m/n (contour_integral_closed counts it).
    Rotating family: the half-period point is a zero of dn, not a pole, so
    the center sits a whole number of periods along, at i k K' + 4 n k K,
    which keeps the circle off the lines Re t = 0 and Re t = 2 pi m / omega
    and leaves the value unchanged by periodicity.  A center past the float
    range (4 n k K at a huge n) raises ResidueOverflowError.
    """
    mod, s = r.modulus, r.orbit.time_scale
    shift = 2.0 if r.family_tag == INNER else 4.0 * r.n
    center = shift * s * mod.K + 1j * s * mod.K_prime
    if not cmath.isfinite(center):
        raise ResidueOverflowError(
            f"contour center {center!r} of the {r.family_tag} {r.m}/{r.n} resonance at "
            f"omega={r.omega!r} overflows the float range"
        )
    spec = ContourSpec(center=center, radius=radius_fraction * admissible_radius(r.orbit))
    _validate_spec(r, spec)
    return spec


def _validate_spec(r: Resonance, spec: ContourSpec):
    bound = admissible_radius(r.orbit)
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
        x2 = orbit_complex_values(family, t)
        return x2 * 1j * spec.radius * e, x2, r.omega * t

    return _melnikov_kernels(sample_orbit, 2.0 * math.pi, _CONTOUR_N0, tol, n_max=2**18)


def residue_terms(r: Resonance) -> Tuple[float, float, float]:
    """(sign, cosh x, sinh x) of the residue closed form of r's contour integral.

    x = omega*s*K', s the orbit's time_scale (1 inner, k rotating); sign is
    the orbit family's, -1 on rotating- and +1 on the others.  Raises
    ResidueOverflowError where cosh x lies beyond the float range.
    """
    arg = r.omega * r.orbit.time_scale * r.modulus.K_prime
    try:
        return r.orbit.sign, math.cosh(arg), math.sinh(arg)
    except OverflowError:
        raise ResidueOverflowError(
            f"residue closed form of the {r.family_tag} {r.m}/{r.n} resonance at "
            f"omega={r.omega!r} overflows: cosh({arg:.6g})"
        ) from None


def contour_integral_closed(r: Resonance, theta: float, beta: float) -> ContourValue:
    """Residue closed form of the contour integral around default_contour's pole.

    Inner: 4*pi*beta*(cosh(w K')cos(phi) - i sinh(w K')sin(phi)) with
    phi = theta + pi ((m - n) mod 2n)/n; rotating: the same with k*K',
    phi = theta and an overall +/- sign.  The inner shift is the forcing
    phase pi m/n at the center iK' + 2K less the pi of cn(t + 2K) = -cn(t),
    so it vanishes for n = 1 and odd m.  Its modulus squared is
    (4*pi*beta)^2 (sinh^2 + cos^2(phi)), least at phi = pi/2, where it is
    4*pi*|beta|*sinh: nonzero for every theta whenever beta > 0.
    Raises ResidueOverflowError where the cosh or the value overflows.
    """
    sign, cosh, sinh = residue_terms(r)
    shift = (r.m - r.n) % (2 * r.n) if r.family_tag == INNER else 0
    if shift:
        theta = theta + math.pi * shift / r.n
    value = (
        sign * 4.0 * math.pi * beta * (cosh * math.cos(theta) - 1j * sinh * math.sin(theta))
    )
    if not cmath.isfinite(value):
        raise ResidueOverflowError(
            f"residue closed form {value!r} of the {r.family_tag} {r.m}/{r.n} resonance "
            f"at omega={r.omega!r}, theta={theta!r}, beta={beta!r} overflows the float range"
        )
    return ContourValue(value)


def laurent_probe(f, mod: EllipticModulus, radii) -> List[Tuple[complex, complex]]:
    """(residue, constant term) of f(jacobi_complex(t, mod), t) at t = iK', per radius.

    f takes the Jacobi triple and t, for example
    lambda tri, t: tri.cn * np.cos(omega * t).  The circle moments
    (1/2pi) int f(c + r e^{is}) r e^{is} ds and (1/2pi) int f ds pick out
    the Laurent coefficients a_{-1} and a_0 exactly within the annulus of
    convergence, so values at different radii must agree; disagreement
    flags an evaluation problem.
    """
    out = []
    s = np.linspace(0.0, 2.0 * math.pi, _PROBE_NODES, endpoint=False)
    e = np.exp(1j * s)
    bound = admissible_radius(OrbitFamily(INNER, mod))
    for radius in radii:
        if not 0.0 < radius < bound:
            raise SingleEnclosureViolation(
                f"probe radius {radius:g} outside admissible annulus (0, {bound:g})"
            )
        t = 1j * mod.K_prime + radius * e
        vals = f(jacobi_complex(t, mod), t)
        out.append((complex(np.mean(vals * radius * e)), complex(np.mean(vals))))
    return out
