"""The unperturbed pendulum and its closed-form orbit families.

H = 1 - cos x1 + x2^2/2 on the cylinder S^1 x R, with the forcing /
damping perturbation g = (0, beta*cos(phase) - delta*x2).  Three orbit
families are available in closed form through Jacobi elliptic functions:
librations inside the separatrix and rotations above and below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticModulus, jacobi_am, jacobi_complex, jacobi_real

__all__ = [
    "ForcedSystem",
    "pendulum_system",
    "OrbitFamily",
    "OrbitPoint",
    "INNER",
    "ROTATING_PLUS",
    "ROTATING_MINUS",
    "FAMILIES",
    "orbit_state",
    "orbit_complex_values",
    "wrap_angle",
]

INNER = "inner"
ROTATING_PLUS = "rotating+"
ROTATING_MINUS = "rotating-"
# every orbit family tag, in the order resonance tables and certificates list them
FAMILIES = (INNER, ROTATING_PLUS, ROTATING_MINUS)


def wrap_angle(x):
    """Reduce an angle to the representative interval (-pi, pi]."""
    return -np.mod(-np.asarray(x) + math.pi, 2.0 * math.pi) + math.pi


@dataclass(frozen=True)
class ForcedSystem:
    """Parameters (omega, beta, delta) of the forced, damped pendulum.

    The stroboscopic flow and the Melnikov integrands hard-code the
    pendulum's H and g above; build instances with pendulum_system(),
    which validates the parameters.
    """

    omega: float
    beta: float
    delta: float


def pendulum_system(beta: float, delta: float, omega: float) -> ForcedSystem:
    if not all(math.isfinite(x) for x in (beta, delta, omega)):
        raise ValueError("beta, delta and omega must be finite")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be nonnegative")
    return ForcedSystem(omega=omega, beta=beta, delta=delta)


@dataclass(frozen=True)
class OrbitPoint:
    x1: float
    x2: float


@dataclass(frozen=True)
class OrbitFamily:
    """One closed-form orbit of the unperturbed pendulum: a FAMILIES tag and its modulus."""

    tag: str
    modulus: EllipticModulus

    def __post_init__(self):
        if self.tag not in FAMILIES:
            raise ValueError(f"unknown orbit family tag {self.tag!r}")

    @property
    def sign(self) -> float:
        return -1.0 if self.tag.endswith("-") else 1.0

    @property
    def time_scale(self) -> float:
        """1 on inner orbits; k on rotating ones, whose Jacobi functions run at t/k."""
        return 1.0 if self.tag == INNER else self.modulus.k

    @property
    def period(self) -> float:
        return (4.0 if self.tag == INNER else 2.0) * self.time_scale * self.modulus.K


def orbit_state(family: OrbitFamily, t):
    """Closed-form state x(t) for real t; scalars or arrays.

    Inner angles live in (-pi, pi); rotating angles are unwrapped
    (monotone) via the Jacobi amplitude.
    """
    t = np.asarray(t, dtype=float)
    mod = family.modulus
    if family.tag == INNER:
        tri = jacobi_real(t, mod)
        x1 = 2.0 * np.arcsin(mod.k * tri.sn)
        x2 = 2.0 * mod.k * tri.cn
    else:
        am = jacobi_am(t / mod.k, mod)
        x1 = family.sign * 2.0 * am
        # dn from the amplitude x1 needs anyway: one Landen pass per sample
        dn = np.sqrt(mod.k_prime**2 + (mod.k * np.cos(am)) ** 2)
        x2 = family.sign * (2.0 / mod.k) * dn
    return OrbitPoint(x1, x2)


def orbit_complex_values(family: OrbitFamily, t):
    """x2 along the orbit for complex t.

    The angle x1 is multivalued off the real axis; the velocity x2, the
    one factor of every contour integrand, is a single-valued elliptic
    expression: 2k cn(t) on inner orbits, +-(2/k) dn(t/k) on rotating ones.
    """
    t = np.asarray(t, dtype=complex)
    mod = family.modulus
    if family.tag == INNER:
        return 2.0 * mod.k * jacobi_complex(t, mod).cn
    return family.sign * (2.0 / mod.k) * jacobi_complex(t / mod.k, mod).dn
