"""The unperturbed pendulum and its closed-form orbit families.

H = 1 - cos x1 + x2^2/2 on the cylinder S^1 x R, with the forcing /
damping perturbation g = (0, beta*cos(phase) - delta*x2).  Three orbit
families are available in closed form through Jacobi elliptic functions:
librations inside the separatrix, rotations above/below it, and the
homoclinic pair itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    "HOMOCLINIC_PLUS",
    "HOMOCLINIC_MINUS",
    "orbit_state",
    "orbit_complex_values",
    "orbit_ode_residual",
    "homoclinic_limit_distance",
    "wrap_angle",
]

INNER = "inner"
ROTATING_PLUS = "rotating+"
ROTATING_MINUS = "rotating-"
HOMOCLINIC_PLUS = "homoclinic+"
HOMOCLINIC_MINUS = "homoclinic-"

_PERIODIC_TAGS = (INNER, ROTATING_PLUS, ROTATING_MINUS)
_HOMOCLINIC_TAGS = (HOMOCLINIC_PLUS, HOMOCLINIC_MINUS)

_ODE_RESIDUAL_STEP = 1e-3  # step of orbit_ode_residual's difference stencil
_LIMIT_ORBIT_SAMPLES = 800  # orbit samples in homoclinic_limit_distance


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
    """One closed-form orbit of the unperturbed pendulum.

    tag selects the family; modulus is absent for the homoclinic pair and
    the period is then the +inf sentinel.
    """

    tag: str
    modulus: Optional[EllipticModulus] = None

    def __post_init__(self):
        if self.tag in _PERIODIC_TAGS and self.modulus is None:
            raise ValueError(f"family {self.tag!r} needs an elliptic modulus")
        if self.tag in _HOMOCLINIC_TAGS and self.modulus is not None:
            raise ValueError("homoclinic orbits carry no modulus")
        if self.tag not in _PERIODIC_TAGS + _HOMOCLINIC_TAGS:
            raise ValueError(f"unknown orbit family tag {self.tag!r}")

    @property
    def sign(self) -> float:
        return -1.0 if self.tag.endswith("-") else 1.0

    @property
    def period(self) -> float:
        if self.tag == INNER:
            return 4.0 * self.modulus.K
        if self.tag in (ROTATING_PLUS, ROTATING_MINUS):
            return 2.0 * self.modulus.k * self.modulus.K
        return math.inf

    @property
    def energy(self) -> float:
        if self.tag == INNER:
            return 2.0 * self.modulus.k**2
        if self.tag in (ROTATING_PLUS, ROTATING_MINUS):
            return 2.0 / self.modulus.k**2
        return 2.0


def inner_orbit(modulus: EllipticModulus) -> OrbitFamily:
    return OrbitFamily(INNER, modulus)


def rotating_orbit(modulus: EllipticModulus, sign: int = +1) -> OrbitFamily:
    return OrbitFamily(ROTATING_PLUS if sign >= 0 else ROTATING_MINUS, modulus)


def homoclinic_orbit(sign: int = +1) -> OrbitFamily:
    return OrbitFamily(HOMOCLINIC_PLUS if sign >= 0 else HOMOCLINIC_MINUS)


def orbit_state(family: OrbitFamily, t):
    """Closed-form state x(t) for real t; scalars or arrays.

    Inner and homoclinic angles live in (-pi, pi); rotating angles are
    unwrapped (monotone) via the Jacobi amplitude.
    """
    t = np.asarray(t, dtype=float)
    if family.tag == INNER:
        mod = family.modulus
        tri = jacobi_real(t, mod)
        x1 = 2.0 * np.arcsin(mod.k * tri.sn)
        x2 = 2.0 * mod.k * tri.cn
    elif family.tag in (ROTATING_PLUS, ROTATING_MINUS):
        mod = family.modulus
        am = jacobi_am(t / mod.k, mod)
        x1 = family.sign * 2.0 * am
        # dn from the amplitude x1 needs anyway: one Landen pass per sample
        dn = np.sqrt(mod.k_prime**2 + (mod.k * np.cos(am)) ** 2)
        x2 = family.sign * (2.0 / mod.k) * dn
    else:
        x1 = family.sign * 2.0 * np.arcsin(np.tanh(t))
        x2 = family.sign * 2.0 / np.cosh(t)
    if np.ndim(t) == 0:
        return OrbitPoint(float(x1), float(x2))
    return OrbitPoint(x1, x2)


def orbit_complex_values(family: OrbitFamily, t):
    """(sin x1, x2) along the orbit for complex t.

    The angle itself is multivalued off the real axis, but every
    downstream integrand only needs sin x1 and x2, both of which are
    single-valued elliptic expressions.
    """
    t = np.asarray(t, dtype=complex)
    if family.tag == INNER:
        mod = family.modulus
        tri = jacobi_complex(t, mod)
        sin_x1 = 2.0 * mod.k * tri.sn * tri.dn
        x2 = 2.0 * mod.k * tri.cn
    elif family.tag in (ROTATING_PLUS, ROTATING_MINUS):
        mod = family.modulus
        tri = jacobi_complex(t / mod.k, mod)
        sin_x1 = family.sign * 2.0 * tri.sn * tri.cn
        x2 = family.sign * (2.0 / mod.k) * tri.dn
    else:
        sin_x1 = family.sign * 2.0 * np.tanh(t) / np.cosh(t)
        x2 = family.sign * 2.0 / np.cosh(t)
    return sin_x1, x2


def orbit_ode_residual(family: OrbitFamily, t_grid) -> float:
    """Max residual of the pendulum ODE along the closed form.

    Uses a 4th-order centered difference of the closed-form state against
    the vector field (x2, -sin x1); validates the orbit formulas.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _ODE_RESIDUAL_STEP
    stencil = []
    for offset in (-2.0 * h, -h, h, 2.0 * h):
        stencil.append(orbit_state(family, t_grid + offset))
    d_x1 = (stencil[0].x1 - 8.0 * stencil[1].x1 + 8.0 * stencil[2].x1 - stencil[3].x1) / (12.0 * h)
    d_x2 = (stencil[0].x2 - 8.0 * stencil[1].x2 + 8.0 * stencil[2].x2 - stencil[3].x2) / (12.0 * h)
    state = orbit_state(family, t_grid)
    res1 = d_x1 - state.x2
    res2 = d_x2 + np.sin(state.x1)
    return float(np.max(np.hypot(res1, res2)))


def _separatrix_samples(n: int = 4000, t_max: float = 20.0):
    s = np.linspace(-t_max, t_max, n)
    pts = []
    for sign in (+1, -1):
        orbit = homoclinic_orbit(sign)
        state = orbit_state(orbit, s)
        pts.append(np.column_stack([state.x1, state.x2]))
    pts.append(np.array([[math.pi, 0.0], [-math.pi, 0.0]]))
    return np.vstack(pts)


def homoclinic_limit_distance(family: OrbitFamily) -> float:
    """Sup distance from a periodic orbit to the homoclinic set Gamma.

    Distances are taken on the cylinder (angle differences mod 2pi).
    Decreases to 0 along any modulus sequence k -> 1; for small inner
    orbits it approaches the distance 2 from the origin to Gamma.
    """
    if family.tag not in _PERIODIC_TAGS:
        raise ValueError("homoclinic_limit_distance expects a periodic family")
    gamma = _separatrix_samples()
    t = np.linspace(0.0, family.period, _LIMIT_ORBIT_SAMPLES, endpoint=False)
    state = orbit_state(family, t)
    x1 = wrap_angle(state.x1)
    sup = 0.0
    for p1, p2 in zip(x1, np.atleast_1d(state.x2)):
        d1 = wrap_angle(p1 - gamma[:, 0])
        d = np.min(np.hypot(d1, p2 - gamma[:, 1]))
        sup = max(sup, float(d))
    return sup
