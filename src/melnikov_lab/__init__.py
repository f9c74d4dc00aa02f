"""Melnikov analysis of the periodically forced damped pendulum."""

from .elliptic import (
    EllipticModulus,
    PoleProximityError,
    jacobi_complex,
    jacobi_real,
)
from .melnikov import (
    MelnikovCurve,
    NonConvergenceError,
    Resonance,
    chaos_condition,
    closed_form_homoclinic,
    closed_form_subharmonic,
    enumerate_resonances,
    homoclinic_quadrature,
    simple_zeros,
    solve_resonance,
    subharmonic_quadrature,
)
from .pendulum import (
    ForcedSystem,
    OrbitFamily,
    OrbitPoint,
    orbit_state,
    pendulum_system,
)

__version__ = "0.1.0"

__all__ = [
    "EllipticModulus",
    "PoleProximityError",
    "jacobi_complex",
    "jacobi_real",
    "MelnikovCurve",
    "NonConvergenceError",
    "Resonance",
    "chaos_condition",
    "closed_form_homoclinic",
    "closed_form_subharmonic",
    "enumerate_resonances",
    "homoclinic_quadrature",
    "simple_zeros",
    "solve_resonance",
    "subharmonic_quadrature",
    "ForcedSystem",
    "OrbitFamily",
    "OrbitPoint",
    "orbit_state",
    "pendulum_system",
]
