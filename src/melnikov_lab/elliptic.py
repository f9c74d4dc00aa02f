"""Complete elliptic integrals and Jacobi elliptic functions.

All routines are AGM-based and dependency-free so they stay accurate over
the whole modulus range, including moduli within 1e-14 of 1 when the
modulus is constructed from its complement.  Complex arguments are
evaluated through the addition theorem, which is accurate everywhere off
the pole lattice t = iK' (mod 2K, 2iK').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PoleProximityError",
    "POLE_CLEARANCE",
    "EllipticModulus",
    "JacobiTriple",
    "jacobi_real",
    "jacobi_am",
    "jacobi_complex",
]

# Below this distance from a pole the addition-theorem denominator has
# lost ~9 digits and results are no longer trustworthy.
POLE_CLEARANCE = 1e-9

# Landen levels at or below _ARCSIN_IDENTITY have |ratio * sin(phi)| <= 2^-26,
# where arcsin(x) rounds to x (its relative correction x^2/6 is under 2^-54).
_ARCSIN_IDENTITY = 2.0**-26
# Levels at or below _HALVING_ONLY have |ratio * sin(phi)| <= 2^-54 |phi| < ulp(phi)/2,
# so phi + step rounds to phi and the level only halves phi.
_HALVING_ONLY = 2.0**-54
# The chain from b >= 5e-324 stops within 14 levels; b = 0 would never stop.
_MAX_LEVELS = 32


class PoleProximityError(ValueError):
    """Argument too close to a pole of the Jacobi elliptic functions."""


def _descent(b: float, c: float):
    """The descending AGM (Landen) chain from (a, b, c) = (1, b, c), b^2 + c^2 = 1.

    Each level maps (a, b, c) to ((a + b)/2, sqrt(a b), (a - b)/2) until the
    first level n with |c_n| <= ulp(a_n)/2, where the a and b it averaged
    were neighbours or equal.  Returns a_n, the c-sum sum_{j=0..n} 2^(j-1)
    c_j^2 and the ratios [c_1/a_1, ..., c_n/a_n]; for the modulus c,
    K = pi/(2 a_n) and E = K (1 - c-sum) (Abramowitz & Stegun 17.6).
    """
    a, csum, power, ratios = 1.0, 0.5 * c * c, 1.0, []
    for _ in range(_MAX_LEVELS):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        csum += power * c * c
        ratios.append(c / a)
        if abs(c) <= 0.5 * math.ulp(a):
            return a, csum, ratios
        power *= 2.0
    raise ArithmeticError(f"AGM descent did not settle in {_MAX_LEVELS} levels")


def _complementary(x: float) -> float:
    """sqrt(1 - x^2) as sqrt((1 - x)(1 + x)), accurate for x near 1."""
    return math.sqrt((1.0 - x) * (1.0 + x))


def _complete_K(k: float, k_prime: float) -> float:
    """K(k) from one AGM descent from (1, k'), with no other work.

    Every K of this module is this expression, so a caller that needs
    only K (a resonance bisection step) gets EllipticModulus.K bit for bit.
    """
    return math.pi / (2.0 * _descent(k_prime, k)[0])


@dataclass(frozen=True)
class EllipticModulus:
    """An elliptic modulus k in (0,1) with its precomputed integrals.

    K comes from one AGM descent from (1, k'), K_prime = K(k') and the
    c-sum of E from one from (1, k), both run at construction (see
    _descent and _build).  The Landen chain of the Jacobi functions, the
    ratios of the (1, k') descent, and the complementary modulus are
    built once on first use, so the quadrature loops elsewhere never
    recompute them.  Construct
    through ``from_k`` or, when k is extremely close to 1,
    ``from_k_prime`` (the complement is then the authoritative value and
    K keeps full accuracy).
    """

    k: float
    k_prime: float
    K: float
    E: float
    K_prime: float

    @classmethod
    def from_k(cls, k: float) -> "EllipticModulus":
        if not 0.0 < k < 1.0:
            raise ValueError(f"elliptic modulus must lie in (0,1), got {k!r}")
        return cls._build(k, _complementary(k))

    @classmethod
    def from_k_prime(cls, k_prime: float) -> "EllipticModulus":
        if not 0.0 < k_prime < 1.0:
            raise ValueError(
                f"complementary modulus must lie in (0,1), got {k_prime!r}"
            )
        return cls._build(_complementary(k_prime), k_prime)

    @classmethod
    def _build(cls, k: float, k_prime: float) -> "EllipticModulus":
        K = _complete_K(k, k_prime)
        a, csum, _ = _descent(k, k_prime)
        K_prime = math.pi / (2.0 * a)
        # Legendre's relation with E' = K' (1 - c-sum'): E = pi/(2K') + K c-sum',
        # a sum of two positive terms, where K (1 - c-sum) cancels as k' -> 0
        E = math.pi / (2.0 * K_prime) + K * csum
        return cls(k=k, k_prime=k_prime, K=K, E=E, K_prime=K_prime)

    @cached_property
    def _landen(self):
        """(2^n a_n, (c_n/a_n, ..., c_1/a_1)) of the (1, k') descent.

        am(t) is phi_0, where phi_n = 2^n a_n t and phi_{j-1} = (phi_j +
        arcsin((c_j/a_j) sin phi_j)) / 2.  A level with |c_j/a_j| <= 2^-54
        cannot move phi besides the halving, so _amplitude_reduced only
        halves there.  Built on first use rather than in _build, so a
        modulus whose integrals alone are read costs two descents, not
        three.
        """
        a, _, ratios = _descent(self.k_prime, self.k)
        return (2.0 ** len(ratios)) * a, tuple(reversed(ratios))

    @cached_property
    def _complement(self) -> "EllipticModulus":
        # the same two descents, so K and K' swap bit for bit
        return EllipticModulus._build(self.k_prime, self.k)

    def complement(self) -> "EllipticModulus":
        """The modulus k' with roles of K and K' swapped (one object per modulus)."""
        return self._complement


@dataclass(frozen=True)
class JacobiTriple:
    """Values of sn, cn, dn at one argument (scalars or arrays)."""

    sn: object
    cn: object
    dn: object


def _amplitude_reduced(t, mod: EllipticModulus):
    """Jacobi amplitude on arguments reduced to [-2K, 2K]; t is left unchanged.

    The descent runs in place on one scaled copy of t and one scratch array.
    """
    scale, ratios = mod._landen
    phi = np.multiply(t, scale, dtype=float)
    step = np.empty_like(phi)
    # c_i < a_i, so |ratio * sin(phi)| <= 1 and arcsin needs no clip
    for ratio in ratios:
        if abs(ratio) > _HALVING_ONLY:
            np.sin(phi, out=step)
            step *= ratio
            if abs(ratio) > _ARCSIN_IDENTITY:
                np.arcsin(step, out=step)
            phi += step
        phi *= 0.5
    return phi


def jacobi_real(t, mod: EllipticModulus) -> JacobiTriple:
    """(sn, cn, dn)(t, k) for real t; accepts scalars or numpy arrays."""
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("jacobi_real requires finite arguments")
    period = 4.0 * mod.K
    t_red = t_arr - period * np.round(t_arr / period)
    phi = _amplitude_reduced(t_red, mod)
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn = sqrt(k'^2 + k^2 cn^2) is stable at the quarter period where
    # 1 - k^2 sn^2 cancels catastrophically for k near 1.
    dn = np.sqrt(mod.k_prime**2 + (mod.k * cn) ** 2)
    if np.isscalar(t) or t_arr.ndim == 0:
        return JacobiTriple(float(sn), float(cn), float(dn))
    return JacobiTriple(sn, cn, dn)


def jacobi_am(t, mod: EllipticModulus):
    """Unwrapped Jacobi amplitude am(t, k); am(t + 2K) = am(t) + pi."""
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("jacobi_am requires finite arguments")
    two_K = 2.0 * mod.K
    winding = np.round(t_arr / two_K)
    t_red = t_arr - two_K * winding
    phi = _amplitude_reduced(t_red, mod)
    out = math.pi * winding + phi
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def pole_distance(t, mod: EllipticModulus):
    """Distance from t to the pole lattice iK' + 2K Z + 2iK' Z."""
    t_arr = np.asarray(t, dtype=complex)
    two_K = 2.0 * mod.K
    two_Kp = 2.0 * mod.K_prime
    du = t_arr.real - two_K * np.round(t_arr.real / two_K)
    v = t_arr.imag - mod.K_prime
    dv = v - two_Kp * np.round(v / two_Kp)
    out = np.hypot(du, dv)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def jacobi_complex(t, mod: EllipticModulus) -> JacobiTriple:
    """(sn, cn, dn)(t, k) for complex t via the addition theorem.

    Combines the real Jacobi functions at Re t (modulus k) with the
    imaginary transformation through Im t at the complementary modulus.
    Raises PoleProximityError within POLE_CLEARANCE of the pole lattice.
    """
    t_arr = np.asarray(t, dtype=complex)
    if np.any(pole_distance(t_arr, mod) < POLE_CLEARANCE):
        raise PoleProximityError(
            "argument within pole clearance of the Jacobi pole lattice"
        )
    comp = mod.complement()
    re = jacobi_real(t_arr.real, mod)
    im = jacobi_real(t_arr.imag, comp)
    s, c, d = re.sn, re.cn, re.dn
    s1, c1, d1 = im.sn, im.cn, im.dn
    k2 = mod.k**2
    denom = c1**2 + k2 * (s * s1) ** 2
    sn = (s * d1 + 1j * c * d * s1 * c1) / denom
    cn = (c * c1 - 1j * s * d * s1 * d1) / denom
    dn = (d * c1 * d1 - 1j * k2 * s * c * s1) / denom
    if np.isscalar(t) or t_arr.ndim == 0:
        return JacobiTriple(complex(sn), complex(cn), complex(dn))
    return JacobiTriple(sn, cn, dn)
