"""Complete elliptic integrals and Jacobi elliptic functions.

All routines are AGM-based and dependency-free so they stay accurate over
the whole modulus range, including moduli within 1e-14 of 1 when the
modulus is constructed from its complement.  Complex arguments are
evaluated through the addition theorem, which is accurate everywhere off
the pole lattice t = iK' (mod 2K, 2iK').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# arcsin(ratio * sin(phi)) scales the rounding of its argument by up to its
# condition number a/b (at sin(phi) = +-1, where 1 - ratio^2 = (b/a)^2).  Levels
# with b/a below _ATAN2_STEP, where that exceeds 16, take the step as
# atan2(ratio sin(phi), sqrt(cos^2(phi) + (b/a)^2 sin^2(phi))) instead, with b/a
# from the descent, so nothing cancels.  cn and am then stay within 5 eps of
# mpmath over 160 moduli from k' = 0.5 down to 1e-300 (tests hold them to
# 16 eps); with the switch at b/a < 2^-8 the arcsin levels still lost 62 eps.
_ATAN2_STEP = 2.0**-4
# The chain from b >= 5e-324 stops within 14 levels; b = 0 would never stop.
_MAX_LEVELS = 32


class PoleProximityError(ValueError):
    """Argument too close to a pole of the Jacobi elliptic functions."""


def _descent(b: float, c: float, levels=None):
    """The descending AGM (Landen) chain from (a, b, c) = (1, b, c), b^2 + c^2 = 1.

    Each level maps (a, b, c) to ((a + b)/2, sqrt(a b), (a - b)/2) until the
    first level n with |c_n| <= ulp(a_n)/2, where the a and b it averaged
    were neighbours or equal.  Returns a_n and the c-sum sum_{j=0..n}
    2^(j-1) c_j^2; for the modulus c, K = pi/(2 a_n) and E = K (1 - c-sum)
    (Abramowitz & Stegun 17.6).  A list passed as levels receives (c_j/a_j,
    b_j/a_j) for j = 1..n, the Landen chain's data; b_j/a_j is taken here
    because 1 - (c_j/a_j)^2 = (b_j/a_j)^2 rounds to 0 near the separatrix.
    """
    a, csum, power = 1.0, 0.5 * c * c, 1.0
    for _ in range(_MAX_LEVELS):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        csum += power * c * c
        if levels is not None:
            levels.append((c / a, b / a))
        if abs(c) <= 0.5 * math.ulp(a):
            return a, csum
        power *= 2.0
    raise ArithmeticError(f"AGM descent did not settle in {_MAX_LEVELS} levels")


def _complementary(x: float) -> float:
    """sqrt(1 - x^2) as sqrt((1 - x)(1 + x)), accurate for x near 1."""
    return math.sqrt((1.0 - x) * (1.0 + x))


def _complete_K(k: float, k_prime: float) -> float:
    """K(k) from one AGM descent from (1, k'), with no other work.

    EllipticModulus.K is this expression, so a caller that needs only K
    (a resonance bisection step) gets it bit for bit.
    """
    return math.pi / (2.0 * _descent(k_prime, k)[0])


@dataclass(frozen=True)
class EllipticModulus:
    """An elliptic modulus k in (0,1) with its precomputed integrals.

    _build runs the two AGM descents, from (1, k') and from (1, k), and keeps
    their level data: K and the Landen chain of the Jacobi functions at k,
    K_prime = K(k') and the chain at k', and through the c-sums E and E'.
    The complement swaps these and runs no descent.  Construct through
    ``from_k`` or, when k is extremely close to 1, ``from_k_prime`` (the
    complement is then the authoritative value and K keeps full accuracy).
    """

    k: float
    k_prime: float
    K: float
    E: float
    K_prime: float
    # (2^n a_n, ((c_n/a_n, b_n/a_n), ..., (c_1/a_1, b_1/a_1))) of the (1, k') descent:
    # am(t) is phi_0, where phi_n = 2^n a_n t and phi_{j-1} = (phi_j +
    # arcsin((c_j/a_j) sin phi_j)) / 2 (see _amplitude_reduced for the step's forms)
    _landen: tuple = field(repr=False, compare=False)
    _dual: tuple = field(repr=False, compare=False)  # (E', the _landen of k')

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
        levels, dual_levels = [], []
        a, csum = _descent(k_prime, k, levels)
        a_dual, csum_dual = _descent(k, k_prime, dual_levels)
        K, K_prime = math.pi / (2.0 * a), math.pi / (2.0 * a_dual)
        # Legendre's relation with E' = K' (1 - c-sum'): E = pi/(2K') + K c-sum', a sum
        # of two positive terms, where K (1 - c-sum) cancels as k' -> 0; E' likewise
        E = math.pi / (2.0 * K_prime) + K * csum_dual
        E_prime = math.pi / (2.0 * K) + K_prime * csum
        landen = (2.0 ** len(levels)) * a, tuple(reversed(levels))
        dual_landen = (2.0 ** len(dual_levels)) * a_dual, tuple(reversed(dual_levels))
        return cls(k, k_prime, K, E, K_prime, landen, (E_prime, dual_landen))

    @cached_property
    def complement(self) -> "EllipticModulus":
        """The modulus k' with roles of K and K' swapped (one object per modulus)."""
        E_prime, dual_landen = self._dual
        return EllipticModulus(self.k_prime, self.k, self.K_prime, E_prime, self.K,
                               dual_landen, (self.E, self._landen))


@dataclass(frozen=True)
class JacobiTriple:
    """Values of sn, cn, dn at one argument (scalars or arrays)."""

    sn: object
    cn: object
    dn: object


def _amplitude_reduced(t, mod: EllipticModulus):
    """Jacobi amplitude on arguments reduced to [-2K, 2K]; t is left unchanged.

    The descent runs in place on one scaled copy of t and one scratch array.
    A level with |c_j/a_j| <= 2^-54 cannot move phi besides the halving, so
    it only halves; one with b_j/a_j < _ATAN2_STEP takes the atan2 form.
    """
    scale, levels = mod._landen
    phi = np.multiply(t, scale, dtype=float)
    step = np.empty_like(phi)
    # c_i < a_i, so |ratio * sin(phi)| <= 1 and arcsin needs no clip
    for ratio, b_over_a in levels:
        if abs(ratio) > _HALVING_ONLY:
            np.sin(phi, out=step)
            if b_over_a < _ATAN2_STEP:
                # 1 - ratio^2 sin^2(phi) = cos^2(phi) + (b/a)^2 sin^2(phi)
                np.arctan2(ratio * step, np.hypot(np.cos(phi), b_over_a * step), out=step)
            else:
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
    return math.pi * winding + phi


def pole_distance(t, mod: EllipticModulus):
    """Distance from t to the pole lattice iK' + 2K Z + 2iK' Z."""
    t_arr = np.asarray(t, dtype=complex)
    two_K = 2.0 * mod.K
    two_Kp = 2.0 * mod.K_prime
    du = t_arr.real - two_K * np.round(t_arr.real / two_K)
    v = t_arr.imag - mod.K_prime
    dv = v - two_Kp * np.round(v / two_Kp)
    return np.hypot(du, dv)


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
    comp = mod.complement
    re = jacobi_real(t_arr.real, mod)
    im = jacobi_real(t_arr.imag, comp)
    s, c, d = re.sn, re.cn, re.dn
    s1, c1, d1 = im.sn, im.cn, im.dn
    k2 = mod.k**2
    denom = c1**2 + k2 * (s * s1) ** 2
    sn = (s * d1 + 1j * c * d * s1 * c1) / denom
    cn = (c * c1 - 1j * s * d * s1 * d1) / denom
    dn = (d * c1 * d1 - 1j * k2 * s * c * s1) / denom
    return JacobiTriple(sn, cn, dn)
