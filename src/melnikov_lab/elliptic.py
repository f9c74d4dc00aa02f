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
    "complete_K",
    "complete_E",
    "jacobi_real",
    "jacobi_am",
    "jacobi_complex",
]

# Below this distance from a pole the addition-theorem denominator has
# lost ~9 digits and results are no longer trustworthy.
POLE_CLEARANCE = 1e-9

# Landen levels: below _NO_OP_RATIO a level leaves phi as it was but for the
# halving; at or below _ARCSIN_IDENTITY, |ratio * sin(phi)| <= 2^-26, where
# arcsin(x) rounds to x (its relative correction x^2/6 is under 2^-54).
_NO_OP_RATIO = 2.0**-54
_ARCSIN_IDENTITY = 2.0**-26


class PoleProximityError(ValueError):
    """Argument too close to a pole of the Jacobi elliptic functions."""


def _agm(a: float, b: float) -> float:
    for _ in range(64):
        if abs(a - b) <= 1e-15 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    # one extra average squares the remaining gap away
    return 0.5 * (a + b)


def _K_from_kprime(k_prime: float) -> float:
    return math.pi / (2.0 * _agm(1.0, k_prime))


def _E_from_pair(k: float, k_prime: float) -> float:
    # AGM with the c-sum: E = K * (1 - sum 2^{n-1} c_n^2).
    a, b, c = 1.0, k_prime, k
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(64):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += power * c * c
        if power * c * c <= 1e-18 and abs(c) <= 1e-9:
            break
    return (math.pi / (2.0 * a)) * (1.0 - csum)


def complete_K(k: float) -> float:
    """K(k), complete elliptic integral of the first kind, 0 <= k < 1."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"complete_K requires 0 <= k < 1, got {k!r}")
    return _K_from_kprime(math.sqrt((1.0 - k) * (1.0 + k)))


def complete_E(k: float) -> float:
    """E(k), complete elliptic integral of the second kind, 0 <= k <= 1."""
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"complete_E requires 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        return 1.0
    return _E_from_pair(k, math.sqrt((1.0 - k) * (1.0 + k)))


@dataclass(frozen=True)
class EllipticModulus:
    """An elliptic modulus k in (0,1) with its precomputed integrals.

    K, E and K_prime = K(k') are evaluated once at construction, and the
    Landen chain of the Jacobi functions and the complementary modulus
    once on first use, so the quadrature loops elsewhere never recompute
    them.  Construct through ``from_k`` or, when k is extremely close to
    1, ``from_k_prime`` (the complement is then the authoritative value
    and K keeps full accuracy).
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
        k_prime = math.sqrt((1.0 - k) * (1.0 + k))
        return cls._build(k, k_prime)

    @classmethod
    def from_k_prime(cls, k_prime: float) -> "EllipticModulus":
        if not 0.0 < k_prime < 1.0:
            raise ValueError(
                f"complementary modulus must lie in (0,1), got {k_prime!r}"
            )
        k = math.sqrt((1.0 - k_prime) * (1.0 + k_prime))
        return cls._build(k, k_prime)

    @classmethod
    def _build(cls, k: float, k_prime: float) -> "EllipticModulus":
        return cls(
            k=k,
            k_prime=k_prime,
            K=_K_from_kprime(k_prime),
            E=_E_from_pair(k, k_prime),
            K_prime=_K_from_kprime(k),
        )

    @cached_property
    def _landen(self):
        """(2^n a_n, n - j, (c_j/a_j, ..., c_1/a_1)) of the descending Landen chain.

        Levels j+1..n are the trailing ones with |c/a| < 2^-54: there
        |(c/a) sin(phi)| is below half an ulp of phi, so such a level only
        halves phi, and the descent just halves phi n - j times.  Built on
        first use rather than in _build: a bisecting resonance solve
        constructs dozens of moduli that never evaluate a Jacobi function.
        """
        a, b, c = 1.0, self.k_prime, self.k
        ratios = []
        while abs(c) > 1e-16 * a and len(ratios) < 63:
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
            ratios.append(c / a)
        levels = len(ratios)
        while ratios and abs(ratios[-1]) < _NO_OP_RATIO:
            ratios.pop()
        return (2.0**levels) * a, levels - len(ratios), tuple(reversed(ratios))

    @cached_property
    def _complement(self) -> "EllipticModulus":
        return EllipticModulus(
            k=self.k_prime,
            k_prime=self.k,
            K=self.K_prime,
            E=_E_from_pair(self.k_prime, self.k),
            K_prime=self.K,
        )

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
    scale, halvings, ratios = mod._landen
    phi = np.multiply(t, scale, dtype=float)
    for _ in range(halvings):  # not folded into scale: subnormal phi would round apart
        phi *= 0.5
    step = np.empty_like(phi)
    # c_i < a_i, so |ratio * sin(phi)| <= 1 and arcsin needs no clip
    for ratio in ratios:
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
