"""Four-dimensional invariant-subspace engine for Q = -I_gamma V I_tau U.

When the product VU is hermitian, Q preserves the span of the four states
|gamma>, (VU)|gamma>, V|tau>, U^-1|tau>, and one application acts on the
amplitude row vector (a, b, c, d) as right-multiplication by the matrix
``m`` below. The engine works on five scalars (two angles plus u = U_tau,gamma,
v = V_gamma,tau, vu_gg = (VU)_gamma,gamma, uv_tt = (UV)_tau,tau) rather than
matrices, so it runs both on idealized inputs (v = conj(u), zero diagonal
elements) and on values read off real matrices. The hermiticity premise is
not checkable from the scalars; the full-space oracle validates it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine2d import AlgorithmParams, approx_b
from .rotations import phase_scale


def _bounded(name: str, z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} = {z} is not finite")
    if abs(z) > 1 + 1e-9:
        raise ValueError(f"|{name}| = {abs(z)} exceeds 1")
    return z


@dataclass(frozen=True)
class FourDimInputs:
    """Angles and the four matrix elements the 4D coefficients depend on."""

    theta: float
    phi: float
    u: complex
    v: complex
    vu_gg: complex = 0j
    uv_tt: complex = 0j

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"non-finite angles theta={self.theta}, phi={self.phi}")
        for name in ("u", "v", "vu_gg", "uv_tt"):
            object.__setattr__(self, name, _bounded(name, getattr(self, name)))

    @classmethod
    def idealized(cls, theta: float, phi: float, u: complex) -> "FourDimInputs":
        """The first-order setting: v = conj(u) and zero diagonal elements."""
        u = complex(u)
        return cls(theta, phi, u, u.conjugate(), 0j, 0j)


@dataclass(frozen=True)
class FourDimCoefficients:
    l1: complex
    l2: complex
    l3: complex
    l4: complex
    p1: complex
    p2: complex
    p3: complex
    p4: complex

    @property
    def m(self) -> np.ndarray:
        """The 4x4 one-step matrix: (a, b, c, d)_{k+1} = (a, b, c, d)_k @ m."""
        return np.array(
            [
                [self.l1, -1, self.p1, 0],
                [self.l2, 0, self.p2, 0],
                [self.l3, 0, self.p3, -1],
                [self.l4, 0, self.p4, 0],
            ],
            dtype=np.complex128,
        )


@dataclass(frozen=True, eq=False)
class FourAmplitudes:
    """Amplitudes on |gamma>, (VU)|gamma>, V|tau>, U^-1|tau> for k = 0..k_max."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.a) - 1


def four_dim_coeffs(inp: FourDimInputs) -> FourDimCoefficients:
    """Read the eight scalars off the one-step matrix.

    With g(x) = 2 cos(x) e^(ix):

        l1 = g(theta) (vu_gg - g(phi) u v)        p1 = g(phi) u
        l2 = -1 + g(theta) - g(theta) g(phi)|v|^2 p2 = g(phi) conj(v)
        l3 = g(theta) conj(u) - g(theta) g(phi) v uv_tt
                                                  p3 = g(phi) uv_tt
        l4 = g(theta) (1 - g(phi)) v              p4 = g(phi) - 1
    """
    gt = phase_scale(inp.theta)
    gp = phase_scale(inp.phi)
    u, v = inp.u, inp.v
    return FourDimCoefficients(
        l1=gt * (inp.vu_gg - gp * u * v),
        l2=-1 + gt - gt * gp * abs(v) ** 2,
        l3=gt * u.conjugate() - gt * gp * v * inp.uv_tt,
        l4=gt * (1 - gp) * v,
        p1=gp * u,
        p2=gp * v.conjugate(),
        p3=gp * inp.uv_tt,
        p4=gp - 1,
    )


def iterate4(c: FourDimCoefficients, k_max: int) -> FourAmplitudes:
    """Exact recurrence from (1, 0, 0, 0).

    a_{k+1} = l1 a + l2 b + l3 c + l4 d, c_{k+1} = p1 a + p2 b + p3 c + p4 d,
    while b_{k+1} = -a_k and d_{k+1} = -c_k hold as exact negations.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    a = np.empty(k_max + 1, dtype=np.complex128)
    b = np.empty(k_max + 1, dtype=np.complex128)
    cc = np.empty(k_max + 1, dtype=np.complex128)
    d = np.empty(k_max + 1, dtype=np.complex128)
    ak, bk, ck, dk = 1.0 + 0j, 0j, 0j, 0j
    a[0], b[0], cc[0], d[0] = ak, bk, ck, dk
    for k in range(1, k_max + 1):
        ak, bk, ck, dk = (
            c.l1 * ak + c.l2 * bk + c.l3 * ck + c.l4 * dk,
            -ak,
            c.p1 * ak + c.p2 * bk + c.p3 * ck + c.p4 * dk,
            -ck,
        )
        a[k], b[k], cc[k], d[k] = ak, bk, ck, dk
    return FourAmplitudes(a, b, cc, d)


def approx4(theta: float, phi: float, u: complex, k: int) -> tuple[complex, complex]:
    """First-order (a_k, c_{k+1}) for idealized inputs.

    With m = k // 2, sigma = e^(2i*theta), delta1 = e^(2i*phi):

        a_k = 0 for odd k, (-1)^m e^(2im*theta) for k = 2m;
        c_{k+1} = s * 2 cos(phi) e^(i*phi) u * sum_{l=0}^{m} sigma^(m-l) delta1^l,

    where the sign s is (-1)^m for k = 2m and (-1)^(m+1) for k = 2m + 1.
    The product after s is the 2D first-order amplitude
    :func:`~phasematch.engine2d.approx_b` at step m + 1, so both parities
    share the same sum length; the signs were verified against the exact
    recurrence at small |u| before being hard-coded here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = k // 2
    if k % 2:
        a_k = 0j
        sign = -((-1.0) ** m)
    else:
        a_k = (-1.0) ** m * cmath.exp(2j * m * theta)
        sign = (-1.0) ** m
    return a_k, sign * approx_b(AlgorithmParams(theta, phi, u), m + 1)
