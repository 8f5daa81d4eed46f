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
from dataclasses import dataclass

import numpy as np

from .engine2d import _BLOCK, AlgorithmParams, _gap_and_limit, _superposed, _units, approx_b
from .rotations import _bounded, _checked_index, _finite_angles, phase_scale


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
        _finite_angles(theta=self.theta, phi=self.phi)
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


#: The unit start rows (a_0, b_0, c_0, d_0); the first is the start of every run.
_UNITS = (
    (1.0 + 0j, 0j, 0j, 0j),
    (0j, 1.0 + 0j, 0j, 0j),
    (0j, 0j, 1.0 + 0j, 0j),
    (0j, 0j, 0j, 1.0 + 0j),
)


def iterate4(c: FourDimCoefficients, k_max: int) -> FourAmplitudes:
    """Exact recurrence from (1, 0, 0, 0).

    a_{k+1} = l1 a + l2 b + l3 c + l4 d, c_{k+1} = p1 a + p2 b + p3 c + p4 d,
    while b_{k+1} = -a_k and d_{k+1} = -c_k hold as exact negations. Only a
    and c are computed; b and d are set after them as -a and -c shifted by
    one step, with b_0 = d_0 = 0, in every row.

    Rows k <= 512 are always the plain recurrence, bit for bit. Later rows
    of a and c are superposed by the rule of both engines
    (:func:`~phasematch.engine2d._units`, as in
    :func:`~phasematch.engine2d.iterate2`): past 1024 steps, while no unit
    entry passes 4 (idealized inputs with |u| < 0.4 stay within 1.3;
    near-coalescing eigenvalues keep the loop). Each block of up to 512 rows
    is then its start row (a_K, -a_(K-1), c_K, -c_(K-1)) times the unit
    trajectories of :func:`_unit_trajectories4`, two 512-step loops in all.
    At k = 50 000 these rows were within 3e-13 of the loop's over 20 random
    idealized inputs.
    """
    k_max = _checked_index("k_max", k_max, 0)
    units = _units(_unit_trajectories4, c, k_max)
    if units is None:
        return _recurrence4(c, k_max, _UNITS[0])
    return _lagged(*next(_superposed(units, k_max, k_max)), _UNITS[0])


def _recurrence4(c: FourDimCoefficients, k_max: int, start: tuple) -> FourAmplitudes:
    """The recurrence loop of :func:`iterate4` on a and c, from ``start``,
    with b and d filled by :func:`_lagged`."""
    a = np.empty(k_max + 1, dtype=np.complex128)
    cc = np.empty(k_max + 1, dtype=np.complex128)
    ak, bk, ck, dk = start
    a[0], cc[0] = ak, ck
    for k in range(1, k_max + 1):
        ak, bk, ck, dk = (
            c.l1 * ak + c.l2 * bk + c.l3 * ck + c.l4 * dk,
            -ak,
            c.p1 * ak + c.p2 * bk + c.p3 * ck + c.p4 * dk,
            -ck,
        )
        a[k], cc[k] = ak, ck
    return _lagged(a, cc, start)


def _lagged(a: np.ndarray, cc: np.ndarray, start: tuple) -> FourAmplitudes:
    """The four channels from a and c: b and d are ``start``'s b_0 and d_0,
    then -a and -c shifted by one step, each negated into its place."""
    b, d = np.empty_like(a), np.empty_like(cc)
    b[0], d[0] = start[1], start[3]
    np.negative(a[:-1], out=b[1:])
    np.negative(cc[:-1], out=d[1:])
    return FourAmplitudes(a, b, cc, d)


def _unit_trajectories4(c: FourDimCoefficients) -> np.ndarray:
    """a and c of the 512-step unit trajectories, packed for
    :func:`~phasematch.engine2d._superposed`: U[j, p, i] of the (513, 2, 4)
    array is channel p of (a, c) at step j from -e_b, e_a, -e_d, e_c for
    i = 0..3, the unit rows of a start row (a_(K-1), a_K, c_(K-1), c_K)
    whose b and d are lagged negations.

    Only e_a and e_c run the loop. One step takes e_b to its row of ``m``,
    l2 e_a + p2 e_c, and e_d to l4 e_a + p4 e_c, so by linearity
    T_b[k] = l2 T_a[k-1] + p2 T_c[k-1] and T_d[k] = l4 T_a[k-1] + p4 T_c[k-1]
    for k >= 1; row 0 of both is 0 in a and c.
    """
    units = np.zeros((_BLOCK + 1, 2, 4), dtype=np.complex128)
    for i, e in ((1, _UNITS[0]), (3, _UNITS[2])):
        traj = _recurrence4(c, _BLOCK, e)
        units[:, 0, i], units[:, 1, i] = traj.a, traj.c
    lag_a, lag_c = units[:-1, :, 1], units[:-1, :, 3]
    units[1:, :, 0] = -(c.l2 * lag_a + c.p2 * lag_c)
    units[1:, :, 2] = -(c.l4 * lag_a + c.p4 * lag_c)
    return units


def approx4(theta: float, phi: float, u: complex, k: int) -> tuple[complex, complex]:
    """First-order (a_k, c_{k+1}) for idealized inputs.

    With m = k // 2, sigma = e^(2i*theta), delta1 = e^(2i*phi):

        a_k = 0 for odd k, (-1)^m e^(2im*theta) for k = 2m;
        c_{k+1} = s * 2 cos(phi) e^(i*phi) u * sum_{l=0}^{m} sigma^(m-l) delta1^l,

    where the sign s is (-1)^m for k = 2m and (-1)^(m+1) for k = 2m + 1.
    The product after s is the 2D first-order amplitude
    :func:`~phasematch.engine2d.approx_b` at step m + 1, so both parities
    share its closed form, error model and limit on m + 1; the signs were
    verified against the exact recurrence at small |u| before being hard-coded here.
    """
    params = AlgorithmParams(theta, phi, u)
    k = _checked_index("k", k, 1, 2 * _gap_and_limit(params.theta, params.phi)[1] - 1)
    m = k // 2
    if k % 2:
        a_k = 0j
        sign = -((-1.0) ** m)
    else:
        a_k = (-1.0) ** m * cmath.exp(2j * m * theta)
        sign = (-1.0) ** m
    return a_k, sign * approx_b(params, m + 1)
