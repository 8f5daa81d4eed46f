"""Two-dimensional invariant-subspace engine for Q = -I_gamma U^-1 I_tau U.

With both selective rotations of :mod:`phasematch.rotations` (angles theta
on the initial state, phi on the marked state), Q preserves the span of
``|gamma>`` and ``U^-1|tau>``. Over that generally non-orthogonal basis a
single application acts linearly:

    a_{k+1} = alpha a_k + lambda b_k
    b_{k+1} = beta  a_k + delta  b_k

starting from (a_0, b_0) = (1, 0). This module supplies the coefficient
quadruple for four algorithm families, the exact recurrence, a closed-form
polynomial evaluation of a_k and b_k in powers of (beta*lambda), first-order
approximations, magnitude formulas, parameter sweeps, and the phase-condition
analysis built on them. ``|b_k|`` may exceed 1 because the basis is not
orthogonal; values are reported raw, never clamped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rotations import _finite_angles, phase_scale, snapped_cos

#: Largest k accepted by the closed-form evaluation (see ClosedFormRangeError).
K_EXACT_MAX = 64


class ClosedFormRangeError(ValueError):
    """Closed-form evaluation refused because the polynomial is ill-conditioned."""


def _bounded(name: str, z, slack: float = 1e-12) -> complex:
    """The matrix element ``z`` as a complex number, checked to be finite with |z| <= 1 + slack."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} = {z} is not finite")
    if abs(z) > 1 + slack:
        raise ValueError(f"|{name}| = {abs(z)} exceeds 1")
    return z


@dataclass(frozen=True)
class AlgorithmParams:
    """One search instance: rotation angles (radians) and the element u = <tau|U|gamma>."""

    theta: float
    phi: float
    u: complex

    def __post_init__(self):
        _finite_angles(theta=self.theta, phi=self.phi)
        object.__setattr__(self, "u", _bounded("u", self.u))


@dataclass(frozen=True)
class TwoDimCoefficients:
    """The quadruple (alpha, beta, lambda, delta) of the one-step subspace map."""

    alpha: complex
    beta: complex
    lam: complex
    delta: complex


@dataclass(frozen=True)
class HoyerParams:
    """Inputs of the Hoyer-family coefficient list: a in [0, 1] and two angles."""

    a: float
    phi: float
    varphi: float

    def __post_init__(self):
        if not 0 <= self.a <= 1:
            raise ValueError(f"a = {self.a} outside [0, 1]")
        _finite_angles(phi=self.phi, varphi=self.varphi)


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Amplitudes (a_k, b_k) for k = 0..k_max, stored as parallel arrays
    indexed by k first (one column per instance for a batch)."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of maximizing |b_k| over 1 <= k <= k_max.

    ``k_star`` is the smallest k attaining the maximum. For a batch of
    instances both fields are arrays with one entry per instance. The
    threshold and ratio of the first-order analysis come from
    :func:`phase_condition`.
    """

    k_star: int | np.ndarray
    max_abs_b: float | np.ndarray


class PhaseCondition(NamedTuple):
    threshold: float
    ratio_l: float
    satisfied: bool


def present_coeffs(params: AlgorithmParams) -> TwoDimCoefficients:
    """Subspace coefficients of the double-rotation iteration.

    Writing g(x) = 2 cos(x) e^(ix):

        alpha  = -(1 - g(theta) + g(theta) g(phi) |u|^2)
        beta   = g(phi) u
        lambda = g(theta) (1 - g(phi)) conj(u)
        delta  = g(phi) - 1
    """
    gt = phase_scale(params.theta)
    gp = phase_scale(params.phi)
    u = params.u
    return TwoDimCoefficients(
        alpha=-(1 - gt + gt * gp * abs(u) ** 2),
        beta=gp * u,
        lam=gt * (1 - gp) * u.conjugate(),
        delta=gp - 1,
    )


def grover_coeffs(u: complex) -> TwoDimCoefficients:
    """Both angles zero: (1 - 4|u|^2, 2u, -2 conj(u), 1)."""
    u = _bounded("u", u)
    return TwoDimCoefficients(
        alpha=1 - 4 * abs(u) ** 2,
        beta=2 * u,
        lam=-2 * u.conjugate(),
        delta=1.0,
    )


def long_coeffs(theta: float, phi: float, u: complex) -> TwoDimCoefficients:
    """Coefficients when both rotations are Long's, multiplying by ``e^(i*angle)``.

    Long's rotation at angle t is the package's rotation at (t - pi) / 2, so
    these equal :func:`present_coeffs` at ((theta - pi) / 2, (phi - pi) / 2)
    up to rounding.
    """
    _finite_angles(theta=theta, phi=phi)
    u = _bounded("u", u)
    et = cmath.exp(1j * theta)
    ep = cmath.exp(1j * phi)
    return TwoDimCoefficients(
        alpha=-et - (1 - et) * (1 - ep) * abs(u) ** 2,
        beta=(1 - ep) * u,
        lam=(1 - et) * ep * u.conjugate(),
        delta=-ep,
    )


def hoyer_coeffs(h: HoyerParams) -> TwoDimCoefficients:
    """Coefficients of the amplitude-amplification variant parametrized by (a, phi, varphi)."""
    ep = cmath.exp(1j * h.phi)
    ev = cmath.exp(1j * h.varphi)
    root = math.sqrt(h.a) * math.sqrt(1 - h.a)
    return TwoDimCoefficients(
        alpha=-((1 - ep) * h.a + ep),
        beta=(1 - ep) * root * ev,
        lam=(1 - ep) * root,
        delta=((1 - ep) * h.a - 1) * ev,
    )


def iterate2(c: TwoDimCoefficients, k_max: int) -> AmplitudeTrajectory:
    """Run the exact recurrence from (a_0, b_0) = (1, 0) up to k_max.

    With scalar coefficients the steps are Python complex arithmetic and
    ``a``/``b`` have shape ``(k_max + 1,)``. With the four fields 1-D arrays
    of n instances the same steps run elementwise in NumPy and ``a``/``b``
    have shape ``(k_max + 1, n)``: column i is instance i's trajectory, equal
    to its scalar run up to rounding (NumPy's complex multiply is not
    bit-identical to Python's).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    a = np.empty((k_max + 1, *np.shape(c.alpha)), dtype=np.complex128)
    b = np.empty_like(a)
    ak, bk = 1.0 + 0j, 0j
    a[0], b[0] = ak, bk
    for k in range(1, k_max + 1):
        ak, bk = c.alpha * ak + c.lam * bk, c.beta * ak + c.delta * bk
        a[k], b[k] = ak, bk
    return AmplitudeTrajectory(a, b)


def binom(n: int, r: int) -> int:
    """Binomial coefficient with the convention that out-of-support values are 0.

    Returns ``math.comb(n, r)`` for 0 <= r <= n and 0 whenever r < 0, n < 0,
    or r > n. The closed-form sums below rely on vanishing out-of-range terms.
    """
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


def l_coeff(k: int, i: int, j: int) -> int:
    """Integer coefficient of alpha^(k-1-2j-i) delta^i inside c_kj: C(i+j, j) C(k-i-j-1, j)."""
    return binom(i + j, j) * binom(k - i - j - 1, j)


def t_coeff(k: int, i: int, j: int) -> int:
    """Integer coefficient of alpha^(k-2j-i) delta^i inside d_kj: C(i+j-1, j-1) C(k-i-j, j)."""
    return binom(i + j - 1, j - 1) * binom(k - i - j, j)


def _check_closed_form_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > K_EXACT_MAX:
        raise ClosedFormRangeError(
            f"closed-form evaluation is limited to k <= {K_EXACT_MAX}: the integer "
            f"coefficients grow combinatorially and the polynomial becomes "
            f"ill-conditioned in double precision; use iterate2 for k = {k}"
        )


def _closed_form(c: TwoDimCoefficients, k: int, coeff, top: int, first_j: int) -> complex:
    """sum_{j >= first_j} (beta*lambda)^j sum_{i=0}^{top-2j} coeff(k, i, j) alpha^(top-2j-i) delta^i.

    With ``l_coeff``, top = k-1 and first_j = 0 this is b_k / beta; with
    ``t_coeff``, top = k and first_j = 1 it is a_k, whose j = 0 term alpha^k
    lies outside the binomial convention and starts the total.
    """
    _check_closed_form_k(k)
    alpha_pow = [c.alpha**n for n in range(k + 1)]
    delta_pow = [c.delta**n for n in range(k + 1)]
    bl = c.beta * c.lam
    total = alpha_pow[k] + 0j if first_j else 0j
    for j in range(first_j, top // 2 + 1):
        rest = top - 2 * j
        total += sum(
            coeff(k, i, j) * alpha_pow[rest - i] * delta_pow[i] for i in range(rest + 1)
        ) * bl**j
    return total


def exact_b(c: TwoDimCoefficients, k: int) -> complex:
    """Closed-form b_k = beta * sum_j c_kj (beta*lambda)^j.

    Each power of alpha and delta is computed once per call. Cross-checked
    against :func:`iterate2` to 1e-9 for k <= 25 whenever |alpha|, |delta| <= 1;
    refuses k beyond ``K_EXACT_MAX``.
    """
    return c.beta * _closed_form(c, k, l_coeff, k - 1, 0)


def exact_a(c: TwoDimCoefficients, k: int) -> complex:
    """Closed-form a_k = alpha^k + sum_{j>=1} d_kj (beta*lambda)^j, with each
    power of alpha and delta computed once per call."""
    return _closed_form(c, k, t_coeff, k, 1)


def approx_b(params: AlgorithmParams, k: int) -> complex:
    """First-order amplitude beta * sum_{i<k} sigma^(k-1-i) delta1^i.

    Here sigma = e^(2i*theta) and delta1 = e^(2i*phi), which equals the
    one-step ``delta = 2 cos(phi) e^(i*phi) - 1`` algebraically. This is the
    arbitrary-phase sum of Hoyer, PRA 62, 052304 (2000). Accurate to
    O(k^2 |u|^2) relative to the exact recurrence; its modulus in closed form
    is :func:`closed_form_magnitude`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma = cmath.exp(2j * params.theta)
    delta1 = cmath.exp(2j * params.phi)
    beta = phase_scale(params.phi) * params.u
    total = 0j
    for i in range(k):
        total += sigma ** (k - 1 - i) * delta1**i
    return beta * total


def _threshold_and_gap(params: AlgorithmParams) -> tuple[float, float]:
    """The first-order threshold 2 |cos(phi)| |u|, and the gap theta - phi
    reduced modulo pi to [-pi/2, pi/2]: the operator depends on each angle
    only modulo pi, and near a nonzero multiple of pi an unreduced gap puts
    a rounding error of O(eps / |sin(gap)|) into sin(k gap) / sin(gap)."""
    threshold = 2 * abs(snapped_cos(params.phi)) * abs(params.u)
    return threshold, math.remainder(params.theta - params.phi, math.pi)


def closed_form_magnitude(params: AlgorithmParams, k: int) -> float:
    """|approx_b| in closed form.

    ``2 k |cos(phi)| |u|``, the limit, where the gap theta - phi reduced
    modulo pi by :func:`_threshold_and_gap` is exactly 0, else
    ``2 |cos(phi)| |u| |sin(k gap) / sin(gap)|``. The ratio needs no floor:
    for a tiny nonzero gap, sin rounds to the gap itself with full relative
    accuracy, down to the smallest subnormal.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scale, gap = _threshold_and_gap(params)
    if gap == 0:
        return k * scale
    return scale * abs(math.sin(k * gap) / math.sin(gap))


def _peak_of(b: np.ndarray, k_max: int) -> SweepResult:
    """The largest |b_k| over 1 <= k <= k_max of a trajectory's ``b`` (smallest k wins ties).

    Reduces over axis 0, so ``b`` may run past k_max (>= 1, checked by the callers):
    a 1-D ``b`` gives a plain int and float, a batch of n columns two arrays of n.
    """
    magnitudes = np.abs(b[1 : k_max + 1])
    k_star = np.argmax(magnitudes, axis=0) + 1
    max_abs_b = np.max(magnitudes, axis=0)
    if k_star.ndim == 0:
        return SweepResult(k_star=int(k_star), max_abs_b=float(max_abs_b))
    return SweepResult(k_star=k_star, max_abs_b=max_abs_b)


def sweep_max(c: TwoDimCoefficients, k_max: int) -> SweepResult:
    """Maximize |b_k| over 1 <= k <= k_max (smallest k wins ties).

    Scalar coefficients give a plain int ``k_star`` and float ``max_abs_b``;
    coefficients stacked as 1-D arrays (see :func:`iterate2`) give one array
    entry per instance.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _peak_of(iterate2(c, k_max).b, k_max)


def phase_condition(params: AlgorithmParams) -> PhaseCondition:
    """The first-order success condition |theta - phi| < 2 |cos(phi)| |u|.

    The gap theta - phi is reduced modulo pi by :func:`_threshold_and_gap`,
    as in :func:`closed_form_magnitude`. Returns the threshold, the ratio
    l = |gap| / threshold (infinite when the threshold vanishes, e.g. at
    phi = pi/2), and whether l < 1. When l > 1 the first-order analysis caps
    the sweep maximum near 1/l.
    """
    threshold, gap = _threshold_and_gap(params)
    ratio_l = abs(gap) / threshold if threshold > 0 else math.inf
    return PhaseCondition(threshold, ratio_l, ratio_l < 1)
