"""Two-dimensional invariant-subspace engine for Q = -I_gamma U^-1 I_tau U.

With both selective rotations drawn from the ``UNITARY`` family (angles theta
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

from .rotations import phase_scale, snapped_cos

#: Largest k accepted by the closed-form evaluation (see ClosedFormRangeError).
K_EXACT_MAX = 64

_PROVENANCES = ("present", "grover", "long", "hoyer", "custom")


class ClosedFormRangeError(ValueError):
    """Closed-form evaluation refused because the polynomial is ill-conditioned."""


@dataclass(frozen=True)
class AlgorithmParams:
    """One search instance: rotation angles (radians) and the element u = <tau|U|gamma>."""

    theta: float
    phi: float
    u: complex

    def __post_init__(self):
        object.__setattr__(self, "u", complex(self.u))
        if not (math.isfinite(self.theta) and math.isfinite(self.phi) and cmath.isfinite(self.u)):
            raise ValueError(f"non-finite parameters theta={self.theta}, phi={self.phi}, u={self.u}")
        if abs(self.u) > 1 + 1e-12:
            raise ValueError(f"|u| = {abs(self.u)} exceeds 1")


@dataclass(frozen=True)
class TwoDimCoefficients:
    """The quadruple (alpha, beta, lambda, delta) of the one-step subspace map."""

    alpha: complex
    beta: complex
    lam: complex
    delta: complex
    provenance: str = "custom"

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class HoyerParams:
    """Inputs of the Hoyer-family coefficient list: a in [0, 1] and two angles."""

    a: float
    phi: float
    varphi: float

    def __post_init__(self):
        if not 0 <= self.a <= 1:
            raise ValueError(f"a = {self.a} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Amplitudes (a_k, b_k) for k = 0..k_max, stored as parallel arrays."""

    a: np.ndarray
    b: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of maximizing |b_k| over 1 <= k <= k_max.

    ``k_star`` is the smallest k attaining the maximum. ``threshold`` is
    2|cos(phi)||u| and ``ratio_l`` is |theta - phi| / threshold when the
    originating angles are known; a coefficients-only sweep reports
    ``threshold = |beta|`` (the same number for the double-rotation family)
    and ``ratio_l = nan``.
    """

    k_star: int
    max_abs_b: float
    trajectory: AmplitudeTrajectory
    threshold: float
    ratio_l: float


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
        provenance="present",
    )


def grover_coeffs(u: complex) -> TwoDimCoefficients:
    """Both angles zero: (1 - 4|u|^2, 2u, -2 conj(u), 1)."""
    u = complex(u)
    return TwoDimCoefficients(
        alpha=1 - 4 * abs(u) ** 2,
        beta=2 * u,
        lam=-2 * u.conjugate(),
        delta=1.0,
        provenance="grover",
    )


def long_coeffs(theta: float, phi: float, u: complex) -> TwoDimCoefficients:
    """Coefficients when both rotations come from the ``LONG`` family."""
    u = complex(u)
    et = cmath.exp(1j * theta)
    ep = cmath.exp(1j * phi)
    return TwoDimCoefficients(
        alpha=-et - (1 - et) * (1 - ep) * abs(u) ** 2,
        beta=(1 - ep) * u,
        lam=(1 - et) * ep * u.conjugate(),
        delta=-ep,
        provenance="long",
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
        provenance="hoyer",
    )


def iterate2(c: TwoDimCoefficients, k_max: int) -> AmplitudeTrajectory:
    """Run the exact recurrence from (a_0, b_0) = (1, 0) up to k_max."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    a = np.empty(k_max + 1, dtype=np.complex128)
    b = np.empty(k_max + 1, dtype=np.complex128)
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


def _check_closed_form_k(k: int, k_exact_max: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > k_exact_max:
        raise ClosedFormRangeError(
            f"closed-form evaluation is limited to k <= {k_exact_max}: the integer "
            f"coefficients grow combinatorially and the polynomial becomes "
            f"ill-conditioned in double precision; use iterate2 for k = {k}"
        )


def _c_kj(alpha: complex, delta: complex, k: int, j: int) -> complex:
    top = k - 1 - 2 * j
    return sum(
        l_coeff(k, i, j) * alpha ** (top - i) * delta**i for i in range(top + 1)
    )


def _d_kj(alpha: complex, delta: complex, k: int, j: int) -> complex:
    top = k - 2 * j
    return sum(
        t_coeff(k, i, j) * alpha ** (top - i) * delta**i for i in range(top + 1)
    )


@dataclass(frozen=True)
class CoefficientTable:
    """The polynomial coefficients of a_k and b_k in powers of (beta*lambda).

    ``c[j]`` (j = 0..(k-1)//2) multiplies (beta*lambda)^j inside b_k / beta;
    ``d[j-1]`` (j = 1..k//2) multiplies (beta*lambda)^j inside a_k, whose
    j = 0 term is alpha^k.
    """

    k: int
    c: tuple[complex, ...]
    d: tuple[complex, ...]


def coefficient_table(c2: TwoDimCoefficients, k: int, k_exact_max: int = K_EXACT_MAX) -> CoefficientTable:
    """Evaluate every c_kj and d_kj for the given coefficients at step k."""
    _check_closed_form_k(k, k_exact_max)
    cs = tuple(_c_kj(c2.alpha, c2.delta, k, j) for j in range((k - 1) // 2 + 1))
    ds = tuple(_d_kj(c2.alpha, c2.delta, k, j) for j in range(1, k // 2 + 1))
    return CoefficientTable(k, cs, ds)


def exact_b(c: TwoDimCoefficients, k: int, k_exact_max: int = K_EXACT_MAX) -> complex:
    """Closed-form b_k = beta * sum_j c_kj (beta*lambda)^j.

    Cross-checked against :func:`iterate2` to 1e-9 for k <= 25 whenever
    |alpha|, |delta| <= 1; refuses k beyond ``k_exact_max``.
    """
    _check_closed_form_k(k, k_exact_max)
    bl = c.beta * c.lam
    total = 0j
    for j in range((k - 1) // 2 + 1):
        total += _c_kj(c.alpha, c.delta, k, j) * bl**j
    return c.beta * total


def exact_a(c: TwoDimCoefficients, k: int, k_exact_max: int = K_EXACT_MAX) -> complex:
    """Closed-form a_k = alpha^k + sum_{j>=1} d_kj (beta*lambda)^j."""
    _check_closed_form_k(k, k_exact_max)
    bl = c.beta * c.lam
    total = c.alpha**k + 0j
    for j in range(1, k // 2 + 1):
        total += _d_kj(c.alpha, c.delta, k, j) * bl**j
    return total


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


def closed_form_magnitude(params: AlgorithmParams, k: int) -> float:
    """|approx_b| in closed form.

    ``2 k |cos(phi)| |u|`` in the degenerate direction theta = phi (detected
    by |sin(theta - phi)| < 1e-12, substituting the limit explicitly), else
    ``2 |cos(phi)| |u| |sin(k (theta - phi)) / sin(theta - phi)|``. The
    modulus has period pi in theta - phi, so the gap is first reduced to
    [-pi/2, pi/2]: near a nonzero multiple of pi, the rounding of
    k (theta - phi) would otherwise reach the ratio at O(eps / |sin(gap)|).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gap = math.remainder(params.theta - params.phi, math.pi)
    scale = 2 * abs(snapped_cos(params.phi)) * abs(params.u)
    if abs(math.sin(gap)) < 1e-12:
        return k * scale
    return scale * abs(math.sin(k * gap) / math.sin(gap))


def sweep_max(
    c: TwoDimCoefficients, k_max: int, params: AlgorithmParams | None = None
) -> SweepResult:
    """Maximize |b_k| over 1 <= k <= k_max (smallest k wins ties).

    Pass the originating ``params`` to fill ``threshold`` and ``ratio_l``
    from the phase condition; without them the threshold falls back to
    ``|beta|`` and ``ratio_l`` is nan.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    trajectory = iterate2(c, k_max)
    magnitudes = np.abs(trajectory.b[1:])
    k_star = int(np.argmax(magnitudes)) + 1
    if params is not None:
        threshold, ratio_l, _ = phase_condition(params)
    else:
        threshold, ratio_l = abs(c.beta), math.nan
    return SweepResult(
        k_star=k_star,
        max_abs_b=float(magnitudes[k_star - 1]),
        trajectory=trajectory,
        threshold=threshold,
        ratio_l=ratio_l,
    )


def phase_condition(params: AlgorithmParams) -> PhaseCondition:
    """The first-order success condition |theta - phi| < 2 |cos(phi)| |u|.

    Returns the threshold, the ratio l = |theta - phi| / threshold (infinite
    when the threshold vanishes, e.g. at phi = pi/2), and whether l < 1.
    When l > 1 the first-order analysis caps the sweep maximum near 1/l.
    """
    threshold = 2 * abs(snapped_cos(params.phi)) * abs(params.u)
    gap = abs(params.theta - params.phi)
    ratio_l = gap / threshold if threshold > 0 else math.inf
    return PhaseCondition(threshold, ratio_l, ratio_l < 1)
