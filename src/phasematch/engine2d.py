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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rotations import (COS_SNAP, _bounded, _check_bound, _checked_index, _finite_angles,
                        phase_scale, snapped_cos)

#: Largest k accepted by the closed-form evaluation (see ClosedFormRangeError).
K_EXACT_MAX = 64
#: Most trajectory entries per array of one chunk in :func:`sweep_max`: n
#: instances run max(1, SWEEP_BLOCK // n - 1) steps per chunk, looped or
#: superposed, so a chunk array holds at most max(SWEEP_BLOCK, 2n) entries.
#: A run of ``iterate2(c, k_max)`` that superposes by its rule is blocks of
#: 512 rows past row 512, which a chunk may cut anywhere; any other run is
#: the plain loop, whose chunks continue it bit for bit.
SWEEP_BLOCK = 2**16
#: Rows per superposed block of a long trajectory (see :func:`_superposed`).
_BLOCK = 512
#: Most instances a run superposes (see :func:`_units`): their 513 x 2 x 2
#: unit entries each then fit in SWEEP_BLOCK entries (31 instances).
_NARROW = SWEEP_BLOCK // (4 * (_BLOCK + 1))
#: The largest unit-trajectory modulus a run superposes with. A block row is
#: rounded relative to the terms it sums: at (1, 1, -2e-5, 1), entries up to
#: 224 cancel, and superposed b was 2.6e-12 off exact at k = 4000, the loop 3.7e-13.
_UNIT_BOUND = 4.0
#: The default start row (a_0, b_0) of a trajectory.
_ORIGIN = (1.0 + 0j, 0j)
#: The unit start rows of the 2D map.
_UNITS = (_ORIGIN, (0j, 1.0 + 0j))


class ClosedFormRangeError(ValueError):
    """Closed-form evaluation refused because the polynomial is ill-conditioned."""


@dataclass(frozen=True)
class AlgorithmParams:
    """One search instance: rotation angles (radians) and the element u = <tau|U|gamma>.

    ``theta`` may also be a 1-D array of angles, n instances that share phi
    and u; it is held as a read-only float64 copy. :func:`present_coeffs`
    and :func:`phase_condition` take such a batch whole.
    """

    theta: float | np.ndarray
    phi: float
    u: complex

    def __post_init__(self):
        if isinstance(self.theta, (np.ndarray, list, tuple)):
            theta = np.array(self.theta, dtype=np.float64)
            _check_bound("theta dimensions", theta.ndim, 1, 1)
            theta.flags.writeable = False
            object.__setattr__(self, "theta", theta)
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
        _check_bound("a", self.a, 0, 1)
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
    """The first-order condition of :func:`phase_condition`; for an array of
    theta, ``ratio_l`` and ``satisfied`` are arrays and ``threshold``, which
    depends on phi and u alone, one float."""

    threshold: float
    ratio_l: float | np.ndarray
    satisfied: bool | np.ndarray


def _times(x: tuple, y: tuple) -> tuple:
    """The product of two (real, imag) pairs as Python 3.11 multiplies numbers.

    Two reals (imag None) multiply as floats. Otherwise a real is
    complex(x, 0.0) and the product is (xr yr - xi yi, xr yi + xi yr), each
    operation rounded on its own and the 0.0 terms kept: they set the sign of
    a zero and make nan of an inf or nan part as Python does. NumPy's complex
    multiply may fuse operations and round differently.
    """
    (xr, xi), (yr, yi) = x, y
    if xi is None and yi is None:
        return xr * yr, None
    xi, yi = (0.0 if part is None else part for part in (xi, yi))
    return xr * yr - xi * yi, xr * yi + xi * yr


def _phase_pair(angle) -> tuple:
    """:func:`phase_scale` as a (real, imag) pair, elementwise for an array of angles.

    A float angle gives the parts of ``phase_scale(angle)`` itself, from
    libm. An array takes the same steps in NumPy: Python multiplies the float
    2 cos(angle) by cmath.exp(1j * angle) = (cos(angle), sin(0.0 + angle))
    as :func:`_times` does, and the cosine is flushed to 0 below COS_SNAP as
    by ``snapped_cos``. (sin(0.0 + angle) differs from sin(angle) only at
    -0.0, where the product's + 0.0 cos(angle) makes either +0.0.) So each
    entry is bit-identical to the float call wherever NumPy's cos and sin
    round as libm's do, which the tests check.
    """
    if not isinstance(angle, np.ndarray):
        g = phase_scale(angle)
        return g.real, g.imag
    cos = np.cos(angle)
    return _times((2 * np.where(np.abs(cos) < COS_SNAP, 0.0, cos), None), (cos, np.sin(angle)))


def _complex(re, im, shape: tuple):
    """The complex number (re, im), or an array of ``shape`` of them, with
    each part as given: a scalar part is shared by every entry."""
    if not shape:
        return complex(re, im)
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def present_coeffs(params: AlgorithmParams) -> TwoDimCoefficients:
    """Subspace coefficients of the double-rotation iteration.

    Writing g(x) = 2 cos(x) e^(ix):

        alpha  = -(1 - g(theta) + g(theta) g(phi) |u|^2)
        beta   = g(phi) u
        lambda = g(theta) (1 - g(phi)) conj(u)
        delta  = g(phi) - 1

    Each operation is taken on (real, imag) pairs as Python 3.11 takes it on
    complex numbers: a product by :func:`_times`, and 1 - g as
    (1.0 - re, 0.0 - im). So a float theta gives the Python complex numbers
    of the formula, bit for bit, and an array of n angles (see
    :class:`AlgorithmParams`) gives four arrays of n, each entry bit-identical
    to the call on its angle alone (:func:`_phase_pair`); beta and delta
    repeat one value.
    """
    gt, gp = _phase_pair(params.theta), _phase_pair(params.phi)
    u = params.u
    one_minus_gt, one_minus_gp = ((1.0 - re, 0.0 - im) for re, im in (gt, gp))
    scaled = _times(_times(gt, gp), (abs(u) ** 2, None))
    shape = params.theta.shape if isinstance(params.theta, np.ndarray) else ()
    return TwoDimCoefficients(
        alpha=_complex(-(one_minus_gt[0] + scaled[0]), -(one_minus_gt[1] + scaled[1]), shape),
        beta=_complex(*_times(gp, (u.real, u.imag)), shape),
        lam=_complex(*_times(_times(gt, one_minus_gp), (u.real, -u.imag)), shape),
        delta=_complex(gp[0] - 1.0, gp[1], shape),
    )


def grover_coeffs(u: complex) -> TwoDimCoefficients:
    """Both angles zero: :func:`present_coeffs` at (0, 0, u), which is
    (1 - 4|u|^2, 2u, -2 conj(u), 1)."""
    return present_coeffs(AlgorithmParams(0.0, 0.0, u))


def long_coeffs(theta: float, phi: float, u: complex) -> TwoDimCoefficients:
    """Coefficients when both rotations are Long's, multiplying by ``e^(i*angle)``.

    Long's rotation at angle t is the package's rotation at (t - pi) / 2, so
    these are computed as :func:`present_coeffs` at ((theta - pi) / 2,
    (phi - pi) / 2), after the check that names the caller's angles, as
    :func:`grover_coeffs` is at (0, 0).
    """
    _finite_angles(theta=theta, phi=phi)
    return present_coeffs(AlgorithmParams((theta - math.pi) / 2, (phi - math.pi) / 2, u))


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


def iterate2(c: TwoDimCoefficients, k_max: int, start: tuple | None = None,
             out: tuple | None = None) -> AmplitudeTrajectory:
    """Run the exact recurrence from (a_0, b_0) = ``start``, by default (1, 0), up to k_max.

    With scalar coefficients the steps are Python complex arithmetic and
    ``a``/``b`` have shape ``(k_max + 1,)``. With the four fields 1-D arrays
    of n instances the same steps run elementwise in NumPy, each row written
    in place, and ``a``/``b`` have shape ``(k_max + 1, n)``: column i is
    instance i's trajectory, equal to its scalar run up to rounding (NumPy's
    complex multiply is not bit-identical to Python's).

    A run given ``start`` or ``out`` is always the plain loop. So a
    ``start`` given as the last row of an earlier looped run continues it
    bit for bit: Python complex numbers for scalar coefficients (an
    ``np.complex128`` would switch the steps to NumPy arithmetic), arrays of
    n for a batch. ``out``, a pair of complex128 arrays of that shape that
    share no memory, receives ``a`` and ``b`` in place of two new arrays;
    any other pair is refused. :func:`sweep_max` runs its loop chunks so, in
    one pair of buffers.

    A run given neither may superpose, by the rule of both engines
    (:func:`_units`: more than 1024 steps, at most 31 instances, no unit
    entry past 4). Rows k <= 512 are then the plain recurrence, bit for bit,
    and each later block of up to 512 rows is its start row times the
    512-step trajectories from (1, 0) and (0, 1) (:func:`_superposed`), 1024
    loop steps and one NumPy product per block in all. Against an exact
    rational recurrence at k <= 2000 the rows are off by at most 1e-14 (the
    loop's, 5e-15), for present, Hoyer and Grover coefficients; at
    k = 50 000 they are within 2.4e-13 of the loop's.
    """
    k_max = _checked_index("k_max", k_max, 0)
    if start is None and out is None:
        units = _units(_unit_trajectories2, c, k_max, np.size(c.alpha))
        if units is not None:
            return AmplitudeTrajectory(*next(_superposed(units, k_max, k_max)))
    return _recurrence2(c, k_max, _ORIGIN if start is None else start,
                        _row_pair((k_max + 1, *np.shape(c.alpha)), out))


def _row_pair(shape: tuple, out: tuple | None = None) -> tuple:
    """Arrays for the ``a`` and ``b`` of ``shape``: two new ones, or ``out``
    if it is two complex128 arrays of that shape that share no memory."""
    if out is None:
        a = np.empty(shape, dtype=np.complex128)
        return a, np.empty_like(a)
    if not (len(out) == 2 and all(isinstance(x, np.ndarray) and x.dtype == np.complex128
                                  and x.shape == shape for x in out)
            and not np.shares_memory(*out)):
        raise ValueError(f"out must be two complex128 arrays of shape {shape} "
                         f"that share no memory")
    return out


def _recurrence2(c: TwoDimCoefficients, k_max: int, start: tuple,
                 rows: tuple | None = None) -> AmplitudeTrajectory:
    """The recurrence loop of :func:`iterate2`, one step per row, into the
    (a, b) arrays ``rows`` if given. A batch computes each row in its place,
    alpha a + lambda b and beta a + delta b in the expression's order, with
    one scratch row."""
    a, b = rows or _row_pair((k_max + 1, *np.shape(c.alpha)))
    ak, bk = start
    a[0], b[0] = ak, bk
    # Python's complex arithmetic makes inf and nan without a warning, and so does a batch.
    with np.errstate(over="ignore", invalid="ignore"):
        if a.ndim == 1:
            for k in range(1, k_max + 1):
                ak, bk = c.alpha * ak + c.lam * bk, c.beta * ak + c.delta * bk
                a[k], b[k] = ak, bk
        else:
            scratch = np.empty_like(a[0])
            for ak, bk, an, bn in zip(a, b, a[1:], b[1:]):
                np.multiply(c.alpha, ak, out=an)
                np.multiply(c.lam, bk, out=scratch)
                np.add(an, scratch, out=an)
                np.multiply(c.beta, ak, out=bn)
                np.multiply(c.delta, bk, out=scratch)
                np.add(bn, scratch, out=bn)
    return AmplitudeTrajectory(a, b)


def _units(pack, c, k_max: int, n: int = 1) -> np.ndarray | None:
    """The unit trajectories a run of k_max steps of n instances superposes
    with, or None where it keeps the loop: the rule of both engines. Each
    engine runs two 512-step unit loops, so a run superposes past 2 x 512
    steps (2D crossover near 1100), of at most ``_NARROW`` instances, while
    no entry of ``pack(c)``, the engine's unit trajectories packed for
    :func:`_superposed`, passes ``_UNIT_BOUND``; an inf or nan entry fails
    the bound, silently."""
    if k_max <= 2 * _BLOCK or n > _NARROW:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        units = pack(c)
        return units if np.all(np.abs(units) <= _UNIT_BOUND) else None


def _unit_trajectories2(c: TwoDimCoefficients) -> np.ndarray:
    """The 512-step trajectories from (1, 0) and (0, 1), packed: U[j, p, i]
    of the (513, 2, 2[, n]) array is channel p at step j from ``_UNITS[i]``."""
    trajs = [_recurrence2(c, _BLOCK, e) for e in _UNITS]
    units = np.moveaxis(np.stack([(t.a, t.b) for t in trajs], axis=1), 2, 0)
    # A batch multiplies by each U[:, p, i] whole, which this stacking keeps contiguous;
    # one instance takes U[j] as the rows of one matrix, so row-major.
    return np.ascontiguousarray(units) if units.ndim == 3 else units


def _superposed(units: np.ndarray, k_max: int, steps: int):
    """Rows 0..k_max of a trajectory as a list of its C channel arrays, in
    chunks of up to ``steps`` steps, each starting at the last row of the one
    before: views of one array per channel, which the next chunk overwrites.

    ``units`` is a (513, C, L C[, n]) array of :func:`_units`. A block's
    start row is the last L rows of each channel, oldest first: (a_K, b_K)
    in 2D, (a_(K-1), a_K, c_(K-1), c_K) in 4D, whose b and d are lagged
    negations of a and c. U[j, p, i] is channel p at step j from the start
    row with 1 at entry i. Rows k <= _BLOCK are U[k, :, L - 1], the unit
    trajectory from a_0 = 1; with K the multiple of _BLOCK below a later
    row k, row k is ``units[k - K]`` times the start row at K. Block starts
    do not depend on ``steps``, nor the products on where a slice of
    ``units`` begins, so every chunking gives the same rows, bit for bit.

    Per block, one instance reads its start row, takes one matrix-vector
    product, units as (m C, L C), into ``scratch`` and copies each channel
    out of it; a batch multiplies and adds in place, channel by channel
    (:func:`_block_product`).
    """
    channels, width = units.shape[1:3]
    lags = width // channels
    head = units[:, :, lags - 1]
    # One array per channel, as the loop makes them: one (rows, C) array of a
    # long 4D run found no freed space it fit and took fresh pages each call.
    buf = [np.empty((min(steps, k_max) + 1, *units.shape[3:]), np.complex128) for _ in range(channels)]
    # Start entry i is channel i // L, L - 1 - i % L rows before the block.
    reads = [(i, i // lags, lags - 1 - i % lags) for i in range(width)]
    start = np.empty(units.shape[2:], np.complex128)
    # One instance's block rows, (m, C), or one term of a batch's sums, (m, n).
    scratch = np.empty((min(steps, _BLOCK), *(units.shape[3:] or (channels,))), np.complex128)
    if units.ndim == 3:
        product, flat, columns = units[1:].reshape(-1, width), scratch.reshape(-1), list(scratch.T)
    for done in range(0, k_max, steps):
        last = min(done + steps, k_max)
        for p, chan in enumerate(buf):
            chan[0] = chan[-1] if done else head[0, p]
        rows = [chan[: last - done + 1] for chan in buf]
        k = done
        # Python's complex arithmetic makes inf and nan without a warning, and so does this.
        with np.errstate(over="ignore", invalid="ignore"):
            while k < last:
                base = k // _BLOCK * _BLOCK
                end = min(base + _BLOCK, last)
                dest, j = slice(k + 1 - done, end + 1 - done), slice(k + 1 - base, end + 1 - base)
                if base == 0:
                    for p, chan in enumerate(rows):
                        chan[dest] = head[j, p]
                elif units.ndim == 3:
                    m = end - k
                    np.dot(product[(k - base) * channels : (end - base) * channels], start,
                           out=flat[: m * channels])
                    for chan, column in zip(rows, columns):
                        chan[dest] = column[:m]
                else:
                    _block_product(units[j], start, rows, dest, scratch)
                if end == base + _BLOCK:
                    for i, p, back in reads:
                        start[i] = rows[p][end - done - back]
                k = end
        yield rows


def _block_product(units: np.ndarray, start: np.ndarray, rows: list, dest: slice,
                   scratch: np.ndarray) -> None:
    """A batch's rows ``dest`` of a block into the channel arrays ``rows``:
    row j is ``units[j] @ start`` for each instance, multiplied and added in
    place channel by channel, one term of each sum in ``scratch``."""
    part = scratch[: len(units)]
    for p, chan in enumerate(rows):
        out = chan[dest]
        np.multiply(units[:, p, 0], start[0], out=out)
        for i in range(1, len(start)):
            np.multiply(units[:, p, i], start[i], out=part)
            np.add(out, part, out=out)


def l_coeff(k: int, i: int, j: int) -> int:
    """Integer coefficient of alpha^(k-1-2j-i) delta^i inside c_kj: C(i+j, j) C(k-i-j-1, j)."""
    return math.comb(i + j, j) * math.comb(k - i - j - 1, j)


def t_coeff(k: int, i: int, j: int) -> int:
    """Integer coefficient of alpha^(k-2j-i) delta^i inside d_kj: C(i+j-1, j-1) C(k-i-j, j)."""
    return math.comb(i + j - 1, j - 1) * math.comb(k - i - j, j)


#: The exponents 0..K_EXACT_MAX as floats: int coefficients then take float powers, which do not wrap.
_POWERS = np.arange(K_EXACT_MAX + 1.0)
_POWERS.flags.writeable = False


@functools.cache
def _term_table(coeff, first_j: int) -> tuple[np.ndarray, ...]:
    """The terms of, per k = 1..K_EXACT_MAX,
    sum_{j >= first_j} (beta*lambda)^j sum_{i=0}^{top-2j} coeff(k, i, j) alpha^(top-2j-i) delta^i,
    top = k - 1 + first_j, built on first use with no list of its terms.

    With ``l_coeff`` and first_j = 0 (top = k-1) this is b_k / beta; with
    ``t_coeff`` and first_j = 1 (top = k) it is a_k, whose j = 0 term
    alpha^k has no ``t_coeff`` (its C(i-1, -1) is undefined) and is row
    (k, 0) with coefficient 1. Seven read-only arrays, in rows by (k, j):
    each term's ``float(coeff(k, i, j))`` and its exponents top-2j-i and i
    as uint8; each row's first term, k and j; and each k's first row.
    """
    row_k, row_j = np.array([(k, j) for k in range(1, K_EXACT_MAX + 1)
                             for j in range((k - 1 + first_j) // 2 + 1)]).T
    rest = row_k - 1 + first_j - 2 * row_j
    sizes = np.where(row_j < first_j, 1, rest + 1)
    row_start = np.cumsum(sizes) - sizes
    delta_exp = np.arange(sizes.sum()) - np.repeat(row_start, sizes)
    coef = np.fromiter((coeff(k, i, j) if j >= first_j else 1 for k, j, n in
                        zip(row_k.tolist(), row_j.tolist(), sizes.tolist()) for i in range(n)),
                       np.float64, len(delta_exp))
    table = (coef, (np.repeat(rest, sizes) - delta_exp).astype(np.uint8), delta_exp.astype(np.uint8),
             row_start, row_k, row_j.astype(np.uint8), np.searchsorted(row_k, np.arange(1, K_EXACT_MAX + 1)))
    for array in table:
        array.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _every_k(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    """b_k / beta and a_k for k = 1..K_EXACT_MAX, two read-only arrays, for
    the (alpha, beta, lambda, delta) whose complex128 bytes are ``key``, so
    -0.0 and +0.0, or two nan payloads, never share an entry.

    One NumPy power takes alpha, delta and beta*lambda to the powers
    0..K_EXACT_MAX. For each form's :func:`_term_table` the powers of alpha
    are gathered by exponent and multiplied in place by those of delta and
    by the coefficients, ``np.add.reduceat`` sums each row, which is then
    weighted, and a second ``reduceat`` sums each k's rows.

    Rounding, to first order in u = eps/2: a complex product is off by at
    most sqrt(5) u, and NumPy takes a power n <= 64 by squaring, off by at
    most (n - 1) sqrt(5) u. So a term's factors and products carry at most
    (k sqrt(5) + 2) u, the product by beta included for b_k. ``reduceat``
    adds m terms as ``add.reduce`` does, in four interleaved partial sums
    past 4 terms: about m/4 + 5 additions of sqrt(2) u each. Over a row
    (m <= k + 1) and over k's rows (m <= k/2 + 1) that is (3k/8 + 10)
    sqrt(2) u, so in all (1.4k + 8) eps sum |terms|, below 2k eps from
    k = 13. The tests check 2k eps at every k against the exact rational
    recurrence. A product that underflows may lose 2^-1075 outright (fl(xy)
    = xy(1 + d) + e), which later factors scale: a term passes through at
    most 4 (k + 2) products, counted by how often later ones reuse each, so
    this adds at most 12 (k + 2) 2^-1075 sum |terms|+, each modulus taken as
    at least 1; with every modulus at most 1 that is below 2e-302.
    """
    alpha, beta, lam, delta = np.frombuffer(key, np.complex128).tolist()
    sums = []
    # Python's float arithmetic makes inf and nan without a warning, and so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_pow, delta_pow, bl_pow = np.power(np.array([alpha, delta, beta * lam])[:, None], _POWERS)
        for coef, alpha_exp, delta_exp, row_start, _, row_j, k_start in (
                _term_table(l_coeff, 0), _term_table(t_coeff, 1)):
            terms = alpha_pow.take(alpha_exp)
            terms *= delta_pow.take(delta_exp)
            terms *= coef
            rows = np.add.reduceat(terms, row_start)
            rows *= bl_pow.take(row_j)
            sums.append(np.add.reduceat(rows, k_start))
            sums[-1].flags.writeable = False
    return tuple(sums)


def _closed_form_entry(c: TwoDimCoefficients, k: int, form: int, caller: str) -> complex:
    """Entry k of :func:`_every_k`'s form ``form`` (0: b_k / beta, 1: a_k),
    after ``c`` is found one instance and k an index in [1, K_EXACT_MAX]."""
    _one_instance(c, caller)
    k = _checked_index("k", k, 1)
    if k > K_EXACT_MAX:
        raise ClosedFormRangeError(
            f"closed-form evaluation is limited to k <= {K_EXACT_MAX}: the integer "
            f"coefficients grow combinatorially and the polynomial becomes "
            f"ill-conditioned in double precision; use iterate2 for k = {k}"
        )
    key = np.array([c.alpha, c.beta, c.lam, c.delta], dtype=np.complex128).tobytes()
    return complex(_every_k(key)[form][k - 1])


def _one_instance(c: TwoDimCoefficients, caller: str) -> None:
    """Refuse a batch where one instance is taken: the powers would broadcast it."""
    sizes = [x.size for x in (c.alpha, c.beta, c.lam, c.delta) if getattr(x, "ndim", 0)]
    if sizes:
        raise TypeError(f"{caller} takes one instance, not a batch of {max(sizes)}")


def exact_b(c: TwoDimCoefficients, k: int) -> complex:
    """Closed-form b_k = beta * sum_j c_kj (beta*lambda)^j.

    Read from :func:`_every_k`, which evaluates every k <= ``K_EXACT_MAX``
    of both forms once per coefficient set: a lone call pays for all of
    them, and each further k of the set is a cache read. Within
    2k eps |beta| sum |terms| of the exact value, plus the underflow part
    :func:`_every_k` states, with max(1, |beta|). Cross-checked against
    :func:`iterate2` to 1e-9 for k <= 25 whenever |alpha|, |delta| <= 1;
    refuses a batch, a k that is no index and k beyond ``K_EXACT_MAX`` by
    name, before any evaluation.
    """
    return c.beta * _closed_form_entry(c, k, 0, "exact_b")


def exact_a(c: TwoDimCoefficients, k: int) -> complex:
    """Closed-form a_k = alpha^k + sum_{j>=1} d_kj (beta*lambda)^j.

    Read from :func:`_every_k` as :func:`exact_b` is. Within
    2k eps sum |terms| of the exact value, alpha^k among the terms, plus
    the underflow part :func:`_every_k` states; refuses as :func:`exact_b`.
    """
    return _closed_form_entry(c, k, 1, "exact_a")


def approx_b(params: AlgorithmParams, k: int) -> complex:
    """First-order amplitude beta * sum_{i<k} sigma^(k-1-i) delta1^i.

    Here sigma = e^(2i*theta) and delta1 = e^(2i*phi), which equals the
    one-step ``delta = 2 cos(phi) e^(i*phi) - 1`` algebraically. This is the
    arbitrary-phase sum of Hoyer, PRA 62, 052304 (2000). Accurate to
    O(k^2 |u|^2) relative to the exact recurrence; its modulus is
    :func:`closed_form_magnitude`.

    Evaluated in closed form as beta sigma^(k-1) e^(-i(k-1) gap) D_k, with
    the reduced gap and the ratio D_k of :func:`_first_order`. Rounding
    error: the reduced gap is off by up to about (|theta - phi| + 1) eps and
    the two powers by a phase of about 2k eps, so the result is off by at
    most about (|theta - phi| + 3) k^2 eps |beta|. That worst case needs the
    terms nearly in phase (|gap| below about 1/k); otherwise the error is far
    smaller. A k where it reaches |beta| k is refused (:func:`_gap_and_limit`).
    """
    k, gap, ratio = _first_order(params, k, "approx_b")
    sigma = cmath.exp(2j * params.theta)
    return phase_scale(params.phi) * params.u * sigma ** (k - 1) * cmath.exp(-1j * ((k - 1) * gap)) * ratio


def _first_order(params: AlgorithmParams, k, caller: str) -> tuple[int, float, float]:
    """Both first-order forms' k, checked against the limit of
    :func:`_gap_and_limit`, the reduced gap, and the Dirichlet ratio
    D_k = sin(k gap) / sin(gap), k at a gap of exactly 0, for one theta (an
    array is refused). No floor is needed: sin rounds a tiny nonzero gap to
    itself, down to 5e-324."""
    if isinstance(params.theta, np.ndarray):
        raise TypeError(f"{caller} takes one theta, not an array of {params.theta.size}")
    gap, limit = _gap_and_limit(params.theta, params.phi)
    k = _checked_index("k", k, 1, limit)
    return k, gap, math.sin(k * gap) / math.sin(gap) if gap else float(k)


def _gap_and_limit(theta: float, phi: float) -> tuple[float, int]:
    """For one theta: theta - phi reduced modulo pi to [-pi/2, pi/2] by
    ``math.remainder``, and the first-order limit, the largest k with
    (|theta - phi| + 3) k eps < 1. The operator depends on each angle only
    modulo pi, and near a nonzero multiple of pi an unreduced gap puts a
    rounding error of O(eps / |sin(gap)|) into sin(k gap) / sin(gap). Past
    the limit :func:`approx_b`'s error bound exceeds |beta| k, the largest
    the sum can be; it is below 2^53, so k * gap takes k exactly. A
    theta - phi that overflows is refused by name."""
    difference = theta - phi
    if not math.isfinite(difference):
        raise ValueError(f"theta - phi overflows at theta={theta}, phi={phi}")
    return math.remainder(difference, math.pi), math.ceil(1 / ((abs(difference) + 3) * math.ulp(1.0))) - 1


def _threshold_and_gap(params: AlgorithmParams) -> tuple[float, float]:
    """The first-order threshold 2 |cos(phi)| |u|, and the gap theta - phi
    reduced as :func:`_gap_and_limit` reduces it, elementwise for an array
    of theta, whose entry with a difference that overflows is refused by name."""
    threshold = 2 * abs(snapped_cos(params.phi)) * abs(params.u)
    theta, phi = params.theta, params.phi
    if not isinstance(theta, np.ndarray):
        return threshold, _gap_and_limit(theta, phi)[0]
    with np.errstate(over="ignore"):
        x = theta - phi
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"theta - phi overflows at theta[{i}]={theta[i]}, phi={phi}")
    return threshold, _REMAINDER(x, math.pi).astype(np.float64)


#: ``math.remainder`` applied to each entry of an array.
_REMAINDER = np.frompyfunc(math.remainder, 2, 1)


def closed_form_magnitude(params: AlgorithmParams, k: int) -> float:
    """|approx_b| in closed form: 2 |cos(phi)| |u| |D_k|, with the Dirichlet
    ratio D_k = sin(k gap) / sin(gap) of :func:`_first_order` (k where the
    reduced gap is exactly 0). Refuses k as :func:`approx_b` does.
    """
    _, _, ratio = _first_order(params, k, "closed_form_magnitude")
    return 2 * abs(snapped_cos(params.phi)) * abs(params.u) * abs(ratio)


def _peak_of(b: np.ndarray, k_max: int) -> SweepResult:
    """The largest |b_k| over 1 <= k <= k_max of a trajectory's ``b`` (smallest k wins ties).

    Reduces over axis 0, so ``b`` may run past k_max (>= 1, checked by the callers):
    a 1-D ``b`` gives a plain int and float, a batch of n columns two arrays of n.
    Past overflow, whether a row is inf or nan depends on how its products
    were summed, so the first k whose |b_k| is not finite takes the peak, as
    inf; only a column that holds one pays a second pass.
    """
    magnitudes = np.abs(b[1 : k_max + 1])
    max_abs_b = np.max(magnitudes, axis=0)
    k_star = np.argmax(magnitudes, axis=0) + 1
    finite = np.isfinite(max_abs_b)
    if not finite.all():
        k_star = np.where(finite, k_star, np.argmax(~np.isfinite(magnitudes), axis=0) + 1)
        max_abs_b = np.where(finite, max_abs_b, math.inf)
    return _sweep_result(k_star, max_abs_b)


def _sweep_result(k_star: np.ndarray, max_abs_b: np.ndarray) -> SweepResult:
    """A :class:`SweepResult` of two arrays of one shape, a plain int and float where 0-d."""
    if k_star.ndim == 0:
        k_star, max_abs_b = int(k_star), float(max_abs_b)
    return SweepResult(k_star=k_star, max_abs_b=max_abs_b)


def _chunks(c: TwoDimCoefficients, k_max: int, steps: int):
    """``iterate2(c, k_max).b``, bit for bit, in chunks of up to ``steps``
    steps, each with the last row of the chunk before as its row 0.

    Every chunk is a view of one pair of (a, b) buffers of min(steps, k_max)
    + 1 rows, allocated once per call: a chunk holds until the caller asks
    for the next, which overwrites it. A run that superposes by
    :func:`iterate2`'s rule takes its chunks from :func:`_superposed`; any
    other runs :func:`iterate2` once per chunk into the buffers, given the
    last row of the one before as ``start`` and the buffers as ``out``, so
    the plain loop.
    """
    units = _units(_unit_trajectories2, c, k_max, np.size(c.alpha))
    if units is not None:
        yield from (b for a, b in _superposed(units, k_max, steps))
        return
    a, b = _row_pair((min(steps, k_max) + 1, *np.shape(c.alpha)))
    row = _ORIGIN
    for done in range(0, k_max, steps):
        m = min(steps, k_max - done)
        yield iterate2(c, m, row, out=(a[: m + 1], b[: m + 1])).b
        row = (complex(a[m]), complex(b[m])) if a.ndim == 1 else (a[m], b[m])


def sweep_max(c: TwoDimCoefficients, k_max: int) -> SweepResult:
    """Maximize |b_k| over 1 <= k <= k_max (smallest k wins ties).

    Scalar coefficients give a plain int ``k_star`` and float ``max_abs_b``;
    coefficients as 1-D arrays of n >= 1 instances (as :func:`present_coeffs`
    gives them for an array of theta) give one array entry per instance. The
    trajectory is taken in chunks sized by ``SWEEP_BLOCK`` over n (1 for
    scalars), all written into one pair of chunk buffers per call
    (:func:`_chunks`). Rows k <= 512 are the plain recurrence, bit for bit;
    later rows are superposed or looped by :func:`iterate2`'s rule, decided
    once per call.
    The result is bit-identical to ``_peak_of(iterate2(c, k_max).b, k_max)``:
    a later chunk takes over only where its peak is strictly greater, as
    argmax sees the whole trajectory. A chunk's first |b_k| that is not
    finite is its peak, as inf (:func:`_peak_of`), so no later chunk takes
    over from it.
    """
    k_max = _checked_index("k_max", k_max, 1)
    n = np.size(c.alpha)
    _check_bound("instances", n, 1)
    k_star, max_abs_b, done = 0, -math.inf, 0
    for b in _chunks(c, k_max, max(1, SWEEP_BLOCK // n - 1)):
        steps = len(b) - 1
        peak = _peak_of(b, steps)
        later = peak.max_abs_b > max_abs_b
        k_star = np.where(later, done + peak.k_star, k_star)
        max_abs_b = np.where(later, peak.max_abs_b, max_abs_b)
        done += steps
    return _sweep_result(k_star, max_abs_b)


def phase_condition(params: AlgorithmParams) -> PhaseCondition:
    """The first-order success condition |theta - phi| < 2 |cos(phi)| |u|.

    The gap theta - phi is reduced modulo pi by :func:`_threshold_and_gap`,
    as in :func:`closed_form_magnitude`. Returns the threshold, the ratio
    l = |gap| / threshold (infinite when the threshold vanishes, e.g. at
    phi = pi/2), and whether l < 1. When l > 1 the first-order analysis caps
    the sweep maximum near 1/l. An array of theta gives arrays of l and of
    the verdict, each entry bit-identical to the call on its angle alone.
    """
    threshold, gap = _threshold_and_gap(params)
    if threshold > 0:
        # Python's float division makes inf without a warning, and so does this.
        with np.errstate(over="ignore"):
            ratio_l = abs(gap) / threshold
    else:
        ratio_l = np.full(gap.shape, math.inf) if isinstance(gap, np.ndarray) else math.inf
    return PhaseCondition(threshold, ratio_l, ratio_l < 1)
