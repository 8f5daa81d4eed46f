"""Selective phase rotations: identity everywhere except one basis amplitude.

The search operator uses one family, ``I - 2 cos(angle) e^(i*angle) |x><x|``.
Its target entry is ``-e^(2i*angle)``, so it has unit modulus for every
angle; at angle 0 it is the plain inversion. Long's rotation (Long, PRA 64,
022307 (2001)) multiplies the target amplitude by ``e^(i*t)``, so the
rotation at ``angle`` is Long's at ``t = 2*angle + pi``. Long's reduced
coefficients are :func:`phasematch.engine2d.long_coeffs`. This module imports
nothing from the package, so it holds the input checks every module shares:
``_finite_angles`` of every angle, ``_bounded`` of every matrix element, and
``_check_bound`` of every size and of the two real parameters ``a`` and
``magnitude``, and ``_checked_index`` of every count and index.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

#: Cosine magnitudes below this are flushed to exactly zero.
COS_SNAP = 1e-14


def _finite_angles(**angles) -> None:
    """Raise ``ValueError`` naming every angle unless all of them are finite.

    An angle may be an array of angles, named by its first non-finite entry
    (``theta[3]=nan``), or by its size when it has none.
    """
    if all(np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)
           for value in angles.values()):
        return
    listed = []
    for name, value in angles.items():
        if isinstance(value, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(value))
            listed.append(f"{name}[{bad[0]}]={value[bad[0]]}" if bad.size
                          else f"{name}=<{np.size(value)} finite angles>")
        else:
            listed.append(f"{name}={value}")
    raise ValueError(f"non-finite angles {', '.join(listed)}")


def _check_bound(name: str, value, low, high=math.inf) -> None:
    """Raise ``ValueError`` naming ``value`` and the bounds unless low <= value <= high."""
    if not low <= value <= high:
        raise ValueError(f"{name} = {value} is outside [{low}, {high}]")


def _checked_index(name: str, value, low, high=math.inf) -> int:
    """``operator.index(value)`` checked by :func:`_check_bound`: a float
    or bool count or index raises ``TypeError`` before any bound is read."""
    if isinstance(value, bool):
        raise TypeError(f"{name} = {value} is a bool, not an integer")
    value = operator.index(value)
    _check_bound(name, value, low, high)
    return value


def _bounded(name: str, z) -> complex:
    """The matrix element ``z`` as a complex number, checked to be finite with |z| <= 1 + 1e-12."""
    z = complex(z)
    # abs() of a complex with a nan or inf part is nan or inf, which fails the comparison.
    if not abs(z) <= 1 + 1e-12:
        raise ValueError(f"|{name}| = {abs(z)} exceeds 1 or is not finite")
    return z


def snapped_cos(angle: float) -> float:
    """``cos(angle)`` with near-zero results flushed to exactly 0.0.

    Odd multiples of pi/2 are not representable in floating point, so their
    cosines evaluate to ~6e-17 rather than 0; flushing makes the no-op cases
    exact (the rotation at pi/2 is exactly the identity, and the amplitude
    ``beta`` vanishes exactly at phi = pi/2). Inputs more than 1e-14 away
    from those points are untouched.
    """
    c = math.cos(angle)
    return 0.0 if abs(c) < COS_SNAP else c


def phase_scale(angle: float) -> complex:
    """The projector coefficient ``2 cos(angle) e^(i*angle)``.

    Algebraically equal to ``1 + e^(2i*angle)``; computed from
    :func:`snapped_cos` so it is exactly 0 at odd multiples of pi/2.
    """
    return 2 * snapped_cos(angle) * cmath.exp(1j * angle)


def rotation_entry(angle: float) -> complex:
    """The rotation's one entry that differs from the identity, ``1 - 2 cos(angle) e^(i*angle)``."""
    return 1 - phase_scale(angle)


def build(index: int, angle: float, dim: int) -> np.ndarray:
    """Dense matrix of the rotation: the identity with ``(index, index)``
    entry :func:`rotation_entry` of ``angle``."""
    index = _checked_index("index", index, 0, dim - 1)
    m = np.eye(dim, dtype=np.complex128)
    m[index, index] = rotation_entry(angle)
    return m
