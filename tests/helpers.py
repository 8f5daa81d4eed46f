"""Reference helpers shared by the tests."""

import numpy as np

from phasematch.engine2d import TwoDimCoefficients
from phasematch.reporting import SIG_DIGITS


def round_sig(x: float) -> float:
    """Round to 12 significant digits; zeros (with their sign), infinities and nan pass through.

    The reference for a report's rounding, which formats all its floats in
    one string instead.
    """
    return float(f"{x:.{SIG_DIGITS}g}")


def stacked(coeffs: list) -> TwoDimCoefficients:
    """The coefficients of a list of instances as one batch: the one instance
    itself, or each field as a 1-D array over the list."""
    if len(coeffs) == 1:
        return coeffs[0]
    return TwoDimCoefficients(*(
        np.array([getattr(c, name) for c in coeffs], dtype=np.complex128)
        for name in ("alpha", "beta", "lam", "delta")
    ))
