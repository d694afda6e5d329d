"""Scalar oracles for the likelihood scan.

Each computes one candidate n0 straight from the pilot matrix, with no
prefix sums, so that the tests can check the library's batched profile
(``estimate_sto(y).s1/s2/loglik``) against an independent implementation.
"""

import numpy as np

from ambcsync import DegenerateSegmentError


def variance_estimates(y, n0: int) -> tuple[float, float]:
    """ML variance estimates for the two segments split after column n0.

    Segment 1 is columns [1..n0], segment 2 is [n0+1..N_p] (1-indexed).
    """
    y = np.asarray(y)
    rows, cols = y.shape
    if not 1 <= n0 <= cols - 1:
        raise ValueError(f"n0 must be in [1, {cols - 1}], got {n0}")
    if not np.all(np.isfinite(y)):
        raise ValueError("pilot matrix contains non-finite entries")
    power = y.real**2 + y.imag**2
    s1 = float(power[:, :n0].sum()) / (rows * n0)
    s2 = float(power[:, n0:].sum()) / (rows * (cols - n0))
    return s1, s2


def log_likelihood_reduced(y, n0: int) -> float:
    """Profile log-likelihood at candidate n0 (constant terms dropped)."""
    rows, cols = np.shape(y)
    s1, s2 = variance_estimates(y, n0)
    if s1 <= 0.0 or s2 <= 0.0:
        raise DegenerateSegmentError(f"zero-power segment at n0={n0} (s1={s1}, s2={s2})")
    return float(-n0 * rows * np.log(s1) - (cols - n0) * rows * np.log(s2))
