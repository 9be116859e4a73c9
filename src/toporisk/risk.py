"""Historical-simulation Value-at-Risk and Conditional VaR.

Both measures work on the empirical distribution of a return sample, no
parametric assumptions, and are reported in return units (a bad day is a
negative number). With returns sorted ascending:

    VaR  = r_(k),  k = floor((1 - alpha) * n), zero-based
    CVaR = mean of the max(1, k) smallest returns

so CVaR <= VaR always: the tail mean cannot exceed the tail boundary.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import InsufficientDataError, ParameterError, check_param, check_vector

DEFAULT_ALPHA = 0.95

# Relative slack when flooring alpha- and fraction-derived products.
# (1 - 0.8) * 10 evaluates to 1.9999999999999996 in binary floating point;
# the intended index is 2, so values this close to an integer snap to it.
_FLOOR_SNAP_REL = 1e-9


def snapped_floor(x: float) -> int:
    """floor(x), except values within 1e-9 (relative) of an integer snap to it."""
    nearest = round(x)
    if abs(x - nearest) <= _FLOOR_SNAP_REL * max(1.0, abs(x)):
        return int(nearest)
    return int(np.floor(x))


def tail_risk(sample: Any, alpha: float = DEFAULT_ALPHA) -> tuple[float, float]:
    """(VaR, CVaR) of one sample at confidence alpha, in return units, from one sort.

    ``sample`` is a 1-D array of returns, or a sequence numpy reads as
    one. VaR is the ascending order statistic at k = floor((1 - alpha) *
    n), clamped to the sample; CVaR is the mean of the max(1, k) smallest
    returns, the floor of 1 keeping the tail non-empty at high alpha.
    """
    alpha = check_param("alpha", alpha)
    r = np.sort(check_vector("returns", sample))
    n = r.shape[0]
    if n == 0:
        raise InsufficientDataError("empty return sample")
    if not np.isfinite(r).all():
        raise ParameterError("returns must be finite")
    k = snapped_floor((1.0 - alpha) * n)
    tail = r[: min(max(1, k), n)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused below
        cvar = float(np.mean(tail))
        if not np.isfinite(cvar):
            # only the sum overflowed (a mean lies in [min, max]); scaling by 2**-e < 1/n is exact
            e = len(tail).bit_length()
            cvar = float(np.mean(tail * 2.0**-e) * 2.0**e)
    if not np.isfinite(cvar):
        raise ParameterError("CVaR overflows the float range")
    return float(r[min(max(k, 0), n - 1)]), cvar
