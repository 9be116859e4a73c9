"""Historical VaR/CVaR against a brute-force sort-and-index oracle.

The oracle (``oracle_var`` and ``oracle_cvar`` in ``oracles``) computes
the tail index with exact rational arithmetic (Fraction of the decimal
alpha literal), so it cannot inherit the binary floating-point wobble
the implementation has to snap away:
(1 - 0.8) * 10 is 1.9999999999999996 as a float but exactly 2 as a
rational, and the intended index is 2.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toporisk import (
    InsufficientDataError,
    ParameterError,
    tail_risk,
)
from toporisk.risk import snapped_floor

from oracles import oracle_cvar, oracle_var

ALPHAS = (0.8, 0.9, 0.95, 0.99)


def test_worked_examples():
    # the ten-return example at alpha 0.8 is test_tail_risk_bundle's
    assert tail_risk([-0.01], 0.5)[0] == -0.01
    assert tail_risk([-0.01], 0.99)[1] == -0.01
    assert tail_risk([0.002] * 7, 0.95)[0] == 0.002


def test_tail_risk_bundle():
    r = [-0.05, -0.04, -0.03, -0.02, -0.01, 0.01, 0.02, 0.03, 0.04, 0.05]
    var, cvar = tail_risk(r, 0.8)
    assert var == -0.03
    assert math.isclose(cvar, -0.045, rel_tol=0, abs_tol=1e-15)
    assert cvar <= var


def test_snapped_floor():
    assert snapped_floor((1 - 0.8) * 10) == 2
    assert snapped_floor(1.9999999999999996) == 2
    assert snapped_floor(1.5) == 1
    assert snapped_floor(2.0) == 2
    assert snapped_floor(-0.5) == -1
    assert snapped_floor(0.049999999) == 0


def test_parameter_validation():
    for alpha in (0.0, 1.0, 1.5, -0.2, math.nan, "0.9", True):
        with pytest.raises(ParameterError):
            tail_risk([0.01, 0.02], alpha)
    with pytest.raises(InsufficientDataError):
        tail_risk([], 0.95)
    with pytest.raises(ParameterError):
        tail_risk([0.1, math.nan], 0.95)
    with pytest.raises(ParameterError):
        tail_risk(np.zeros((2, 2)), 0.95)


def test_tail_mean_near_float_range_is_the_exact_mean():
    # each return and each tail mean is finite, but numpy's sum is not: it overflows
    # to inf, or in the pairwise sum of a long tail, to inf + -inf = NaN, and in the
    # sequential sum of 15 returns, to -inf before the positive ones are added
    samples = (
        [1.7e308] * 4,
        [-1.7e308] * 4,
        [-1.7e308] * 256 + [1.7e308] * 256,
        [-1.7e308] * 8 + [1.7e308] * 8,
    )
    for sample in samples:
        count = max(1, int((1 - Fraction("0.0001")) * len(sample)))
        exact = sum(map(Fraction, sorted(sample)[:count])) / count
        cvar = tail_risk(sample, 0.0001)[1]
        assert abs(Fraction(cvar) - exact) <= Fraction(1e-12) * abs(exact), sample


def test_oracle_equivalence_seeded():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 200)
        returns = [rng.uniform(-0.2, 0.2) for _ in range(n)]
        alpha = rng.choice(ALPHAS)
        var, cvar = tail_risk(returns, alpha)
        assert var == oracle_var(returns, alpha)
        assert cvar == pytest.approx(oracle_cvar(returns, alpha), rel=0, abs=1e-15)


def test_permutation_invariance():
    rng = random.Random(22)
    for _ in range(50):
        returns = [rng.gauss(0, 0.02) for _ in range(rng.randint(1, 80))]
        shuffled = returns[:]
        rng.shuffle(shuffled)
        for alpha in ALPHAS:
            assert tail_risk(returns, alpha) == tail_risk(shuffled, alpha)


def test_monotonicity_in_alpha():
    rng = random.Random(23)
    for _ in range(50):
        returns = [rng.gauss(0, 0.02) for _ in range(rng.randint(1, 120))]
        for a1, a2 in ((0.8, 0.9), (0.9, 0.95), (0.95, 0.99)):
            (var1, cvar1), (var2, cvar2) = tail_risk(returns, a1), tail_risk(returns, a2)
            assert var1 >= var2
            assert cvar1 >= cvar2


def test_translation_equivariance():
    rng = random.Random(24)
    for _ in range(50):
        returns = np.array([rng.gauss(0, 0.02) for _ in range(rng.randint(1, 80))])
        c = rng.uniform(-0.5, 0.5)
        for alpha in ALPHAS:
            shifted = tail_risk(returns + c, alpha)[0]
            assert abs(shifted - (tail_risk(returns, alpha)[0] + c)) < 1e-12


def test_cvar_never_exceeds_var():
    rng = random.Random(25)
    for _ in range(100):
        returns = [rng.gauss(0, 0.05) for _ in range(rng.randint(1, 150))]
        for alpha in ALPHAS:
            var, cvar = tail_risk(returns, alpha)
            assert cvar <= var


def test_refuses_what_numpy_cannot_read_as_1d_numbers():
    class Sample:
        returns = np.array([-0.02, 0.01, 0.03])

    # an object with a ``returns`` attribute is no sample either, and 10**400
    # is beyond float range
    for sample in (Sample(), ["a"], [[0.01], [0.02, 0.03]], object(), [10**400]):
        with pytest.raises(ParameterError, match="^returns must be 1-D numbers"):
            tail_risk(sample, 0.95)
