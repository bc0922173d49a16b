"""Checks of the Gamma-method estimator on AR(1) series of known tau_int.

    python3 -m pytest perfbench/test_gammamethod.py

For x_t = phi x_{t-1} + sqrt(1 - phi^2) e_t with unit-variance white noise e,
rho(t) = phi^|t|, so tau_int = (1 + phi) / (2 (1 - phi)) and the variance of
the mean of N values tends to 2 tau_int / N.
"""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from gammamethod import gamma_method


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x0 = rng.standard_normal()  # start in the stationary law
    x, _ = lfilter([math.sqrt(1.0 - phi * phi)], [1.0, -phi], e, zi=[phi * x0])
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ar1_tau_int(phi, seed):
    n = 200_000
    res = gamma_method(ar1(phi, n, seed))
    tau = (1.0 + phi) / (2.0 * (1.0 - phi))
    assert res.windowed
    assert abs(res.tau_int - tau) <= 4.0 * res.tau_int_error
    assert abs(res.tau_int - tau) <= 0.1 * tau
    assert res.error == pytest.approx(math.sqrt(2.0 * tau / n), rel=0.1)
    assert abs(res.mean) <= 5.0 * math.sqrt(2.0 * tau / n)


def test_tau_error_covers_spread_over_seeds():
    """The stated error of tau_int matches its scatter over independent series."""
    phi, n = 0.8, 20_000
    results = [gamma_method(ar1(phi, n, seed)) for seed in range(40)]
    taus = np.array([r.tau_int for r in results])
    stated = np.median([r.tau_int_error for r in results])
    assert 0.6 < taus.std(ddof=1) / stated < 1.6


def test_constant_series():
    res = gamma_method(np.full(100, 0.25))
    assert (res.mean, res.error, res.tau_int) == (0.25, 0.0, 0.5)


def test_rejects_short_series():
    with pytest.raises(ValueError):
        gamma_method([1.0, 2.0])
