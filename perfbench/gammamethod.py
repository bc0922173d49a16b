"""Integrated autocorrelation time by the Gamma method with automatic windowing.

Follows U. Wolff, "Monte Carlo errors with less errors", Comput. Phys. Commun.
156 (2004) 143, for a primary observable (the reference code UWerr):

  Gamma(t)   = 1/(N - t) sum_i (a_i - abar)(a_{i+t} - abar)
  tau_int(W) = 1/2 + sum_{t=1..W} Gamma(t)/Gamma(0)

The window W is the first one with g(W) = exp(-W/tau_W) - tau_W/sqrt(W N) < 0,
where tau_W = S / ln((2 tau_int(W) + 1)/(2 tau_int(W) - 1)) and S = 1.5. The
autocorrelation function is then corrected for the bias of the subtracted
mean, and

  error of the mean   = sqrt(C_F / N),   C_F = Gamma(0) + 2 sum_{t<=W} Gamma(t)
  tau_int             = C_F / (2 Gamma(0))
  error of tau_int    = 2 tau_int sqrt((W + 1/2 - tau_int) / N).
"""

import math
from dataclasses import dataclass

import numpy as np

S_TAU = 1.5


@dataclass
class GammaResult:
    mean: float
    error: float
    tau_int: float
    tau_int_error: float
    window: int
    n: int
    windowed: bool  # False when no window up to N/2 met the criterion

    @property
    def n_eff(self):
        return self.n / (2.0 * self.tau_int)


def autocovariance(values, t_max):
    """Gamma(t) for t = 0..t_max of the mean-subtracted series, via FFT."""
    a = np.asarray(values, dtype=float)
    n = len(a)
    d = a - a.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(d, size)
    acf = np.fft.irfft(f * np.conj(f), size)[: t_max + 1]
    return acf / (n - np.arange(t_max + 1))


def gamma_method(values, s_tau=S_TAU) -> GammaResult:
    """Mean, its autocorrelation-aware error and tau_int of one series."""
    a = np.asarray(values, dtype=float)
    n = len(a)
    if n < 4:
        raise ValueError(f"gamma method needs at least 4 values, got {n}")
    mean = float(a.mean())
    w_max = n // 2
    gam = autocovariance(a, w_max)
    if gam[0] <= 0.0:  # constant series: no fluctuation, no autocorrelation
        return GammaResult(mean, 0.0, 0.5, 0.0, 0, n, True)
    window, windowed, g_int = w_max, False, 0.0
    for w in range(1, w_max + 1):
        g_int += gam[w] / gam[0]
        tau_w = s_tau / math.log((g_int + 1.0) / g_int) if g_int > 0.0 else 1e-300
        if math.exp(-w / tau_w) - tau_w / math.sqrt(w * n) < 0.0:
            window, windowed = w, True
            break
    c_f = gam[0] + 2.0 * gam[1 : window + 1].sum()
    gam = gam + c_f / n  # bias of the subtracted mean
    c_f = gam[0] + 2.0 * gam[1 : window + 1].sum()
    tau = c_f / (2.0 * gam[0])
    d_tau = 2.0 * tau * math.sqrt(max(window + 0.5 - tau, 0.0) / n)
    return GammaResult(mean, math.sqrt(max(c_f, 0.0) / n), float(tau), d_tau, window, n, windowed)
