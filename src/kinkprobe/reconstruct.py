"""From characteristic-function samples back to the distribution.

For an integer-valued observable the Fourier inversion

    P(x) = (1/2 pi) integral_0^{2 pi} F(theta) e^{-i x theta} d theta

is realized exactly as a finite sum over M >= (support width) uniform phase
points theta_j = 2 pi j / M.  That sum is an M-point discrete Fourier
transform, computed as one FFT: P(x) = fft(F)[x mod M] / M.  A miscalibrated
controlled-rotation angle (eps' = (1 + eta) eps) stretches every accumulated
phase by (1 + eta).  Inverting with that eta requires the rescaled phases
theta_j (1 + eta) to sit on the standard grid; they do when the acquisition
grid was pre-warped to t_j = theta_j / (2 eps (1 + eta)), and the
reconstruction is then exact again.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .charfunc import CharFunctionSamples, _grid_offset, closed_cumulants
from .distribution import Distribution
from .errors import EstimationError, GridMismatchError, InputError
from .spin_model import ModelKind, ModelParams, ObservableSpec, magnetization

if TYPE_CHECKING:  # pragma: no cover
    from .probe import ProbeRecord

__all__ = ["build_theta_grid", "invert_dft", "estimate_gate_error", "gaussian_approx"]


def build_theta_grid(obs: ObservableSpec, *, points: int | None = None) -> np.ndarray:
    """Uniform phases theta_j = 2 pi j / M, alias-free for the observable.

    The minimal M equals the support width: 2N+1 for the magnetization, N+1
    for the kink number, (x_max - x_min) + 1 for a custom integer observable.
    A larger ``points`` oversamples (denser traces); the inversion stays
    exact for any M at or above the minimum.
    """
    lo, hi = obs.value_bounds()
    minimal = hi - lo + 1
    m = minimal if points is None else int(points)
    if m < minimal:
        raise InputError(f"grid needs at least {minimal} points to resolve the support")
    return 2.0 * np.pi * np.arange(m) / m


def invert_dft(samples: CharFunctionSamples, eta: float = 0.0) -> Distribution:
    """Exact finite-sum Fourier inversion on the standard grid, as one FFT.

    A gate error eta stretches the accumulated phases by (1 + eta), so the
    samples must satisfy theta_j (1 + eta) = 2 pi j / M: acquisition times
    pre-warped to t_j = theta_j / (2 eps (1 + eta)), or the plain grid when
    eta = 0.  The result is labelled ``dft`` at eta = 0 and
    ``dft-eta-corrected`` otherwise.  The imaginary residue of each amplitude
    is recorded on the result and dropped; probabilities are returned
    unclipped.  The samples must carry their observable, which marks the
    values no configuration reaches (``Distribution.forbidden``).
    """
    if eta <= -1.0:
        raise InputError("eta must exceed -1")
    obs = samples.observable
    if obs is None:
        raise InputError("no observable attached to the samples")
    lo, hi = obs.value_bounds()
    support = np.arange(lo, hi + 1)
    m = samples.values.size
    if m < support.size:
        raise GridMismatchError("fewer samples than support points; inversion would alias")
    if _grid_offset(samples.theta * (1.0 + eta)) > 1e-9:
        raise GridMismatchError("samples do not sit on the uniform grid 2 pi j / M "
                                "(after the gate-error rescaling, if any)")
    method = "dft" if eta == 0.0 else "dft-eta-corrected"
    amp = np.fft.fft(samples.values)[support % m] / m
    return Distribution(support=support, probs=amp.real,
                        residual_imag=float(np.abs(amp.imag).max()),
                        forbidden=obs.forbidden(support),
                        method=f"{method}/{samples.provenance.value}")


def estimate_gate_error(record: "ProbeRecord") -> float:
    """Infer eta from the shifted recurrence time of the probe coherence.

    The coherence of an integer observable returns to 1 at accumulated phase
    2 pi, i.e. at t = pi / (eps (1 + eta)).  The detector looks for the
    minimum of |F - 1|^2 in a window around the nominal full period
    (excluding earlier half-period recurrences that parity structure can
    produce) and sharpens it with a parabolic fit, then returns
    eta = T_ideal / T_measured - 1.  The record must span the measured
    period, so for negative eta acquire a bit beyond pi / eps.
    """
    t = np.asarray(record.time_grid, dtype=float)
    c = np.asarray(record.sx, dtype=float) + 1j * np.asarray(record.sy, dtype=float)
    if t.size < 5:
        raise EstimationError("record too short for period detection")
    t_ideal = math.pi / record.epsilon
    g2 = np.abs(c - 1.0) ** 2
    window = (t >= 0.72 * t_ideal) & (t <= 1.45 * t_ideal)
    if window.sum() < 3:
        raise EstimationError("record does not span the expected recurrence window")
    idx = np.flatnonzero(window)
    j = idx[np.argmin(g2[idx])]
    if g2[j] > 1.0:
        raise EstimationError("no coherence recurrence found in the record span")
    if j == 0 or j == t.size - 1:
        raise EstimationError("recurrence sits on the record edge; extend the time grid")
    # parabolic vertex through the three samples around the minimum
    t3, g3 = t[j - 1:j + 2], g2[j - 1:j + 2]
    denom = (t3[0] - t3[1]) * (t3[0] - t3[2]) * (t3[1] - t3[2])
    a = (t3[2] * (g3[1] - g3[0]) + t3[1] * (g3[0] - g3[2]) + t3[0] * (g3[2] - g3[1])) / denom
    b = (t3[2] ** 2 * (g3[0] - g3[1]) + t3[1] ** 2 * (g3[2] - g3[0])
         + t3[0] ** 2 * (g3[1] - g3[2])) / denom
    t_meas = t[j] if a <= 0 else -b / (2.0 * a)
    return t_ideal / t_meas - 1.0


def gaussian_approx(model: ModelParams) -> Distribution:
    """Gaussian with the closed mean and variance, on the parity-correct support.

    P(m) = C exp[-(m - <M>)^2 / (2 Var M)] for m in [-N, N] with the parity
    of N; C normalizes over those points.  Valid for the ring magnetization.
    """
    if model.kind is not ModelKind.RING:
        raise InputError("the Gaussian comparison curve is defined for the ring model")
    n = model.N
    obs = magnetization(n)
    cs = closed_cumulants(model, obs)
    support = np.arange(-n, n + 1)
    allowed = ~obs.forbidden(support)
    p = np.zeros(support.size)
    z = (support[allowed] - cs.kappa1) ** 2 / (2.0 * cs.kappa2)
    p[allowed] = np.exp(-(z - z.min()))
    p /= p.sum()
    return Distribution(support=support, probs=p, forbidden=~allowed, method="gaussian")
