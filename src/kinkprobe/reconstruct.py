"""From a probe record, the samples of the characteristic function, back to the distribution.

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

from .charfunc import _grid_offset
from .distribution import Distribution
from .errors import EstimationError, GridMismatchError, InputError
from .spin_model import ObservableSpec, _is_integer

if TYPE_CHECKING:  # pragma: no cover
    from .probe import ProbeRecord

__all__ = ["build_theta_grid", "invert_dft", "estimate_gate_error", "gate_error_times"]

# the estimator record: _RECORD_POINTS times over 0 .. _RECORD_SPAN pi / (eps min(1, 1 + eta));
# the recurrence is sought at t / (pi / eps) in [_WINDOW_LO, _WINDOW_HI]
_RECORD_POINTS = 4096
_RECORD_SPAN = 1.3
_WINDOW_LO, _WINDOW_HI = 0.72, 1.45


def build_theta_grid(obs: ObservableSpec, *, points: int | None = None) -> np.ndarray:
    """Uniform phases theta_j = 2 pi j / M, alias-free for the observable.

    The minimal M equals the support width: 2N+1 for the magnetization, N+1
    for the kink number, (x_max - x_min) + 1 for a custom integer observable.
    A larger ``points`` oversamples (denser traces); the inversion stays
    exact for any M at or above the minimum.  A ``points`` that is not an
    integer (a bool, a float or a string) raises InputError.
    """
    if points is not None and not _is_integer(points):
        raise InputError(f"points must be an integer or None, got {points!r}")
    lo, hi = obs.value_bounds()
    minimal = hi - lo + 1
    m = minimal if points is None else points
    if m < minimal:
        raise InputError(f"grid needs at least {minimal} points to resolve the support")
    return 2.0 * np.pi * np.arange(m) / m


def _check_gate(epsilon: float, eta: float = 0.0, times: np.ndarray | None = None) -> float:
    """Refuse a gate (eps, eta) whose probe times or phases leave the floats; return S.

    eps must be finite and positive, eta finite and above -1 (NaN fails).  The
    longest time built, S = _RECORD_SPAN pi / (eps min(1, 1 + eta)), ends the
    estimator record (the standard grid ends before pi / (eps (1 + eta))); S,
    the phase rate 2 eps max(1, 1 + eta) and the largest phase, rate * S, must be finite.
    Caller ``times``, if given, must be finite, and so must rate * max |t|.
    """
    if not math.isfinite(epsilon):
        raise InputError(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if not math.isfinite(eta):
        raise InputError(f"eta must be finite, got {eta}")
    if eta <= -1.0:
        raise InputError("eta must exceed -1")
    slowest = float(epsilon) * min(1.0, 1.0 + float(eta))  # Python floats: no numpy warning
    span = _RECORD_SPAN * math.pi / slowest if slowest > 0.0 else math.inf
    if not math.isfinite(span):
        raise InputError(f"epsilon = {epsilon} is too small: the acquisition times overflow")
    rate = 2.0 * float(epsilon) * max(1.0, 1.0 + float(eta))
    if not math.isfinite(rate * span):
        raise InputError(f"epsilon = {epsilon} (eta = {eta}) is too large: the phases overflow")
    if times is not None:
        if not np.isfinite(times).all():
            raise InputError("the time grid must hold finite times only")
        longest = float(np.abs(times).max(initial=0.0))
        if not math.isfinite(rate * longest):
            raise InputError(f"the time grid reaches t = {longest}, where the phases at "
                             f"epsilon = {epsilon} (eta = {eta}) overflow")
    return span


def invert_dft(record: "ProbeRecord", eta: float = 0.0) -> Distribution:
    """Exact finite-sum Fourier inversion of a probe record, as one FFT.

    Reads ``record.theta``, ``record.values`` (F at those phases) and
    ``record.observable``, which marks the values no configuration reaches.
    A gate (``record.epsilon``, eta) that _check_gate refuses raises
    InputError.  eta stretches the phases by (1 + eta), so they must satisfy
    theta_j (1 + eta) = 2 pi j / M: times pre-warped to t_j = theta_j /
    (2 eps (1 + eta)), or the plain grid at eta = 0.  The label is ``dft``
    (eta = 0) or ``dft-eta-corrected``, then ``/probe-exact`` or
    ``/probe-shots`` by ``record.shots``.  The imaginary residue of each
    amplitude is recorded and dropped; probabilities are returned unclipped.
    """
    _check_gate(record.epsilon, eta)
    obs = record.observable
    if obs is None:
        raise InputError("no observable attached to the record")
    lo, hi = obs.value_bounds()
    support = np.arange(lo, hi + 1)
    values = record.values
    m = values.size
    if m < support.size:
        raise GridMismatchError("fewer samples than support points; inversion would alias")
    if not _grid_offset(record.theta * (1.0 + eta)) <= 1e-9:  # NaN fails too
        raise GridMismatchError("samples do not sit on the uniform grid 2 pi j / M "
                                "(after the gate-error rescaling, if any)")
    method = "dft" if eta == 0.0 else "dft-eta-corrected"
    source = "probe-exact" if record.shots is None else "probe-shots"
    amp = np.fft.fft(values)[support % m] / m
    return Distribution(support=support, probs=amp.real,
                        residual_imag=float(np.abs(amp.imag).max()),
                        forbidden=obs.forbidden(support),
                        method=f"{method}/{source}")


def gate_error_times(epsilon: float, eta: float) -> np.ndarray:
    """The acquisition times of the record estimate_gate_error reads.

    _RECORD_POINTS times from 0 to S = 1.3 pi / (eps min(1, 1 + eta)) span the
    recurrence for either sign of eta.  The estimator reads the samples from
    the window start 0.72 pi / eps on and the one before it, so only those
    are returned: the full record's grid points, so its estimate, bit for bit.
    """
    t = np.linspace(0.0, _check_gate(epsilon, eta), _RECORD_POINTS)
    return t[np.searchsorted(t, _WINDOW_LO * (math.pi / epsilon)) - 1:]


def estimate_gate_error(record: "ProbeRecord") -> float:
    """Infer eta from the shifted recurrence time of the probe coherence.

    The coherence of an integer observable returns to 1 at accumulated phase
    2 pi, i.e. at t = pi / (eps (1 + eta)).  The detector looks for the
    minimum of |F - 1|^2 in a window around the nominal full period
    (excluding earlier half-period recurrences that parity structure can
    produce) and sharpens it with a parabolic fit, then returns
    eta = T_ideal / T_measured - 1.  The record must span the measured
    period, so for negative eta acquire a bit beyond pi / eps;
    gate_error_times builds such a record's times.
    """
    t, c = record.time_grid, record.values
    if t.size < 5:
        raise EstimationError("record too short for period detection")
    t_ideal = math.pi / record.epsilon
    g2 = np.abs(c - 1.0) ** 2
    window = (t >= _WINDOW_LO * t_ideal) & (t <= _WINDOW_HI * t_ideal)
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

