"""Characteristic functions of spin observables via continued partition functions.

For a thermal ensemble the characteristic function of an integer observable
X = a + b * sum of spin products is

    F(theta) = <e^{i theta X}> = e^{i theta a} Z(deformed) / Z(physical),

where the deformation absorbs e^{i theta (X - a)} into the Boltzmann weight:
a complex reduced field beta h + i theta for the magnetization, a complex
reduced coupling beta J - i theta / 2 for the ring kink number (on the
long-range model only the adjacent-pair couplings would deform, so its kinks
take a sector sum).  Nothing divides by beta, so beta = 0 takes the same
routes.  Four model / observable combinations are dispatched here:

  ring + magnetization, ring + kinks   -> transfer-matrix ratio
  long-range + magnetization           -> sector sum over the down-count k
  long-range + kinks                   -> sector sum over the up-run count j

Every built-in X is an integer with real Boltzmann weights, so
F(2 pi - theta) = conj F(theta) exactly.  On the standard grid
theta_j = 2 pi j / M (to within _GRID_ROUTE_TOL) every route therefore
evaluates F_j for j <= M // 2 only and fills F_{M-j} = conj F_j, with F at
theta = pi real (_mirrored): the ring ratio at those phases, and for both
long-range sums, whose phases reduce in integers there, the conjugate of one
M-point real FFT.  Off-grid phases are evaluated in full.

Closed cumulants (mean, variance, third cumulant: ring formulas, and the
moments of the same long-range sector laws) and cumulants from the moments
of a distribution about its mean are also provided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distribution import Distribution, moments
from .errors import InputError
from .partition import _log_binomials, _longrange_log_g, _znn_scaled_arrays
from .spin_model import ModelKind, ModelParams, ObservableSpec, ObsKind, check_term_count

_ABS_F_SLACK = 1e-9      # |F| may exceed 1 by at most this much
_GRID_ROUTE_TOL = 1e-12  # phases this close to 2 pi j / M take the FFT route
_LOG2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class CumulantFlavor(enum.Enum):
    CLOSED_LARGE_N = "closed-large-N"
    EXACT_SMALL_FORMULA = "exact-small-formula"
    NUMERICAL_FROM_F = "numerical-from-F"


@dataclass(frozen=True)
class CumulantSet:
    kappa1: float
    kappa2: float
    kappa3: float
    flavor: CumulantFlavor


def _check_magnitude(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InputError("F is not finite here: the partition-function ratio cancelled "
                         "or overflowed")
    worst = float(np.abs(values).max(initial=0.0))
    if worst > 1.0 + _ABS_F_SLACK:
        raise InputError(f"|F| = {worst} exceeds 1; characteristic-function engine broke")
    return values


def _ring_charfunc(model: ModelParams, obs: ObservableSpec, thetas: np.ndarray) -> np.ndarray:
    """Z(deformed) / Z(physical) on the ring, both from one transfer-matrix call.

    The physical point leads the deformed array as complex(A) or complex(B),
    whose imaginary part is +0.0 as in a call at the real couplings.
    """
    A = model.beta * model.J
    B = model.beta * model.h
    if obs.kind is ObsKind.MAGNETIZATION:
        ls, v = _znn_scaled_arrays(model.N, complex(A),
                                   np.concatenate(([complex(B)], B + 1j * thetas)))
        phase = np.ones_like(thetas)
    else:
        ls, v = _znn_scaled_arrays(model.N, np.concatenate(([complex(A)], A - 0.5j * thetas)),
                                   complex(B))
        phase = np.exp(1j * thetas * model.N / 2.0)
    return phase * np.exp(ls[1:] - ls[0]) * (v[1:] / v[0])


def _grid_offset(thetas: np.ndarray) -> float:
    """Largest distance of theta_j from the standard grid 2 pi j / M, M = len(thetas)."""
    m = thetas.size
    return float(np.abs(thetas - 2.0 * np.pi * np.arange(m) / m).max())


def _on_grid(thetas: np.ndarray) -> bool:
    """Whether the phases are the standard grid, to within _GRID_ROUTE_TOL."""
    return thetas.size > 0 and _grid_offset(thetas) <= _GRID_ROUTE_TOL


def _mirrored(half: np.ndarray, m: int) -> np.ndarray:
    """F on the M-point standard grid from F_j, j = 0..M // 2.

    F_{M-j} = conj F_j, and F at theta = pi (even M) is real.
    """
    out = np.empty(m, dtype=complex)
    out[:half.size] = half
    out[half.size:] = np.conj(half[m - half.size:0:-1])
    if m % 2 == 0:
        out[m // 2] = half[-1].real
    return out


def _sector_charfunc(x: np.ndarray, logw: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sum_s w_s e^{i theta x_s} / sum_s w_s for integer values x_s and log weights.

    On the grid theta_j = 2 pi j / M the phase x_s theta_j reduces in
    integers, so w_s folds into bin x_s mod M and the sum for j <= M // 2 is
    the conjugate of one real FFT; _mirrored gives the rest.  Other phases
    take the direct sum, O(len(thetas) len(x)).
    """
    w = np.exp(logw - logw.max())
    m = thetas.size
    if _on_grid(thetas):
        half = np.conj(np.fft.rfft(np.bincount(x % m, weights=w, minlength=m)))
        return _mirrored(half / w.sum(), m)
    num = np.empty(m, dtype=complex)
    block = max(1, (1 << 18) // x.size)  # bound each complex block at ~4 MB
    for lo in range(0, m, block):
        terms = np.exp(1j * np.outer(thetas[lo:lo + block], x))
        num[lo:lo + block] = np.multiply(terms, w, out=terms).sum(axis=1)
    return num / w.sum()


def _longrange_kink_log_rows(n: int, logg: np.ndarray) -> np.ndarray:
    """log row[j] = log sum_k g(k) P(j | k) + log C(N, N // 2) for j = 0..N // 2.

    P(j | k) is the share of the ring configurations with k down spins that
    have j runs of up spins, hence K = 2j kinks: P(0 | 0) = P(0 | N) = 1, and
    for 1 <= j <= min(k, N - k), P(j | k) = (N / j) C(k-1, j-1) C(N-k-1, j-1)
    / C(N, k) (Mood, Ann. Math. Stat. 11, 1940).  Each sector starts at
    P(1 | k) = N / C(N, k) and moves from row j to row j + 1 by the run-count
    ratio P(j+1 | k) / P(j | k) = (k (N - k) - j (N - j)) / (j (j + 1)), so no
    log-factorial is formed.  log g may hold -inf (a sector of weight 0); a
    row that no weighted sector reaches is -inf.
    """
    logc = _log_binomials(n)
    rows = np.full(n // 2 + 1, -np.inf)
    rows[0] = np.logaddexp(logg[0], logg[n]) - logc[0]
    k = np.arange(n + 1)
    spread = k * (n - k)
    t = logg + math.log(n) - logc  # log g(k) P(1 | k) + log C(N, N // 2)
    for j in range(1, n // 2 + 1):
        cells = t[j:n - j + 1]  # the sectors with j up-runs: j <= k <= N - j
        top = cells.max()
        if top > -np.inf:
            rows[j] = top + math.log(np.exp(cells - top).sum())
        t[j + 1:n - j] += np.log((spread[j + 1:n - j] - j * (n - j)) / (j * (j + 1.0)))
    return rows


def _longrange_law(model: ModelParams, obs: ObservableSpec,
                   logg: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact sector law of a long-range built-in observable: integer values, log weights.

    M = N - 2k weighs log g(k) over the down-count k; K = 2j weighs the
    up-run row j of _longrange_kink_log_rows, which carries each sector from
    row to row by Mood's run-count ratio.  F and the closed cumulants
    both read it.  ``logg`` replaces the Boltzmann log g by any law of k
    whose configurations are uniform given k (the probe's chain law).
    """
    n = model.N
    if logg is None:
        logg, _ = _longrange_log_g(n, model.beta * model.J, model.beta * model.h)
    if obs.kind is ObsKind.MAGNETIZATION:
        return n - 2 * np.arange(n + 1), logg
    return 2 * np.arange(n // 2 + 1), _longrange_kink_log_rows(n, logg)


def charfunc_values(model: ModelParams, obs: ObservableSpec, thetas) -> np.ndarray:
    """F(theta) for an array of phases; dispatches on model and observable."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if obs.kind is ObsKind.CUSTOM:
        raise InputError("custom observables have no analytic route; "
                         "use the enumeration oracle or the probe simulator")
    check_term_count(model.N, obs)
    if model.kind is not ModelKind.RING:
        out = _sector_charfunc(*_longrange_law(model, obs), th)
    elif _on_grid(th):
        out = _mirrored(_ring_charfunc(model, obs, th[:th.size // 2 + 1]), th.size)
    else:
        out = _ring_charfunc(model, obs, th)
    return _check_magnitude(out)


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------


def _law_cumulants(x: np.ndarray, logw: np.ndarray) -> CumulantSet:
    """kappa_1..3 of an exact sector law: integer values x, log weights logw (any order)."""
    w = np.exp(logw - logw.max())
    return CumulantSet(*moments(x, w / w.sum()), flavor=CumulantFlavor.EXACT_SMALL_FORMULA)


def exact_kink_mean(model: ModelParams) -> float:
    """Exact thermal mean kink number of the zero-field ring (beta h = 0), any N.

    The bond products s_n s_{n+1} of a ring multiply to 1, so K is even and
    each even K <= N has 2 C(N, K) configurations of weight e^{beta J (N - 2K)}.
    <K> is the mean of that sector law, weighed in logs, so it neither
    overflows nor cancels at any beta J in the envelope.
    """
    if model.kind is not ModelKind.RING:
        raise InputError("the exact kink mean is a ring result")
    if model.beta * model.h != 0.0:
        raise InputError("the exact kink mean requires beta*h = 0")
    n = model.N
    k = np.arange(0, n + 1, 2)
    return _law_cumulants(k, _log_binomials(n)[k] - 2.0 * model.beta * model.J * k).kappa1


def _ring_log_ratios(model: ModelParams) -> tuple[float, float, float]:
    """log y, log |p|, log z of the closed ring cumulants; A = beta J, B = beta h.

    y = 1/u, p = e^{2A} sinh B / u, z = e^{2A} cosh B / u and
    u = sqrt(1 + e^{4A} sinh^2 B) = sqrt(1 + e^{2t}), t = log(e^{2A} |sinh B|),
    so y^2 + p^2 = 1 and no step overflows; log |p| = -inf at B = 0.
    """
    a, b = model.beta * model.J, abs(model.beta * model.h)
    log_sinh = b - _LOG2 + math.log(-math.expm1(-2.0 * b)) if b else -math.inf
    t = 2.0 * a + log_sinh
    log_y = -0.5 * float(np.logaddexp(0.0, 2.0 * t))
    log_cosh = b - _LOG2 + math.log1p(math.exp(-2.0 * b))
    return log_y, -0.5 * float(np.logaddexp(0.0, -2.0 * t)), 2.0 * a + log_cosh + log_y


def _ring_mag_cumulants(model: ModelParams) -> CumulantSet:
    """kappa1 = N p, kappa2 = N z y^2, kappa3 = N p y^2 (1 - 3 z^2).

    Products are exps of sums of logs: at h = 0, p = 0 keeps kappa1 and
    kappa3 at 0.0 even where z overflows.
    """
    n, sign = model.N, math.copysign(1.0, model.h)
    log_y, log_p, log_z = _ring_log_ratios(model)
    log_k2 = math.log(n) + log_z + 2.0 * log_y
    log_k3 = math.log(3.0 * n) + log_p + 2.0 * (log_y + log_z)  # its 3 N p y^2 z^2 term
    for name, log_value in (("kappa2", log_k2), ("kappa3", log_k3)):
        if log_value > _LOG_FLOAT_MAX:
            raise InputError(f"the closed {name} exceeds the float range")
    p = sign * math.exp(log_p)
    return CumulantSet(kappa1=n * p, kappa2=math.exp(log_k2),
                       kappa3=n * p * math.exp(2.0 * log_y) - sign * math.exp(log_k3),
                       flavor=CumulantFlavor.CLOSED_LARGE_N)


def _ring_kink_cumulants(model: ModelParams) -> CumulantSet:
    """Kink cumulants in y, p, zeta = 1/(1 + z) and z' = z/(1 + z).

    All four lie in [0, 1], so no kink cumulant can overflow.
    """
    n = model.N
    log_y, log_p, log_z = _ring_log_ratios(model)
    y2, p2 = math.exp(2.0 * log_y), math.exp(2.0 * log_p)
    zeta, zp = (math.exp(-np.logaddexp(0.0, x)) for x in (log_z, -log_z))
    y6 = y2 ** 3
    bracket = (y6 * (3.0 * zp ** 2 - 7.0 * p2 * zeta ** 2)
               - (y6 - 8.0 * p2 ** 2 * y2) * (zp ** 2 + 2.0 * zp * zeta + p2 * zeta ** 2)
               + 4.0 * p2 * y2 ** 2 * zp * (zp - zeta))
    kappa1 = n * y2 * zeta
    return CumulantSet(kappa1=kappa1, kappa2=kappa1 * (y2 * zp + 2.0 * p2),
                       kappa3=0.5 * n * zeta * bracket, flavor=CumulantFlavor.CLOSED_LARGE_N)


def closed_cumulants(model: ModelParams, obs: ObservableSpec) -> CumulantSet:
    """kappa_1..3 of a built-in observable from its closed or exact sector law.

    Ring formulas keep only the dominant transfer eigenvalue and are accurate
    up to O((lambda_-/lambda_+)^N); a ring cumulant beyond the float range
    raises InputError.  On the long-range model both observables take the
    moments of their exact sector law (flavor exact-small-formula).  A custom
    observable has no closed law: take distribution_cumulants of the
    reconstructed distribution instead.  The exact zero-field ring kink mean
    is exact_kink_mean.
    """
    if obs.kind is ObsKind.CUSTOM:
        raise InputError("custom observables have no closed cumulants; use the numerical "
                         "cumulants of the reconstructed distribution")
    check_term_count(model.N, obs)
    if model.kind is ModelKind.LONG_RANGE:
        return _law_cumulants(*_longrange_law(model, obs))
    if obs.kind is ObsKind.MAGNETIZATION:
        return _ring_mag_cumulants(model)
    return _ring_kink_cumulants(model)


def distribution_cumulants(dist: Distribution) -> CumulantSet:
    """kappa_1..3 of a distribution: its mean, then its moments about the mean."""
    return CumulantSet(*moments(dist.support, dist.probs), flavor=CumulantFlavor.NUMERICAL_FROM_F)

