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

Both long-range sums have integer values and real weights, so on the
standard grid theta_j = 2 pi j / M each is one M-point inverse FFT.

Closed-form cumulants (mean, variance, third cumulant) and cumulants from
the moments of a distribution about its mean are also provided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import Distribution
from .errors import InputError
from .partition import (_TINY_LOG_BRACKET, _log_binomials, _log_factorials, _longrange_log_g,
                        _znn_scaled_arrays)
from .spin_model import ModelKind, ModelParams, ObservableSpec, ObsKind

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
    A = model.beta * model.J
    B = model.beta * model.h
    ls_den, v_den = _znn_scaled_arrays(model.N, A, B)
    if obs.kind is ObsKind.MAGNETIZATION:
        ls_num, v_num = _znn_scaled_arrays(model.N, np.full_like(thetas, A) + 0j, B + 1j * thetas)
        phase = np.ones_like(thetas)
    else:
        ls_num, v_num = _znn_scaled_arrays(model.N, A - 0.5j * thetas, np.full_like(thetas, B) + 0j)
        phase = np.exp(1j * thetas * model.N / 2.0)
    return phase * np.exp(ls_num - ls_den[0]) * (v_num / v_den[0])


def _grid_offset(thetas: np.ndarray) -> float:
    """Largest distance of theta_j from the standard grid 2 pi j / M, M = len(thetas)."""
    m = thetas.size
    return float(np.abs(thetas - 2.0 * np.pi * np.arange(m) / m).max())


def _sector_charfunc(x: np.ndarray, logw: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sum_s w_s e^{i theta x_s} / sum_s w_s for integer values x_s and log weights.

    On the grid theta_j = 2 pi j / M the phase x_s theta_j reduces in
    integers, so w_s folds into bin x_s mod M and the sum is M times one
    inverse FFT.  Other phases take the direct sum, O(len(thetas) len(x)).
    """
    w = np.exp(logw - logw.max())
    m = thetas.size
    if m and _grid_offset(thetas) <= _GRID_ROUTE_TOL:
        return m * np.fft.ifft(np.bincount(x % m, weights=w, minlength=m)) / w.sum()
    num = np.empty(m, dtype=complex)
    block = max(1, (1 << 22) // x.size)  # bound the outer product at ~64 MB
    for lo in range(0, m, block):
        sl = slice(lo, lo + block)
        num[sl] = np.exp(1j * np.outer(thetas[sl], x)) @ w
    return num / w.sum()


def _longrange_kink_log_rows(n: int, logg: np.ndarray) -> np.ndarray:
    """log row[j] = log sum_k Q(k, j) w(k) for j = 0..N // 2, from log g(k).

    w(k) ~ g(k) / C(N, k) weighs one configuration with k down spins, and
    Q(k, j) counts the ring configurations with k down spins and j runs of
    up spins, hence K = 2j kinks: Q(0, 0) = Q(N, 0) = 1, and for
    1 <= j <= min(k, N - k) Q(k, j) = (N / j) C(k-1, j-1) C(N-k-1, j-1)
    (Mood, Ann. Math. Stat. 11, 1940).  The sum over k is a log-sum-exp,
    built in blocks of j so memory stays bounded at N = 1e4.
    """
    lf = _log_factorials(n)
    # shift before the factorial terms join, so the dominant cells stay small:
    # a large common offset would round every cell to its own last bit
    logw = (logg - logg.max()) - _log_binomials(n)
    rows = np.empty(n // 2 + 1)
    rows[0] = np.logaddexp(logw[0], logw[n])
    # log Q(k, j) w(k) = a_k - lf[k - j] - lf[N - k - j] + log N - lf[j] - lf[j - 1]
    inner = np.arange(1, n)
    a = np.full(n + 1, -np.inf)
    a[inner] = logw[inner] + lf[inner - 1] + lf[n - 1 - inner]
    # a negative index reads +inf from the tail, so a cell with k < j or
    # k > N - j, which no configuration has, weighs 0
    lf_tail = np.concatenate((lf, np.full(n, np.inf)))
    block = max(1, (1 << 18) // n)  # (j, k) cells per block: 2 MB per temporary
    for lo in range(1, n // 2 + 1, block):
        j = np.arange(lo, min(lo + block, n // 2 + 1))[:, None]
        k = np.arange(lo, n - lo + 1)  # every k that some j of the block allows
        t = a[k] - lf_tail[k - j] - lf_tail[n - k - j]
        top = t.max(axis=1, keepdims=True)
        lse = np.log(np.exp(t - top).sum(axis=1, keepdims=True)) + top
        rows[lo:lo + j.size] = (lse + np.log(n) - lf[j] - lf[j - 1])[:, 0]
    return rows


def _longrange_charfunc(model: ModelParams, obs: ObservableSpec,
                        thetas: np.ndarray) -> np.ndarray:
    n = model.N
    logg, _ = _longrange_log_g(n, model.beta * model.J, model.beta * model.h)
    if obs.kind is ObsKind.MAGNETIZATION:
        return _sector_charfunc(n - 2 * np.arange(n + 1), logg, thetas)
    return _sector_charfunc(2 * np.arange(n // 2 + 1), _longrange_kink_log_rows(n, logg), thetas)


def check_term_count(model: ModelParams, obs: ObservableSpec) -> None:
    """A built-in observable must cover all N sites; custom ones are free."""
    if obs.kind is not ObsKind.CUSTOM and obs.n != model.N:
        raise InputError(f"{obs.kind.value} observable covers {obs.n} sites, "
                         f"the model has N={model.N}")


def charfunc_values(model: ModelParams, obs: ObservableSpec, thetas) -> np.ndarray:
    """F(theta) for an array of phases; dispatches on model and observable."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if obs.kind is ObsKind.CUSTOM:
        raise InputError("custom observables have no analytic route; "
                         "use the enumeration oracle or the probe simulator")
    check_term_count(model, obs)
    if model.kind is ModelKind.RING:
        out = _ring_charfunc(model, obs, th)
    else:
        out = _longrange_charfunc(model, obs, th)
    return _check_magnitude(out)


# ---------------------------------------------------------------------------
# joint (magnetization, kink) configuration counts on the ring
# ---------------------------------------------------------------------------

def joint_counts(n: int) -> np.ndarray:
    """Q[m + N, K] = number of ring configurations with magnetization m and K kinks.

    A configuration with u up spins and j up-runs on the cycle has K = 2j
    kinks.  For 1 <= j <= min(u, N - u) there are (N / j) C(u-1, j-1)
    C(N-u-1, j-1) of them (Mood, Ann. Math. Stat. 11, 1940); the two uniform
    configurations have K = 0.  Entries are exact Python ints, dtype=object.
    """
    if n < 2:
        raise InputError("joint counts need N >= 2")
    q = np.zeros((2 * n + 1, n + 1), dtype=object)
    q[0, 0] = q[2 * n, 0] = 1
    for u in range(1, n):
        for j in range(1, min(u, n - u) + 1):
            q[2 * u, 2 * j] = n * math.comb(u - 1, j - 1) * math.comb(n - u - 1, j - 1) // j
    return q


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------


def exact_kink_mean(model: ModelParams) -> float:
    """Exact thermal mean kink number of the zero-field ring, any N.

    <K> = (N/2) e^{-beta J} [cosh^{N-1} - sinh^{N-1}] / [cosh^N + sinh^N]
        = N / (1 + e^{2 beta J}) * (1 - r^{N-1}) / (1 + r^N),

    with r = tanh(beta J); the second form, its first factor taken in logs, never overflows.
    On a frustrated odd ring (beta J < 0, N odd) r rounds to -1 below beta J ~ -19, so
    both brackets are formed as 1 - (1 - w)^n from w = 1 + r = 2 / (1 + e^{-2 beta J}).
    """
    if model.kind is not ModelKind.RING:
        raise InputError("the exact kink mean is a ring result")
    if model.h != 0.0:
        raise InputError("the exact kink mean requires h = 0")
    bj, n = model.beta * model.J, model.N
    lead = n * math.exp(-np.logaddexp(0.0, 2.0 * bj))
    if bj < 0 and n % 2:
        # r^{N-1} = (1 - w)^{N-1} and r^N = -(1 - w)^N; w cancels from the ratio
        log_w = _LOG2 - float(np.logaddexp(0.0, -2.0 * bj))
        return lead * _one_minus_power_over_w(n - 1, log_w) / _one_minus_power_over_w(n, log_w)
    r = math.tanh(bj)
    return lead * (1.0 - r ** (n - 1)) / (1.0 + r ** n)


def _one_minus_power_over_w(n: int, log_w: float) -> float:
    """(1 - (1 - w)^n) / w for 0 < w < 1 from log w; n once log(n w) < -40 (w may underflow)."""
    if n and math.log(n) + log_w >= _TINY_LOG_BRACKET:
        w = math.exp(log_w)
        return -math.expm1(n * math.log1p(-w)) / w
    return float(n)


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


def _longrange_mag_cumulants(model: ModelParams) -> CumulantSet:
    """Exact long-range cumulants of the sector law: M = N - 2k with weight g(k)."""
    n = model.N
    logg, _ = _longrange_log_g(n, model.beta * model.J, model.beta * model.h)
    g = np.exp(logg[::-1] - logg.max())  # M = -N, -N + 2, ..., N
    sectors = Distribution(support=np.arange(-n, n + 1, 2), probs=g / g.sum())
    return replace(distribution_cumulants(sectors), flavor=CumulantFlavor.EXACT_SMALL_FORMULA)


def closed_cumulants(model: ModelParams, obs: ObservableSpec) -> CumulantSet:
    """Closed-form kappa_1..3 where a formula exists.

    Ring formulas keep only the dominant transfer eigenvalue and are accurate
    up to O((lambda_-/lambda_+)^N); a ring cumulant beyond the float range
    raises InputError.  The long-range magnetization formulas are exact.
    The long-range kink number has no closed form: take distribution_cumulants
    of the reconstructed distribution instead.  The exact zero-field ring kink
    mean is exact_kink_mean.
    """
    check_term_count(model, obs)
    if model.kind is ModelKind.RING and obs.kind is ObsKind.MAGNETIZATION:
        return _ring_mag_cumulants(model)
    if model.kind is ModelKind.RING and obs.kind is ObsKind.KINKS:
        return _ring_kink_cumulants(model)
    if model.kind is ModelKind.LONG_RANGE and obs.kind is ObsKind.MAGNETIZATION:
        return _longrange_mag_cumulants(model)
    raise InputError("no closed cumulants for this model/observable; use the numerical "
                     "cumulants of the reconstructed distribution")


def distribution_cumulants(dist: Distribution) -> CumulantSet:
    """kappa_1..3 of a distribution: its mean, then its moments about the mean.

    Moments about zero would cancel: at mean ~ N the raw third moment is
    ~ N^3 and kappa_3 ~ N, so the raw form keeps only ~ 16 - 2 log10(N) digits.
    """
    mu = dist.mean()
    dev = dist.support - mu
    return CumulantSet(kappa1=mu, kappa2=float(dist.probs @ dev ** 2),
                       kappa3=float(dist.probs @ dev ** 3),
                       flavor=CumulantFlavor.NUMERICAL_FROM_F)

