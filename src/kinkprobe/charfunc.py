"""Characteristic functions of spin observables via continued partition functions.

For a thermal ensemble the characteristic function of an integer observable
X = a + b * sum of spin products is

    F(theta) = <e^{i theta X}> = e^{i theta a} Z(deformed) / Z(physical),

where the deformation absorbs e^{i theta (X - a)} into the Boltzmann weight:
a complex field ht = h + i theta / beta for the magnetization, a complex
coupling Jt = J - i theta / (2 beta) for the kink number.  Four model /
observable combinations are dispatched here:

  ring + magnetization, ring + kinks   -> transfer-matrix ratio
  long-range + magnetization           -> explicit sector sum over g(n),
                                          one FFT on the standard grid
  long-range + kinks                   -> reweighted joint (M, K) counts

Closed-form cumulants (mean, variance, third cumulant) and a numerical
moments-from-distribution route are also provided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DeformationError, InputError, SizeError
from .partition import ComplexParams, _log_binomials, _znn_scaled_arrays
from .spin_model import ModelKind, ModelParams, ObservableSpec, ObsKind

JOINT_COUNT_LIMIT = 64   # reweighting route for the long-range kink number
_JOINT_DFT_LIMIT = 24    # float64 phase-grid inversion stays integer-exact here
_ABS_F_SLACK = 1e-9      # |F| may exceed 1 by at most this much
_GRID_ROUTE_TOL = 1e-12  # phases this close to 2 pi j / M take the FFT route


class Provenance(enum.Enum):
    ANALYTIC = "analytic"
    PROBE_EXACT = "probe-exact"
    PROBE_SHOTS = "probe-shots"


@dataclass(frozen=True)
class CharFunctionSamples:
    """F(theta_j) on an increasing grid in [0, 2 pi), with provenance."""

    theta: np.ndarray
    values: np.ndarray
    provenance: Provenance
    observable: ObservableSpec | None = None
    model: ModelParams | None = None

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        va = np.asarray(self.values, dtype=complex)
        if th.shape != va.shape or th.ndim != 1:
            raise InputError("theta grid and values must be 1-d arrays of equal length")
        if th.size > 1 and not np.all(np.diff(th) > 0):
            raise InputError("theta grid must be strictly increasing")
        if self.provenance is Provenance.ANALYTIC and th.size and th[0] == 0.0:
            if abs(va[0] - 1.0) > 1e-12:
                raise InputError("analytic characteristic function must have F(0) = 1")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "values", va)


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
    higher: tuple = ()  # orders 4.. when a numerical route computed them


@dataclass(frozen=True)
class CumulantContext:
    """Shared quantities of the ring closed forms at the physical couplings.

    u = sqrt(1 + e^{4 beta J} sinh^2(beta h))
    v = 1 - e^{4 beta J} [2 + cosh(2 beta h)]
    w = 1 - 8 e^{8 beta J} sinh^4(beta h)
    """

    u: float
    v: float
    w: float
    lambda_plus: float
    lambda_minus: float


def cumulant_context(model: ModelParams) -> CumulantContext:
    if model.kind is not ModelKind.RING:
        raise InputError("cumulant context is defined for the ring model")
    if model.beta <= 0:
        raise InputError("beta must be positive")
    bj, bh = model.beta * model.J, model.beta * model.h
    u = math.sqrt(1.0 + math.exp(4 * bj) * math.sinh(bh) ** 2)
    v = 1.0 - math.exp(4 * bj) * (2.0 + math.cosh(2 * bh))
    w = 1.0 - 8.0 * math.exp(8 * bj) * math.sinh(bh) ** 4
    root = math.exp(-bj) * u
    lam_p = math.exp(bj) * math.cosh(bh) + root
    lam_m = math.exp(bj) * math.cosh(bh) - root
    return CumulantContext(u=u, v=v, w=w, lambda_plus=lam_p, lambda_minus=lam_m)


def deform_params(model: ModelParams, obs: ObservableSpec, theta: float) -> ComplexParams:
    """Complex couplings that absorb e^{i theta (X - a)} into the weight.

    Magnetization: ht = h + i theta / beta (either model).
    Kink number:   Jt = J - i theta / (2 beta), ring only -- for the
    long-range model only the adjacent-pair couplings deform, which a uniform
    ComplexParams cannot represent (the joint-count route covers that case).
    """
    if model.beta <= 0:
        raise InputError("beta must be positive")
    if obs.kind is ObsKind.MAGNETIZATION:
        return ComplexParams(Jt=complex(model.J), ht=model.h + 1j * theta / model.beta,
                             beta=model.beta, N=model.N)
    if obs.kind is ObsKind.KINKS:
        if model.kind is not ModelKind.RING:
            raise DeformationError(
                "long-range kink deformation is bond-selective; use the joint-count route"
            )
        return ComplexParams(Jt=model.J - 0.5j * theta / model.beta, ht=complex(model.h),
                             beta=model.beta, N=model.N)
    raise DeformationError("custom observables have no parameter deformation; "
                           "use the enumeration oracle or the probe simulator")


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


def _longrange_g(model: ModelParams) -> np.ndarray:
    """log g(n) with g(n) = C(N,n) e^{-2 beta h n} e^{2 beta J (n^2 - N n)}."""
    n = model.N
    k = np.arange(n + 1, dtype=float)
    return (_log_binomials(n) - 2.0 * model.beta * model.h * k
            + 2.0 * model.beta * model.J * (k * k - n * k))


def _grid_offset(thetas: np.ndarray) -> float:
    """Largest distance of theta_j from the standard grid 2 pi j / M, M = len(thetas)."""
    m = thetas.size
    return float(np.abs(thetas - 2.0 * np.pi * np.arange(m) / m).max())


def _longrange_mag_dense(n: int, g: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """e^{i N theta} sum_k g_k e^{-2 i theta k} at arbitrary phases, O(len(thetas) N)."""
    k = np.arange(n + 1, dtype=float)
    num = np.empty(thetas.size, dtype=complex)
    block = max(1, (1 << 22) // (n + 1))  # bound the outer product at ~64 MB
    for lo in range(0, thetas.size, block):
        sl = slice(lo, lo + block)
        num[sl] = np.exp(-2j * np.outer(thetas[sl], k)) @ g
    return np.exp(1j * n * thetas) * num


def _longrange_mag_fft(n: int, g: np.ndarray, m: int) -> np.ndarray:
    """The same sum on the grid theta_j = 2 pi j / M as one M-point FFT.

    e^{-2 i theta_j k} = e^{-2 pi i j (2k mod M) / M}, so g_k folds into bin
    2k mod M.  The prefactor phase is reduced in integers, (N j) mod M,
    because e^{i N theta_j} in floats loses ~N * 1e-16.
    """
    folded = np.bincount(2 * np.arange(n + 1) % m, weights=g, minlength=m)
    j = np.arange(m)
    return np.exp(2j * np.pi * ((n * j) % m) / m) * np.fft.fft(folded)


def _longrange_mag_charfunc(model: ModelParams, thetas: np.ndarray) -> np.ndarray:
    logg = _longrange_g(model)
    g = np.exp(logg - logg.max())
    if thetas.size and _grid_offset(thetas) <= _GRID_ROUTE_TOL:
        num = _longrange_mag_fft(model.N, g, thetas.size)
    else:
        num = _longrange_mag_dense(model.N, g, thetas)
    return num / g.sum()


def _longrange_kink_charfunc(model: ModelParams, thetas: np.ndarray) -> np.ndarray:
    n = model.N
    if n > JOINT_COUNT_LIMIT:
        raise SizeError(f"long-range kink route limited to N <= {JOINT_COUNT_LIMIT}")
    q = joint_counts(n).astype(float)
    m = np.arange(-n, n + 1, dtype=float)
    logw = model.beta * (model.J * (m * m - n) / 2.0 + model.h * m)
    present = q.sum(axis=1) > 0
    shift = logw[present].max()
    w = np.where(present, np.exp(logw - shift), 0.0)
    row = w @ q  # weighted kink histogram, one entry per k
    num = np.exp(1j * np.outer(thetas, np.arange(n + 1, dtype=float))) @ row.astype(complex)
    return num / row.sum()


def charfunc_values(model: ModelParams, obs: ObservableSpec, thetas) -> np.ndarray:
    """F(theta) for an array of phases; dispatches on model and observable."""
    if model.beta <= 0:
        raise InputError("beta must be positive")
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if obs.kind is ObsKind.CUSTOM:
        raise DeformationError("custom observables have no analytic route; "
                               "use the enumeration oracle or the probe simulator")
    if model.kind is ModelKind.RING:
        out = _ring_charfunc(model, obs, th)
    elif obs.kind is ObsKind.MAGNETIZATION:
        out = _longrange_mag_charfunc(model, th)
    else:
        out = _longrange_kink_charfunc(model, th)
    return _check_magnitude(out)


def charfunc(model: ModelParams, obs: ObservableSpec, theta: float) -> complex:
    """F(theta) = e^{i theta a} Z(deformed) / Z(physical) at one phase."""
    return complex(charfunc_values(model, obs, [theta])[0])


def sample_charfunc(model: ModelParams, obs: ObservableSpec,
                    thetas=None, points: int | None = None) -> CharFunctionSamples:
    """Evaluate F on a grid (default: the minimal alias-free inversion grid)."""
    if thetas is None:
        from .reconstruct import build_theta_grid

        thetas = build_theta_grid(obs, model.N, points=points)
    th = np.asarray(thetas, dtype=float)
    return CharFunctionSamples(theta=th, values=charfunc_values(model, obs, th),
                               provenance=Provenance.ANALYTIC, observable=obs, model=model)


# ---------------------------------------------------------------------------
# joint (magnetization, kink) configuration counts on the ring
# ---------------------------------------------------------------------------

_joint_cache: dict = {}


def joint_counts(n: int, method: str = "auto") -> np.ndarray:
    """Q[m + N, k] = number of ring configurations with magnetization m and k kinks.

    Two equivalent routes:

    * ``dft``   -- a doubly-deformed 2x2 transfer matrix with unit-modulus
      entries e^{i psi s s'} e^{i phi (s + s')/2}, traced to the N-th power
      over a (2N+1) x (N+1) phase grid and inverted by a 2-d discrete
      Fourier transform.  Exact up to float rounding; the integer residual
      is asserted below 1e-6, which float64 supports up to N ~ 24.
    * ``exact`` -- an integer dynamic program over sites (arbitrary N).

    ``auto`` picks ``dft`` within its validated range and ``exact`` beyond.
    Entries are non-negative integers (Python ints, dtype=object).
    """
    if n < 2:
        raise InputError("joint counts need N >= 2")
    if method == "auto":
        method = "dft" if n <= _JOINT_DFT_LIMIT else "exact"
    if method not in ("dft", "exact"):
        raise InputError(f"unknown joint-count method {method!r}")
    key = (n, method)
    if key not in _joint_cache:
        _joint_cache[key] = _joint_dft(n) if method == "dft" else _joint_exact(n)
    return _joint_cache[key].copy()


def _joint_dft(n: int) -> np.ndarray:
    phi = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    psi = np.pi * np.arange(n + 1) / (n + 1)
    ph, ps = np.meshgrid(phi, psi, indexing="ij")
    # 2x2 matrix with entries e^{i psi s s'} e^{i phi (s+s')/2}: closed-form
    # eigenvalues via trace and determinant
    tau = 2.0 * np.exp(1j * ps) * np.cos(ph)
    det = np.exp(2j * ps) - np.exp(-2j * ps)
    root = np.sqrt(0.25 * tau * tau - det)
    trace_pow = (0.5 * tau + root) ** n + (0.5 * tau - root) ** n
    m = np.arange(-n, n + 1)
    k = np.arange(n + 1)
    em = np.exp(-1j * np.outer(phi, m))                     # invert the phi transform
    ek = np.exp(1j * (2.0 * np.outer(psi, k) - n * psi[:, None]))  # bond sum -> kinks
    q = np.einsum("pq,pm,qk->mk", trace_pow, em, ek) / ((2 * n + 1) * (n + 1))
    rounded = np.round(q.real)
    residual = float(np.abs(q - rounded).max())
    if residual > 1e-6:
        raise InputError(f"joint-count DFT residual {residual:.2e} exceeds 1e-6 at N={n}")
    if rounded.min() < 0:
        raise InputError("joint-count DFT produced a negative count")
    out = np.empty(rounded.shape, dtype=object)
    out[...] = rounded.astype(np.int64)
    return out


def _joint_exact(n: int) -> np.ndarray:
    """Site-by-site integer DP: state = (first spin, current spin, kinks, mag)."""
    q = np.zeros((2 * n + 1, n + 1), dtype=object)
    for first in (1, -1):
        # dp[cur][k][m + n] after placing sites 1..j
        dp = {(first, 0, first): 1}
        for _ in range(n - 1):
            nxt: dict = {}
            for (cur, kk, mag), cnt in dp.items():
                for new in (1, -1):
                    key = (new, kk + (new != cur), mag + new)
                    nxt[key] = nxt.get(key, 0) + cnt
            dp = nxt
        for (cur, kk, mag), cnt in dp.items():
            k_tot = kk + (cur != first)  # close the ring
            q[mag + n, k_tot] += cnt
    return q


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------


def exact_kink_mean(model: ModelParams) -> float:
    """Exact thermal mean kink number of the zero-field ring, any N.

    <K> = (N/2) e^{-beta J} [cosh^{N-1} - sinh^{N-1}] / [cosh^N + sinh^N]
        = (N/2) e^{-beta J} / cosh(beta J) * (1 - r^{N-1}) / (1 + r^N),

    with r = tanh(beta J); the second form never overflows.
    """
    if model.kind is not ModelKind.RING:
        raise InputError("the exact kink mean is a ring result")
    if model.h != 0.0:
        raise InputError("the exact kink mean requires h = 0")
    if model.beta <= 0:
        raise InputError("beta must be positive")
    bj = model.beta * model.J
    r = math.tanh(bj)
    return (0.5 * model.N * math.exp(-bj) / math.cosh(bj)
            * (1.0 - r ** (model.N - 1)) / (1.0 + r ** model.N))


def _ring_mag_cumulants(model: ModelParams) -> CumulantSet:
    ctx = cumulant_context(model)
    bj, bh = model.beta * model.J, model.beta * model.h
    e2 = math.exp(2 * bj)
    n = model.N
    return CumulantSet(
        kappa1=n * e2 * math.sinh(bh) / ctx.u,
        kappa2=n * e2 * math.cosh(bh) / ctx.u ** 3,
        kappa3=n * ctx.v * e2 * math.sinh(bh) / ctx.u ** 5,
        flavor=CumulantFlavor.CLOSED_LARGE_N,
    )


def _ring_kink_cumulants(model: ModelParams) -> CumulantSet:
    ctx = cumulant_context(model)
    bj, bh = model.beta * model.J, model.beta * model.h
    n, u, w, lam_p, lam_m = model.N, ctx.u, ctx.w, ctx.lambda_plus, ctx.lambda_minus
    kappa1 = n / (u * lam_p * math.exp(bj))
    kappa2 = (n * (math.cosh(bh) + 2.0 * math.exp(3 * bj) * math.sinh(bh) ** 2 * lam_p)
              / (u ** 3 * lam_p ** 2))
    kappa3 = (n * math.exp(-bj)
              * (5.0 * math.exp(2 * bj)
                 - (2.0 + w) * math.exp(2 * bj) * math.cosh(2 * bh)
                 - 2.0 * u * w * math.cosh(bh)
                 + 4.0 * (u * u - 1.0) * lam_m * math.exp(bj) * math.cosh(bh))
              / (2.0 * u ** 5 * lam_p ** 3))
    return CumulantSet(kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                       flavor=CumulantFlavor.CLOSED_LARGE_N)


def _longrange_mag_cumulants(model: ModelParams) -> CumulantSet:
    """Exact long-range cumulants via G_a = sum_n n^a g(n) (shared log shift)."""
    logg = _longrange_g(model)
    g = np.exp(logg - logg.max())
    k = np.arange(model.N + 1, dtype=float)
    g0 = g.sum()
    r1 = (k * g).sum() / g0
    r2 = (k * k * g).sum() / g0
    r3 = (k * k * k * g).sum() / g0
    return CumulantSet(
        kappa1=model.N - 2.0 * r1,
        kappa2=4.0 * (r2 - r1 * r1),
        kappa3=-8.0 * (r3 - 3.0 * r1 * r2 + 2.0 * r1 ** 3),
        flavor=CumulantFlavor.EXACT_SMALL_FORMULA,
    )


def closed_cumulants(model: ModelParams, obs: ObservableSpec,
                     flavor: CumulantFlavor | None = None) -> CumulantSet:
    """Closed-form kappa_1..3 where a formula exists.

    Ring formulas keep only the dominant transfer eigenvalue and are accurate
    up to O((lambda_-/lambda_+)^N); the long-range magnetization formulas are
    exact.  The long-range kink number has no closed form -- use
    numerical_cumulants on reconstructed samples instead.  Requesting
    EXACT_SMALL_FORMULA returns the exact zero-field ring kink mean (kappa1
    only; kappa2/kappa3 are NaN there).
    """
    if model.beta <= 0:
        raise InputError("beta must be positive")
    if flavor is CumulantFlavor.NUMERICAL_FROM_F:
        raise InputError("numerical flavor is computed by numerical_cumulants")
    if flavor is CumulantFlavor.EXACT_SMALL_FORMULA:
        if model.kind is ModelKind.RING and obs.kind is ObsKind.KINKS:
            return CumulantSet(kappa1=exact_kink_mean(model), kappa2=math.nan,
                               kappa3=math.nan, flavor=flavor)
        if model.kind is ModelKind.LONG_RANGE and obs.kind is ObsKind.MAGNETIZATION:
            return _longrange_mag_cumulants(model)
        raise InputError("no exact closed form for this combination; "
                         "fall back to numerical_cumulants")
    if model.kind is ModelKind.RING and obs.kind is ObsKind.MAGNETIZATION:
        return _ring_mag_cumulants(model)
    if model.kind is ModelKind.RING and obs.kind is ObsKind.KINKS:
        return _ring_kink_cumulants(model)
    if model.kind is ModelKind.LONG_RANGE and obs.kind is ObsKind.MAGNETIZATION:
        return _longrange_mag_cumulants(model)
    raise InputError("no closed cumulants for this model/observable; "
                     "fall back to numerical_cumulants")


def numerical_cumulants(samples: CharFunctionSamples, max_order: int = 3) -> CumulantSet:
    """Cumulants from the reconstructed distribution behind F(theta).

    Raw moments come from the inverted distribution; the usual recursion
    kappa_n = mu_n - sum_{j<n} C(n-1, j-1) kappa_j mu_{n-j} converts them.
    """
    from .reconstruct import invert_dft

    if max_order < 1:
        raise InputError("max_order must be at least 1")
    # shot-sampled F(0) carries readout noise on its imaginary part
    norm_tol = 0.2 if samples.provenance is Provenance.PROBE_SHOTS else 1e-6
    if samples.theta.size == 0 or samples.theta[0] != 0.0 or abs(samples.values[0] - 1.0) > norm_tol:
        raise InputError("characteristic-function samples must be normalized (F(0) = 1)")
    if samples.observable is None or samples.model is None:
        raise InputError("samples must carry observable and model descriptors")
    lo, hi = samples.observable.value_bounds()
    if samples.theta.size < hi - lo + 1:
        raise InputError("theta grid does not resolve the distribution support")
    dist = invert_dft(samples)
    mu = [1.0] + [dist.raw_moment(j) for j in range(1, max_order + 1)]
    kappa = [0.0] * (max_order + 1)
    for order in range(1, max_order + 1):
        acc = mu[order]
        for j in range(1, order):
            acc -= math.comb(order - 1, j - 1) * kappa[j] * mu[order - j]
        kappa[order] = acc
    k1 = kappa[1]
    k2 = kappa[2] if max_order >= 2 else math.nan
    k3 = kappa[3] if max_order >= 3 else math.nan
    return CumulantSet(kappa1=k1, kappa2=k2, kappa3=k3,
                       flavor=CumulantFlavor.NUMERICAL_FROM_F,
                       higher=tuple(kappa[4:]))
