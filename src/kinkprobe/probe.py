"""Emulation of the single-qubit interferometric measurement protocol.

A probe qubit prepared in |+> couples to the spin system through
H_int = eps * sigma_z * X for a time t, so its coherence

    <sigma_x> + i <sigma_y> = <e^{i Omega t}>,   Omega = 2 eps X,

samples the characteristic function F at theta = 2 eps t.  Three layers are
emulated here:

* exact expectations (identical to the analytic characteristic function),
* finite shot pools of +-1 readouts of sigma_x and sigma_y.  Shots are iid,
  so a pool's mean is 2 Binomial(shots, (1 + Re F)/2)/shots - 1 (Im F for
  sigma_y), F taken under the law the model's sampler draws; every built-in
  observable draws exactly that, at any beta >= 0.  Custom observables walk
  the gate-level classical circuit: draw a batch of thermal configurations,
  take the relative phase of each (circuit_phase), then draw each readout.
  Either way a record draws from one stream, np.random.default_rng(seed);
  the walk takes its batches and readouts in (time index, pool) order,
* a coherent gate miscalibration eps' = (1 + eta) eps on every controlled
  rotation.

Thermal configurations of the ring are drawn exactly by transfer-matrix
conditionals.  The long-range model draws from the exact law of a 100-sweep
single-spin-flip Metropolis chain, computed once as a lumped chain on the
up-count u = 0..N; in the ordered phase that law is still biased against
the Boltzmann law, because the chain does not tunnel between the wells, and
its shot records follow that chain's law on either route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfunc import _check_magnitude, _longrange_law, _sector_charfunc, charfunc_values
from .errors import InputError
from .partition import _log_binomials
from .reconstruct import _check_gate, build_theta_grid
from .spin_model import (ModelKind, ModelParams, ObservableSpec, ObsKind, _is_integer,
                         check_term_count, observable_values)

METROPOLIS_BURNIN_SWEEPS = 100  # sweeps of N proposed flips, before the first sample
_CHAIN_BLOCK = 50  # proposals per banded kernel; min(N, 50) divides 100 * N


@dataclass(frozen=True)
class ProbeRecord:
    """Probe coherence over a time grid: F sampled at theta = 2 eps t, eps as _check_gate allows."""

    epsilon: float
    time_grid: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    shots: int | None  # None = exact expectations
    observable: ObservableSpec | None = None

    def __post_init__(self):
        for name in ("time_grid", "sx", "sy"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.time_grid.ndim != 1 or not (
                self.time_grid.shape == self.sx.shape == self.sy.shape):
            raise InputError("time grid and readouts must be 1-d arrays of equal length")
        _check_gate(self.epsilon, times=self.time_grid)

    @property
    def theta(self) -> np.ndarray:
        """Phase labels 2 eps t_j an error-unaware experimenter would assign."""
        return 2.0 * self.epsilon * self.time_grid

    @property
    def values(self) -> np.ndarray:
        """The coherence <sigma_x> + i <sigma_y>, which samples F at ``theta``."""
        return self.sx + 1j * self.sy


def default_time_grid(obs: ObservableSpec, epsilon: float, *,
                      eta: float = 0.0, points: int | None = None) -> np.ndarray:
    """Acquisition times mapped from the alias-free phase grid.

    t_j = theta_j / (2 eps (1 + eta)): with the gate error known in advance
    the pre-warped times make the accumulated phases land exactly on the
    standard grid, so the corrected inversion is exact.  A gate _check_gate
    refuses (a subnormal eps, one near the float maximum) raises InputError.
    """
    _check_gate(epsilon, eta)
    return build_theta_grid(obs, points=points) / (2.0 * epsilon * (1.0 + eta))


def circuit_phase(spins: np.ndarray, obs: ObservableSpec, epsilon: float,
                  t: float) -> np.ndarray:
    """Relative probe phase Omega * t = 2 eps t X(spins) of the gate sequence, per row.

    One global rotation contributes 2 eps t a; each controlled rotation
    contributes +-2 eps t b with the sign set by the classical spin product
    of its term (the controlled-NOT pair around each rotation only flips that
    sign, so the net phase is what matters).  All controlled angles share one
    magnitude, so the walk accumulates the integer signed count and scales
    once.  ``epsilon`` is the angle the gates run at: under a gate error eta
    the caller passes eps' = (1 + eta) eps.
    """
    return 2.0 * epsilon * t * observable_values(spins, obs)


# ---------------------------------------------------------------------------
# thermal samplers
# ---------------------------------------------------------------------------


class RingGibbsSampler:
    """Exact thermal sampling of the periodic chain, no Markov chain involved.

    The first spin is drawn from its marginal [T^N]_{ss} / tr T^N; spin k+1
    given spins 1..k follows T[s_k, s] [T^{N-k}]_{s, s_1} normalized over s.
    Matrix powers are renormalized at every step, which cancels in the
    conditional ratios, so any beta >= 0 (including 0) is safe.  The
    conditionals depend only on (k, s_k, s_1), so they are tabulated once.
    """

    def __init__(self, model: ModelParams):
        if model.kind is not ModelKind.RING:
            raise InputError("RingGibbsSampler requires the ring model")
        self.model = model
        n = model.N
        bj, bh = model.beta * model.J, model.beta * model.h
        s = np.array([1.0, -1.0])
        expo = bj * np.outer(s, s) + bh * 0.5 * (s[:, None] + s[None, :])
        t = np.exp(expo - expo.max())
        powers = [np.eye(2)]
        for _ in range(n):
            nxt = powers[-1] @ t
            powers.append(nxt / nxt.max())
        # p_down[k, 2 * cur + first]: probability that spin k is down (1) given
        # spin k-1 in state cur and spin 0 in state first (0 = up, 1 = down);
        # row 0 holds the first spin's marginal
        tail = np.array(powers)[n - 1:0:-1]            # tail[k - 1] ~ T^{N-k}
        w0 = t[None, :, 0, None] * tail[:, None, 0, :]  # (k, cur, first)
        w1 = t[None, :, 1, None] * tail[:, None, 1, :]
        diag = np.diag(powers[n])
        p_first = diag / diag.sum()
        self._p_down = np.vstack([np.full(4, p_first[1]),
                                  (w1 / (w0 + w1)).reshape(n - 1, 4)])

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, N) array of +-1 spins, one exact draw per row."""
        n = self.model.N
        out = np.empty((n, count), dtype=np.int8)  # site-major: one row per step
        down = rng.random(count) < self._p_down[0, 0]
        first = down.astype(np.intp)
        out[0] = 1 - 2 * down.view(np.int8)
        for k in range(1, n):
            down = rng.random(count) < self._p_down[k].take(first + 2 * down)
            out[k] = 1 - 2 * down.view(np.int8)
        return out.T


def _up_count_steps(model: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(u -> u - 1), P(u -> u + 1) and P(u -> u) of one proposal, u = 0..N.

    One proposal of the long-range Metropolis chain picks a site uniformly
    and flips it with probability min(1, e^{-beta Delta E}); the stay
    probability is written with expm1, so it is never negative.
    """
    n = model.N
    bj, bh = model.beta * model.J, model.beta * model.h
    u = np.arange(n + 1)
    m = 2.0 * u - n
    # flipping s: beta Delta E = 2 beta J (M s - 1) + 2 beta h s; up flips have s = +1
    cost_down = np.maximum(2.0 * bj * (m - 1.0) + 2.0 * bh, 0.0)
    cost_up = np.maximum(2.0 * bj * (-m - 1.0) - 2.0 * bh, 0.0)
    frac_up = u / n
    down = frac_up * np.exp(-cost_down)
    up = (1.0 - frac_up) * np.exp(-cost_up)
    stay = -(frac_up * np.expm1(-cost_down) + (1.0 - frac_up) * np.expm1(-cost_up))
    return down, up, stay


class LongRangeMetropolisSampler:
    """Exact law of a single-spin-flip Metropolis chain on the all-to-all model.

    The chain starts from uniformly random spins and runs
    METROPOLIS_BURNIN_SWEEPS sweeps (a sweep is N proposed flips, so 100 * N
    proposals).  Its energy depends only on the up-count u and every site is
    proposed with the same probability, so the chain lumps exactly onto a
    birth-death chain on u = 0..N; given u the configuration is a uniform
    u-subset.  The law of u after the burn-in is built once here, in blocks
    of k = min(N, 50) proposals: k single steps build the k-step kernel, an
    (N + 1) x (2k + 1) band since u moves at most k in k steps, and 100 N / k
    banded products apply it to the uniform start.  That is O(N^2) flops and
    O(N) memory, and a draw needs no proposals.  The law is the chain's, not
    the Boltzmann law: in the ordered phase the chain does not tunnel between
    wells in 100 sweeps, so the records it feeds are biased there until a
    sampler of the Boltzmann sector weights replaces this one (ROADMAP.md,
    item 1, step B).
    """

    def __init__(self, model: ModelParams):
        if model.kind is not ModelKind.LONG_RANGE:
            raise InputError("LongRangeMetropolisSampler requires the long-range model")
        self.model = model
        n = model.N
        down, up, stay = _up_count_steps(model)
        # kernel[v, k + u - v] = P_k(u -> v): the k-step band, one step at a time;
        # after s steps only the columns k - s .. k + s are filled
        k = min(n, _CHAIN_BLOCK)
        kernel = np.zeros((n + 1, 2 * k + 1))
        kernel[:, k] = 1.0
        for s in range(k):
            band = kernel[:, k - s - 1:k + s + 2]
            nxt = band * stay[:, None]
            nxt[:-1, 1:] += band[1:, :-1] * down[1:, None]
            nxt[1:, :-1] += band[:-1, 1:] * up[:-1, None]
            band[:] = nxt
        padded = np.zeros(n + 1 + 2 * k)
        law = padded[k:-k]  # P(u), u = 0..N, inside k zeros on each side
        # Binomial(N, 1/2) up to its norm, carried at 2^900 times its size: a
        # power of two scales exactly, the mass (~2^900 sqrt(N)) stays far below
        # the float range, and the tails and their products stay out of the
        # subnormal range, where the processor takes a slow path
        law[:] = np.ldexp(np.exp(_log_binomials(n)), 900)
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1)  # u = v-k..v+k
        for _ in range(METROPOLIS_BURNIN_SWEEPS * n // k):
            law[:] = np.einsum("ij,ij->i", windows, kernel)
        # every block repeats one kernel's rounding of the total mass; the norm takes it out
        self.up_count_law = law / law.sum()  # P(u) after the burn-in

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, N) array of +-1 spins: u from the chain's law, then a u-subset."""
        n = self.model.N
        cdf = np.cumsum(self.up_count_law)
        u = np.minimum(np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right"), n)
        # the sites of the u smallest uniforms in a row form a uniform u-subset
        ranks = rng.random((count, n)).argsort(axis=1).argsort(axis=1)
        return np.where(ranks < u[:, None], 1, -1).astype(np.int8)


def gibbs_sampler(model: ModelParams):
    """The model's thermal sampler; the gate walk of custom observables draws from it."""
    if model.kind is ModelKind.RING:
        return RingGibbsSampler(model)
    return LongRangeMetropolisSampler(model)


# ---------------------------------------------------------------------------
# probe records
# ---------------------------------------------------------------------------


def _binomial_record(f: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """(M, 2) shot record read off F; all 2M pools drawn from ``rng`` in one call.

    A pool of iid shots reads +1 with probability (1 + Re F_j)/2 for sigma_x
    and (1 + Im F_j)/2 for sigma_y, so its mean is 2 Binomial(shots, p)/shots
    - 1.  p is clipped to [0, 1], which absorbs the last-bit excess of |F|.
    """
    p = np.clip(0.5 * (1.0 + np.stack([f.real, f.imag], axis=1)), 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def _sampled_charfunc(model: ModelParams, obs: ObservableSpec, thetas) -> np.ndarray:
    """F of a built-in observable under the law the model's sampler draws.

    The ring sampler is exact, so that is the analytic F.  The long-range
    sampler draws the up-count u from its chain law and places the up spins
    on a uniform u-subset, so the chain law of the down-count k = N - u takes
    the place of the Boltzmann log g in the exact sector law.
    """
    if model.kind is ModelKind.RING:
        return charfunc_values(model, obs, thetas)
    with np.errstate(divide="ignore"):  # sectors the chain never reaches weigh 0
        logp = np.log(LongRangeMetropolisSampler(model).up_count_law[::-1])
    return _check_magnitude(_sector_charfunc(*_longrange_law(model, obs, logp), thetas))


def simulate_probe_shots(model: ModelParams, obs: ObservableSpec, epsilon: float,
                         time_grid, shots: int | None, eta: float = 0.0,
                         seed: int = 0) -> ProbeRecord:
    """Probe readout with shot noise and optional angle miscalibration.

    ``eta`` (a float above -1) is the gate error: every controlled angle runs
    at eps' = (1 + eta) eps, while the record keeps eps, so its ``theta`` are
    the nominal labels 2 eps t.  The gate walk, per time point and per shot:
    draw a thermal configuration, accumulate the circuit phase Omega t at
    eps', then draw a +-1 outcome with p(+1) = (1 + cos Omega t)/2
    for sigma_x; sigma_y uses a disjoint pool of the same size with
    p(+1) = (1 + sin Omega t)/2 (one qubit cannot be read in two bases at
    once).  The shots are iid, so a pool's mean is 2 Binomial(shots, p)/shots
    - 1 with p = (1 + Re F)/2 (Im F for sigma_y), F taken at the distorted
    phases.  Every built-in observable draws exactly that, one Binomial per
    pool, O(M) instead of O(M shots N), on the F of its sampler's law: the
    analytic F on the ring, the sector sum over the 100-sweep chain's law on
    the long-range model.  The gate walk serves custom observables, which
    have no sector law.  shots=None returns the exact expectations, the
    analytic F at the distorted phases.

    Each record draws from one stream, np.random.default_rng(seed): the
    binomial route takes all 2M Binomials from it in one call; the gate walk
    takes each pool's configurations and then its readouts, in (time index,
    pool) order, sigma_x before sigma_y.  So a fixed seed repeats the record
    bit for bit; the two routes give the same law, not the same bits.
    A built-in observable that does not cover all N sites, a term index
    above N, a gate (eps, eta) that _check_gate refuses, a time grid with a
    non-finite time or phases that overflow, a shot count that
    is not an integer in [1, 2**63 - 1] (a bool included), a custom
    observable with shots=None, or, with shots, a seed that is not an
    integer >= 0 (a bool included) raises InputError.
    """
    t = np.asarray(time_grid, dtype=float)
    _check_gate(epsilon, eta, t)
    check_term_count(model.N, obs)
    eps_eff = (1.0 + eta) * epsilon

    if shots is None:
        if obs.kind is ObsKind.CUSTOM:
            raise InputError("an exact record (shots=None) needs an analytic F, and custom "
                             "observables have no analytic route; they take finite shots")
        f = charfunc_values(model, obs, 2.0 * eps_eff * t)
        return ProbeRecord(epsilon=epsilon, time_grid=t, sx=f.real, sy=f.imag,
                           shots=None, observable=obs)
    if not _is_integer(shots):
        raise InputError(f"shots must be an integer or None, got {shots!r}")
    if shots < 1:
        raise InputError("shots must be at least 1")
    if shots > np.iinfo(np.int64).max:  # numpy's Binomial refuses n >= 2**63
        raise InputError(f"shots must be at most 2**63 - 1, got {shots}")
    if not _is_integer(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")

    rng = np.random.default_rng(seed)
    if obs.kind is not ObsKind.CUSTOM:
        arr = _binomial_record(_sampled_charfunc(model, obs, 2.0 * eps_eff * t), shots, rng)
    else:
        sampler = gibbs_sampler(model)
        arr = np.empty((t.size, 2))
        for j, tj in enumerate(t):
            for pool, wave in enumerate((np.cos, np.sin)):
                phases = circuit_phase(sampler.sample_batch(shots, rng), obs, eps_eff, tj)
                hits = rng.random(shots) < 0.5 * (1.0 + wave(phases))
                arr[j, pool] = np.where(hits, 1.0, -1.0).mean()
    return ProbeRecord(epsilon=epsilon, time_grid=t, sx=arr[:, 0], sy=arr[:, 1],
                       shots=shots, observable=obs)
