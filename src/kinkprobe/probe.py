"""Emulation of the single-qubit interferometric measurement protocol.

A probe qubit prepared in |+> couples to the spin system through
H_int = eps * sigma_z * X for a time t, so its coherence

    <sigma_x> + i <sigma_y> = <e^{i Omega t}>,   Omega = 2 eps X,

samples the characteristic function F at theta = 2 eps t.  Three layers are
emulated here:

* exact expectations (identical to the analytic characteristic function),
* finite shot pools of +-1 readouts of sigma_x and sigma_y.  Shots are iid,
  so a pool's mean is 2 Binomial(shots, (1 + Re F)/2)/shots - 1 (Im F for
  sigma_y); a ring with a built-in observable draws exactly that on the
  analytic F, at any beta >= 0.  Custom observables and the long-range
  model walk the gate-level classical circuit: draw a batch of thermal
  configurations, take the relative phase of each (circuit_phase), then
  draw each readout,
* a coherent gate miscalibration eps' = (1 + eta) eps on every controlled
  rotation.

Thermal configurations of the ring are drawn exactly by transfer-matrix
conditionals.  The long-range model draws from the exact law of a 100-sweep
single-spin-flip Metropolis chain, computed once as a lumped chain on the
up-count u = 0..N; in the ordered phase that law is still biased against
the Boltzmann law, because the chain does not tunnel between the wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfunc import charfunc_values, check_term_count
from .errors import InputError
from .partition import _log_binomials
from .reconstruct import build_theta_grid
from .spin_model import ModelKind, ModelParams, ObservableSpec, ObsKind, observable_values

METROPOLIS_BURNIN_SWEEPS = 100  # sweeps of N proposed flips, before the first sample


@dataclass(frozen=True)
class ProbeRecord:
    """Probe coherence readout over a time grid: the samples of F at theta = 2 eps t."""

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

    @property
    def theta(self) -> np.ndarray:
        """Phase labels 2 eps t_j an error-unaware experimenter would assign."""
        return 2.0 * self.epsilon * self.time_grid

    @property
    def values(self) -> np.ndarray:
        """The coherence <sigma_x> + i <sigma_y>, which samples F at ``theta``."""
        return self.sx + 1j * self.sy


def _check_gate(epsilon: float, eta: float) -> None:
    """Refuse a coupling strength or gate error outside eps > 0, eta > -1 (NaN included)."""
    for name, value in (("epsilon", epsilon), ("eta", eta)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if eta <= -1.0:
        raise InputError("eta must exceed -1")


def default_time_grid(obs: ObservableSpec, epsilon: float, *,
                      eta: float = 0.0, points: int | None = None) -> np.ndarray:
    """Acquisition times mapped from the alias-free phase grid.

    t_j = theta_j / (2 eps (1 + eta)): with the gate error known in advance
    the pre-warped times make the accumulated phases land exactly on the
    standard grid, so the corrected inversion is exact.  Times that overflow
    (a subnormal eps) raise InputError.
    """
    _check_gate(epsilon, eta)
    thetas = build_theta_grid(obs, points=points)
    with np.errstate(over="ignore"):
        times = thetas / (2.0 * epsilon * (1.0 + eta))
    if not np.isfinite(times).all():
        raise InputError(f"epsilon = {epsilon} is too small: the acquisition times overflow")
    return times


def gate_count(obs: ObservableSpec) -> int:
    """Universal-gate budget of one controlled-evolution block.

    Each product term costs one controlled rotation plus the two basis flips
    that set its sign (three gates per term); a nonzero offset adds one
    uncontrolled rotation on the probe.
    """
    return 3 * obs.n + (1 if obs.a != 0 else 0)


def circuit_phase(spins: np.ndarray, obs: ObservableSpec, epsilon: float, t: float,
                  eta: float = 0.0) -> np.ndarray:
    """Relative probe phase Omega * t accumulated by the gate sequence, per row of spins.

    One global rotation contributes 2 eps' t a; each controlled rotation
    contributes +-2 eps' t b with the sign set by the classical spin product
    of its term (the controlled-NOT pair around each rotation only flips that
    sign, so the net phase is what matters).  All controlled angles share one
    magnitude, so the walk accumulates the integer signed count and scales
    once.  A gate error eta scales every angle to eps' = (1 + eta) eps; with
    eta = 0 the result equals 2 eps t X(spins) exactly.
    """
    return 2.0 * ((1.0 + eta) * epsilon) * t * observable_values(spins, obs)


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


class LongRangeMetropolisSampler:
    """Exact law of a single-spin-flip Metropolis chain on the all-to-all model.

    The chain starts from uniformly random spins and runs
    METROPOLIS_BURNIN_SWEEPS sweeps (a sweep is N proposed flips, so 100 * N
    proposals).  Its energy depends only on the up-count u and every site is
    proposed with the same probability, so the chain lumps exactly onto a
    birth-death chain on u = 0..N; given u the configuration is a uniform
    u-subset.  The law of u after the burn-in is propagated once here, so a
    draw needs no proposals.  That law is the chain's, not the Boltzmann law:
    in the ordered phase the chain does not tunnel between wells in 100
    sweeps, and the bias stays.
    """

    def __init__(self, model: ModelParams):
        if model.kind is not ModelKind.LONG_RANGE:
            raise InputError("LongRangeMetropolisSampler requires the long-range model")
        self.model = model
        n = model.N
        u = np.arange(n + 1)
        m = 2.0 * u - n
        # flipping s: Delta E = 2 J (M s - 1) + 2 h s; up flips have s = +1
        cost_down = model.beta * np.maximum(2.0 * model.J * (m - 1.0) + 2.0 * model.h, 0.0)
        cost_up = model.beta * np.maximum(2.0 * model.J * (-m - 1.0) - 2.0 * model.h, 0.0)
        frac_up = u / n
        down = frac_up * np.exp(-cost_down)        # P(u -> u - 1)
        up = (1.0 - frac_up) * np.exp(-cost_up)    # P(u -> u + 1)
        stay = -(frac_up * np.expm1(-cost_down) + (1.0 - frac_up) * np.expm1(-cost_up))
        law = np.exp(_log_binomials(n))  # Binomial(N, 1/2) up to its norm; the centre is 1
        law /= law.sum()
        for _ in range(METROPOLIS_BURNIN_SWEEPS * n):
            nxt = law * stay
            nxt[:-1] += law[1:] * down[1:]
            nxt[1:] += law[:-1] * up[:-1]
            law = nxt
        self.up_count_law = law  # P(u) after the burn-in

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, N) array of +-1 spins: u from the chain's law, then a u-subset."""
        n = self.model.N
        cdf = np.cumsum(self.up_count_law)
        u = np.minimum(np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right"), n)
        # the sites of the u smallest uniforms in a row form a uniform u-subset
        ranks = rng.random((count, n)).argsort(axis=1).argsort(axis=1)
        return np.where(ranks < u[:, None], 1, -1).astype(np.int8)


def gibbs_sampler(model: ModelParams):
    if model.kind is ModelKind.RING:
        return RingGibbsSampler(model)
    return LongRangeMetropolisSampler(model)


# ---------------------------------------------------------------------------
# probe records
# ---------------------------------------------------------------------------


def _binomial_record(f: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """(M, 2) shot record read off the exact F; all 2M pools from one stream keyed by seed.

    A pool of iid shots reads +1 with probability (1 + Re F_j)/2 for sigma_x
    and (1 + Im F_j)/2 for sigma_y, so its mean is 2 Binomial(shots, p)/shots
    - 1.  p is clipped to [0, 1], which absorbs the last-bit excess of |F|.
    """
    p = np.clip(0.5 * (1.0 + np.stack([f.real, f.imag], axis=1)), 0.0, 1.0)
    return 2.0 * np.random.default_rng(seed).binomial(shots, p) / shots - 1.0


def _shots_at_time(obs, sampler, eps_eff, t, shots, seed, j):
    """Both readout pools at one time point; streams keyed by (seed, j, pool)."""
    values = np.empty(2)
    for pool in (0, 1):
        rng = np.random.default_rng(np.random.SeedSequence([seed, j, pool]))
        spins = sampler.sample_batch(shots, rng)
        phases = circuit_phase(spins, obs, eps_eff, t)
        wave = np.cos(phases) if pool == 0 else np.sin(phases)
        outcomes = np.where(rng.random(shots) < 0.5 * (1.0 + wave), 1.0, -1.0)
        values[pool] = outcomes.mean()
    return values


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
    phases.  A ring with a built-in observable draws exactly that, one
    Binomial per pool on the analytic F: O(M) instead of O(M shots N).  The
    gate walk keeps two jobs: custom observables (no analytic F) and the
    long-range model, whose sampler draws the law of a finite Metropolis
    chain, not the Boltzmann law.  shots=None returns the exact
    expectations, F at the distorted phases.

    The binomial route draws the whole record from one stream keyed by the
    seed; the gate walk gives each time point and pool its own stream, keyed
    by (seed, time index, pool index).  Either way a fixed seed repeats the
    record bit for bit; the two routes give the same law, not the same bits.
    A built-in observable that does not cover all N sites, a term index
    above N, or a non-finite epsilon or eta raises InputError.
    """
    _check_gate(epsilon, eta)
    check_term_count(model, obs)
    eps_eff = (1.0 + eta) * epsilon
    t = np.asarray(time_grid, dtype=float)

    if shots is None:
        f = charfunc_values(model, obs, 2.0 * eps_eff * t)
        return ProbeRecord(epsilon=epsilon, time_grid=t, sx=f.real, sy=f.imag,
                           shots=None, observable=obs)
    if shots < 1:
        raise InputError("shots must be at least 1")

    if model.kind is ModelKind.RING and obs.kind is not ObsKind.CUSTOM:
        arr = _binomial_record(charfunc_values(model, obs, 2.0 * eps_eff * t), shots, seed)
    else:
        sampler = gibbs_sampler(model)
        arr = np.asarray([_shots_at_time(obs, sampler, eps_eff, t[j], shots, seed, j)
                          for j in range(t.size)])
    return ProbeRecord(epsilon=epsilon, time_grid=t, sx=arr[:, 0], sy=arr[:, 1],
                       shots=shots, observable=obs)
