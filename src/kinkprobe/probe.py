"""Emulation of the single-qubit interferometric measurement protocol.

A probe qubit prepared in |+> couples to the spin system through
H_int = eps * sigma_z * X for a time t, so its coherence

    <sigma_x> + i <sigma_y> = <e^{i Omega t}>,   Omega = 2 eps X,

samples the characteristic function F at theta = 2 eps t.  Three layers are
emulated here:

* exact expectations (identical to the analytic characteristic function),
* the gate-level classical circuit: draw a thermal configuration, walk the
  controlled-rotation list to accumulate the relative phase, then sample
  +-1 readouts of sigma_x and sigma_y with finite shot pools,
* a coherent gate miscalibration eps' = (1 + eta) eps on every controlled
  rotation.

Thermal configurations of the ring are drawn exactly by transfer-matrix
conditionals; the long-range model falls back to single-spin-flip
Metropolis chains.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .charfunc import CharFunctionSamples, Provenance, charfunc_values
from .errors import InputError
from .reconstruct import build_theta_grid
from .spin_model import ModelKind, ModelParams, ObservableSpec, SpinConfig

METROPOLIS_BURNIN_SWEEPS = 100  # sweeps of N proposed flips, before the first sample
METROPOLIS_THIN_SWEEPS = 1      # sweeps of N proposed flips, between chained samples


@dataclass(frozen=True)
class GateErrorModel:
    """Uniform multiplicative angle error on all controlled rotations."""

    eta: float = 0.0

    def __post_init__(self):
        if self.eta <= -1.0:
            raise InputError("eta must exceed -1")

    def effective_epsilon(self, epsilon: float) -> float:
        return (1.0 + self.eta) * epsilon


@dataclass(frozen=True)
class ProbeRecord:
    """Probe coherence readout over a time grid."""

    epsilon: float
    time_grid: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    shots: int | None  # None = exact expectations
    eta: float = 0.0
    rng_seed: int | None = None
    model: ModelParams | None = None
    observable: ObservableSpec | None = None

    def __post_init__(self):
        for name in ("time_grid", "sx", "sy"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.time_grid.shape == self.sx.shape == self.sy.shape):
            raise InputError("time grid and readouts must have matching shapes")

    @property
    def nominal_theta(self) -> np.ndarray:
        """Phase labels 2 eps t_j an error-unaware experimenter would assign."""
        return 2.0 * self.epsilon * self.time_grid

    def to_charfunc_samples(self) -> CharFunctionSamples:
        prov = Provenance.PROBE_EXACT if self.shots is None else Provenance.PROBE_SHOTS
        return CharFunctionSamples(theta=self.nominal_theta,
                                   values=self.sx + 1j * self.sy,
                                   provenance=prov, observable=self.observable,
                                   model=self.model)


def default_time_grid(obs: ObservableSpec, n: int, epsilon: float,
                      eta: float = 0.0, points: int | None = None) -> np.ndarray:
    """Acquisition times mapped from the alias-free phase grid.

    t_j = theta_j / (2 eps (1 + eta)): with the gate error known in advance
    the pre-warped times make the accumulated phases land exactly on the
    standard grid, so the corrected inversion is exact.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    thetas = build_theta_grid(obs, n, points=points)
    return thetas / (2.0 * epsilon * (1.0 + eta))


def gate_count(obs: ObservableSpec) -> int:
    """Universal-gate budget of one controlled-evolution block.

    Each product term costs one controlled rotation plus the two basis flips
    that set its sign (three gates per term); a nonzero offset adds one
    uncontrolled rotation on the probe.
    """
    return 3 * len(obs.terms) + (1 if obs.a != 0 else 0)


def circuit_phase(config: SpinConfig, obs: ObservableSpec, epsilon: float, t: float,
                  error_model: GateErrorModel | None = None) -> float:
    """Relative probe phase Omega * t accumulated by the gate sequence.

    One global rotation contributes 2 eps' t a; each controlled rotation
    contributes +-2 eps' t b with the sign set by the classical spin product
    of its term (the controlled-NOT pair around each rotation only flips that
    sign, so the net phase is what matters).  All controlled angles share one
    magnitude, so the walk accumulates the integer signed count and scales
    once; with eta = 0 the result equals 2 eps t X(config) exactly.
    """
    eps_eff = epsilon if error_model is None else error_model.effective_epsilon(epsilon)
    spins = config.spins
    n = spins.size
    signed = 0
    for term in obs.terms:
        if any(i > n for i in term):
            raise InputError(f"term {term} out of range for N={n}")
        prod = 1
        for i in term:
            prod *= int(spins[i - 1])
        signed += prod
    return 2.0 * eps_eff * t * (obs.a + obs.b * signed)


# ---------------------------------------------------------------------------
# thermal samplers
# ---------------------------------------------------------------------------


class RingGibbsSampler:
    """Exact thermal sampling of the periodic chain, no Markov chain involved.

    The first spin is drawn from its marginal [T^N]_{ss} / tr T^N; spin k+1
    given spins 1..k follows T[s_k, s] [T^{N-k}]_{s, s_1} normalized over s.
    Matrix powers are renormalized at every step, which cancels in the
    conditional ratios, so any beta >= 0 (including 0) is safe.
    """

    def __init__(self, model: ModelParams):
        if model.kind is not ModelKind.RING:
            raise InputError("RingGibbsSampler requires the ring model")
        self.model = model
        n = model.N
        bj, bh = model.beta * model.J, model.beta * model.h
        s = np.array([1.0, -1.0])
        expo = bj * np.outer(s, s) + bh * 0.5 * (s[:, None] + s[None, :])
        self._t = np.exp(expo - expo.max())
        powers = [np.eye(2)]
        for _ in range(n):
            nxt = powers[-1] @ self._t
            powers.append(nxt / nxt.max())
        self._powers = powers  # powers[r] proportional to T^r

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, N) array of +-1 spins, one exact draw per row."""
        n = self.model.N
        diag = np.diag(self._powers[n])
        p_first = diag / diag.sum()
        first = (rng.random(count) < p_first[1]).astype(np.int8)  # 0 = up, 1 = down
        out = np.empty((count, n), dtype=np.int8)
        out[:, 0] = 1 - 2 * first
        cur = first
        for k in range(1, n):
            tail = self._powers[n - k]
            # unnormalized weights for the next spin being up (0) or down (1)
            w0 = self._t[cur, 0] * tail[0, first]
            w1 = self._t[cur, 1] * tail[1, first]
            p_down = w1 / (w0 + w1)
            cur = (rng.random(count) < p_down).astype(np.int8)
            out[:, k] = 1 - 2 * cur
        return out


class LongRangeMetropolisSampler:
    """Single-spin-flip Metropolis for the all-to-all model.

    Batches run one independent chain per requested sample, each burnt in for
    METROPOLIS_BURNIN_SWEEPS sweeps (a sweep is N proposed flips, so 100 * N
    proposals); chained single draws reuse a warm chain, thinned by
    METROPOLIS_THIN_SWEEPS sweep between draws.
    """

    def __init__(self, model: ModelParams):
        if model.kind is not ModelKind.LONG_RANGE:
            raise InputError("LongRangeMetropolisSampler requires the long-range model")
        self.model = model
        self._chain: np.ndarray | None = None

    def _sweep_block(self, spins: np.ndarray, sweeps: int, rng: np.random.Generator):
        """In-place Metropolis updates on a (chains, N) block."""
        model = self.model
        n = model.N
        chains = spins.shape[0]
        mag = spins.sum(axis=1).astype(np.int64)
        rows = np.arange(chains)
        for _ in range(sweeps * n):
            site = rng.integers(0, n, size=chains)
            s = spins[rows, site].astype(np.int64)
            # flipping s: Delta E = 2 J (M s - 1) + 2 h s
            d_e = 2.0 * model.J * (mag * s - 1.0) + 2.0 * model.h * s
            accept = rng.random(chains) < np.exp(-model.beta * np.maximum(d_e, 0.0))
            flip = np.where(accept, -1, 1).astype(np.int8)
            spins[rows, site] *= flip
            mag = np.where(accept, mag - 2 * s, mag)

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        n = self.model.N
        spins = np.where(rng.random((count, n)) < 0.5, 1, -1).astype(np.int8)
        self._sweep_block(spins, METROPOLIS_BURNIN_SWEEPS, rng)
        return spins

    def sample_chained(self, rng: np.random.Generator) -> np.ndarray:
        if self._chain is None:
            self._chain = self.sample_batch(1, rng)
        else:
            self._sweep_block(self._chain, METROPOLIS_THIN_SWEEPS, rng)
        return self._chain[0].copy()


def gibbs_sampler(model: ModelParams):
    if model.kind is ModelKind.RING:
        return RingGibbsSampler(model)
    return LongRangeMetropolisSampler(model)


def gibbs_sample(model: ModelParams, rng: np.random.Generator) -> SpinConfig:
    """One thermal draw; for repeated draws build a sampler once instead."""
    sampler = gibbs_sampler(model)
    return SpinConfig(sampler.sample_batch(1, rng)[0])


# ---------------------------------------------------------------------------
# probe records
# ---------------------------------------------------------------------------


def simulate_probe_exact(model: ModelParams, obs: ObservableSpec, epsilon: float,
                         time_grid) -> ProbeRecord:
    """Exact probe coherence: (sx + i sy)(t) = F(2 eps t), same code path."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    t = np.asarray(time_grid, dtype=float)
    f = charfunc_values(model, obs, 2.0 * epsilon * t)
    return ProbeRecord(epsilon=epsilon, time_grid=t, sx=f.real, sy=f.imag,
                       shots=None, eta=0.0, rng_seed=None, model=model, observable=obs)


def _batch_signed_sums(spins: np.ndarray, obs: ObservableSpec) -> np.ndarray:
    total = np.zeros(spins.shape[0], dtype=np.int64)
    for term in obs.terms:
        prod = np.ones(spins.shape[0], dtype=np.int64)
        for i in term:
            prod *= spins[:, i - 1]
        total += prod
    return total


def _shots_at_time(obs, sampler, eps_eff, t, shots, seed, j):
    """Both readout pools at one time point; streams keyed by (seed, j, pool)."""
    values = np.empty(2)
    for pool in (0, 1):
        rng = np.random.default_rng(np.random.SeedSequence([seed, j, pool]))
        spins = sampler.sample_batch(shots, rng)
        phases = 2.0 * eps_eff * t * (obs.a + obs.b * _batch_signed_sums(spins, obs))
        wave = np.cos(phases) if pool == 0 else np.sin(phases)
        outcomes = np.where(rng.random(shots) < 0.5 * (1.0 + wave), 1.0, -1.0)
        values[pool] = outcomes.mean()
    return values


def simulate_probe_shots(model: ModelParams, obs: ObservableSpec, epsilon: float,
                         time_grid, shots: int | None,
                         error_model: GateErrorModel | None = None,
                         seed: int = 0, workers: int = 1) -> ProbeRecord:
    """Gate-level protocol with shot noise and optional angle miscalibration.

    Per time point and per shot: draw a thermal configuration, accumulate the
    circuit phase Omega t at the effective coupling (1 + eta) eps, then draw
    a +-1 outcome with p(+1) = (1 + cos Omega t)/2 for sigma_x; sigma_y uses
    a disjoint pool of the same size with p(+1) = (1 + sin Omega t)/2 (one
    qubit cannot be read in two bases at once).  shots=None returns the
    exact expectations, i.e. F evaluated at the distorted phases.

    Results are reproducible from (seed, time index, pool index) regardless
    of ``workers``.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    error_model = error_model or GateErrorModel(0.0)
    eps_eff = error_model.effective_epsilon(epsilon)
    t = np.asarray(time_grid, dtype=float)

    if shots is None:
        f = charfunc_values(model, obs, 2.0 * eps_eff * t)
        return ProbeRecord(epsilon=epsilon, time_grid=t, sx=f.real, sy=f.imag,
                           shots=None, eta=error_model.eta, rng_seed=None,
                           model=model, observable=obs)
    if shots < 1:
        raise InputError("shots must be at least 1")

    sampler = gibbs_sampler(model)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda j: _shots_at_time(obs, sampler, eps_eff, t[j], shots, seed, j),
                range(t.size)))
    else:
        rows = [_shots_at_time(obs, sampler, eps_eff, t[j], shots, seed, j)
                for j in range(t.size)]
    arr = np.asarray(rows)
    return ProbeRecord(epsilon=epsilon, time_grid=t, sx=arr[:, 0], sy=arr[:, 1],
                       shots=shots, eta=error_model.eta, rng_seed=seed,
                       model=model, observable=obs)
