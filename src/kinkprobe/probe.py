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
conditionals.  The long-range model draws from the exact law of a 100-sweep
single-spin-flip Metropolis chain, computed once as a lumped chain on the
up-count u = 0..N; in the ordered phase that law is still biased against
the Boltzmann law, because the chain does not tunnel between the wells.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .charfunc import CharFunctionSamples, Provenance, charfunc_values
from .errors import InputError
from .partition import _log_binomials
from .reconstruct import build_theta_grid
from .spin_model import ModelKind, ModelParams, ObservableSpec, SpinConfig

METROPOLIS_BURNIN_SWEEPS = 100  # sweeps of N proposed flips, before the first sample


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
        law = np.exp(_log_binomials(n) - n * np.log(2.0))
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
