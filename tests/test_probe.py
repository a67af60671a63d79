import math

import numpy as np
import pytest
import scipy.stats

from kinkprobe import (InputError, ModelKind, ObsKind, ProbeRecord, charfunc_values,
                       circuit_phase, closed_cumulants, custom_observable, energy,
                       enumerate_oracle, gibbs_sampler, invert_dft, kink_number,
                       magnetization, observable_values, simulate_probe_shots,
                       validate_distribution)
import kinkprobe.probe as probe
from kinkprobe.probe import (METROPOLIS_BURNIN_SWEEPS, LongRangeMetropolisSampler,
                             RingGibbsSampler, default_time_grid)
from conftest import longrange, ring


# ---------------------------------------------------------------------------
# circuit phase accumulation
# ---------------------------------------------------------------------------


def test_circuit_phase_all_up_magnetization():
    cfg = np.ones(7, dtype=np.int8)
    assert circuit_phase(cfg, magnetization(7), 0.01, 3.5) == pytest.approx(
        2 * 0.01 * 3.5 * 7, rel=1e-15)


def test_circuit_phase_alternating_kinks():
    cfg = np.array([1, -1, 1, -1], dtype=np.int8)
    assert circuit_phase(cfg, kink_number(4), 0.02, 1.7) == 2 * 0.02 * 1.7 * 4


def test_circuit_phase_with_angle_error():
    cfg = np.array([1, 1, -1, 1, -1], dtype=np.int8)
    obs = kink_number(5)
    base = circuit_phase(cfg, obs, 0.01, 2.0)
    distorted = circuit_phase(cfg, obs, 0.01, 2.0, eta=0.02)
    assert distorted == pytest.approx(1.02 * base, rel=1e-15)


def test_circuit_phase_equals_observable_phase_exactly(rng):
    eps, t = 0.01, 7.3
    for n, obs_builder in ((9, magnetization), (9, kink_number)):
        obs = obs_builder(n)
        spins = np.where(rng.random((1000, n)) < 0.5, 1, -1).astype(np.int8)
        assert np.array_equal(circuit_phase(spins, obs, eps, t),
                              2.0 * eps * t * observable_values(spins, obs))


# ---------------------------------------------------------------------------
# thermal samplers
# ---------------------------------------------------------------------------


def test_ring_sampler_uniform_at_infinite_temperature():
    sampler = RingGibbsSampler(ring(4, beta=0.0))
    rng = np.random.default_rng(11)
    spins = sampler.sample_batch(100_000, rng)
    bits = ((1 - spins) // 2).astype(np.int64)
    cells = bits @ (1 << np.arange(3, -1, -1))
    counts = np.bincount(cells, minlength=16)
    p = scipy.stats.chisquare(counts).pvalue
    assert p > 0.001


def test_ring_sampler_matches_oracle_marginals():
    model = ring(8, j=1.0, h=0.0, beta=1.0)
    oracle = enumerate_oracle(model, magnetization(8)).dist
    rng = np.random.default_rng(7)
    spins = RingGibbsSampler(model).sample_batch(1_000_000, rng)
    m = spins.sum(axis=1)
    for value, p_th in zip(oracle.support, oracle.probs):
        observed = int((m == value).sum())
        sigma = math.sqrt(1_000_000 * p_th * (1 - p_th))
        assert abs(observed - 1_000_000 * p_th) < 3 * sigma + 1


def test_ring_sampler_strong_coupling_saturates():
    model = ring(10, j=5.0, h=0.0, beta=1.0)
    rng = np.random.default_rng(3)
    spins = RingGibbsSampler(model).sample_batch(20_000, rng)
    m = np.abs(spins.sum(axis=1))
    assert (m == 10).mean() > 0.99


def test_ring_sampler_with_field_matches_oracle():
    model = ring(6, j=0.7, h=0.4, beta=1.2)
    oracle = enumerate_oracle(model, magnetization(6)).dist
    rng = np.random.default_rng(19)
    m = RingGibbsSampler(model).sample_batch(400_000, rng).sum(axis=1)
    assert m.mean() == pytest.approx(oracle.mean(), abs=4 * oracle.variance() ** 0.5 / 600)


def _ring_reference(model, count, rng):
    """Per-site conditional recursion over the renormalized transfer-matrix powers."""
    n = model.N
    bj, bh = model.beta * model.J, model.beta * model.h
    s = np.array([1.0, -1.0])
    expo = bj * np.outer(s, s) + bh * 0.5 * (s[:, None] + s[None, :])
    t = np.exp(expo - expo.max())
    powers = [np.eye(2)]
    for _ in range(n):
        nxt = powers[-1] @ t
        powers.append(nxt / nxt.max())
    diag = np.diag(powers[n])
    first = (rng.random(count) < diag[1] / diag.sum()).astype(np.int8)  # 1 = down
    out = np.empty((count, n), dtype=np.int8)
    out[:, 0] = 1 - 2 * first
    cur = first
    for k in range(1, n):
        tail = powers[n - k]
        w0 = t[cur, 0] * tail[0, first]
        w1 = t[cur, 1] * tail[1, first]
        cur = (rng.random(count) < w1 / (w0 + w1)).astype(np.int8)
        out[:, k] = 1 - 2 * cur
    return out


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("j, h, beta", [(1.0, 0.0, 0.0), (1.0, 4.0, 1.5), (-0.8, -3.0, 1.0)])
def test_ring_sampler_draws_the_reference_bits(n, j, h, beta):
    model = ring(n, j=j, h=h, beta=beta)
    rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    spins = RingGibbsSampler(model).sample_batch(3000, rng)
    assert np.array_equal(spins, _ring_reference(model, 3000, ref_rng))
    assert spins.dtype == np.int8
    assert rng.random() == ref_rng.random()  # same number of uniforms consumed


def _full_metropolis_law(model):
    """Law over all 2^N states of the single-flip chain after the burn-in.

    Built from the Hamiltonian: each site is proposed with probability 1/N
    and accepted with min(1, exp(-beta Delta E)); the chain starts uniform.
    """
    n = model.N
    states = (1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)).astype(np.int8)
    energies = energy(model, states)
    kernel = np.zeros((2 ** n, 2 ** n))
    for a in range(2 ** n):
        for i in range(n):
            b = a ^ (1 << i)
            kernel[a, b] = min(1.0, math.exp(-model.beta * (energies[b] - energies[a]))) / n
        kernel[a, a] = 1.0 - kernel[a].sum()
    steps = METROPOLIS_BURNIN_SWEEPS * n
    law = np.full(2 ** n, 2.0 ** -n) @ np.linalg.matrix_power(kernel, steps)
    return states, law


LONGRANGE_CHAIN_CASES = [
    dict(n=6, j=0.5, h=0.0, beta=1.0),    # ordered: beta J N = 3
    dict(n=5, j=-0.7, h=0.0, beta=1.0),   # antiferromagnetic
    dict(n=6, j=0.3, h=0.4, beta=0.8),
    dict(n=4, j=1.0, h=-0.5, beta=2.0),
    dict(n=1, j=0.2, h=0.7, beta=1.3),
]


@pytest.mark.parametrize("case", LONGRANGE_CHAIN_CASES)
def test_longrange_sampler_law_is_the_full_chain_law(case):
    model = longrange(case["n"], j=case["j"], h=case["h"], beta=case["beta"])
    states, law = _full_metropolis_law(model)
    up = (states == 1).sum(axis=1)
    marginal = np.bincount(up, weights=law, minlength=model.N + 1)
    sampler = LongRangeMetropolisSampler(model)
    np.testing.assert_allclose(sampler.up_count_law, marginal, rtol=0, atol=1e-12)
    for u in range(model.N + 1):
        sector = law[up == u]
        assert sector.max() - sector.min() <= 1e-12


def test_longrange_sampler_configurations_follow_the_chain_law():
    # the magnetization depends only on the up-count; this checks the placement
    model = longrange(4, j=0.6, h=0.3, beta=1.0)
    states, law = _full_metropolis_law(model)
    spins = LongRangeMetropolisSampler(model).sample_batch(160_000, np.random.default_rng(8))
    cells = ((1 - spins) // 2).astype(np.int64) @ (1 << np.arange(4))
    counts = np.bincount(cells, minlength=16)
    assert np.array_equal(states[cells[:50]], spins[:50])
    assert scipy.stats.chisquare(counts, 160_000 * law / law.sum()).pvalue > 0.001


def test_longrange_metropolis_matches_oracle():
    model = longrange(6, j=0.4, h=0.2, beta=0.8)
    oracle = enumerate_oracle(model, magnetization(6)).dist
    rng = np.random.default_rng(23)
    spins = LongRangeMetropolisSampler(model).sample_batch(40_000, rng)
    m = spins.sum(axis=1)
    for value, p_th in zip(oracle.support, oracle.probs):
        observed = int((m == value).sum())
        sigma = math.sqrt(40_000 * p_th * (1 - p_th))
        assert abs(observed - 40_000 * p_th) < 4 * sigma + 2


def test_gibbs_sample_single_draw_roundtrip():
    rng = np.random.default_rng(1)
    cfg = gibbs_sampler(ring(12, beta=0.5)).sample_batch(1, rng)
    assert cfg.shape == (1, 12) and set(cfg[0].tolist()) <= {-1, 1}
    cfg2 = gibbs_sampler(longrange(5, beta=0.3)).sample_batch(1, rng)
    assert cfg2.shape == (1, 5) and set(cfg2[0].tolist()) <= {-1, 1}
    assert isinstance(gibbs_sampler(longrange(5)), LongRangeMetropolisSampler)


# ---------------------------------------------------------------------------
# probe records
# ---------------------------------------------------------------------------


def test_exact_record_has_one_entry_point():
    import kinkprobe

    # exact expectations are simulate_probe_shots(..., shots=None)
    for name in ("simulate_probe_exact", "gibbs_sample"):
        assert not hasattr(kinkprobe, name) and not hasattr(probe, name)


def test_exact_record_starts_at_unit_coherence():
    record = simulate_probe_shots(ring(10), magnetization(10), 0.01,
                                  default_time_grid(magnetization(10), 0.01), None)
    assert record.sx[0] == pytest.approx(1.0, abs=1e-14)
    assert record.sy[0] == pytest.approx(0.0, abs=1e-14)


def test_exact_traces_decay_and_revive_at_zero_field():
    # h = 0 makes F real: the imaginary trace vanishes, the real trace decays
    # from 1 and revives to 1 at accumulated phase pi (even support stride)
    model, obs = ring(50), magnetization(50)
    times = default_time_grid(obs, 0.01, points=404)
    record = simulate_probe_shots(model, obs, 0.01, times, None)
    assert record.sx[0] == 1.0
    assert np.abs(record.sy).max() < 1e-10
    assert record.sx.min() < 0.05
    mid = np.argmin(np.abs(record.theta - np.pi))
    assert record.sx[mid] == pytest.approx(1.0, abs=1e-3)
    # a finite field puts weight into the imaginary trace
    tilted = simulate_probe_shots(ring(50, h=0.2), obs, 0.01, times, None)
    assert np.abs(tilted.sy).max() > 0.1


def test_exact_record_bit_consistent_with_charfunc():
    model, obs = ring(14, h=0.3, beta=0.9), kink_number(14)
    times = default_time_grid(obs, 0.02)
    record = simulate_probe_shots(model, obs, 0.02, times, None)
    f = charfunc_values(model, obs, 2 * 0.02 * times)
    assert np.array_equal(record.sx, f.real)
    assert np.array_equal(record.sy, f.imag)


def test_shot_record_converges_to_exact():
    model, obs = ring(8, h=0.2, beta=1.0), magnetization(8)
    t = np.array([17.0])
    exact = simulate_probe_shots(model, obs, 0.01, t, None)
    shots = simulate_probe_shots(model, obs, 0.01, t, shots=1_000_000, seed=2)
    assert abs(shots.sx[0] - exact.sx[0]) < 4e-3
    assert abs(shots.sy[0] - exact.sy[0]) < 4e-3


def test_shot_record_deterministic_under_seed():
    model, obs = ring(6, h=0.1, beta=0.7), magnetization(6)
    times = default_time_grid(obs, 0.01)
    a = simulate_probe_shots(model, obs, 0.01, times, shots=500, seed=42)
    b = simulate_probe_shots(model, obs, 0.01, times, shots=500, seed=42)
    assert np.array_equal(a.sx, b.sx) and np.array_equal(a.sy, b.sy)
    d = simulate_probe_shots(model, obs, 0.01, times, shots=500, seed=43)
    assert not np.array_equal(a.sx, d.sx)


@pytest.mark.parametrize("shots", [None, 10])
def test_shots_reject_observable_beyond_the_model(shots):
    # a 6-site observable cannot be read on 4 sampled spins
    obs = magnetization(6)
    times = default_time_grid(obs, 0.01)
    with pytest.raises(InputError):
        simulate_probe_shots(ring(4), obs, 0.01, times, shots=shots, seed=1)


@pytest.mark.parametrize("model", [ring(4), longrange(4)], ids=["ring", "longrange"])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_shots_reject_partial_observable(model, make_obs):
    # a 3-site observable on a 4-spin model is not the model's observable
    obs = make_obs(3)
    with pytest.raises(InputError, match="covers 3 sites, the model has N=4"):
        simulate_probe_shots(model, obs, 0.01, default_time_grid(obs, 0.01),
                             shots=50, seed=1)


def _refuse_sampling(model):
    raise AssertionError("this record must not draw configurations")


def test_shot_route_choice(monkeypatch):
    # a ring with a built-in observable, beta = 0 included, reads its shots off
    # the analytic F; every other job walks the gates over sampled configurations
    monkeypatch.setattr(probe, "gibbs_sampler", _refuse_sampling)
    for model, obs in ((ring(5, h=0.2), magnetization(5)), (ring(5, h=0.2), kink_number(5)),
                       (ring(5, beta=0.0), magnetization(5))):
        simulate_probe_shots(model, obs, 0.01, [0.0, 3.0], shots=20, seed=1)
    walked = custom_observable(0.0, 1.0, [(i,) for i in range(1, 6)])
    for model, obs in ((ring(5, h=0.2), walked), (longrange(5, beta=0.3), magnetization(5))):
        with pytest.raises(AssertionError, match="must not draw"):
            simulate_probe_shots(model, obs, 0.01, [0.0, 3.0], shots=20, seed=1)


@pytest.mark.parametrize("model", [ring(10_000, j=1.0, h=0.1, beta=0.5),
                                   longrange(1000, j=1.0, h=0.5, beta=0.0005)],
                         ids=["ring-10000", "longrange-1000"])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_analytic_routes_build_no_term_tuples(model, make_obs):
    # a built-in observable is (kind, N): the exact pipeline, and a ring's
    # binomial shot route, read no spin-product terms, so none are built
    obs = make_obs(model.N)
    times = default_time_grid(obs, 0.5)
    dist = invert_dft(simulate_probe_shots(model, obs, 0.5, times, None))
    assert validate_distribution(dist).worst_defect() < 1e-9
    if model.kind is ModelKind.LONG_RANGE and obs.kind is ObsKind.KINKS:
        with pytest.raises(InputError, match="no closed cumulants"):
            closed_cumulants(model, obs)
    else:
        assert closed_cumulants(model, obs).kappa1 == pytest.approx(dist.mean(), rel=1e-6)
    assert "terms" not in vars(obs)
    if model.kind is ModelKind.RING:
        simulate_probe_shots(model, obs, 0.5, times, shots=100, seed=1)
        assert "terms" not in vars(obs)


def test_binomial_route_has_the_gate_walk_law():
    # the oracle is the gate walk on the magnetization's terms under the custom
    # tag; over many seeds both routes' sx and sy must follow one law, which is
    # checked through the first two moments at every (pool, time point)
    n, shots, seeds, eps = 6, 40, 300, 0.01
    model, obs = ring(n, j=0.7, h=0.3, beta=1.0), magnetization(n)
    walked = custom_observable(0.0, 1.0, obs.terms)
    times = default_time_grid(obs, eps)
    f = charfunc_values(model, obs, 2.0 * eps * times)
    mean = np.stack([f.real, f.imag])            # (pool, j)
    var = (1.0 - mean ** 2) / shots               # of one record entry

    def records(o):
        recs = [simulate_probe_shots(model, o, eps, times, shots=shots, seed=s)
                for s in range(seeds)]
        return np.array([[r.sx, r.sy] for r in recs])  # (seed, pool, j)

    binomial, walk = records(obs), records(walked)
    noisy = var > 0
    # where |F| = 1 the readout is certain: both routes give F exactly
    certain = np.broadcast_to(mean[~noisy], binomial[:, ~noisy].shape)
    assert np.array_equal(binomial[:, ~noisy], certain)
    assert np.array_equal(walk[:, ~noisy], certain)
    # every entry is 2 k / shots - 1 for an integer k
    k = (binomial + 1.0) * shots / 2.0
    np.testing.assert_allclose(k, np.rint(k), rtol=0, atol=1e-9)
    # first moment: a two-sample z per (pool, j) from the exact variance
    z = (binomial.mean(0) - walk.mean(0))[noisy] / np.sqrt(2.0 * var[noisy] / seeds)
    assert np.abs(z).max() < 5.0
    # second moment: (x - F)^2 / var has mean 1 under either route
    ua = ((binomial - mean) ** 2 / np.where(noisy, var, 1.0))[:, noisy]
    ub = ((walk - mean) ** 2 / np.where(noisy, var, 1.0))[:, noisy]
    spread = math.sqrt((ua.var() + ub.var()) / ua.size)
    assert abs(ua.mean() - ub.mean()) < 5.0 * spread
    assert abs(ua.mean() - 1.0) < 5.0 * math.sqrt(ua.var() / ua.size)


def test_binomial_record_at_theta_zero_reads_unit_sx():
    obs = magnetization(9)
    for seed in range(20):
        record = simulate_probe_shots(ring(9, h=0.4), obs, 0.01, [0.0, 5.0], shots=7, seed=seed)
        assert record.sx[0] == 1.0


def test_binomial_record_clips_the_last_bit_of_f():
    # |F| may exceed 1 by float rounding; the readout probability is clipped
    f = np.array([1.0 + 1e-10 + 0j, -1.0 - 1e-10 + (1.0 + 1e-10) * 1j])
    out = probe._binomial_record(f, 100, seed=3)
    np.testing.assert_array_equal(out[:, 0], [1.0, -1.0])
    assert out[1, 1] == 1.0


def test_gate_walk_record_repeats_bit_for_bit():
    # test_shot_record_deterministic_under_seed covers the binomial route
    model, obs = longrange(5, beta=0.3), magnetization(5)
    times = default_time_grid(obs, 0.01)
    a = simulate_probe_shots(model, obs, 0.01, times, shots=300, seed=11)
    b = simulate_probe_shots(model, obs, 0.01, times, shots=300, seed=11)
    assert np.array_equal(a.sx, b.sx) and np.array_equal(a.sy, b.sy)


def test_exact_mode_with_gate_error_stretches_period():
    model, obs = ring(20, h=0.1, beta=1.0), magnetization(20)
    times = default_time_grid(obs, 0.01)
    distorted = simulate_probe_shots(model, obs, 0.01, times, None, eta=0.02)
    reference = charfunc_values(model, obs, 2 * 0.01 * 1.02 * times)
    np.testing.assert_allclose(distorted.sx + 1j * distorted.sy, reference, atol=1e-13)


def test_prewarped_grid_lands_on_standard_phases():
    obs = magnetization(10)
    times = default_time_grid(obs, 0.01, eta=0.05)
    eff = 2 * 0.01 * 1.05 * times
    np.testing.assert_allclose(eff, 2 * np.pi * np.arange(21) / 21, atol=1e-14)


def test_record_coherence_bounded(rng):
    model, obs = ring(7, h=0.3, beta=0.8), kink_number(7)
    times = default_time_grid(obs, 0.01)
    record = simulate_probe_shots(model, obs, 0.01, times, shots=400, seed=9)
    assert np.all(record.sx ** 2 + record.sy ** 2 <= 1.0 + 6 / math.sqrt(400))


def test_shot_validation():
    model, obs = ring(4), magnetization(4)
    with pytest.raises(InputError):
        simulate_probe_shots(model, obs, 0.01, [0.0, 1.0], shots=0)
    with pytest.raises(InputError):
        simulate_probe_shots(model, obs, -0.01, [0.0, 1.0], shots=10)
    with pytest.raises(InputError, match="eta must exceed -1"):
        simulate_probe_shots(model, obs, 0.01, [0.0, 1.0], shots=10, eta=-1.0)


def test_probe_record_refuses_readouts_that_are_not_1d():
    grid = np.zeros((2, 3))
    with pytest.raises(InputError, match="1-d arrays of equal length"):
        ProbeRecord(epsilon=0.01, time_grid=grid, sx=grid, sy=grid, shots=None)
    with pytest.raises(InputError, match="1-d arrays of equal length"):
        ProbeRecord(epsilon=0.01, time_grid=np.zeros(3), sx=np.zeros(3), sy=np.zeros(2),
                    shots=None)


def test_gate_count_accounting():
    from kinkprobe import gate_count

    # one rotation plus two flips per spin: 27 universal gates for nine spins
    assert gate_count(magnetization(9)) == 27
    assert gate_count(magnetization(50)) == 150
    # the kink block adds the single uncontrolled offset rotation
    assert gate_count(kink_number(4)) == 13


def test_custom_observable_through_shot_pipeline():
    # custom products have no analytic route; the sampled gate walk covers them
    from kinkprobe import custom_observable, invert_dft, total_variation

    model = ring(4, beta=0.0)
    obs = custom_observable(2.0, 1.0, [(1, 2, 3)])
    times = default_time_grid(obs, 0.01)
    with pytest.raises(InputError, match="no analytic route"):
        simulate_probe_shots(ring(4, beta=1.0), obs, 0.01, times, None)
    record = simulate_probe_shots(model, obs, 0.01, times, shots=20_000, seed=31)
    dist = invert_dft(record).cleaned()
    oracle = enumerate_oracle(model, obs).dist
    assert total_variation(dist, oracle) < 0.02  # P(1) = P(3) = 1/2 at beta = 0
