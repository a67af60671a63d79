import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from kinkprobe import (InputError, ModelKind, ProbeRecord, charfunc_values,
                       circuit_phase, closed_cumulants, custom_observable, energy,
                       enumerate_oracle, gibbs_sampler, invert_dft, kink_number,
                       magnetization, observable_values, simulate_probe_shots,
                       validate_distribution)
import kinkprobe.probe as probe
from kinkprobe.probe import (METROPOLIS_BURNIN_SWEEPS, LongRangeMetropolisSampler,
                             RingGibbsSampler, default_time_grid)
from conftest import longrange, ring
from oracles import metropolis_up_count_law_stepwise


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
    distorted = circuit_phase(cfg, obs, (1.0 + 0.02) * 0.01, 2.0)
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


@pytest.mark.parametrize("n", [8, 9])
def test_longrange_sampler_law_depends_on_beta_j_and_beta_h_only(n):
    # J = 1e308 times N overflows on its own; beta J = 1 does not
    huge = LongRangeMetropolisSampler(longrange(n, j=1e308, h=3e307, beta=1e-308))
    plain = LongRangeMetropolisSampler(longrange(n, j=1.0, h=0.3, beta=1.0))
    np.testing.assert_allclose(huge.up_count_law, plain.up_count_law, rtol=1e-12, atol=0)


BLOCK_LAW_CASES = {
    "beta0": lambda n: longrange(n, j=1.0, h=0.3, beta=0.0),
    "disordered": lambda n: longrange(n, j=1.0, h=1.0, beta=0.5 / n),   # beta J N = 0.5
    "ordered": lambda n: longrange(n, j=1.0, h=0.05, beta=3.0 / n),     # beta J N = 3
    "antiferromagnetic": lambda n: longrange(n, j=-0.7, h=0.2, beta=1.0),
}


def _assert_same_chain_law(law, stepwise):
    assert np.array_equal(law == 0, stepwise == 0)
    big = stepwise > 1e-250
    np.testing.assert_allclose(law[big], stepwise[big], rtol=1e-12, atol=0)


# N <= 50 takes blocks of k = N proposals, N > 50 blocks of 50
@pytest.mark.parametrize("n", [1, 2, 3, 49, 50, 51, 120, 200])
@pytest.mark.parametrize("case", BLOCK_LAW_CASES)
def test_longrange_sampler_law_is_the_stepwise_chain_law(n, case):
    model = BLOCK_LAW_CASES[case](n)
    _assert_same_chain_law(LongRangeMetropolisSampler(model).up_count_law,
                           metropolis_up_count_law_stepwise(model))


def test_longrange_sampler_law_keeps_the_unreached_sectors():
    model = longrange(3, j=700.0, h=700.0, beta=1.0)
    stepwise = metropolis_up_count_law_stepwise(model)
    assert (stepwise == 0).any()
    _assert_same_chain_law(LongRangeMetropolisSampler(model).up_count_law, stepwise)


def test_longrange_sampler_memory_is_linear_in_n():
    # the k-step kernel is an (N + 1) x (2k + 1) band, not an (N + 1)^2 matrix
    n = 1000
    model = longrange(n, j=1.0, h=1.0, beta=0.5 / n)
    tracemalloc.start()
    try:
        LongRangeMetropolisSampler(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1) ** 2 / 2


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


@pytest.mark.parametrize("case", LONGRANGE_CHAIN_CASES + [
    dict(n=12, j=0.5, h=0.1, beta=0.6),   # beta J N = 3.6
    dict(n=11, j=-0.3, h=0.2, beta=1.0),
    dict(n=8, j=2.0, h=-0.3, beta=1.5),
    dict(n=3, j=700.0, h=700.0, beta=1.0),  # the chain never reaches some sectors
])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_sampled_charfunc_is_the_enumerated_chain_law(case, make_obs):
    # each configuration with u up spins weighs P(u) / C(N, u) under the chain
    model = longrange(case["n"], j=case["j"], h=case["h"], beta=case["beta"])
    n, obs = model.N, make_obs(model.N)
    law = LongRangeMetropolisSampler(model).up_count_law
    states = (1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)).astype(np.int8)
    up = (states == 1).sum(axis=1)
    weights = law[up] / np.array([math.comb(n, u) for u in range(n + 1)])[up]
    values = observable_values(states, obs)
    on_grid = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    off_grid = np.random.default_rng(n).uniform(-7.0, 7.0, 9)
    for thetas in (on_grid, off_grid):
        expected = np.exp(1j * np.outer(thetas, values)) @ weights / weights.sum()
        np.testing.assert_allclose(probe._sampled_charfunc(model, obs, thetas), expected,
                                   rtol=0, atol=1e-12)


def test_sampled_charfunc_at_infinite_temperature():
    # beta = 0: the chain keeps its uniform start, so F of M is cos^N theta
    thetas = np.concatenate([2.0 * np.pi * np.arange(25) / 25, [0.3, 1.7, -4.1]])
    f = probe._sampled_charfunc(longrange(12, beta=0.0), magnetization(12), thetas)
    np.testing.assert_allclose(f, np.cos(thetas) ** 12, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("shots, message", [
    (2.5, "shots must be an integer"), (True, "shots must be an integer"),
    (3.0, "shots must be an integer"), ("10", "shots must be an integer"),
    (0, "shots must be at least 1"), (np.int64(-2), "shots must be at least 1"),
    (2**63, "shots must be at most"),
])
@pytest.mark.parametrize("custom", [False, True], ids=["binomial", "gate-walk"])
def test_shots_must_be_a_positive_integer(shots, message, custom):
    # 2.5 shots would read 2 * 2 / 2.5 - 1 = 0.6, which no pool reads; True would run 1 shot;
    # numpy's Binomial cannot draw 2**63 shots
    obs = custom_observable(0.0, 1.0, [(1,), (2,), (3,), (4,)]) if custom else magnetization(4)
    with pytest.raises(InputError, match=message):
        simulate_probe_shots(ring(4), obs, 0.01, [0.0, 1.0], shots=shots, seed=1)


@pytest.mark.parametrize("seed", [-1, np.int64(-3), True, 2.0, "7", None])
@pytest.mark.parametrize("custom", [False, True], ids=["binomial", "gate-walk"])
def test_shot_seed_must_be_a_non_negative_integer(seed, custom):
    obs = custom_observable(0.0, 1.0, [(1,), (2,), (3,), (4,)]) if custom else magnetization(4)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        simulate_probe_shots(ring(4), obs, 0.01, [0.0, 1.0], shots=10, seed=seed)


@pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), 2**70])
@pytest.mark.parametrize("custom", [False, True], ids=["binomial", "gate-walk"])
def test_shot_seed_takes_any_non_negative_integer(seed, custom):
    obs = custom_observable(0.0, 1.0, [(1,), (2,), (3,), (4,)]) if custom else magnetization(4)
    record = simulate_probe_shots(ring(4), obs, 0.01, [0.0, 1.0], shots=10, seed=seed)
    assert record.shots == 10


@pytest.mark.parametrize("model", [ring(4), longrange(4)], ids=["ring", "longrange"])
def test_exact_records_refuse_custom_observables(model):
    # the exact route reads F analytically; a custom observable has no sector law
    obs = custom_observable(0.0, 1.0, [(1, 2), (3, 4)])
    with pytest.raises(InputError, match="exact record .* needs an analytic F.*finite shots"):
        simulate_probe_shots(model, obs, 0.01, [0.0, 1.0], None)


@pytest.mark.parametrize("model", [ring(4), longrange(4)], ids=["ring", "longrange"])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_shots_reject_partial_observable(model, make_obs):
    # a 3-site observable on a 4-spin model is not the model's observable
    obs = make_obs(3)
    with pytest.raises(InputError, match="covers 3 sites, the model has N=4"):
        simulate_probe_shots(model, obs, 0.01, default_time_grid(obs, 0.01),
                             shots=50, seed=1)


def _refuse_sampling(*args):
    raise AssertionError("this record must not draw configurations")


def test_shot_route_choice(monkeypatch):
    # every built-in observable, on either model and at beta = 0 too, reads its
    # shots off the F of its sampler's law; custom ones walk the gates over
    # sampled configurations
    monkeypatch.setattr(probe, "gibbs_sampler", _refuse_sampling)
    for model in (ring(5, h=0.2), ring(5, beta=0.0), longrange(5, beta=0.3, h=0.2),
                  longrange(5, beta=0.0)):
        for obs in (magnetization(5), kink_number(5)):
            simulate_probe_shots(model, obs, 0.01, [0.0, 3.0], shots=20, seed=1)
    walked = custom_observable(0.0, 1.0, [(i,) for i in range(1, 6)])
    for model in (ring(5, h=0.2), longrange(5, beta=0.3)):
        with pytest.raises(AssertionError, match="must not draw"):
            simulate_probe_shots(model, walked, 0.01, [0.0, 3.0], shots=20, seed=1)


@pytest.mark.parametrize("model", [ring(10_000, j=1.0, h=0.1, beta=0.5),
                                   longrange(1000, j=1.0, h=0.5, beta=0.0005)],
                         ids=["ring-10000", "longrange-1000"])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_analytic_routes_build_no_term_tuples(model, make_obs):
    # a built-in observable is (kind, N): the exact pipeline and the binomial
    # shot route read no spin-product terms, so none are built
    obs = make_obs(model.N)
    times = default_time_grid(obs, 0.5)
    dist = invert_dft(simulate_probe_shots(model, obs, 0.5, times, None))
    assert validate_distribution(dist).worst_defect() < 1e-9
    assert closed_cumulants(model, obs).kappa1 == pytest.approx(dist.mean(), rel=1e-6)
    assert "terms" not in vars(obs)
    simulate_probe_shots(model, obs, 0.5, times, shots=100, seed=1)
    assert "terms" not in vars(obs)


@pytest.mark.parametrize("model, make_obs", [
    (ring(6, j=0.7, h=0.3, beta=1.0), magnetization),
    # beta J N = 4: the chain's law is not Boltzmann's, and the record follows the chain
    (longrange(6, j=1.0, h=0.05, beta=4 / 6), magnetization),
    (longrange(6, j=1.0, h=0.05, beta=4 / 6), kink_number),
], ids=["ring-m", "longrange-m", "longrange-k"])
def test_binomial_route_has_the_gate_walk_law(model, make_obs):
    # the oracle is the gate walk on the observable's terms under the custom
    # tag; over many seeds both routes' sx and sy must follow one law, which is
    # checked through the first two moments at every (pool, time point)
    n, shots, seeds, eps = 6, 40, 300, 0.01
    obs = make_obs(n)
    walked = custom_observable(obs.a, obs.b, obs.terms)
    times = default_time_grid(obs, eps)
    f = probe._sampled_charfunc(model, obs, 2.0 * eps * times)
    if model.kind is ModelKind.LONG_RANGE and make_obs is magnetization:
        assert np.abs(f - charfunc_values(model, obs, 2.0 * eps * times)).max() > 0.1
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
    out = probe._binomial_record(f, 100, np.random.default_rng(3))
    np.testing.assert_array_equal(out[:, 0], [1.0, -1.0])
    assert out[1, 1] == 1.0


def test_gate_walk_record_repeats_bit_for_bit():
    # test_shot_record_deterministic_under_seed covers the binomial route
    model, obs = longrange(5, beta=0.3), custom_observable(0.0, 1.0, magnetization(5).terms)
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


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_probe_record_refuses_an_eps_outside_the_gate_check(eps):
    # estimate_gate_error divides by the record's eps
    t = np.zeros(3)
    with pytest.raises(InputError, match="epsilon must be"):
        ProbeRecord(epsilon=eps, time_grid=t, sx=t, sy=t, shots=None)


_BAD_TIMES = pytest.mark.parametrize("t, message", [
    (math.inf, "finite times only"),
    (math.nan, "finite times only"),
    (1e300, "the time grid reaches t = 1e[+]300"),  # the phase 2 eps t is 2e310
], ids=["inf", "nan", "phase-overflow"])


@_BAD_TIMES
@pytest.mark.parametrize("shots", [None, 100], ids=["exact", "shots"])
def test_simulate_probe_shots_refuses_a_time_grid_whose_phases_leave_the_floats(
        t, message, shots):
    with pytest.raises(InputError, match=message):
        simulate_probe_shots(ring(4), magnetization(4), 1e10, [0.0, t], shots, seed=1)


@_BAD_TIMES
def test_probe_record_refuses_a_time_grid_whose_phases_leave_the_floats(t, message):
    zeros = np.zeros(2)
    with pytest.raises(InputError, match=message):
        ProbeRecord(epsilon=1e10, time_grid=[0.0, t], sx=zeros, sy=zeros, shots=None)


def test_time_grid_check_reads_the_gate_error():
    # 2 eps t = 1e308 is finite; the distorted phase 2 eps (1 + eta) t is not
    model, obs, t = ring(4), magnetization(4), [0.0, 5e297]
    assert np.isfinite(simulate_probe_shots(model, obs, 1e10, t, None).theta).all()
    with pytest.raises(InputError, match="eta = 1.0"):
        simulate_probe_shots(model, obs, 1e10, t, None, eta=1.0)


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


@pytest.mark.parametrize("sampler, model, fragment", [
    (RingGibbsSampler, longrange(4), "requires the ring model"),
    (LongRangeMetropolisSampler, ring(4), "requires the long-range model"),
], ids=["ring-on-longrange", "longrange-on-ring"])
def test_samplers_refuse_the_other_model(sampler, model, fragment):
    with pytest.raises(InputError, match=fragment):
        sampler(model)
