import itertools
import math

import numpy as np
import pytest

from kinkprobe import (InputError, ModelKind, ModelParams, ObservableSpec, ObsKind,
                       QuantumRegister, SizeError, circuit_phase, custom_observable, energy,
                       enumerate_oracle, kink_number, magnetization, observable_values,
                       quantum_probe, simulate_probe_shots, term_sums)
from conftest import longrange, random_couplings, ring


def _all_up(n):
    return np.ones(n, dtype=np.int8)


def test_magnetization_all_up():
    assert observable_values(_all_up(4), magnetization(4)) == 4


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_kinks_all_up(n):
    assert observable_values(_all_up(n), kink_number(n)) == 0


def test_kinks_alternating_ring():
    cfg = np.array([1, -1, 1, -1], dtype=np.int8)
    assert observable_values(cfg, kink_number(4)) == 4


def test_observable_index_out_of_range():
    with pytest.raises(InputError):
        observable_values(_all_up(3), magnetization(4))


def test_energy_ring_all_up():
    assert energy(ring(4), _all_up(4)) == -4


def test_energy_ring_alternating():
    cfg = np.array([1, -1, 1, -1], dtype=np.int8)
    assert energy(ring(4), cfg) == 4


def test_energy_longrange_all_up():
    assert energy(longrange(4, j=1.0, h=1.0), _all_up(4)) == -10


def test_energy_length_mismatch():
    with pytest.raises(InputError):
        energy(ring(4), _all_up(3))


def test_oracle_n2_partition_and_distribution():
    res = enumerate_oracle(ring(2), magnetization(2))
    z = 2 * math.exp(2) + 2 * math.exp(-2)
    assert math.exp(res.log_z) == pytest.approx(z, rel=1e-14)
    assert res.dist.prob_of(2) == pytest.approx(math.exp(2) / z, rel=1e-13)
    assert res.dist.prob_of(0) == pytest.approx(2 * math.exp(-2) / z, rel=1e-13)
    assert res.dist.prob_of(-2) == pytest.approx(math.exp(2) / z, rel=1e-13)
    # the coarse values quoted alongside the model definition
    assert res.dist.prob_of(2) == pytest.approx(0.4910, abs=5e-5)
    assert res.dist.prob_of(0) == pytest.approx(0.01799, abs=5e-6)


@pytest.mark.parametrize("n", [3, 6])
def test_oracle_infinite_temperature_counts(n):
    model = ring(n, beta=0.0)
    res = enumerate_oracle(model, magnetization(n))
    assert math.exp(res.log_z) == pytest.approx(2 ** n, rel=1e-14)
    for m in range(-n, n + 1):
        if (n - m) % 2 == 0:
            expected = math.comb(n, (n - m) // 2) / 2 ** n
        else:
            expected = 0.0
        assert res.dist.prob_of(m) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("model", [ring(5), longrange(5)])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_oracle_rejects_builtin_of_another_size(model, make_obs):
    # the oracle refuses the size mismatch charfunc_values and the shot route refuse
    with pytest.raises(InputError, match="covers 3 sites, the model has N=5"):
        enumerate_oracle(model, make_obs(3))


@pytest.mark.parametrize("kind, n", [("ring", 6), (None, 6), (ModelKind.RING, 6.5),
                                     (ModelKind.RING, True), (ModelKind.LONG_RANGE, "6"),
                                     (ModelKind.RING, np.float64(6.0))])
def test_model_params_refuse_a_kind_or_size_they_cannot_model(kind, n):
    # a string kind would fall through every ModelKind.RING test to the long-range routes
    with pytest.raises(InputError, match="kind must be a ModelKind|N must be a positive"):
        ModelParams(kind=kind, N=n, J=1.0, h=0.2, beta=1.0)


def test_model_params_take_numpy_integer_sizes():
    kw = dict(kind=ModelKind.RING, J=1.0, h=0.2, beta=1.0)
    a = enumerate_oracle(ModelParams(N=np.int64(6), **kw), magnetization(6)).dist
    b = enumerate_oracle(ModelParams(N=6, **kw), magnetization(6)).dist
    np.testing.assert_array_equal(a.probs, b.probs)


def test_oracle_refuses_large_n():
    with pytest.raises(SizeError):
        enumerate_oracle(ring(25), magnetization(25))


def test_oracle_distribution_is_normalized_and_nonnegative(rng):
    for _ in range(5):
        j, h, beta = random_couplings(rng)
        model = ring(7, j=j, h=h, beta=beta)
        for obs in (magnetization(7), kink_number(7)):
            dist = enumerate_oracle(model, obs).dist
            assert abs(dist.probs.sum() - 1.0) < 1e-12
            assert dist.probs.min() >= 0.0


def test_kink_values_even_and_bounded(rng):
    obs = kink_number(9)
    for _ in range(200):
        cfg = np.where(rng.random(9) < 0.5, 1, -1).astype(np.int8)
        k = observable_values(cfg, obs)
        assert k == int(k) and int(k) % 2 == 0
        assert 0 <= k <= 9


def test_magnetization_parity_and_range(rng):
    obs = magnetization(8)
    for _ in range(200):
        cfg = np.where(rng.random(8) < 0.5, 1, -1).astype(np.int8)
        m = observable_values(cfg, obs)
        assert -8 <= m <= 8 and int(m) % 2 == 0


@pytest.mark.parametrize("n", [1, 7, 8])
def test_forbidden_values_are_those_no_configuration_reaches(n):
    # at beta = 0 every configuration has weight 2^-N, so P(x) = 0 exactly off the reach
    for obs in (magnetization(n), kink_number(n)):
        dist = enumerate_oracle(ring(n, beta=0.0), obs).dist
        assert np.array_equal(obs.forbidden(dist.support), dist.probs == 0.0)
        assert np.array_equal(dist.forbidden, dist.probs == 0.0)
    custom = custom_observable(0.0, 1.0, [(1,)] * 2)  # 2 s_1 never reads 0, yet no rule says so
    assert not custom.forbidden(np.arange(-2, 3)).any()


def test_spin_flip_symmetry_at_zero_field(rng):
    for _ in range(5):
        j, _, beta = random_couplings(rng)
        dist = enumerate_oracle(ring(8, j=j, h=0.0, beta=beta), magnetization(8)).dist
        np.testing.assert_allclose(dist.probs, dist.probs[::-1], rtol=1e-13, atol=0.0)


def test_custom_observable_oracle_matches_direct_count():
    # X = 2 + product of spins 1,2,3 on a 4-ring at infinite temperature
    obs = custom_observable(2.0, 1.0, [(1, 2, 3)])
    res = enumerate_oracle(ring(4, beta=0.0), obs)
    assert res.dist.prob_of(1) == pytest.approx(0.5)
    assert res.dist.prob_of(3) == pytest.approx(0.5)


def test_non_integer_custom_observable_rejected():
    obs = custom_observable(0.3, 1.0, [(1,)])
    with pytest.raises(InputError):
        enumerate_oracle(ring(2, beta=0.0), obs)


# ragged terms of lengths 1, 2 and 3; site 3 appears twice in the last one
_RAGGED = custom_observable(1.5, -0.5, [(2,), (1, 3), (3, 1, 3)])


def _direct_value(spins):
    return _RAGGED.a + _RAGGED.b * sum(math.prod(int(spins[i - 1]) for i in term)
                                       for term in _RAGGED.terms)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_term_sums_match_direct_products_in_every_caller(n):
    configs = [np.array(c, dtype=np.int8) for c in itertools.product((1, -1), repeat=n)]
    eps, t, theta = 0.01, 7.3, 0.83
    for spins in configs:
        x = _direct_value(spins)
        assert observable_values(spins, _RAGGED) == x
        assert circuit_phase(spins, _RAGGED, eps, t) == 2.0 * eps * t * x
    # basis state s: site k sits on bit N - k, bit value 1 meaning spin down
    for s in range(1 << n):
        x = _direct_value([1 - 2 * ((s >> (n - k)) & 1) for k in range(1, n + 1)])
        reg = QuantumRegister.from_basis_state(s, n)
        re, im = quantum_probe(reg, _RAGGED, theta)
        assert re == pytest.approx(math.cos(theta * x), abs=1e-12)
        assert im == pytest.approx(math.sin(theta * x), abs=1e-12)
    for model in (ring(n, j=0.7, h=0.3, beta=0.9), longrange(n, j=-0.4, h=0.2, beta=1.3)):
        weights = np.array([math.exp(-model.beta * energy(model, c))
                            for c in configs])
        values = np.array([_direct_value(c) for c in configs]).astype(int)
        expect = np.bincount(values, weights=weights, minlength=4) / weights.sum()
        dist = enumerate_oracle(model, _RAGGED).dist
        assert dist.support.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(dist.probs, expect, rtol=0, atol=1e-12)


def test_term_index_above_n_is_input_error_in_every_caller():
    n = 2  # _RAGGED reaches site 3
    with pytest.raises(InputError):
        term_sums(np.ones((5, n), dtype=np.int8), _RAGGED.terms)
    with pytest.raises(InputError):
        observable_values(_all_up(n), _RAGGED)
    with pytest.raises(InputError):
        circuit_phase(_all_up(n), _RAGGED, 0.01, 1.0)
    with pytest.raises(InputError):
        enumerate_oracle(ring(n), _RAGGED)
    with pytest.raises(InputError):
        quantum_probe(QuantumRegister.from_basis_state(0, n), _RAGGED, 0.3)
    with pytest.raises(InputError):
        simulate_probe_shots(ring(n), _RAGGED, 0.01, [0.0, 1.0], shots=10, seed=1)


_MAG_REFUSAL = "magnetization tag requires"
_KINK_REFUSAL = "kink tag requires"


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_tagged_specs_from_lists_and_numpy_ints_equal_the_builtins(n):
    # a built-in is (kind, n): a tagged spec with a numpy-int n is the built-in,
    # and its terms, built on first read, are the explicit lists as Python ints
    sites = np.arange(1, n + 1)
    bonds = np.column_stack((sites, np.roll(sites, -1)))
    mag = ObservableSpec(0.0, 1.0, np.int64(n), ObsKind.MAGNETIZATION)
    kinks = ObservableSpec(n / 2.0, -0.5, np.int64(n), ObsKind.KINKS)
    assert mag == magnetization(n) and kinks == kink_number(n)
    for spec, lists in ((mag, [[i] for i in range(1, n + 1)]), (kinks, bonds.tolist())):
        assert "terms" not in vars(spec)
        assert spec.terms == tuple(map(tuple, lists))
        assert all(type(i) is int for t in spec.terms for i in t)
        assert spec.terms is spec.terms  # built once
        assert spec.n == len(spec.terms)


def test_tagged_specs_refuse_wrong_coefficients_and_terms():
    n = 5
    mag, kinks = magnetization(n), kink_number(n)
    bad = [
        (0.5, 1.0, n, ObsKind.MAGNETIZATION, (), _MAG_REFUSAL),             # wrong a
        (0.0, -1.0, n, ObsKind.MAGNETIZATION, (), _MAG_REFUSAL),            # wrong b
        (0.0, 1.0, -1, ObsKind.MAGNETIZATION, (), _MAG_REFUSAL),            # negative n
        (0.0, 1.0, n, ObsKind.MAGNETIZATION, mag.terms, _MAG_REFUSAL),      # terms passed
        (0.0, 1.0, n, ObsKind.MAGNETIZATION, np.arange(1, n + 1)[:, None], _MAG_REFUSAL),
        (0.0, -0.5, n, ObsKind.KINKS, (), _KINK_REFUSAL),                   # wrong a
        (n / 2.0, 0.5, n, ObsKind.KINKS, (), _KINK_REFUSAL),                # wrong b
        ((n - 1) / 2.0, -0.5, n, ObsKind.KINKS, (), _KINK_REFUSAL),         # a of another N
        (-0.5, -0.5, -1, ObsKind.KINKS, (), _KINK_REFUSAL),                 # negative n
        (n / 2.0, -0.5, n, ObsKind.KINKS, kinks.terms, _KINK_REFUSAL),      # terms passed
        (n / 2.0, -0.5, n, ObsKind.KINKS, [list(t) for t in kinks.terms[:-1]], _KINK_REFUSAL),
    ]
    for a, b, count, kind, terms, refusal in bad:
        with pytest.raises(InputError, match=refusal):
            ObservableSpec(a, b, count, kind, terms)


def test_terms_need_a_one_based_index():
    for terms in ([(0,)], [(1, 0)], [()], [(1,), ()], [(-2, 3)]):
        with pytest.raises(InputError, match="1-based spin index"):
            custom_observable(0.0, 1.0, terms)
    with pytest.raises(InputError, match="1-based spin index"):
        ObservableSpec(0.0, 1.0, 2, ObsKind.CUSTOM, [(0,), (2,)])
    assert custom_observable(0.0, 1.0, [[np.int64(2), 1.0]]).terms == ((2, 1),)


def test_custom_spec_n_must_count_its_terms():
    for count, terms in ((3, [(1,), (2,)]), (1, [(1,), (2,)]), (1, []), (0, [(1,)])):
        with pytest.raises(InputError, match=f"needs n={count} terms"):
            ObservableSpec(0.0, 1.0, count, ObsKind.CUSTOM, terms)
    spec = ObservableSpec(0.0, 1.0, 2, ObsKind.CUSTOM, np.array([[1, 2], [2, 3]]))
    assert spec == custom_observable(0.0, 1.0, [(1, 2), (2, 3)])
    assert spec.terms == ((1, 2), (2, 3)) and spec.value_bounds() == (-2, 2)


def test_one_and_two_site_rings_build():
    assert magnetization(1).terms == ((1,),)
    assert kink_number(1).terms == ((1, 1),)
    assert kink_number(2).terms == ((1, 2), (2, 1))
    # one site bonds to itself, so K = 0; two sites have K in {0, 2}
    assert enumerate_oracle(ring(1), kink_number(1)).dist.probs.tolist() == [1.0, 0.0]
    assert enumerate_oracle(ring(2), kink_number(2)).dist.probs[1] == 0.0
    assert enumerate_oracle(ring(2), magnetization(2)).dist.support.tolist() == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("field", ["J", "h", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_refuses_nonfinite_couplings(field, value):
    couplings = dict(j=0.5, h=0.1, beta=0.7) | {field.lower(): value}
    with pytest.raises(InputError, match=f"{field} must be finite"):
        ring(4, **couplings)


def test_batch_energy_and_values_match_row_by_row(rng):
    spins = np.where(rng.random((3, 4, 6)) < 0.5, 1, -1).astype(np.int8)
    for model in (ring(6, j=0.7, h=0.3), longrange(6, j=-0.4, h=0.2)):
        rows = [energy(model, s) for s in spins.reshape(-1, 6)]
        assert energy(model, spins).shape == (3, 4)
        np.testing.assert_array_equal(energy(model, spins).ravel(), rows)
    for obs in (magnetization(6), kink_number(6), _RAGGED):
        rows = [observable_values(s, obs) for s in spins.reshape(-1, 6)]
        np.testing.assert_array_equal(observable_values(spins, obs).ravel(), rows)


@pytest.mark.parametrize("make, fragment", [
    (lambda: ModelParams(kind=ModelKind.RING, N=4, J=1.0, h=0.0, beta=-0.5),
     "beta must be non-negative"),
    # the bounds a -+ |b| n = -+1 are integers, but sums of three spins over 3 are not
    (lambda: enumerate_oracle(ring(3), custom_observable(0.0, 1 / 3, [(1,), (2,), (3,)])),
     "not integer-valued on some configuration"),
], ids=["negative-beta", "custom-thirds"])
def test_spin_model_refusals(make, fragment):
    with pytest.raises(InputError, match=fragment):
        make()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, -math.inf), (1e308, 1e308)],
                         ids=["nan-a", "nan-b", "inf-a", "inf-b", "overflowing-bound"])
def test_observable_refuses_coefficients_that_are_not_finite(a, b):
    # built, such an X made value_bounds raise numpy's ValueError or OverflowError
    with pytest.raises(InputError, match="a and b must be finite"):
        custom_observable(a, b, [(1,), (2,)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_observable_with_large_finite_coefficients_is_built():
    obs = custom_observable(1e300, 1e300, [(1,), (2,)])
    assert obs.value_bounds() == (round(1e300 - 2e300), round(1e300 + 2e300))
