import math

import numpy as np
import pytest

from kinkprobe import (CharFunctionSamples, Distribution, DistMeta,
                       EstimationError, GridMismatchError, InputError,
                       Provenance, build_theta_grid,
                       estimate_gate_error, exact_kink_mean, gaussian_approx,
                       invert_dft, invert_with_gate_error, kink_number,
                       magnetization, sample_charfunc, simulate_probe_shots,
                       total_variation, validate_distribution)
from kinkprobe.probe import GateErrorModel, default_time_grid, simulate_probe_exact
from conftest import ring


def test_grid_sizes():
    assert build_theta_grid(magnetization(50), 50).size == 101
    assert build_theta_grid(kink_number(50), 50).size == 51
    assert build_theta_grid(magnetization(1), 1).size == 3
    assert build_theta_grid(magnetization(5), 5, points=44).size == 44
    with pytest.raises(InputError):
        build_theta_grid(magnetization(5), 5, points=10)


def test_invert_constant_f_gives_point_mass_at_zero():
    obs = magnetization(6)
    thetas = build_theta_grid(obs, 6)
    samples = CharFunctionSamples(theta=thetas, values=np.ones(thetas.size, dtype=complex),
                                  provenance=Provenance.ANALYTIC, observable=obs,
                                  model=ring(6))
    dist = invert_dft(samples)
    assert dist.prob_of(0) == pytest.approx(1.0, abs=1e-12)
    assert abs(dist.probs).sum() == pytest.approx(1.0, abs=1e-12)


def test_invert_ring_n2_magnetization():
    dist = invert_dft(sample_charfunc(ring(2), magnetization(2)))
    z = 2 * math.exp(2) + 2 * math.exp(-2)
    assert dist.prob_of(2) == pytest.approx(math.exp(2) / z, abs=1e-12)
    assert dist.prob_of(0) == pytest.approx(2 * math.exp(-2) / z, abs=1e-12)
    assert dist.prob_of(-2) == pytest.approx(math.exp(2) / z, abs=1e-12)


def test_invert_n50_symmetric_bell_with_parity_zeros():
    dist = invert_dft(sample_charfunc(ring(50), magnetization(50)))
    probs = dist.probs
    support = dist.support
    np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)  # h=0 symmetry
    odd = support % 2 != 0
    assert np.abs(probs[odd]).sum() < 1e-9
    even = support[~odd]
    assert probs[~odd][np.argmax(probs[~odd])] == probs.max()
    assert abs(even[np.argmax(probs[~odd])]) <= 2  # peak at the centre


def test_oversampled_grid_inversion_is_identical():
    model, obs = ring(10, h=0.25), magnetization(10)
    a = invert_dft(sample_charfunc(model, obs))
    b = invert_dft(sample_charfunc(model, obs, points=64))
    np.testing.assert_allclose(b.probs, a.probs, atol=1e-12)


def test_invert_requires_standard_grid():
    obs = magnetization(4)
    thetas = build_theta_grid(obs, 4) + 0.01
    samples = CharFunctionSamples(theta=thetas, values=np.ones(9, dtype=complex),
                                  provenance=Provenance.PROBE_EXACT, observable=obs,
                                  model=ring(4))
    with pytest.raises(GridMismatchError):
        invert_dft(samples)


def test_invert_refuses_underresolved_grid():
    obs = magnetization(4)
    thetas = 2 * np.pi * np.arange(5) / 5
    samples = CharFunctionSamples(theta=thetas, values=np.ones(5, dtype=complex),
                                  provenance=Provenance.PROBE_EXACT, observable=obs,
                                  model=ring(4))
    with pytest.raises(GridMismatchError):
        invert_dft(samples)


# ---------------------------------------------------------------------------
# gate-error-aware inversion
# ---------------------------------------------------------------------------


def _records_for_eta(model, obs, eps, eta, points=None):
    """(naive-grid distorted record, pre-warped record) at gate error eta."""
    naive_times = default_time_grid(obs, model.N, eps, points=points)
    warped_times = default_time_grid(obs, model.N, eps, eta=eta, points=points)
    err = GateErrorModel(eta)
    naive = simulate_probe_shots(model, obs, eps, naive_times, None, error_model=err)
    warped = simulate_probe_shots(model, obs, eps, warped_times, None, error_model=err)
    return naive, warped


def test_gate_error_zero_is_bit_identical():
    model, obs = ring(12, h=0.15), magnetization(12)
    samples = sample_charfunc(model, obs)
    a = invert_dft(samples)
    b = invert_with_gate_error(samples, 0.0)
    assert np.array_equal(a.probs, b.probs)


@pytest.mark.parametrize("eta", [-0.1, -0.02, 0.02, 0.1])
def test_corrected_inversion_recovers_truth(eta):
    model, obs = ring(20, h=0.1), magnetization(20)
    truth = invert_dft(sample_charfunc(model, obs))
    _, warped = _records_for_eta(model, obs, 0.01, eta)
    corrected = invert_with_gate_error(warped.to_charfunc_samples(), eta)
    np.testing.assert_allclose(corrected.probs, truth.probs, atol=1e-10)


def test_naive_inversion_of_distorted_signal_is_wrong():
    model, obs = ring(20, h=0.1), magnetization(20)
    truth = invert_dft(sample_charfunc(model, obs))
    naive, _ = _records_for_eta(model, obs, 0.01, 0.02)
    wrong = invert_dft(naive.to_charfunc_samples())
    assert total_variation(wrong.cleaned(), truth.cleaned()) > 0.01


def test_invert_with_gate_error_rejects_eta_below_minus_one():
    samples = sample_charfunc(ring(4), magnetization(4))
    with pytest.raises(InputError):
        invert_with_gate_error(samples, -1.0)


# ---------------------------------------------------------------------------
# gate-error estimation from the period shift
# ---------------------------------------------------------------------------


def _estimation_record(eta, n=20, h=0.1, eps=0.01, points=4096):
    model, obs = ring(n, h=h), magnetization(n)
    span = 1.3 * math.pi / (eps * min(1.0, 1.0 + eta))
    times = np.linspace(0.0, span, points)
    return simulate_probe_shots(model, obs, eps, times, None,
                                error_model=GateErrorModel(eta))


def test_estimate_gate_error_clean_signal():
    assert abs(estimate_gate_error(_estimation_record(0.0))) < 1e-6


def test_estimate_gate_error_positive():
    assert estimate_gate_error(_estimation_record(0.02)) == pytest.approx(0.02, abs=1e-3)


def test_estimate_gate_error_negative():
    assert estimate_gate_error(_estimation_record(-0.05)) == pytest.approx(-0.05, abs=2e-3)


def test_estimate_gate_error_needs_full_period():
    model, obs = ring(10, h=0.1), magnetization(10)
    times = np.linspace(0.0, 0.3 * math.pi / 0.01, 500)
    record = simulate_probe_exact(model, obs, 0.01, times)
    with pytest.raises(EstimationError):
        estimate_gate_error(record)


# ---------------------------------------------------------------------------
# gaussian comparison curve
# ---------------------------------------------------------------------------


def test_gaussian_centred_at_zero_field():
    g = gaussian_approx(ring(30))
    assert g.mean() == pytest.approx(0.0, abs=1e-12)
    assert g.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_close_to_exact_but_not_exact():
    # frozen from this package's own exact pipeline: TV = 0.02775 at N=50,
    # beta=J=1, h=0 (the quartic cumulant is sizeable, kappa4/kappa2^2 ~ -0.44)
    exact = invert_dft(sample_charfunc(ring(50), magnetization(50)))
    tv = total_variation(gaussian_approx(ring(50)), exact.cleaned())
    assert tv == pytest.approx(0.02775, abs=5e-4)
    assert tv < 0.03


def test_gaussian_misses_skew_at_finite_field():
    from kinkprobe import closed_cumulants

    model = ring(50, h=0.2)
    exact = invert_dft(sample_charfunc(model, magnetization(50))).cleaned()
    g = gaussian_approx(model)
    skew_exact = float(exact.probs @ (exact.support - exact.mean()) ** 3)
    skew_gauss = float(g.probs @ (g.support - g.mean()) ** 3)
    # the true third cumulant (-672 here, matching the closed form); the
    # discretized Gaussian keeps a small lattice/truncation remnant (-156)
    assert skew_exact == pytest.approx(closed_cumulants(model, magnetization(50)).kappa3,
                                       rel=1e-5)
    assert abs(skew_exact) > 4 * abs(skew_gauss)


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------


def test_validate_clean_analytic_distribution():
    report = validate_distribution(invert_dft(sample_charfunc(ring(16, h=0.2),
                                                              magnetization(16))))
    assert report.worst_defect() < 1e-9


def test_validate_flags_bad_normalization():
    dist = Distribution(support=np.array([0, 1]), probs=np.array([0.25, 0.25]),
                        meta=DistMeta(obs_kind="custom", n=1, method="synthetic"))
    report = validate_distribution(dist)
    assert report.norm_defect == pytest.approx(0.5)


def test_validate_shot_distribution_reports_but_does_not_raise():
    model, obs = ring(8, h=0.2), magnetization(8)
    times = default_time_grid(obs, 8, 0.01)
    record = simulate_probe_shots(model, obs, 0.01, times, shots=200, seed=5)
    dist = invert_dft(record.to_charfunc_samples())
    report = validate_distribution(dist)
    assert report.worst_defect() > 1e-9  # visible sampling noise
    assert report.worst_defect() < 0.5
    cleaned = dist.cleaned()
    assert cleaned.probs.min() >= 0.0
    assert cleaned.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_reconstructed_kink_mean_matches_exact_formula():
    for n in (10, 50, 128, 200):
        model = ring(n, j=1.0, h=0.0, beta=0.8)
        dist = invert_dft(sample_charfunc(model, kink_number(n)))
        assert dist.mean() == pytest.approx(exact_kink_mean(model), abs=1e-10)
