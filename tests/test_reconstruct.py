import math

import numpy as np
import pytest

from kinkprobe import (Distribution, EstimationError, GridMismatchError, InputError,
                       build_theta_grid, estimate_gate_error, exact_kink_mean,
                       gaussian_approx, invert_dft, kink_number, magnetization,
                       simulate_probe_shots, total_variation, validate_distribution)
from kinkprobe.probe import default_time_grid
from conftest import exact_record, record_of, ring


def test_grid_sizes():
    assert build_theta_grid(magnetization(50)).size == 101
    assert build_theta_grid(kink_number(50)).size == 51
    assert build_theta_grid(magnetization(1)).size == 3
    assert build_theta_grid(magnetization(5), points=44).size == 44
    with pytest.raises(InputError):
        build_theta_grid(magnetization(5), points=10)
    with pytest.raises(TypeError):  # the size once passed second would be taken as M
        build_theta_grid(magnetization(5), 44)
    with pytest.raises(TypeError):
        default_time_grid(magnetization(5), 5, 0.01)


def test_invert_constant_f_gives_point_mass_at_zero():
    obs = magnetization(6)
    thetas = build_theta_grid(obs)
    dist = invert_dft(record_of(thetas, np.ones(thetas.size), obs))
    assert dist.prob_of(0) == pytest.approx(1.0, abs=1e-12)
    assert abs(dist.probs).sum() == pytest.approx(1.0, abs=1e-12)


def test_invert_ring_n2_magnetization():
    dist = invert_dft(exact_record(ring(2), magnetization(2)))
    z = 2 * math.exp(2) + 2 * math.exp(-2)
    assert dist.prob_of(2) == pytest.approx(math.exp(2) / z, abs=1e-12)
    assert dist.prob_of(0) == pytest.approx(2 * math.exp(-2) / z, abs=1e-12)
    assert dist.prob_of(-2) == pytest.approx(math.exp(2) / z, abs=1e-12)


def test_invert_n50_symmetric_bell_with_parity_zeros():
    dist = invert_dft(exact_record(ring(50), magnetization(50)))
    probs = dist.probs
    support = dist.support
    np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)  # h=0 symmetry
    odd = support % 2 != 0
    assert np.array_equal(dist.forbidden, odd)  # M has the parity of N = 50
    assert np.abs(probs[odd]).sum() < 1e-9
    even = support[~odd]
    assert probs[~odd][np.argmax(probs[~odd])] == probs.max()
    assert abs(even[np.argmax(probs[~odd])]) <= 2  # peak at the centre


def test_oversampled_grid_inversion_is_identical():
    model, obs = ring(10, h=0.25), magnetization(10)
    a = invert_dft(exact_record(model, obs))
    b = invert_dft(exact_record(model, obs, points=64))
    np.testing.assert_allclose(b.probs, a.probs, atol=1e-12)


def test_invert_requires_standard_grid():
    obs = magnetization(4)
    thetas = build_theta_grid(obs) + 0.01
    with pytest.raises(GridMismatchError):
        invert_dft(record_of(thetas, np.ones(9), obs))


def test_invert_refuses_underresolved_grid():
    obs = magnetization(4)
    thetas = 2 * np.pi * np.arange(5) / 5
    with pytest.raises(GridMismatchError):
        invert_dft(record_of(thetas, np.ones(5), obs))


def test_invert_reads_the_observable_off_the_samples():
    obs = magnetization(4)
    bare = record_of(build_theta_grid(obs), np.ones(9))
    with pytest.raises(InputError, match="no observable"):
        invert_dft(bare)
    with pytest.raises(TypeError):
        invert_dft(bare, obs, 4)
    with pytest.raises(TypeError):
        invert_dft(bare, obs=obs)


# ---------------------------------------------------------------------------
# gate-error-aware inversion
# ---------------------------------------------------------------------------


def _records_for_eta(model, obs, eps, eta, points=None):
    """(naive-grid distorted record, pre-warped record) at gate error eta."""
    naive_times = default_time_grid(obs, eps, points=points)
    warped_times = default_time_grid(obs, eps, eta=eta, points=points)
    naive = simulate_probe_shots(model, obs, eps, naive_times, None, eta=eta)
    warped = simulate_probe_shots(model, obs, eps, warped_times, None, eta=eta)
    return naive, warped


def test_gate_error_zero_is_bit_identical():
    model, obs = ring(12, h=0.15), magnetization(12)
    record = exact_record(model, obs)
    a = invert_dft(record)
    b = invert_dft(record, eta=0.0)
    assert np.array_equal(a.probs, b.probs)
    assert a.method == b.method == "dft/probe-exact"


@pytest.mark.parametrize("shots, source", [(None, "probe-exact"), (1000, "probe-shots")])
@pytest.mark.parametrize("eta, method", [(0.0, "dft"), (0.02, "dft-eta-corrected")])
def test_inversion_label_names_the_record(shots, source, eta, method):
    # the label comes from the record: exact or shots, plain or pre-warped grid
    model, obs = ring(8, h=0.2), magnetization(8)
    times = default_time_grid(obs, 0.01, eta=eta)
    record = simulate_probe_shots(model, obs, 0.01, times, shots, eta=eta, seed=3)
    assert invert_dft(record, eta=eta).method == f"{method}/{source}"


@pytest.mark.parametrize("eta", [-0.1, -0.02, 0.02, 0.1])
def test_corrected_inversion_recovers_truth(eta):
    model, obs = ring(20, h=0.1), magnetization(20)
    truth = invert_dft(exact_record(model, obs))
    _, warped = _records_for_eta(model, obs, 0.01, eta)
    corrected = invert_dft(warped, eta=eta)
    np.testing.assert_allclose(corrected.probs, truth.probs, atol=1e-10)
    assert corrected.method == "dft-eta-corrected/probe-exact"


def test_naive_inversion_of_distorted_signal_is_wrong():
    model, obs = ring(20, h=0.1), magnetization(20)
    truth = invert_dft(exact_record(model, obs))
    naive, _ = _records_for_eta(model, obs, 0.01, 0.02)
    wrong = invert_dft(naive)
    assert total_variation(wrong.cleaned(), truth.cleaned()) > 0.01


def test_invert_with_gate_error_rejects_eta_below_minus_one():
    record = exact_record(ring(4), magnetization(4))
    with pytest.raises(InputError):
        invert_dft(record, eta=-1.0)


# ---------------------------------------------------------------------------
# gate-error estimation from the period shift
# ---------------------------------------------------------------------------


def _estimation_record(eta, n=20, h=0.1, eps=0.01, points=4096):
    model, obs = ring(n, h=h), magnetization(n)
    span = 1.3 * math.pi / (eps * min(1.0, 1.0 + eta))
    times = np.linspace(0.0, span, points)
    return simulate_probe_shots(model, obs, eps, times, None, eta=eta)


def test_estimate_gate_error_clean_signal():
    assert abs(estimate_gate_error(_estimation_record(0.0))) < 1e-6


def test_estimate_gate_error_positive():
    assert estimate_gate_error(_estimation_record(0.02)) == pytest.approx(0.02, abs=1e-3)


def test_estimate_gate_error_negative():
    assert estimate_gate_error(_estimation_record(-0.05)) == pytest.approx(-0.05, abs=2e-3)


def test_estimate_gate_error_needs_full_period():
    model, obs = ring(10, h=0.1), magnetization(10)
    times = np.linspace(0.0, 0.3 * math.pi / 0.01, 500)
    record = simulate_probe_shots(model, obs, 0.01, times, None)
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
    exact = invert_dft(exact_record(ring(50), magnetization(50)))
    tv = total_variation(gaussian_approx(ring(50)), exact.cleaned())
    assert tv == pytest.approx(0.02775, abs=5e-4)
    assert tv < 0.03


def test_gaussian_misses_skew_at_finite_field():
    from kinkprobe import closed_cumulants

    model = ring(50, h=0.2)
    exact = invert_dft(exact_record(model, magnetization(50))).cleaned()
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
    report = validate_distribution(invert_dft(exact_record(ring(16, h=0.2),
                                                              magnetization(16))))
    assert report.worst_defect() < 1e-9


def test_validate_flags_bad_normalization():
    dist = Distribution(support=np.array([0, 1]), probs=np.array([0.25, 0.25]),
                        method="synthetic")
    report = validate_distribution(dist)
    assert report.norm_defect == pytest.approx(0.5)


def test_validate_sums_the_mass_on_the_forbidden_mask():
    dist = Distribution(support=np.arange(3), probs=np.array([0.5, -0.125, 0.625]),
                        forbidden=np.array([False, True, False]))
    assert validate_distribution(dist).parity_violation_mass == 0.125
    with pytest.raises(InputError, match="shape of the support"):
        Distribution(support=np.arange(3), probs=np.ones(3) / 3, forbidden=[True, False])


def test_validate_shot_distribution_reports_but_does_not_raise():
    model, obs = ring(8, h=0.2), magnetization(8)
    times = default_time_grid(obs, 0.01)
    record = simulate_probe_shots(model, obs, 0.01, times, shots=200, seed=5)
    dist = invert_dft(record)
    report = validate_distribution(dist)
    assert report.worst_defect() > 1e-9  # visible sampling noise
    assert report.worst_defect() < 0.5
    cleaned = dist.cleaned()
    assert cleaned.probs.min() >= 0.0
    assert cleaned.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_reconstructed_kink_mean_matches_exact_formula():
    for n in (10, 50, 128, 200):
        model = ring(n, j=1.0, h=0.0, beta=0.8)
        dist = invert_dft(exact_record(model, kink_number(n)))
        assert dist.mean() == pytest.approx(exact_kink_mean(model), abs=1e-10)
