import math

import numpy as np
import pytest

from kinkprobe import (Distribution, EstimationError, GridMismatchError, InputError,
                       build_theta_grid, closed_cumulants, estimate_gate_error,
                       exact_kink_mean, gate_error_times, invert_dft, kink_number,
                       magnetization, simulate_probe_shots, total_variation,
                       validate_distribution)
from kinkprobe.probe import default_time_grid
from conftest import exact_record, longrange, record_of, ring


def test_grid_sizes():
    assert build_theta_grid(magnetization(50)).size == 101
    assert build_theta_grid(kink_number(50)).size == 51
    assert build_theta_grid(magnetization(1)).size == 3
    assert build_theta_grid(magnetization(5), points=44).size == 44
    assert default_time_grid(magnetization(5), 0.01, points=np.int64(44)).size == 44
    with pytest.raises(InputError):
        build_theta_grid(magnetization(5), points=10)
    with pytest.raises(TypeError):  # the size once passed second would be taken as M
        build_theta_grid(magnetization(5), 44)
    with pytest.raises(TypeError):
        default_time_grid(magnetization(5), 5, 0.01)


@pytest.mark.parametrize("points", [12.9, 9.99, 12.0, "12", True])
def test_grid_refuses_a_point_count_that_is_not_an_integer(points):
    # a count is never rounded or parsed: 12.9 is not 12, nor "12"
    obs = magnetization(5)
    with pytest.raises(InputError, match="points must be an integer"):
        build_theta_grid(obs, points=points)
    with pytest.raises(InputError, match="points must be an integer"):
        default_time_grid(obs, 0.01, points=points)


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
    # NaN would pass a plain grid check and label an exact record as corrected
    record = exact_record(ring(4), magnetization(4))
    for eta, message in ((-1.0, "eta must exceed -1"), (math.nan, "eta must be finite"),
                         (math.inf, "eta must be finite")):
        with pytest.raises(InputError, match=message):
            invert_dft(record, eta=eta)


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


@pytest.mark.parametrize("eta", [-0.05, -0.02, 0.0, 0.02, 0.05])
@pytest.mark.parametrize("make", [ring, longrange], ids=["ring", "longrange"])
def test_windowed_estimator_record_gives_the_full_records_estimate(make, eta):
    # gate_error_times keeps the full record's grid points from the last one
    # below the window start on, so the estimate keeps its bits
    model, obs, eps = make(20, h=0.1), magnetization(20), 0.01
    full = np.linspace(0.0, 1.3 * math.pi / (eps * min(1.0, 1.0 + eta)), 4096)
    times = gate_error_times(eps, eta)
    assert np.array_equal(times, full[full.size - times.size:])
    assert times[0] < 0.72 * (math.pi / eps) <= times[1]
    assert estimate_gate_error(simulate_probe_shots(model, obs, eps, times, None, eta=eta)) == (
        estimate_gate_error(simulate_probe_shots(model, obs, eps, full, None, eta=eta)))


def test_windowed_estimator_record_keeps_a_fraction_of_the_grid():
    assert gate_error_times(0.01, 0.02).size == 1828


def test_estimate_gate_error_refuses_a_record_that_misses_the_window():
    model, obs, eps = ring(20, h=0.1), magnetization(20), 0.01
    times = 0.5 * gate_error_times(eps, 0.02)  # all of it below 0.72 pi / eps
    record = simulate_probe_shots(model, obs, eps, times, None, eta=0.02)
    with pytest.raises(EstimationError, match="window"):
        estimate_gate_error(record)


@pytest.mark.parametrize("eps, eta", [(0.0, 0.0), (math.nan, 0.0), (0.01, -1.0),
                                      (0.01, math.inf)])
def test_gate_error_times_refuse_a_bad_gate(eps, eta):
    with pytest.raises(InputError):
        gate_error_times(eps, eta)


@pytest.mark.parametrize("eps, eta, message", [
    (1e-310, 0.0, "epsilon = 1e-310 is too small: the acquisition times overflow"),
    (1e-300, -1.0 + 1e-15, "is too small"),  # the record spans pi / (eps (1 + eta))
    (1e308, 0.0, "is too large: the phases overflow"),  # 2 eps = inf: all times theta / inf = 0
    (5e307, 1.0, "is too large"),    # the gates' rate 2 eps (1 + eta) overflows
    (0.01, 1e308, "is too large"),   # the phase rate is finite, the largest phase is not
], ids=["eps-subnormal", "eta-near-minus-one", "eps-rate", "gate-rate", "eta-largest-phase"])
def test_gate_check_refuses_times_and_phases_that_overflow(eps, eta, message):
    with pytest.raises(InputError, match=message):
        gate_error_times(eps, eta)
    with pytest.raises(InputError, match=message):
        default_time_grid(magnetization(3), eps, eta=eta)


def test_gate_check_keeps_the_edges_of_the_envelope():
    # the largest phase of the estimator record stays finite near either edge
    assert np.isfinite(gate_error_times(1e-300, 0.0)).all()
    assert np.isfinite(2.0 * 1e307 * gate_error_times(1e307, 0.0)).all()
    assert np.isfinite(default_time_grid(magnetization(3), 1e307, eta=1.0)).all()


# ---------------------------------------------------------------------------
# the skew of a reconstruction
# ---------------------------------------------------------------------------


def test_reconstructed_kappa3_matches_the_closed_form_at_finite_field():
    # the third cumulant of the exact ring magnetization is -672 here
    model = ring(50, h=0.2)
    exact = invert_dft(exact_record(model, magnetization(50))).cleaned()
    skew_exact = float(exact.probs @ (exact.support - exact.mean()) ** 3)
    assert skew_exact == pytest.approx(closed_cumulants(model, magnetization(50)).kappa3,
                                       rel=1e-5)


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


def test_cleaned_zeroes_the_forbidden_values_then_clips_and_renormalizes():
    model, obs = ring(8, h=0.2), magnetization(8)
    raw = invert_dft(simulate_probe_shots(model, obs, 0.01, default_time_grid(obs, 0.01),
                                          shots=200, seed=5))
    assert np.abs(raw.probs[raw.forbidden]).max() > 1e-3  # shot noise on the wrong parity
    cleaned = raw.cleaned()
    assert np.all(cleaned.probs[raw.forbidden] == 0.0)
    assert cleaned.probs.sum() == pytest.approx(1.0, abs=1e-12)
    allowed = np.clip(raw.probs[~raw.forbidden], 0.0, None)
    assert np.array_equal(cleaned.probs[~raw.forbidden], allowed / allowed.sum())
    assert validate_distribution(raw).parity_violation_mass > 1e-3  # reported on the raw


def test_parity_aware_cleaning_beats_the_parity_blind_clip_at_fig2c():
    # fig2c at 1000 shots, seeds 1..40: the mean TV to the exact law falls
    # below the clip that ignores the forbidden values by more than three
    # standard errors of the 40 paired differences
    model, obs, eps = ring(50, h=0.2), magnetization(50), 0.01
    truth = invert_dft(exact_record(model, obs)).cleaned()
    times = default_time_grid(obs, eps)
    gain = []
    for seed in range(1, 41):
        raw = invert_dft(simulate_probe_shots(model, obs, eps, times, shots=1000, seed=seed))
        blind = np.clip(raw.probs, 0.0, None)
        blind = Distribution(support=raw.support, probs=blind / blind.sum())
        gain.append(total_variation(blind, truth) - total_variation(raw.cleaned(), truth))
    gain = np.array(gain)
    assert gain.mean() > 3.0 * gain.std(ddof=1) / math.sqrt(gain.size)


def test_reconstructed_kink_mean_matches_exact_formula():
    for n in (10, 50, 128, 200):
        model = ring(n, j=1.0, h=0.0, beta=0.8)
        dist = invert_dft(exact_record(model, kink_number(n)))
        assert dist.mean() == pytest.approx(exact_kink_mean(model), abs=1e-10)


@pytest.mark.parametrize("make, fragment", [
    (lambda: Distribution(support=np.arange(3), probs=np.ones(2)), "1-d arrays of equal length"),
    (lambda: Distribution(support=np.zeros((2, 2)), probs=np.ones((2, 2))),
     "1-d arrays of equal length"),
    (lambda: Distribution(support=np.array([0, 2, 1]), probs=np.ones(3) / 3),
     "strictly increasing"),
    (lambda: Distribution(support=np.arange(3), probs=np.array([-0.5, 0.0, -0.5])).cleaned(),
     "no positive mass"),
], ids=["unequal", "2-d", "not-increasing", "no-mass"])
def test_distribution_refusals(make, fragment):
    with pytest.raises(InputError, match=fragment):
        make()


def test_prob_of_outside_the_support_is_zero():
    dist = Distribution(support=np.array([-1, 1]), probs=np.array([0.5, 0.5]))
    assert [dist.prob_of(x) for x in (-3, 0, 2)] == [0.0, 0.0, 0.0]


def _flat(points, span):
    """A record at eps = 1/2 (full period 2 pi) reading -1 up to its last point."""
    values = -np.ones(points)
    values[-1] = 1.0
    return record_of(np.linspace(0.0, span, points), values)


@pytest.mark.parametrize("record, fragment", [
    (record_of(np.linspace(0.0, 3.0, 4), np.ones(4)), "too short"),
    (record_of(np.linspace(0.0, 3 * math.pi, 64), -np.ones(64)), "no coherence recurrence"),
    (_flat(64, 2 * math.pi), "on the record edge"),
], ids=["four-points", "no-recurrence", "edge"])
def test_gate_error_estimate_refusals(record, fragment):
    with pytest.raises(EstimationError, match=fragment):
        estimate_gate_error(record)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distribution_refuses_an_empty_support():
    # built, it made validate_distribution and total_variation raise numpy errors
    # and distribution_cumulants return kappa = (0, 0, 0)
    with pytest.raises(InputError, match="at least one support value"):
        Distribution(support=[], probs=[])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_one_point_distribution_is_validated():
    dist = Distribution(support=[3], probs=[1.0])
    assert validate_distribution(dist).worst_defect() == 0.0
    assert total_variation(dist, dist) == 0.0
