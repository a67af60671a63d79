import math

import numpy as np
import pytest

from kinkprobe import (CharFunctionSamples, CumulantFlavor, DeformationError,
                       InputError, Provenance, build_theta_grid, charfunc,
                       charfunc_of_distribution, charfunc_values,
                       closed_cumulants, cumulant_context, custom_observable,
                       deform_params, enumerate_oracle, exact_kink_mean,
                       joint_counts, kink_number, magnetization,
                       numerical_cumulants, sample_charfunc)
from conftest import longrange, random_couplings, ring


# ---------------------------------------------------------------------------
# parameter deformation
# ---------------------------------------------------------------------------


def test_deform_identity_at_zero_theta():
    model = ring(6, j=1.2, h=0.4, beta=0.9)
    for obs in (magnetization(6), kink_number(6)):
        p = deform_params(model, obs, 0.0)
        assert p.Jt == model.J and p.ht == model.h and p.is_real


def test_deform_magnetization_complex_field():
    p = deform_params(ring(10, h=0.2, beta=1.0), magnetization(10), math.pi)
    assert p.ht == pytest.approx(0.2 + 1j * math.pi)
    assert p.Jt == 1.0


def test_deform_kinks_complex_coupling():
    p = deform_params(ring(10, j=1.0, beta=0.1), kink_number(10), math.pi)
    assert p.Jt == pytest.approx(1.0 - 5j * math.pi)
    assert p.ht == 0.0


def test_deform_rejects_custom_and_longrange_kinks():
    with pytest.raises(DeformationError):
        deform_params(ring(4), custom_observable(0.0, 1.0, [(1, 2)]), 0.3)
    with pytest.raises(DeformationError):
        deform_params(longrange(4), kink_number(4), 0.3)


# ---------------------------------------------------------------------------
# characteristic functions against the enumeration oracle
# ---------------------------------------------------------------------------


def _oracle_charfunc(model, obs, thetas):
    dist = enumerate_oracle(model, obs).dist
    return charfunc_of_distribution(dist, thetas)


def test_charfunc_is_one_at_zero():
    assert charfunc(ring(8, h=0.3), magnetization(8), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert charfunc(longrange(8, h=0.3), magnetization(8), 0.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n,expected", [(4, 1.0), (3, -1.0)])
def test_charfunc_magnetization_parity_at_pi(n, expected):
    model = ring(n, h=0.2, beta=0.8)
    assert charfunc(model, magnetization(n), math.pi) == pytest.approx(expected, abs=1e-11)
    assert _oracle_charfunc(model, magnetization(n), [math.pi])[0] == pytest.approx(
        expected, abs=1e-11)


def test_charfunc_ring_kinks_n2_two_level():
    model = ring(2)
    z = 2 * math.exp(2) + 2 * math.exp(-2)
    p0, p2 = 2 * math.exp(2) / z, 2 * math.exp(-2) / z
    for theta in (0.3, 1.1, 2.9):
        expected = p0 + p2 * np.exp(2j * theta)
        assert charfunc(model, kink_number(2), theta) == pytest.approx(expected, abs=1e-12)
    assert p0 == pytest.approx(0.9820, abs=5e-5)
    assert p2 == pytest.approx(0.01799, abs=5e-6)


@pytest.mark.parametrize("make,obs_builder", [
    (ring, magnetization), (ring, kink_number),
    (longrange, magnetization), (longrange, kink_number),
])
def test_charfunc_matches_oracle_all_routes(make, obs_builder, rng):
    for _ in range(6):
        j, h, beta = random_couplings(rng)
        n = int(rng.integers(2, 11))
        model = make(n, j=j, h=h, beta=beta)
        obs = obs_builder(n)
        thetas = build_theta_grid(obs, n)
        np.testing.assert_allclose(charfunc_values(model, obs, thetas),
                                   _oracle_charfunc(model, obs, thetas), atol=1e-10)


def test_charfunc_periodicity_and_hermitian_symmetry(rng):
    model = ring(9, j=0.8, h=0.35, beta=1.1)
    obs = magnetization(9)
    thetas = rng.uniform(0, 2 * math.pi, size=16)
    f = charfunc_values(model, obs, thetas)
    np.testing.assert_allclose(charfunc_values(model, obs, thetas + 2 * math.pi), f, atol=1e-10)
    np.testing.assert_allclose(charfunc_values(model, obs, 2 * math.pi - thetas),
                               np.conj(f), atol=1e-10)
    assert np.abs(f).max() <= 1 + 1e-9


def test_ring_kink_charfunc_is_one_at_pi():
    # only even kink numbers occur on the ring
    for n in (6, 7, 12):
        assert charfunc(ring(n, beta=0.4), kink_number(n), math.pi) == pytest.approx(
            1.0, abs=1e-9)


def test_longrange_magnetization_matches_deformed_partition(rng):
    from kinkprobe import partition_longrange

    n = 9
    j, h, beta = 0.4, 0.25, 0.7
    model = longrange(n, j=j, h=h, beta=beta)
    for theta in rng.uniform(0, 2 * math.pi, size=8):
        num = partition_longrange(n, j, h + 1j * theta / beta, beta)
        den = partition_longrange(n, j, h, beta)
        assert charfunc(model, magnetization(n), float(theta)) == pytest.approx(
            num.ratio(den), abs=1e-12)


def _longrange_mag_reference(n, g, m):
    """F(2 pi j / M) in long double, every phase reduced in integers first."""
    two_pi = 2 * np.arccos(np.longdouble(-1))
    turn = np.arange(m, dtype=np.longdouble) * two_pi / m
    cos, sin = np.cos(turn), np.sin(turn)
    p = g.astype(np.longdouble)
    p /= p.sum()
    k = np.arange(n + 1)
    out = np.empty(m, dtype=complex)
    for j in range(m):
        r = ((n - 2 * k) * j) % m
        out[j] = complex(float(cos[r] @ p), float(sin[r] @ p))
    return out


@pytest.mark.parametrize("m", [2001, 1500, 2048])
def test_longrange_magnetization_grid_route_accuracy_at_n1000(m):
    from kinkprobe.charfunc import _longrange_g, _longrange_mag_dense

    n = 1000
    model = longrange(n, j=1.0, h=0.3, beta=0.5 / n)
    logg = _longrange_g(model)
    g = np.exp(logg - logg.max())
    thetas = 2 * np.pi * np.arange(m) / m
    f = charfunc_values(model, magnetization(n), thetas)
    assert np.abs(f - _longrange_mag_reference(n, g, m)).max() <= 1e-13
    # the direct sum rounds phases up to 2 N theta: good to about 4 pi N eps = 3e-12
    dense = _longrange_mag_dense(n, g, thetas) / g.sum()
    assert np.abs(f - dense).max() <= 5e-12


def test_longrange_probe_phases_take_the_grid_route():
    from kinkprobe.probe import GateErrorModel, default_time_grid, simulate_probe_shots

    n, eps, eta = 300, 0.01, 0.02
    model, obs = longrange(n, j=1.0, h=0.3, beta=0.5 / n), magnetization(n)
    times = default_time_grid(obs, n, eps, eta=eta)
    record = simulate_probe_shots(model, obs, eps, times, None, error_model=GateErrorModel(eta))
    f = charfunc_values(model, obs, build_theta_grid(obs, n))
    assert np.array_equal(record.sx, f.real) and np.array_equal(record.sy, f.imag)


def test_charfunc_rejects_custom():
    with pytest.raises(DeformationError):
        charfunc(ring(4), custom_observable(0.0, 1.0, [(1, 2)]), 0.5)


# ---------------------------------------------------------------------------
# joint (m, k) counts
# ---------------------------------------------------------------------------


def _oracle_joint_counts(n):
    from kinkprobe.spin_model import _batch_observable, _config_matrix

    spins = _config_matrix(n, 0, 1 << n)
    m = _batch_observable(spins, magnetization(n)).astype(int)
    k = _batch_observable(spins, kink_number(n)).astype(int)
    q = np.zeros((2 * n + 1, n + 1), dtype=object)
    for mi, ki in zip(m, k):
        q[mi + n, ki] += 1
    return q


@pytest.mark.parametrize("method", ["dft", "exact"])
def test_joint_counts_match_enumeration(method):
    for n in (2, 3, 4, 7, 10):
        q = joint_counts(n, method=method)
        assert (q == _oracle_joint_counts(n)).all()


def test_joint_counts_basics():
    q = joint_counts(12)
    n = 12
    assert q.sum() == 2 ** n
    assert q[2 * n, 0] == 1 and q[0, 0] == 1  # the two saturated configurations
    # enumeration gives 4 configurations with m=0 and two domain walls on the 4-ring
    assert joint_counts(4)[4, 2] == 4


def test_joint_counts_dft_and_exact_agree_midsize():
    for n in (14, 16):
        assert (joint_counts(n, method="dft") == joint_counts(n, method="exact")).all()


def test_joint_counts_large_n_exact_route():
    q = joint_counts(40)  # beyond the float64 DFT validity range
    assert q.sum() == 2 ** 40
    assert q[80, 0] == 1


def test_longrange_kink_charfunc_matches_oracle_at_n20():
    model = longrange(20, j=0.6, h=0.4, beta=0.05)
    obs = kink_number(20)
    thetas = np.array([0.0, 0.45, 1.8, 3.3, 5.2])
    expected = _oracle_charfunc(model, obs, thetas)
    np.testing.assert_allclose(charfunc_values(model, obs, thetas), expected, atol=1e-10)


# ---------------------------------------------------------------------------
# closed cumulants
# ---------------------------------------------------------------------------


def test_cumulant_context_invariants(rng):
    for _ in range(10):
        j, h, beta = random_couplings(rng, cap=2.0)
        ctx = cumulant_context(ring(5, j=j, h=h, beta=beta))
        assert ctx.u >= 1.0
    ctx0 = cumulant_context(ring(5, j=0.9, h=0.0, beta=1.2))
    assert ctx0.u == pytest.approx(1.0)
    assert ctx0.v == pytest.approx(1 - 3 * math.exp(4 * 1.2 * 0.9), rel=1e-13)
    assert ctx0.w == pytest.approx(1.0)


def test_closed_magnetization_zero_field():
    cs = closed_cumulants(ring(50), magnetization(50))
    assert cs.kappa1 == 0.0 and cs.kappa3 == 0.0
    assert cs.kappa2 == pytest.approx(50 * math.exp(2), rel=1e-13)
    assert cs.flavor is CumulantFlavor.CLOSED_LARGE_N


def test_closed_kink_mean_zero_field():
    cs = closed_cumulants(ring(50), kink_number(50))
    assert cs.kappa1 == pytest.approx(50 / (1 + math.exp(2)), rel=1e-13)
    assert cs.kappa1 == pytest.approx(5.960, abs=2e-4)
    # and the zero-field variance reduces to N e^{2bJ} / (1 + e^{2bJ})^2
    assert cs.kappa2 == pytest.approx(50 * math.exp(2) / (1 + math.exp(2)) ** 2, rel=1e-12)


def test_closed_cumulants_match_oracle_within_truncation(rng):
    # the closed forms keep only lambda_plus^N; compare at the documented tolerance
    n = 12
    for obs_builder in (magnetization, kink_number):
        model = ring(n, j=0.6, h=0.25, beta=1.0)
        ctx = cumulant_context(model)
        trunc = abs(ctx.lambda_minus / ctx.lambda_plus) ** n
        tol = max(1e-9, 3 * trunc * n)
        dist = enumerate_oracle(model, obs_builder(n)).dist
        mu = dist.mean()
        var = dist.variance()
        cs = closed_cumulants(model, obs_builder(n))
        assert cs.kappa1 == pytest.approx(mu, rel=tol)
        assert cs.kappa2 == pytest.approx(var, rel=tol)


@pytest.mark.parametrize("n,h,beta", [(50, 0.3, 1.0), (80, 0.15, 0.8), (60, -0.2, 0.9)])
def test_closed_kink_cumulants_match_exact_pipeline(n, h, beta):
    # at these couplings the subdominant-eigenvalue truncation is below 1e-12,
    # so the closed forms must agree with the exact reconstruction to 1e-9
    from kinkprobe import invert_dft, sample_charfunc

    model = ring(n, j=1.0, h=h, beta=beta)
    dist = invert_dft(sample_charfunc(model, kink_number(n)))
    third = float(dist.probs @ (dist.support - dist.mean()) ** 3)
    cs = closed_cumulants(model, kink_number(n))
    assert dist.mean() == pytest.approx(cs.kappa1, rel=1e-9)
    assert dist.variance() == pytest.approx(cs.kappa2, rel=1e-9)
    assert third == pytest.approx(cs.kappa3, rel=1e-9)


def test_closed_cumulants_longrange_magnetization_exact(rng):
    for _ in range(5):
        j, h, beta = random_couplings(rng, cap=1.5)
        model = longrange(10, j=j, h=h, beta=beta)
        dist = enumerate_oracle(model, magnetization(10)).dist
        cs = closed_cumulants(model, magnetization(10))
        mu3 = float(dist.probs @ (dist.support - dist.mean()) ** 3)
        assert cs.flavor is CumulantFlavor.EXACT_SMALL_FORMULA
        assert cs.kappa1 == pytest.approx(dist.mean(), rel=1e-10, abs=1e-10)
        assert cs.kappa2 == pytest.approx(dist.variance(), rel=1e-10, abs=1e-10)
        assert cs.kappa3 == pytest.approx(mu3, rel=1e-9, abs=1e-9)


def test_closed_cumulants_longrange_kinks_unsupported():
    with pytest.raises(InputError, match="numerical_cumulants"):
        closed_cumulants(longrange(8), kink_number(8))


def test_exact_kink_mean_matches_oracle():
    for n, bj in ((4, 0.7), (8, 1.0), (10, 2.5), (9, -0.8)):
        model = ring(n, j=bj, h=0.0, beta=1.0)
        oracle_mean = enumerate_oracle(model, kink_number(n)).dist.mean()
        assert exact_kink_mean(model) == pytest.approx(oracle_mean, rel=1e-12)
        es = closed_cumulants(model, kink_number(n), flavor=CumulantFlavor.EXACT_SMALL_FORMULA)
        assert es.kappa1 == pytest.approx(oracle_mean, rel=1e-12)
        assert math.isnan(es.kappa2)


def test_exact_kink_mean_requires_zero_field():
    with pytest.raises(InputError):
        exact_kink_mean(ring(8, h=0.1))


def test_closed_cumulants_scale_linearly_in_n():
    for obs_builder in (magnetization, kink_number):
        a = closed_cumulants(ring(30, j=0.8, h=0.3, beta=0.9), obs_builder(30))
        b = closed_cumulants(ring(60, j=0.8, h=0.3, beta=0.9), obs_builder(60))
        for name in ("kappa1", "kappa2", "kappa3"):
            assert getattr(b, name) / getattr(a, name) == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# numerical cumulants
# ---------------------------------------------------------------------------


def test_numerical_cumulants_point_mass():
    obs = magnetization(4)
    thetas = build_theta_grid(obs, 4)
    samples = CharFunctionSamples(theta=thetas, values=np.exp(2j * thetas),
                                  provenance=Provenance.ANALYTIC,
                                  observable=obs, model=ring(4))
    cs = numerical_cumulants(samples)
    assert cs.kappa1 == pytest.approx(2.0, abs=1e-12)
    assert cs.kappa2 == pytest.approx(0.0, abs=1e-12)
    assert cs.kappa3 == pytest.approx(0.0, abs=1e-11)


def test_numerical_cumulants_match_oracle_mean():
    model = ring(12, j=1.0, h=0.3, beta=1.0)
    cs = numerical_cumulants(sample_charfunc(model, magnetization(12)))
    oracle = enumerate_oracle(model, magnetization(12)).dist
    assert cs.kappa1 == pytest.approx(oracle.mean(), abs=1e-9)
    assert cs.flavor is CumulantFlavor.NUMERICAL_FROM_F


def test_numerical_cumulants_match_closed_forms_large_n():
    model = ring(50, j=1.0, h=0.2, beta=1.0)
    cs = numerical_cumulants(sample_charfunc(model, magnetization(50)))
    closed = closed_cumulants(model, magnetization(50))
    assert cs.kappa1 == pytest.approx(closed.kappa1, rel=1e-6)
    assert cs.kappa2 == pytest.approx(closed.kappa2, rel=1e-6)
    assert cs.kappa3 == pytest.approx(closed.kappa3, rel=1e-6)


def test_numerical_cumulants_rejects_unnormalized():
    obs = magnetization(3)
    thetas = build_theta_grid(obs, 3)
    samples = CharFunctionSamples(theta=thetas, values=0.5 * np.exp(1j * thetas),
                                  provenance=Provenance.PROBE_SHOTS,
                                  observable=obs, model=ring(3))
    with pytest.raises(InputError):
        numerical_cumulants(samples)


def test_analytic_samples_must_be_normalized():
    obs = magnetization(3)
    thetas = build_theta_grid(obs, 3)
    with pytest.raises(InputError):
        CharFunctionSamples(theta=thetas, values=0.5 * np.ones_like(thetas, dtype=complex),
                            provenance=Provenance.ANALYTIC)
