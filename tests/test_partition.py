import cmath
import math

import numpy as np
import pytest

from kinkprobe import (ComplexParams, enumerate_oracle, loschmidt_amplitude,
                       magnetization, partition_longrange, partition_nn,
                       transfer_spectrum)
from kinkprobe.spin_model import _batch_energy, _config_matrix
from conftest import longrange, random_couplings, ring


def test_spectrum_zero_coupling_real_field():
    spec = transfer_spectrum(ComplexParams(Jt=0.0, ht=0.7, beta=1.3, N=5))
    lam = spec.lambda_plus * math.exp(spec.log_scale)
    assert lam == pytest.approx(2 * math.cosh(1.3 * 0.7), rel=1e-13)
    assert abs(spec.lambda_minus) < 1e-13


def test_spectrum_zero_field():
    spec = transfer_spectrum(ComplexParams(Jt=0.8, ht=0.0, beta=1.0, N=5))
    scale = math.exp(spec.log_scale)
    assert spec.lambda_plus * scale == pytest.approx(math.exp(0.8) + math.exp(-0.8), rel=1e-13)
    assert spec.lambda_minus * scale == pytest.approx(math.exp(0.8) - math.exp(-0.8), rel=1e-13)


def test_spectrum_imaginary_field_half_pi():
    # beta=1, Jt=1, ht = i pi/2: lambda_pm = +- i sqrt(e^2 - e^-2), opposite roots
    spec = transfer_spectrum(ComplexParams(Jt=1.0, ht=0.5j * math.pi, beta=1.0, N=3))
    scale = math.exp(spec.log_scale)
    expected = 1j * math.sqrt(math.exp(2) - math.exp(-2))
    assert spec.lambda_plus * scale == pytest.approx(expected, rel=1e-12)
    assert spec.lambda_minus * scale == pytest.approx(-expected, rel=1e-12)


def test_partition_matches_eigenvalue_power_sum(rng):
    for _ in range(10):
        p = ComplexParams(Jt=complex(rng.normal(), rng.normal()),
                          ht=complex(rng.normal(), rng.normal()),
                          beta=float(rng.uniform(0.2, 1.5)), N=7)
        spec = transfer_spectrum(p)
        direct = (spec.lambda_plus ** p.N + spec.lambda_minus ** p.N) * math.exp(p.N * spec.log_scale)
        z = partition_nn(p)
        assert z.to_complex() == pytest.approx(direct, rel=1e-11)


def test_partition_single_site():
    p = ComplexParams(Jt=0.9, ht=0.4, beta=1.1, N=1)
    assert partition_nn(p).to_complex() == pytest.approx(
        2 * math.exp(1.1 * 0.9) * math.cosh(1.1 * 0.4), rel=1e-13)


def test_partition_n2_matches_oracle():
    z = partition_nn(ComplexParams(Jt=1.0, ht=0.0, beta=1.0, N=2)).to_complex()
    assert z == pytest.approx(2 * math.exp(2) + 2 * math.exp(-2), rel=1e-13)


def test_partition_infinite_temperature_limit():
    z = partition_nn(ComplexParams(Jt=1.0, ht=1.0, beta=1e-8, N=10)).to_complex()
    assert z.real == pytest.approx(2 ** 10, rel=1e-6)


def test_no_overflow_at_extreme_arguments():
    spec = transfer_spectrum(ComplexParams(Jt=700.0, ht=700.0, beta=1.0, N=100))
    assert np.isfinite(spec.log_scale)
    assert abs(spec.lambda_plus) <= 1e300 and abs(spec.lambda_minus) <= 1e300
    z = partition_nn(ComplexParams(Jt=-700.0, ht=700.0, beta=1.0, N=10000))
    assert np.isfinite(z.log_scale) and np.isfinite(abs(z.value))


def test_scaled_spectrum_matches_literal_closed_form_up_to_branch(rng):
    # independent route: the closed form written without any scaling; its
    # principal square root may sit on the other branch, which only swaps the
    # eigenvalue pair and leaves Z untouched
    for _ in range(30):
        a = complex(rng.normal() * 0.6, rng.normal() * 2.0)
        b = complex(rng.normal() * 0.6, rng.normal() * 2.0)
        p = ComplexParams(Jt=a, ht=b, beta=1.0, N=9)
        spec = transfer_spectrum(p)
        scale = cmath.exp(spec.log_scale)
        lp, lm = spec.lambda_plus * scale, spec.lambda_minus * scale
        root = np.exp(-a) * np.sqrt(1 + np.exp(4 * a) * np.sinh(b) ** 2)
        dp, dm = np.exp(a) * np.cosh(b) + root, np.exp(a) * np.cosh(b) - root
        same = abs(lp - dp) + abs(lm - dm)
        swapped = abs(lp - dm) + abs(lm - dp)
        assert min(same, swapped) < 1e-10 * max(1.0, abs(dp) + abs(dm))
        z_direct = dp ** p.N + dm ** p.N
        assert partition_nn(p).to_complex() == pytest.approx(z_direct, rel=1e-10)


def test_partition_real_inputs_stay_real(rng):
    for _ in range(20):
        j, h, beta = random_couplings(rng)
        z = partition_nn(ComplexParams(Jt=j, ht=h, beta=beta, N=11))
        assert abs(z.value.imag) <= 1e-12 * abs(z.value.real)


def test_partition_nn_matches_oracle_random(rng):
    for _ in range(50):
        j, h, beta = random_couplings(rng)
        n = int(rng.integers(2, 13))
        model = ring(n, j=j, h=h, beta=beta)
        log_z = enumerate_oracle(model, magnetization(n)).log_z
        z = partition_nn(ComplexParams(Jt=j, ht=h, beta=beta, N=n))
        assert z.log_abs() == pytest.approx(log_z, rel=1e-10, abs=1e-10)
        assert z.value.real > 0


@pytest.mark.parametrize("bj", [-19.0, -700.0])
def test_frustrated_odd_ring_log_z_matches_oracle(bj):
    # the odd-N bracket is folded into the log scale from log(term), which
    # carries the field; a ratio such as F would cancel an error in it
    for n in (3, 5, 11):
        for h in (0.0, 0.3, -2.0):
            log_z = enumerate_oracle(ring(n, j=bj, h=h), magnetization(n)).log_z
            z = partition_nn(ComplexParams(Jt=bj, ht=h, beta=1.0, N=n))
            assert z.log_abs() == pytest.approx(log_z, rel=1e-13)


def test_partition_longrange_matches_oracle(rng):
    for _ in range(50):
        j, h, beta = random_couplings(rng)
        n = int(rng.integers(2, 13))
        model = longrange(n, j=j, h=h, beta=beta)
        log_z = enumerate_oracle(model, magnetization(n)).log_z
        z = partition_longrange(n, j, h, beta)
        assert z.log_abs() == pytest.approx(log_z, rel=1e-10, abs=1e-10)


def test_partition_longrange_small_cases():
    assert partition_longrange(3, 1.0, 0.0, 1e-12).to_complex().real == pytest.approx(8.0, rel=1e-9)
    z3 = partition_longrange(3, 1.0, 0.0, 0.1)
    log_oracle = enumerate_oracle(longrange(3, beta=0.1), magnetization(3)).log_z
    assert z3.log_abs() == pytest.approx(log_oracle, rel=1e-12)


def test_partition_longrange_against_highprec_sum():
    # independent route: accumulate the sector sum in extended precision
    n, j, h, beta = 50, 1.0, 0.2, 0.01
    z = partition_longrange(n, j, h, beta)
    terms = [math.comb(n, k) * np.longdouble(math.e) ** np.longdouble(
        -2 * beta * h * k + 2 * beta * j * (k * k - n * k)) for k in range(n + 1)]
    total = np.longdouble(0)
    for term in sorted(terms):
        total += term
    log_ref = float(np.log(total)) + n * (n - 1) * beta * j / 2 + n * beta * h
    assert np.isfinite(z.log_scale)
    assert z.log_abs() == pytest.approx(log_ref, rel=1e-13)


def _spectral_amplitude(model, t):
    spins = _config_matrix(model.N, 0, 1 << model.N)
    e = _batch_energy(model, spins)
    w = np.exp(-model.beta * (e - e.min()))
    return complex((w * np.exp(-1j * t * e)).sum() / w.sum())


def test_loschmidt_identity_and_bound(rng):
    model = ring(9, j=0.7, h=0.3, beta=0.8)
    assert loschmidt_amplitude(model, 0.0) == pytest.approx(1.0, abs=1e-13)
    for t in rng.uniform(-20, 20, size=50):
        assert abs(loschmidt_amplitude(model, float(t))) <= 1.0 + 1e-12


def test_loschmidt_n2_closed_values():
    model = ring(2)
    # two energy levels +-2: amplitude = cos(2t) + i tanh(2) sin(2t)
    assert loschmidt_amplitude(model, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)
    assert loschmidt_amplitude(model, math.pi / 4) == pytest.approx(
        1j * math.tanh(2.0), abs=1e-12)


@pytest.mark.parametrize("make", [ring, longrange])
def test_loschmidt_matches_spectral_sum(make, rng):
    model = make(8, j=0.9, h=0.25, beta=0.7)
    for t in rng.uniform(0, 10, size=10):
        expected = _spectral_amplitude(model, float(t))
        assert loschmidt_amplitude(model, float(t)) == pytest.approx(expected, abs=1e-11)
