import cmath
import math

import numpy as np
import pytest

from kinkprobe import (InputError, charfunc_values, enumerate_oracle, loschmidt_amplitude,
                       magnetization, partition_function)
from kinkprobe.spin_model import _config_matrix, energy
from conftest import longrange, random_couplings, ring


def _z(model, a, b):
    """Z at A = a, B = b as one complex number; may overflow to inf."""
    return cmath.exp(partition_function(model, a, b))


def _transfer_eigenvalues(a, b):
    """lambda_+, lambda_- of the ring transfer matrix e^{A s s' + B (s + s') / 2}."""
    t = np.array([[cmath.exp(a + b), cmath.exp(-a)], [cmath.exp(-a), cmath.exp(a - b)]])
    lam = np.linalg.eigvals(t)
    return tuple(lam[np.argsort(-np.abs(lam))])


def test_spectrum_zero_coupling_real_field():
    a, b = 0.0, 1.3 * 0.7
    lp, lm = _transfer_eigenvalues(a, b)
    assert lp == pytest.approx(2 * math.cosh(b), rel=1e-13)
    assert abs(lm) < 1e-13
    assert _z(ring(5), a, b) == pytest.approx((2 * math.cosh(b)) ** 5, rel=1e-13)


def test_spectrum_zero_field():
    lp, lm = _transfer_eigenvalues(0.8, 0.0)
    assert lp == pytest.approx(math.exp(0.8) + math.exp(-0.8), rel=1e-13)
    assert lm == pytest.approx(math.exp(0.8) - math.exp(-0.8), rel=1e-13)
    assert _z(ring(5), 0.8, 0.0) == pytest.approx(lp ** 5 + lm ** 5, rel=1e-13)


def test_spectrum_imaginary_field_half_pi():
    # A = 1, B = i pi/2: lambda_pm = +- i sqrt(e^2 - e^-2), opposite roots, so
    # Z vanishes for odd N (a Lee-Yang zero) and is 2 s^N for N = 0 mod 4
    s = math.sqrt(math.exp(2) - math.exp(-2))
    lam = sorted(_transfer_eigenvalues(1.0, 0.5j * math.pi), key=lambda x: x.imag)
    assert lam[1] == pytest.approx(1j * s, rel=1e-12)
    assert lam[0] == pytest.approx(-1j * s, rel=1e-12)
    assert abs(_z(ring(3), 1.0, 0.5j * math.pi)) <= 1e-12 * s ** 3
    assert _z(ring(4), 1.0, 0.5j * math.pi) == pytest.approx(2 * s ** 4, rel=1e-12)


def test_partition_matches_eigenvalue_power_sum(rng):
    for _ in range(10):
        beta = float(rng.uniform(0.2, 1.5))
        a = beta * complex(rng.normal(), rng.normal())
        b = beta * complex(rng.normal(), rng.normal())
        lp, lm = _transfer_eigenvalues(a, b)
        assert _z(ring(7), a, b) == pytest.approx(lp ** 7 + lm ** 7, rel=1e-11)


def test_partition_single_site():
    assert _z(ring(1), 1.1 * 0.9, 1.1 * 0.4) == pytest.approx(
        2 * math.exp(1.1 * 0.9) * math.cosh(1.1 * 0.4), rel=1e-13)


def test_partition_n2_matches_oracle():
    assert _z(ring(2), 1.0, 0.0) == pytest.approx(2 * math.exp(2) + 2 * math.exp(-2), rel=1e-13)


def test_partition_infinite_temperature_limit():
    assert _z(ring(10), 1e-8, 1e-8).real == pytest.approx(2 ** 10, rel=1e-6)


def test_no_overflow_at_extreme_arguments():
    for n, a, b in ((100, 700.0, 700.0), (10000, -700.0, 700.0)):
        log_z = partition_function(ring(n), a, b)
        assert isinstance(log_z, complex) and cmath.isfinite(log_z)


def test_scaled_spectrum_matches_literal_closed_form_up_to_branch(rng):
    # independent route: the closed form written without any scaling; its
    # principal square root may sit on the other branch, which only swaps the
    # eigenvalue pair and leaves Z untouched
    for _ in range(30):
        a = complex(rng.normal() * 0.6, rng.normal() * 2.0)
        b = complex(rng.normal() * 0.6, rng.normal() * 2.0)
        root = np.exp(-a) * np.sqrt(1 + np.exp(4 * a) * np.sinh(b) ** 2)
        dp, dm = np.exp(a) * np.cosh(b) + root, np.exp(a) * np.cosh(b) - root
        lp, lm = _transfer_eigenvalues(a, b)
        same = abs(lp - dp) + abs(lm - dm)
        swapped = abs(lp - dm) + abs(lm - dp)
        assert min(same, swapped) < 1e-10 * max(1.0, abs(dp) + abs(dm))
        assert _z(ring(9), a, b) == pytest.approx(dp ** 9 + dm ** 9, rel=1e-10)


def test_partition_real_inputs_stay_real(rng):
    for _ in range(20):
        j, h, beta = random_couplings(rng)
        log_z = partition_function(ring(11), beta * j, beta * h)
        assert abs(log_z.imag) <= 1e-12


@pytest.mark.parametrize("make", [ring, longrange])
def test_partition_function_matches_oracle(make, rng):
    for _ in range(50):
        j, h, beta = random_couplings(rng)
        n = int(rng.integers(2, 13))
        model = make(n, j=j, h=h, beta=beta)
        log_z = enumerate_oracle(model, magnetization(n)).log_z
        z = partition_function(model, beta * j, beta * h)
        assert z.real == pytest.approx(log_z, rel=1e-10, abs=1e-10)
        assert cmath.exp(z).real > 0


@pytest.mark.parametrize("bj", [-19.0, -700.0])
def test_frustrated_odd_ring_log_z_matches_oracle(bj):
    # the odd-N bracket is folded into the log scale from log(term), which
    # carries the field; a ratio such as F would cancel an error in it
    for n in (3, 5, 11):
        for h in (0.0, 0.3, -2.0):
            log_z = enumerate_oracle(ring(n, j=bj, h=h), magnetization(n)).log_z
            z = partition_function(ring(n), bj, h)
            assert z.real == pytest.approx(log_z, rel=1e-13)


def test_longrange_partition_small_cases():
    assert _z(longrange(3), 1e-12, 0.0).real == pytest.approx(8.0, rel=1e-9)
    z3 = partition_function(longrange(3), 0.1, 0.0)
    log_oracle = enumerate_oracle(longrange(3, beta=0.1), magnetization(3)).log_z
    assert z3.real == pytest.approx(log_oracle, rel=1e-12)


def test_longrange_partition_against_highprec_sum():
    # independent route: accumulate the sector sum in extended precision
    n, j, h, beta = 50, 1.0, 0.2, 0.01
    z = partition_function(longrange(n), beta * j, beta * h)
    terms = [math.comb(n, k) * np.longdouble(math.e) ** np.longdouble(
        -2 * beta * h * k + 2 * beta * j * (k * k - n * k)) for k in range(n + 1)]
    total = np.longdouble(0)
    for term in sorted(terms):
        total += term
    log_ref = float(np.log(total)) + n * (n - 1) * beta * j / 2 + n * beta * h
    assert z.real == pytest.approx(log_ref, rel=1e-13)


def _spectral_amplitude(model, t):
    spins = _config_matrix(model.N, 0, 1 << model.N)
    e = energy(model, spins)
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


@pytest.mark.parametrize("make", [ring, longrange])
def test_loschmidt_at_infinite_temperature_matches_spectral_sum(make, rng):
    model = make(8, j=0.9, h=0.25, beta=0.0)
    for t in rng.uniform(0, 10, size=10):
        expected = _spectral_amplitude(model, float(t))
        assert loschmidt_amplitude(model, float(t)) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("n,a", [(50, 1.0), (51, 1.0), (200, 0.5)])
def test_ring_magnetization_vanishes_at_lee_yang_zeros(n, a):
    # at h = 0 the ring Z(A, i theta) vanishes where
    # cos theta_k = e^{-A} sqrt(2 sinh 2A) cos(pi (2k + 1) / (2N)), k = 0..N-1
    ks = np.arange(n)
    thetas = np.arccos(math.exp(-a) * math.sqrt(2 * math.sinh(2 * a))
                       * np.cos(np.pi * (2 * ks + 1) / (2 * n)))
    model = ring(n, j=a)
    log_z0 = partition_function(model, a, 0.0)
    f = charfunc_values(model, magnetization(n), thetas)
    for theta, f_k in zip(thetas, f):
        diff = partition_function(model, a, 1j * float(theta)) - log_z0
        assert diff.real <= math.log(1e-12)
        assert cmath.exp(diff) == pytest.approx(f_k, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [ring, longrange])
@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_loschmidt_refuses_a_time_that_is_not_finite(make, t):
    # the ring warned; the long-range model returned nan+nanj
    with pytest.raises(InputError, match="t must be finite"):
        loschmidt_amplitude(make(4, beta=0.5), t)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [ring, longrange])
@pytest.mark.parametrize("a, b", [(math.inf, 0.0), (0.5, math.nan), (0.5, 1e308j),
                                  (complex(0.5, 1e307), 0.0)],
                         ids=["inf-a", "nan-b", "overflowing-b", "overflowing-a"])
def test_partition_function_refuses_couplings_that_leave_the_float_range(make, a, b):
    with pytest.raises(InputError, match="leaves the float range at N = 4"):
        partition_function(make(4), a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [ring, longrange])
def test_loschmidt_refuses_a_time_whose_couplings_leave_the_float_range(make):
    with pytest.raises(InputError, match="leaves the float range at N = 4"):
        loschmidt_amplitude(make(4, beta=0.5), 1e307)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [ring, longrange])
def test_loschmidt_takes_a_large_finite_time(make):
    assert abs(loschmidt_amplitude(make(4, beta=0.5), 1e300)) <= 1.0 + 1e-12
