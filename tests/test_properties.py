"""Property tests over the documented envelope.

Random distributions on random integer supports, any phase grid M at or
above the support width, and couplings with |beta J|, |beta h| <= 700.
Examples are derandomized so the suite is reproducible.  One sweep walks a
fixed grid over the whole envelope, N up to 1e4, with warnings as errors.
"""

import itertools
import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinkprobe import (Distribution, InputError, ModelKind, ModelParams, charfunc_values,
                       closed_cumulants, custom_observable, default_time_grid, invert_dft,
                       kink_number, magnetization, simulate_probe_shots, validate_distribution)
from conftest import longrange, record_of, ring
from oracles import charfunc_of_distribution

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

couplings = st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0),
                      st.floats(1e-3, 2.0))


def _grid(m):
    return 2.0 * np.pi * np.arange(m) / m


@PROPERTY
@given(lo=st.integers(-50, 50), width=st.integers(1, 120), extra=st.integers(0, 60),
       data=st.data())
def test_round_trip_on_any_grid_at_or_above_the_width(lo, width, extra, data):
    raw = data.draw(arrays(float, width, elements=st.floats(0.0, 1.0)))
    assume(raw.sum() > 0.0)
    p = raw / raw.sum()
    # X = a + 0.5 * (sum of width - 1 spins) takes every integer in [lo, lo + width - 1]
    obs = custom_observable(lo + (width - 1) / 2.0, 0.5, [(i,) for i in range(1, width)])
    support = np.arange(lo, lo + width)
    dist = Distribution(support=support, probs=p, method="synthetic")
    thetas = _grid(width + extra)
    back = invert_dft(record_of(thetas, charfunc_of_distribution(dist, thetas), obs))
    assert np.array_equal(back.support, support)
    np.testing.assert_allclose(back.probs, p, rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 400), m=st.integers(1, 1000), c=couplings, kinks=st.booleans())
def test_longrange_magnetization_on_the_grid_is_bounded_and_hermitian(n, m, c, kinks):
    bj, bh, beta = c
    model = longrange(n, j=bj / beta, h=bh / beta, beta=beta)
    obs = kink_number(n) if kinks else magnetization(n)
    assert charfunc_values(model, obs, _grid(0)).shape == (0,)
    f = charfunc_values(model, obs, _grid(m))
    assert np.abs(f).max() <= 1.0 + 1e-9
    assert abs(f[0] - 1.0) <= 1e-12
    # theta_{M-j} = 2 pi - theta_j, so F there is the conjugate of F(theta_j)
    np.testing.assert_allclose(f[1:][::-1], np.conj(f[1:]), rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 400), m=st.integers(1, 1000), c=couplings, data=st.data())
def test_zero_field_longrange_magnetization_charfunc_is_real(n, m, c, data):
    bj, _, beta = c
    # the grid takes the FFT route, shifted phases the direct sum
    thetas = data.draw(st.sampled_from([_grid(m), _grid(m) + 0.5 / m]))
    f = charfunc_values(longrange(n, j=bj / beta, h=0.0, beta=beta), magnetization(n), thetas)
    np.testing.assert_allclose(f.imag, 0.0, rtol=0, atol=1e-12)


def _zero_field_kink_charfunc(n, bj, thetas):
    """Ring kink F at h = 0 from the bonds alone.

    At h = 0 the bond products are independent apart from their product
    being 1, so P(K) is C(N, K) e^{-2 beta J K} on even K, normalized.
    """
    k = np.arange(0, n + 1, 2)
    logw = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                     for i in k]) - 2.0 * bj * k
    w = np.exp(logw - logw.max())
    return np.exp(1j * np.outer(thetas, k)) @ (w / w.sum())


@PROPERTY
@given(n=st.integers(1, 400), m=st.integers(1, 1000), c=couplings, kinks=st.booleans())
@example(n=3, m=7, c=(-19.0, 0.0, 1.0), kinks=False)
@example(n=3, m=7, c=(-700.0, 0.0, 1.0), kinks=True)
@example(n=399, m=799, c=(-700.0, 0.0, 0.5), kinks=False)
@example(n=400, m=401, c=(-700.0, 0.0, 0.5), kinks=True)
def test_zero_field_ring_charfunc(n, m, c, kinks):
    bj, _, beta = c
    model = ring(n, j=bj / beta, h=0.0, beta=beta)
    thetas = _grid(m)
    tol = 1e-14 * n  # the deformed phases, up to N theta / 2, carry about N ulps
    if kinks:
        f = charfunc_values(model, kink_number(n), thetas)
        np.testing.assert_allclose(f, _zero_field_kink_charfunc(n, bj, thetas),
                                   rtol=0, atol=tol)
    else:
        # spin flip maps M to -M, so F is real
        f = charfunc_values(model, magnetization(n), thetas)
        assert f[0] == 1.0
        np.testing.assert_allclose(f.imag, 0.0, rtol=0, atol=tol)


def test_zero_field_frustrated_odd_ring_charfunc_is_real():
    f = charfunc_values(ring(3, j=-19.0, h=0.0, beta=1.0), magnetization(3), _grid(7))
    np.testing.assert_allclose(f.imag, 0.0, rtol=0, atol=1e-12)


SWEEP_BJ = (-700.0, -50.0, -1.0, -1e-3, 0.0, 1e-300, 1e-4, 1.0, 50.0, 700.0)
SWEEP_BH = (-700.0, -1.0, 0.0, 1.0, 700.0)
SWEEP_CORNERS = {-700.0, 0.0, 700.0}


def _sweep_points():
    """(model, obs, shot settings) over both models and observables and the coupling grid."""
    for kind, make_obs, n, bj, bh in itertools.product(
            ModelKind, (magnetization, kink_number), (2, 3, 51, 1000), SWEEP_BJ, SWEEP_BH):
        # shots at N <= 51; the long-range shots read F off the Metropolis chain's
        # law, built in O(100 N^2), so they take the coupling corners only
        sampled = n <= 51 and (kind is ModelKind.RING or {bj, bh} <= SWEEP_CORNERS)
        yield ModelParams(kind=kind, N=n, J=bj, h=bh, beta=1.0), make_obs(n), \
            (None, 20) if sampled else (None,)
    for make_obs, (bj, bh) in itertools.product(
            (magnetization, kink_number), ((700.0, 0.0), (-700.0, 700.0), (1.0, -1.0))):
        yield ModelParams(kind=ModelKind.RING, N=10_000, J=bj, h=bh, beta=1.0), \
            make_obs(10_000), (None,)


def test_envelope_sweep_validates_or_refuses_cleanly():
    # each run gives a validated distribution (a shot run: its normalization),
    # and each point closed cumulants or an InputError naming the kappa beyond
    # the float range; any warning fails the point
    bad, closed_refused = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, obs, shot_settings in _sweep_points():
            label = (model.kind.value, obs.kind.value, model.N, model.J, model.h)
            times = default_time_grid(obs, 0.5)
            for shots in shot_settings:
                try:
                    report = validate_distribution(invert_dft(
                        simulate_probe_shots(model, obs, 0.5, times, shots, seed=1)))
                    defect = report.worst_defect() if shots is None else report.norm_defect
                    if not defect <= 1e-9:
                        bad.append((label, shots, defect))
                except InputError as exc:
                    bad.append((label, shots, str(exc)))
            try:
                cs = closed_cumulants(model, obs)
            except InputError as exc:
                if "kappa2 exceeds the float range" not in str(exc):
                    bad.append((label, str(exc)))
                closed_refused.append(label)
            else:
                if not all(map(math.isfinite, (cs.kappa1, cs.kappa2, cs.kappa3))):
                    bad.append((label, cs))
    assert not bad
    # the ordered ring's magnetization variance, N e^{2 beta J}, is the only overflow
    assert {label[:2] + label[3:] for label in closed_refused} == {
        ("ring", "magnetization", 700.0, 0.0)}
