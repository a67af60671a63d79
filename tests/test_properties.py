"""Property tests over the documented envelope.

Random distributions on random integer supports, any phase grid M at or
above the support width, and couplings with |beta J|, |beta h| <= 700.
Examples are derandomized so the suite is reproducible.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinkprobe import (CharFunctionSamples, Distribution, DistMeta, Provenance,
                       charfunc_values, charfunc_of_distribution,
                       custom_observable, invert_dft, magnetization)
from conftest import longrange, ring

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
    dist = Distribution(support=support, probs=p,
                        meta=DistMeta(obs_kind="custom", n=width - 1, method="synthetic"))
    thetas = _grid(width + extra)
    samples = CharFunctionSamples(theta=thetas, values=charfunc_of_distribution(dist, thetas),
                                  provenance=Provenance.ANALYTIC, observable=obs)
    back = invert_dft(samples)
    assert np.array_equal(back.support, support)
    np.testing.assert_allclose(back.probs, p, rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 400), m=st.integers(1, 1000), c=couplings)
def test_longrange_magnetization_on_the_grid_is_bounded_and_hermitian(n, m, c):
    bj, bh, beta = c
    f = charfunc_values(longrange(n, j=bj / beta, h=bh / beta, beta=beta),
                        magnetization(n), _grid(m))
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.xfail(strict=True, reason="frustrated odd ring: 1 + (lambda_-/lambda_+)^N "
                   "cancels to 0 below beta J of about -18.5, so F is 0/0")
def test_zero_field_frustrated_odd_ring_charfunc_is_real():
    f = charfunc_values(ring(3, j=-19.0, h=0.0, beta=1.0), magnetization(3), _grid(7))
    np.testing.assert_allclose(f.imag, 0.0, rtol=0, atol=1e-12)
