import cmath
import decimal
import math
import sys
import warnings

import numpy as np
import pytest

from kinkprobe import (CumulantFlavor, InputError, build_theta_grid, charfunc_values,
                       closed_cumulants, custom_observable, distribution_cumulants,
                       enumerate_oracle, exact_kink_mean, invert_dft, kink_number,
                       magnetization, partition_function, validate_distribution)
from kinkprobe.probe import RingGibbsSampler
from conftest import exact_record, longrange, random_couplings, record_of, ring
from oracles import charfunc_of_distribution, joint_counts, ring_charfunc_two_calls


# ---------------------------------------------------------------------------
# characteristic functions against the enumeration oracle
# ---------------------------------------------------------------------------


def _oracle_charfunc(model, obs, thetas):
    dist = enumerate_oracle(model, obs).dist
    return charfunc_of_distribution(dist, thetas)


def test_charfunc_is_one_at_zero():
    for model in (ring(8, h=0.3), longrange(8, h=0.3)):
        assert charfunc_values(model, magnetization(8), [0.0])[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n,expected", [(4, 1.0), (3, -1.0)])
def test_charfunc_magnetization_parity_at_pi(n, expected):
    model = ring(n, h=0.2, beta=0.8)
    assert charfunc_values(model, magnetization(n), [math.pi])[0] == pytest.approx(
        expected, abs=1e-11)
    assert _oracle_charfunc(model, magnetization(n), [math.pi])[0] == pytest.approx(
        expected, abs=1e-11)


def test_charfunc_ring_kinks_n2_two_level():
    model = ring(2)
    z = 2 * math.exp(2) + 2 * math.exp(-2)
    p0, p2 = 2 * math.exp(2) / z, 2 * math.exp(-2) / z
    for theta in (0.3, 1.1, 2.9):
        expected = p0 + p2 * np.exp(2j * theta)
        assert charfunc_values(model, kink_number(2), [theta])[0] == pytest.approx(
            expected, abs=1e-12)
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
        thetas = build_theta_grid(obs)
        np.testing.assert_allclose(charfunc_values(model, obs, thetas),
                                   _oracle_charfunc(model, obs, thetas), atol=1e-10)


@pytest.mark.parametrize("bj", [-19.0, -300.0, -700.0])
@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_frustrated_ring_matches_oracle(bj, make_obs):
    # for odd N, lambda_-/lambda_+ rounds to -1 here, and 1 + (lambda_-/lambda_+)^N
    # must not cancel; the log scales reach N |beta J| ~ 8e3, hence ~1e-12
    for n in range(1, 13):
        for h in (0.0, 0.3):
            model, obs = ring(n, j=bj, h=h, beta=1.0), make_obs(n)
            grid = build_theta_grid(obs)
            thetas = np.concatenate([grid, grid + 0.5 * grid[1]])
            np.testing.assert_allclose(charfunc_values(model, obs, thetas),
                                       _oracle_charfunc(model, obs, thetas),
                                       rtol=0, atol=1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [3, 51])
@pytest.mark.parametrize("bh", [700.0, -700.0])
def test_frustrated_odd_ring_kinks_at_the_envelope_edge_raise_no_warning(n, bh):
    # at beta J = -700 and |beta h| = 700 the bracket 1 + r^N is tiny at some
    # phases; the form that would overflow there must not even be evaluated
    model, obs = ring(n, j=-700.0, h=bh, beta=1.0), kink_number(n)
    grid = build_theta_grid(obs)
    f = charfunc_values(model, obs, np.concatenate([grid, grid + 0.5 * grid[1]]))
    assert f[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(f).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [7, 8, 50, 51])
@pytest.mark.parametrize("bj", [0.1, 0.5, 1.0, 3.0])
def test_ring_magnetization_charfunc_vanishes_at_the_lee_yang_zeros(n, bj):
    # at h = 0 the deformed eigenvalues are complex conjugates with
    # |lambda|^2 = 2 sinh 2 beta J, so Z = 2 |lambda|^N cos(N arg lambda_+) vanishes at
    # cos theta_k = sqrt(1 - e^{-4 beta J}) cos((2k + 1) pi / (2N)) (Lee and Yang 1952;
    # read off the probe coherence by Peng et al., PRL 114, 010601, 2015); there
    # |F| = |Z(theta)| / Z(0) can only sit at the rounding floor of |lambda|^N / Z(0)
    k = np.arange(n)
    thetas = np.arccos(math.sqrt(-math.expm1(-4.0 * bj)) * np.cos((2 * k + 1) * np.pi / (2 * n)))
    log_z0 = n * (bj + math.log1p(math.exp(-2.0 * bj))) + math.log1p(math.tanh(bj) ** n)
    log_env = 0.5 * n * (2.0 * bj + math.log(-math.expm1(-4.0 * bj))) - log_z0
    f = charfunc_values(ring(n, j=bj, h=0.0, beta=1.0), magnetization(n), thetas)
    assert np.abs(f).max() <= 100 * n * np.finfo(float).eps * math.exp(log_env)


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
        assert charfunc_values(ring(n, beta=0.4), kink_number(n), [math.pi])[0] == pytest.approx(
            1.0, abs=1e-9)


def _complex_field(a, b, theta, n):
    return a, b + 1j * theta, 0.0


def _complex_coupling(a, b, theta, n):
    return a - 0.5j * theta, b, 0.5 * theta * n  # K = N/2 - (bond sum)/2


@pytest.mark.parametrize("make,obs,deform", [
    (longrange, magnetization, _complex_field),
    (ring, magnetization, _complex_field),
    (ring, kink_number, _complex_coupling),
], ids=["longrange-magnetization", "ring-magnetization", "ring-kinks"])
def test_charfunc_matches_deformed_partition(make, obs, deform, rng):
    # F(theta) = e^{i phase} Z(A', B') / Z(A, B), the deformed couplings from deform
    n = 9
    j, h, beta = 0.4, 0.25, 0.7
    model = make(n, j=j, h=h, beta=beta)
    a, b = beta * j, beta * h
    log_z = partition_function(model, a, b)
    for theta in rng.uniform(0, 2 * math.pi, size=8):
        a_t, b_t, phase = deform(a, b, theta, n)
        expected = cmath.exp(1j * phase + partition_function(model, a_t, b_t) - log_z)
        assert charfunc_values(model, obs(n), [float(theta)])[0] == pytest.approx(
            expected, abs=1e-12)


def _longrange_mag_reference(n, g, m, js=None):
    """F(2 pi j / M) for j in ``js`` (default all) in long double, phases reduced in integers."""
    js = range(m) if js is None else js
    two_pi = 2 * np.arccos(np.longdouble(-1))
    turn = np.arange(m, dtype=np.longdouble) * two_pi / m
    cos, sin = np.cos(turn), np.sin(turn)
    p = g.astype(np.longdouble)
    p /= p.sum()
    k = np.arange(n + 1)
    out = np.empty(len(js), dtype=complex)
    for i, j in enumerate(js):
        r = ((n - 2 * k) * j) % m
        out[i] = complex(float(cos[r] @ p), float(sin[r] @ p))
    return out


def _decimal_longrange_logs(n, bj, bh):
    """log C(N, k) - beta E over the down-count k, in the current decimal precision.

    log C(N, k) = log N! - log k! - log (N - k)!, the log-factorials summed
    as ln 1 + ... + ln k (exact integer binomials cost seconds at N = 1e4).
    """
    a, b = decimal.Decimal(bj), decimal.Decimal(bh)
    lf = [decimal.Decimal(0)]
    for k in range(1, n + 1):
        lf.append(lf[-1] + decimal.Decimal(k).ln())
    return [lf[n] - lf[k] - lf[n - k] + a * ((n - 2 * k) ** 2 - n) / 2 + b * (n - 2 * k)
            for k in range(n + 1)]


def _decimal_longrange_weights(n, bj, bh):
    """Sector weights C(N, k) e^{-beta E} over the down-count k, from 40-digit decimals.

    Normalized to the largest weight, then rounded once to float.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        logs = _decimal_longrange_logs(n, bj, bh)
        top = max(logs)
        return np.array([float((x - top).exp()) for x in logs])


@pytest.mark.parametrize("bj, bh", [(-1.0, 0.0), (-1.0, -300.0)])
def test_longrange_magnetization_matches_a_decimal_reference_at_n1000(bj, bh):
    # the sector exponents reach |beta J| N^2 / 2 = 5e5 here, so they must be
    # formed relative to the heaviest sector (M = 0, then M = -300) for 1e-12
    n, m = 1000, 2001
    thetas = 2 * np.pi * np.arange(m) / m
    f = charfunc_values(longrange(n, j=bj, h=bh, beta=1.0), magnetization(n), thetas)
    ref = _longrange_mag_reference(n, _decimal_longrange_weights(n, bj, bh), m)
    assert np.abs(f - ref).max() <= 1e-12


@pytest.mark.parametrize("n, bj, bh", [(4000, 1.25e-4, 1.25e-4), (10000, 2e-4, 0.0)])
def test_longrange_magnetization_matches_a_decimal_reference_at_large_n(n, bj, bh):
    # log C(N, k) from log-factorials of magnitude log N! ~ 8e4 carried up to
    # 4e-10 of rounding into the sector weights: on these points F was off by
    # 1.5e-12 at lr-m-4000 (the first case) and by 5.6e-12 at N = 1e4
    m = 2 * n + 1
    js = np.r_[0:76, m // 2 - 38:m // 2 + 38, m - 76:m]  # j near 0, M/2 and M - 1
    f = charfunc_values(longrange(n, j=bj, h=bh, beta=1.0), magnetization(n),
                        2 * np.pi * np.arange(m) / m)
    ref = _longrange_mag_reference(n, _decimal_longrange_weights(n, bj, bh), m, js)
    assert np.abs(f[js] - ref).max() <= 1e-12


@pytest.mark.parametrize("m", [2001, 1500, 2048])
def test_longrange_magnetization_grid_route_accuracy_at_n1000(m, monkeypatch):
    from kinkprobe.partition import _longrange_log_g

    from kinkprobe import charfunc as cf

    n = 1000
    model = longrange(n, j=1.0, h=0.3, beta=0.5 / n)
    logg, _ = _longrange_log_g(n, model.beta * model.J, model.beta * model.h)
    g = np.exp(logg - logg.max())
    thetas = 2 * np.pi * np.arange(m) / m
    f = charfunc_values(model, magnetization(n), thetas)
    assert np.abs(f - _longrange_mag_reference(n, g, m)).max() <= 1e-13
    # the direct sum rounds phases up to 2 N theta: good to about 4 pi N eps = 3e-12
    monkeypatch.setattr(cf, "_GRID_ROUTE_TOL", -1.0)  # every phase takes the direct sum
    dense = cf._sector_charfunc(n - 2 * np.arange(n + 1), logg, thetas)
    assert np.abs(f - dense).max() <= 5e-12


def test_longrange_probe_phases_take_the_grid_route():
    from kinkprobe.probe import default_time_grid, simulate_probe_shots

    n, eps, eta = 300, 0.01, 0.02
    model, obs = longrange(n, j=1.0, h=0.3, beta=0.5 / n), magnetization(n)
    times = default_time_grid(obs, eps, eta=eta)
    record = simulate_probe_shots(model, obs, eps, times, None, eta=eta)
    f = charfunc_values(model, obs, build_theta_grid(obs))
    assert np.array_equal(record.sx, f.real) and np.array_equal(record.sy, f.imag)


# (N, J, h, beta): ordinary couplings, infinite temperature, and the frustrated
# odd ring at the envelope edge; each on its minimal grid and oversampled by one
# point, so both parities of M occur for both observables
MIRROR_CASES = [(9, 0.8, 0.35, 1.1), (12, 0.7, -0.4, 0.0), (51, -700.0, 700.0, 1.0),
                (51, -700.0, -700.0, 1.0)]


def _grids(obs):
    minimal = build_theta_grid(obs)
    return minimal, build_theta_grid(obs, points=minimal.size + 1)


@pytest.mark.parametrize("n, j, h, beta", MIRROR_CASES)
@pytest.mark.parametrize("make", [ring, longrange], ids=["ring", "longrange"])
@pytest.mark.parametrize("obs_builder", [magnetization, kink_number])
def test_standard_grid_charfunc_is_its_own_mirror_bitwise(obs_builder, make, n, j, h, beta):
    # X is an integer with real weights, so F(2 pi - theta) = conj F(theta): on
    # the grid F_{M-j} is the conjugate of F_j to the bit, and F(pi) is real
    obs = obs_builder(n)
    for thetas in _grids(obs):
        f = charfunc_values(make(n, j=j, h=h, beta=beta), obs, thetas)
        pairs = (thetas.size - 1) // 2  # j = 1..pairs meets M - j; an even M leaves pi
        assert _bits(f[:-pairs - 1:-1]) == _bits(np.conj(f[1:pairs + 1]))
        if thetas.size % 2 == 0:
            assert f[thetas.size // 2].imag == 0.0


@pytest.mark.parametrize("n, j, h, beta", MIRROR_CASES)
@pytest.mark.parametrize("obs_builder", [magnetization, kink_number])
def test_ring_half_grid_is_the_route_at_those_phases(obs_builder, n, j, h, beta):
    from kinkprobe import charfunc as cf

    model, obs = ring(n, j=j, h=h, beta=beta), obs_builder(n)
    for thetas in _grids(obs):
        half = thetas.size // 2 + 1
        f = charfunc_values(model, obs, thetas)[:half]
        direct = cf._ring_charfunc(model, obs, thetas[:half])
        if thetas.size % 2 == 0:  # at theta = pi only the real part is kept
            assert _bits(f[-1].real) == _bits(direct[-1].real)
            f, direct = f[:-1], direct[:-1]
        assert _bits(f) == _bits(direct)


# (J, h, beta): ordinary couplings, infinite temperature and the four corners
# |beta J| = |beta h| = 700 of the envelope
TWO_CALL_COUPLINGS = [(0.8, 0.35, 1.1), (0.7, -0.4, 0.0), (700.0, 700.0, 1.0),
                      (700.0, -700.0, 1.0), (-700.0, 700.0, 1.0), (-700.0, -700.0, 1.0)]


@pytest.mark.parametrize("n, j, h, beta",
                         [(n, *c) for n in (2, 3, 20, 51, 1000) for c in TWO_CALL_COUPLINGS]
                         + [(11, -20.0, 0.0, 1.0), (11, -20.0, 0.3, 1.0)])
@pytest.mark.parametrize("obs_builder", [magnetization, kink_number])
def test_ring_charfunc_is_the_two_call_ratio_bitwise(obs_builder, n, j, h, beta):
    # Z(physical) leads the deformed array of the one transfer-matrix call; F
    # keeps the bits of the ratio of two calls, on and off the standard grid
    model, obs = ring(n, j=j, h=h, beta=beta), obs_builder(n)
    on_grid = _grids(obs)
    off_grid = (on_grid[0] * 1.02, np.linspace(0.05, 7.0, 37), np.array([0.0, np.pi, 1e-9]))
    for thetas in on_grid + off_grid:
        assert _bits(charfunc_values(model, obs, thetas)) == _bits(
            ring_charfunc_two_calls(model, obs, thetas))


@pytest.mark.parametrize("n, j, h, beta", [(9, 0.8, 0.35, 1.1), (12, 0.7, -0.4, 0.0),
                                           (11, -700.0, 700.0, 1.0), (10, 0.3, 0.05, 2.0)])
@pytest.mark.parametrize("make", [ring, longrange], ids=["ring", "longrange"])
@pytest.mark.parametrize("obs_builder", [magnetization, kink_number])
def test_standard_grid_charfunc_matches_oracle(obs_builder, make, n, j, h, beta):
    model, obs = make(n, j=j, h=h, beta=beta), obs_builder(n)
    for thetas in _grids(obs):
        f = charfunc_values(model, obs, thetas)
        assert np.abs(f - _oracle_charfunc(model, obs, thetas)).max() <= 1e-12


def test_ring_kink_charfunc_matches_the_bond_sector_law_at_n10000():
    # the ring-k-10000 benchmark job: at h = 0, K is even and weighs C(N, K)
    # e^{-2 beta J K}; its F with phases (j K mod M) reduced in integers is the
    # reference, at every grid point
    from kinkprobe.partition import _log_binomials

    n, bj = 10000, 0.5
    obs = kink_number(n)
    thetas = build_theta_grid(obs)
    m = thetas.size
    f = charfunc_values(ring(n, j=1.0, h=0.0, beta=bj), obs, thetas)
    k = np.arange(0, n + 1, 2)
    logw = _log_binomials(n)[k] - 2.0 * bj * k
    w = np.exp(logw - logw.max())
    w /= w.sum()
    turn = np.exp(2j * np.pi * np.arange(m) / m)
    k, w = k[w > 1e-300], w[w > 1e-300]  # the lighter sectors add nothing a double holds
    ref = np.array([turn[(jj * k) % m] @ w for jj in range(m)])
    assert np.abs(f - ref).max() <= 2.5e-12


def test_charfunc_rejects_custom():
    with pytest.raises(InputError, match="no analytic route"):
        charfunc_values(ring(4), custom_observable(0.0, 1.0, [(1, 2)]), [0.5])


@pytest.mark.parametrize("model", [ring(4), longrange(4)])
@pytest.mark.parametrize("obs", [magnetization(6), kink_number(6), magnetization(3)])
def test_charfunc_rejects_observable_of_another_size(model, obs):
    # a 4-spin F labelled as a 6-spin observable would invert to a wrong P
    with pytest.raises(InputError, match="N=4"):
        charfunc_values(model, obs, [0.0, 0.5])


# ---------------------------------------------------------------------------
# joint (m, k) counts
# ---------------------------------------------------------------------------


def _oracle_joint_counts(n):
    from kinkprobe.spin_model import _config_matrix

    spins = _config_matrix(n, 0, 1 << n)
    m = spins.sum(axis=1, dtype=np.int64)
    k = (spins != np.roll(spins, -1, axis=1)).sum(axis=1)  # ring bonds, wrap included
    cells = np.bincount((m + n) * (n + 1) + k, minlength=(2 * n + 1) * (n + 1))
    return cells.reshape(2 * n + 1, n + 1)


def test_joint_counts_match_enumeration():
    for n in (2, 3, 4, 7, 10, 14, 16):
        assert (joint_counts(n) == _oracle_joint_counts(n)).all()


def test_joint_counts_basics():
    q = joint_counts(12)
    n = 12
    assert q.sum() == 2 ** n
    assert q[2 * n, 0] == 1 and q[0, 0] == 1  # the two saturated configurations
    # enumeration gives 4 configurations with m=0 and two domain walls on the 4-ring
    assert joint_counts(4)[4, 2] == 4


def test_joint_counts_large_n_exact_route():
    for n in (40, 200):  # 2^N configurations: far beyond enumeration
        q = joint_counts(n)
        assert q.sum() == 2 ** n
        assert q[2 * n, 0] == 1 and q[0, 0] == 1


@pytest.mark.parametrize("n", [20, 64, 200])
def test_longrange_kink_rows_match_exact_joint_counts(n):
    from kinkprobe.charfunc import _longrange_kink_log_rows
    from kinkprobe.partition import _longrange_log_g

    q = joint_counts(n)
    for j, h, beta in [(1.0, 0.0, 0.5 / n), (-0.7, 0.2, 0.9), (0.6, 0.4, 0.05)]:
        rows = _longrange_kink_log_rows(n, _longrange_log_g(n, beta * j, beta * h)[0])
        # row r: log sum_m Q[m + N, 2r] e^{-beta E(m)}, E from the magnetization m alone
        m = np.arange(-n, n + 1)
        logw = beta * (j * (m * m - n) / 2.0 + h * m)
        expected = np.array([
            np.logaddexp.reduce([math.log(c) + lw for c, lw in zip(q[:, 2 * r], logw) if c])
            for r in range(n // 2 + 1)])
        # log P(K = 2j); rounding in log space also scales with |log P| (rtol: ~5 ulps)
        np.testing.assert_allclose(rows - np.logaddexp.reduce(rows),
                                   expected - np.logaddexp.reduce(expected),
                                   rtol=1e-15, atol=1e-12)


@pytest.mark.parametrize("unreached", [[0, 1, 5, 9, 10], [0, 1, 2, 4, 5, 6, 7, 8, 9, 10]],
                         ids=["empty-row-0", "one-sector"])
def test_longrange_kink_rows_skip_sectors_of_zero_weight(unreached):
    # a sector of weight 0 (log -inf) drops out; a row no weighted sector
    # reaches is -inf, with no warning on the way
    from kinkprobe.charfunc import _longrange_kink_log_rows
    from kinkprobe.partition import _longrange_log_g

    n = 10
    logg = _longrange_log_g(n, 0.4, 0.3)[0]
    logg[unreached] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _longrange_kink_log_rows(n, logg)
    assert not np.isnan(rows).any() and (rows < np.inf).all()
    # row r: log sum over the reached down-counts k of Q(k, r) g(k) / C(N, k)
    q = joint_counts(n)
    expected = np.array([np.logaddexp.reduce(
        [math.log(q[2 * (n - k), 2 * r]) + logg[k] - math.log(math.comb(n, k))
         for k in range(n + 1) if q[2 * (n - k), 2 * r] and logg[k] > -np.inf] or [-np.inf])
        for r in range(n // 2 + 1)])
    assert np.array_equal(rows == -np.inf, expected == -np.inf)
    reached = expected > -np.inf
    np.testing.assert_allclose(rows[reached] - np.logaddexp.reduce(rows[reached]),
                               expected[reached] - np.logaddexp.reduce(expected[reached]),
                               rtol=1e-15, atol=1e-12)


def _mood_kink_law(n, bj, bh):
    """P(K = 2j), j = 0..N // 2, on the long-range model from exact run counts.

    Q(k, j) = (N / j) C(k-1, j-1) C(N-k-1, j-1) configurations have k down
    spins and j up-runs (Mood 1940); both binomials are Python ints carried
    from j to j + 1.  Each weighs e^{bj (M^2 - N) / 2 + bh M} in 40-digit
    decimals.  Sectors lighter than e^{-50} times the heaviest are left out.
    """
    def log_sector(k):
        m = n - 2 * k
        return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + bj * (m * m - n) / 2 + bh * m)

    top = max(log_sector(k) for k in range(n + 1))
    law = [decimal.Decimal(0)] * (n // 2 + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for k in range(n + 1):
            if log_sector(k) < top - 50:
                continue
            m = n - 2 * k
            w = (decimal.Decimal(bj) * (m * m - n) / 2 + decimal.Decimal(bh) * m).exp()
            if k in (0, n):
                law[0] += w
                continue
            c_down, c_up, total = 1, 1, 0  # C(k-1, j-1), C(N-k-1, j-1) at j = 1
            for j in range(1, min(k, n - k) + 1):
                q = n * c_down * c_up // j
                law[j] += decimal.Decimal(q) * w
                total += q
                c_down = c_down * (k - j) // j
                c_up = c_up * (n - k - j) // j
            assert total == math.comb(n, k)
        norm = sum(law)
        return np.array([float(x / norm) for x in law])


@pytest.mark.parametrize("n", [1000, 2000, 4000])
def test_longrange_kink_law_matches_exact_counts_at_large_n(n):
    # log N! is 2.9e4 at N = 4000: rows that difference log-factorials lose
    # about 3e-12 of the law here, so the rows must form none
    from kinkprobe.charfunc import _longrange_law

    bj, bh = 0.5 / n, 1.0
    values, logw = _longrange_law(longrange(n, j=bj, h=bh, beta=1.0), kink_number(n))
    assert np.array_equal(values, 2 * np.arange(n // 2 + 1))
    w = np.exp(logw - logw.max())  # normalized as F and the closed cumulants read it
    assert np.abs(w / w.sum() - _mood_kink_law(n, bj, bh)).sum() <= 1e-12


def test_longrange_kink_charfunc_matches_oracle_at_n20():
    model = longrange(20, j=0.6, h=0.4, beta=0.05)
    obs = kink_number(20)
    thetas = np.array([0.0, 0.45, 1.8, 3.3, 5.2])
    expected = _oracle_charfunc(model, obs, thetas)
    np.testing.assert_allclose(charfunc_values(model, obs, thetas), expected, atol=1e-10)
    # small N, either sign of J, h = 0 and h != 0, on the standard grid and off it
    for n in (1, 2, 3, 7, 12):
        obs = kink_number(n)
        for j, h, beta in [(1.0, 0.0, 0.3), (-0.8, 0.0, 1.1), (0.4, 0.5, 0.9), (-1.5, -0.3, 0.7)]:
            model = longrange(n, j=j, h=h, beta=beta)
            grid = 2 * np.pi * np.arange(n + 1) / (n + 1)
            for thetas in (grid, np.array([0.0, 0.45, 1.8, 5.2])):
                np.testing.assert_allclose(charfunc_values(model, obs, thetas),
                                           _oracle_charfunc(model, obs, thetas), rtol=0, atol=1e-12)
    # one spin has no kink: F = 1 everywhere
    f = charfunc_values(longrange(1, h=0.3), kink_number(1), [0.0, 1.0])
    assert np.array_equal(f, [1.0, 1.0])


# ---------------------------------------------------------------------------
# closed cumulants
# ---------------------------------------------------------------------------


def _decimal_ring_cumulants(n, bj, bh):
    """Closed kappa_1..3 of M and of K on the ring, at 60 decimal digits.

    With A = beta J and B = beta h:
    u = sqrt(1 + e^{4A} sinh^2 B), v = 1 - e^{4A} (2 + cosh 2B),
    w = 1 - 8 e^{8A} sinh^4 B and lambda_pm = e^A cosh B +- e^{-A} u;
    M: kappa = N e^{2A} (sinh B / u, cosh B / u^3, v sinh B / u^5);
    K: kappa1 = N / (u lambda_+ e^A),
       kappa2 = N (cosh B + 2 e^{3A} sinh^2 B lambda_+) / (u^3 lambda_+^2),
       kappa3 = N e^{-A} [5 e^{2A} - (2 + w) e^{2A} cosh 2B - 2 u w cosh B
                + 4 (u^2 - 1) lambda_- e^A cosh B] / (2 u^5 lambda_+^3).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax, ctx.Emin = 10 ** 6, -10 ** 6  # e^{+-8 * 700} and beyond
        a, b, n = decimal.Decimal(bj), decimal.Decimal(bh), decimal.Decimal(n)

        def e(x):
            return x.exp()

        sh, ch, ch2 = (e(b) - e(-b)) / 2, (e(b) + e(-b)) / 2, (e(2 * b) + e(-2 * b)) / 2
        u = (1 + e(4 * a) * sh ** 2).sqrt()
        v = 1 - e(4 * a) * (2 + ch2)
        w = 1 - 8 * e(8 * a) * sh ** 4
        lam_p, lam_m = e(a) * ch + e(-a) * u, e(a) * ch - e(-a) * u
        mag = (n * e(2 * a) * sh / u, n * e(2 * a) * ch / u ** 3,
               n * v * e(2 * a) * sh / u ** 5)
        kinks = (n / (u * lam_p * e(a)),
                 n * (ch + 2 * e(3 * a) * sh ** 2 * lam_p) / (u ** 3 * lam_p ** 2),
                 n * e(-a) * (5 * e(2 * a) - (2 + w) * e(2 * a) * ch2 - 2 * u * w * ch
                              + 4 * (u * u - 1) * lam_m * e(a) * ch) / (2 * u ** 5 * lam_p ** 3))
        return mag + kinks


@pytest.mark.parametrize("obs_builder, offset", [(magnetization, 0), (kink_number, 3)])
def test_closed_ring_cumulants_match_a_decimal_reference_over_the_envelope(obs_builder, offset):
    # the grid crosses beta J = 70.9 (88.7 at h = 0) and |beta h| = 140.7, past
    # which e^{4 beta J} sinh^2(beta h) and its square overflow in floats;
    # every representable cumulant must come back, and exactly the others be refused
    n, top = 50, decimal.Decimal(sys.float_info.max)
    for bj in (-700, -300, -40, -1, 0, 0.5, 1, 40, 71, 100, 177, 300, 354, 700):
        for bh in (0, 1e-8, -1e-8, 1e-3, -1e-3, 0.2, -0.2, 1, -1, 40, -40, 141, -141,
                   700, -700):
            model, obs = ring(n, j=bj, h=bh), obs_builder(n)
            ref = _decimal_ring_cumulants(n, bj, bh)[offset:offset + 3]
            if any(abs(r) > top for r in ref):
                with pytest.raises(InputError, match="float range"):
                    closed_cumulants(model, obs)
                continue
            cs = closed_cumulants(model, obs)
            for got, want in zip((cs.kappa1, cs.kappa2, cs.kappa3), ref):
                err = abs(decimal.Decimal(got) - want)
                assert err <= decimal.Decimal(1e-12) * abs(want) + decimal.Decimal(1e-15 * n), \
                    (bj, bh, got, want)
            if obs_builder is magnetization and bh == 0:
                assert cs.kappa1 == 0.0 and cs.kappa3 == 0.0


def test_closed_cumulants_reject_observable_of_another_size():
    with pytest.raises(InputError, match="N=50"):
        closed_cumulants(ring(50), magnetization(20))


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
        lam = np.linalg.eigvals([[math.exp(0.6 + 0.25), math.exp(-0.6)],
                                 [math.exp(-0.6), math.exp(0.6 - 0.25)]])
        trunc = (abs(lam).min() / abs(lam).max()) ** n
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
    model = ring(n, j=1.0, h=h, beta=beta)
    dist = invert_dft(exact_record(model, kink_number(n)))
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


def test_closed_longrange_cumulants_match_a_decimal_sector_sum_at_n4000():
    # the mean of the down-count is ~N/2, so moments about zero would cancel
    # in kappa_3 (~1e-5 here); moments about the mean keep it to ~5e-8, and
    # log-binomials summed from the centre to ~1e-10
    n, bj, bh = 4000, 1.25e-4, 1.25e-4
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        logs = _decimal_longrange_logs(n, bj, bh)
        top = max(logs)
        w = [(x - top).exp() for x in logs]
        mags = [n - 2 * k for k in range(n + 1)]
        z = sum(w)
        mean = sum(wk * m for wk, m in zip(w, mags)) / z
        k2, k3 = (float(sum(wk * (m - mean) ** r for wk, m in zip(w, mags)) / z)
                  for r in (2, 3))
    cs = closed_cumulants(longrange(n, j=1.0, h=1.0, beta=1.25e-4), magnetization(n))
    assert abs(cs.kappa1 - float(mean)) <= 1e-10
    assert abs(cs.kappa2 - k2) <= 1e-11 * k2
    assert abs(cs.kappa3 - k3) <= 1e-7


def _decimal_longrange_kink_cumulants(n, bj, bh):
    """kappa_1..3 of the long-range kink number in 40 digits, from exact Mood counts."""
    q = joint_counts(n)
    kinks = range(0, n + 1, 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        # beta E = -beta J (m^2 - N) / 2 - beta h m depends on the magnetization m alone
        logw = [decimal.Decimal(bj) * (m * m - n) / 2 + decimal.Decimal(bh) * m
                for m in range(-n, n + 1)]
        top = max(logw)
        w = [(x - top).exp() for x in logw]
        pk = [sum(int(c) * wm for c, wm in zip(q[:, k], w) if c) for k in kinks]
        z = sum(pk)
        mean = sum(p * k for p, k in zip(pk, kinks)) / z
        return [mean] + [sum(p * (k - mean) ** r for p, k in zip(pk, kinks)) / z
                         for r in (2, 3)]


@pytest.mark.parametrize("n, bj, bh", [(12, 0.3, 0.0), (12, -0.8, 0.25), (12, 0.05, -0.4),
                                       (200, 0.006, 0.0), (200, -0.02, 0.01),
                                       (200, 0.004, 0.02)])
def test_closed_longrange_kink_cumulants_match_exact_counts(n, bj, bh):
    # the reference shares no log-factorials with the package; kappa_3 can
    # cancel far below kappa_2^{3/2}, so it is judged on that natural scale
    k1, k2, k3 = _decimal_longrange_kink_cumulants(n, bj, bh)
    cs = closed_cumulants(longrange(n, j=bj, h=bh, beta=1.0), kink_number(n))
    assert cs.flavor is CumulantFlavor.EXACT_SMALL_FORMULA
    assert abs(decimal.Decimal(cs.kappa1) - k1) <= decimal.Decimal(1e-12) * k1
    assert abs(decimal.Decimal(cs.kappa2) - k2) <= decimal.Decimal(1e-12) * k2
    assert abs(decimal.Decimal(cs.kappa3) - k3) <= decimal.Decimal(1e-12) * (k2 ** 3).sqrt()


def test_closed_cumulants_refuse_only_custom_observables():
    # the ring bonds under the custom tag: the same values, but no closed law
    bonds = custom_observable(4.0, -0.5, [(i, i % 8 + 1) for i in range(1, 9)])
    for model in (ring(8), longrange(8)):
        with pytest.raises(InputError, match="use the numerical cumulants"):
            closed_cumulants(model, bonds)
    cs = closed_cumulants(longrange(8), kink_number(8))
    assert cs.flavor is CumulantFlavor.EXACT_SMALL_FORMULA


def test_one_entry_point_per_job():
    import types

    import kinkprobe

    # with no scalar charfunc re-exported, the name is the module again
    assert isinstance(kinkprobe.charfunc, types.ModuleType)
    assert kinkprobe.charfunc.charfunc_values is charfunc_values
    with pytest.raises(TypeError):
        closed_cumulants(ring(8), kink_number(8), flavor=CumulantFlavor.EXACT_SMALL_FORMULA)


def test_exact_kink_mean_matches_oracle():
    # odd rings below beta J ~ -18.5 are frustrated: their kink mean is N - 1, and the
    # ring F there takes the odd-N bracket of _znn_scaled_arrays
    for n, bj in ((4, 0.7), (8, 1.0), (10, 2.5), (9, -0.8), (1, -40.0), (3, -40.0),
                  (9, -19.5), (9, -700.0), (11, -5.0)):
        model = ring(n, j=bj, h=0.0, beta=1.0)
        oracle_mean = enumerate_oracle(model, kink_number(n)).dist.mean()
        assert exact_kink_mean(model) == pytest.approx(oracle_mean, rel=1e-12)


def _kink_mean_50_digits(n, bj):
    """<K> of the zero-field ring as a 50-digit sum of C(N, K) e^{-2 beta J K} over even K."""
    ctx = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    step = ctx.exp(ctx.multiply(-4, decimal.Decimal(bj)))  # K -> K + 2
    num = den = decimal.Decimal(0)
    weight = decimal.Decimal(1)
    for k in range(0, n + 1, 2):
        term = ctx.multiply(math.comb(n, k), weight)
        den, num = ctx.add(den, term), ctx.add(num, ctx.multiply(k, term))
        weight = ctx.multiply(weight, step)
    return ctx.divide(num, den)


def test_exact_kink_mean_matches_a_50_digit_sector_sum():
    # from beta J ~ 20 the mean is below 1e-33 at N = 10, and must keep its relative digits
    for n in (1, 2, 3, 9, 10, 50, 51, 200, 1001):
        for bj in (-700.0, -40.0, -19.5, -5.0, -0.8, 0.0, 1e-4, 0.5, 1.0, 2.5, 6.0, 10.0,
                   18.0, 40.0, 150.0):
            want = _kink_mean_50_digits(n, bj)
            got = exact_kink_mean(ring(n, j=bj, h=0.0, beta=1.0))
            assert abs(decimal.Decimal(got) - want) <= decimal.Decimal(1e-12) * want, (n, bj)


def test_exact_kink_mean_requires_zero_field():
    with pytest.raises(InputError, match="beta\\*h = 0"):
        exact_kink_mean(ring(8, h=0.1))
    # at beta = 0 a field has no weight: each of the N bonds is a kink with chance 1/2
    assert exact_kink_mean(ring(8, h=0.3, beta=0.0)) == pytest.approx(4.0, rel=1e-15)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.3, 13.0])
@pytest.mark.parametrize("make", [ring, longrange], ids=["ring", "longrange"])
@pytest.mark.parametrize("n", [9, 12])
def test_routes_read_beta_j_and_beta_h_only(make, n, beta):
    # (J, h, beta) and (beta J, beta h, 1) are one model to every route, bit for
    # bit, so a tilt may fold into the couplings without a new signature
    j, h = 0.7, -0.4
    pairs = [(make(n, j=j, h=h, beta=beta), make(n, j=beta * j, h=beta * h, beta=1.0))]
    if make is ring:  # the exact kink mean is a zero-field result: beta h = 0
        pairs.append((ring(n, j=j, h=0.0, beta=beta), ring(n, j=beta * j, h=0.0, beta=1.0)))
    for a, b in pairs:
        for obs in (magnetization(n), kink_number(n)):
            for thetas in (build_theta_grid(obs), np.linspace(-2.9, 7.3, 17)):
                assert _bits(charfunc_values(a, obs, thetas)) == \
                    _bits(charfunc_values(b, obs, thetas))
            ca, cb = closed_cumulants(a, obs), closed_cumulants(b, obs)
            assert ca.flavor is cb.flavor
            assert _bits([ca.kappa1, ca.kappa2, ca.kappa3]) == \
                _bits([cb.kappa1, cb.kappa2, cb.kappa3])
        if make is ring:
            assert _bits(RingGibbsSampler(a)._p_down) == _bits(RingGibbsSampler(b)._p_down)
            if a.beta * a.h == 0.0:
                assert _bits(exact_kink_mean(a)) == _bits(exact_kink_mean(b))


def test_closed_cumulants_scale_linearly_in_n():
    for obs_builder in (magnetization, kink_number):
        a = closed_cumulants(ring(30, j=0.8, h=0.3, beta=0.9), obs_builder(30))
        b = closed_cumulants(ring(60, j=0.8, h=0.3, beta=0.9), obs_builder(60))
        for name in ("kappa1", "kappa2", "kappa3"):
            assert getattr(b, name) / getattr(a, name) == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# numerical cumulants: those of the unclipped reconstruction
# ---------------------------------------------------------------------------


def test_numerical_cumulants_point_mass():
    obs = magnetization(4)
    thetas = build_theta_grid(obs)
    cs = distribution_cumulants(invert_dft(record_of(thetas, np.exp(2j * thetas), obs)))
    assert cs.kappa1 == pytest.approx(2.0, abs=1e-12)
    assert cs.kappa2 == pytest.approx(0.0, abs=1e-12)
    assert cs.kappa3 == pytest.approx(0.0, abs=1e-11)


def test_numerical_cumulants_match_oracle_mean():
    model = ring(12, j=1.0, h=0.3, beta=1.0)
    cs = distribution_cumulants(invert_dft(exact_record(model, magnetization(12))))
    oracle = enumerate_oracle(model, magnetization(12)).dist
    assert cs.kappa1 == pytest.approx(oracle.mean(), abs=1e-9)
    assert cs.flavor is CumulantFlavor.NUMERICAL_FROM_F


def test_numerical_cumulants_match_closed_forms_large_n():
    model = ring(50, j=1.0, h=0.2, beta=1.0)
    cs = distribution_cumulants(invert_dft(exact_record(model, magnetization(50))))
    closed = closed_cumulants(model, magnetization(50))
    assert cs.kappa1 == pytest.approx(closed.kappa1, rel=1e-6)
    assert cs.kappa2 == pytest.approx(closed.kappa2, rel=1e-6)
    assert cs.kappa3 == pytest.approx(closed.kappa3, rel=1e-6)


def test_unnormalized_samples_report_their_norm_defect():
    obs = magnetization(3)
    thetas = build_theta_grid(obs)
    record = record_of(thetas, 0.5 * np.exp(1j * thetas), obs, shots=100)
    assert validate_distribution(invert_dft(record)).norm_defect == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# infinite temperature: beta = 0 takes the general routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [7, 20])
@pytest.mark.parametrize("make", [ring, longrange], ids=["ring", "longrange"])
def test_charfunc_at_infinite_temperature_is_the_closed_form(make, n):
    # uniform spins: M is a sum of N independent +-1, and K counts the flipped
    # bonds of N independent ones, conditioned to an even count around the ring
    model = make(n, j=0.9, h=0.4, beta=0.0)
    th = build_theta_grid(magnetization(n))
    np.testing.assert_allclose(charfunc_values(model, magnetization(n), th), np.cos(th) ** n,
                               rtol=0, atol=1e-13)
    th = build_theta_grid(kink_number(n))
    z = np.exp(1j * th)
    np.testing.assert_allclose(charfunc_values(model, kink_number(n), th),
                               ((1 + z) ** n + (1 - z) ** n) / 2.0 ** n, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [7, 20])
def test_cumulants_at_infinite_temperature(n):
    for make in (ring, longrange):
        cs = closed_cumulants(make(n, h=0.3, beta=0.0), magnetization(n))
        assert (cs.kappa1, cs.kappa2, cs.kappa3) == pytest.approx((0.0, n, 0.0), abs=1e-12 * n)
    cs = closed_cumulants(ring(n, h=0.3, beta=0.0), kink_number(n))
    assert (cs.kappa1, cs.kappa2, cs.kappa3) == pytest.approx((n / 2, n / 4, 0.0), abs=1e-12 * n)
    assert exact_kink_mean(ring(n, beta=0.0)) == pytest.approx(n / 2, rel=1e-15)


def test_exact_kink_mean_refuses_the_longrange_model():
    with pytest.raises(InputError, match="exact kink mean is a ring result"):
        exact_kink_mean(longrange(6))


def test_charfunc_refuses_a_route_that_breaks_the_unit_disc(monkeypatch):
    monkeypatch.setattr(sys.modules["kinkprobe.charfunc"], "_ring_charfunc",
                        lambda model, obs, thetas: np.full(thetas.shape, 1.1 + 0j))
    with pytest.raises(InputError, match=r"\|F\| = 1.1 exceeds 1"):
        charfunc_values(ring(4), magnetization(4), np.array([0.1, 0.2]))
