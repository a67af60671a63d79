"""Reference implementations that the tests compare the package against."""

import math

import numpy as np

from kinkprobe import Distribution, InputError, ObsKind
from kinkprobe.charfunc import _check_magnitude, _mirrored, _on_grid
from kinkprobe.partition import _log_binomials, _znn_scaled_arrays
from kinkprobe.probe import METROPOLIS_BURNIN_SWEEPS, _up_count_steps


def joint_counts(n: int) -> np.ndarray:
    """Q[m + N, K] = number of ring configurations with magnetization m and K kinks.

    A configuration with u up spins and j up-runs on the cycle has K = 2j
    kinks.  For 1 <= j <= min(u, N - u) there are (N / j) C(u-1, j-1)
    C(N-u-1, j-1) of them (Mood, Ann. Math. Stat. 11, 1940); the two uniform
    configurations have K = 0.  Entries are exact Python ints, dtype=object.
    """
    if n < 2:
        raise InputError("joint counts need N >= 2")
    q = np.zeros((2 * n + 1, n + 1), dtype=object)
    q[0, 0] = q[2 * n, 0] = 1
    for u in range(1, n):
        for j in range(1, min(u, n - u) + 1):
            q[2 * u, 2 * j] = n * math.comb(u - 1, j - 1) * math.comb(n - u - 1, j - 1) // j
    return q


def charfunc_of_distribution(dist: Distribution, thetas) -> np.ndarray:
    """Forward transform F(theta) = sum P(x) exp(i theta x); round-trip oracle."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    return np.exp(1j * np.outer(th, dist.support.astype(float))) @ dist.probs.astype(complex)


def ring_charfunc_two_calls(model, obs, thetas) -> np.ndarray:
    """Ring F as charfunc_values gives it, with Z(physical) from a call of its own.

    One transfer-matrix call at the real couplings gives the denominator and
    a second call at the deformed ones the numerator; on the standard grid
    F_j is evaluated for j <= M // 2 and mirrored, as charfunc_values does.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    grid = _on_grid(th)
    part = th[:th.size // 2 + 1] if grid else th
    A, B = model.beta * model.J, model.beta * model.h
    ls_den, v_den = _znn_scaled_arrays(model.N, A, B)
    if obs.kind is ObsKind.MAGNETIZATION:
        ls_num, v_num = _znn_scaled_arrays(model.N, complex(A), B + 1j * part)
        phase = np.ones_like(part)
    else:
        ls_num, v_num = _znn_scaled_arrays(model.N, A - 0.5j * part, complex(B))
        phase = np.exp(1j * part * model.N / 2.0)
    f = phase * np.exp(ls_num - ls_den[0]) * (v_num / v_den[0])
    return _check_magnitude(_mirrored(f, th.size) if grid else f)


def metropolis_up_count_law_stepwise(model) -> np.ndarray:
    """P(u) after the long-range Metropolis burn-in, one proposal per step.

    The lumped birth-death chain of ``LongRangeMetropolisSampler``, run for
    100 N single proposals from Binomial(N, 1/2); the sampler applies the
    same chain in banded blocks of proposals.
    """
    down, up, stay = _up_count_steps(model)
    law = np.exp(_log_binomials(model.N))
    law /= law.sum()
    for _ in range(METROPOLIS_BURNIN_SWEEPS * model.N):
        nxt = law * stay
        nxt[:-1] += law[1:] * down[1:]
        nxt[1:] += law[:-1] * up[:-1]
        law = nxt
    return law
