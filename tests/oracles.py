"""Reference implementations that the tests compare the package against."""

import math

import numpy as np

from kinkprobe import Distribution, InputError
from kinkprobe.partition import _log_binomials
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
