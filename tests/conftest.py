import numpy as np
import pytest

from kinkprobe import (ModelKind, ModelParams, ProbeRecord, build_theta_grid,
                       simulate_probe_shots)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ring(n, j=1.0, h=0.0, beta=1.0):
    return ModelParams(kind=ModelKind.RING, N=n, J=j, h=h, beta=beta)


def longrange(n, j=1.0, h=0.0, beta=1.0):
    return ModelParams(kind=ModelKind.LONG_RANGE, N=n, J=j, h=h, beta=beta)


def random_couplings(rng, beta_lo=0.05, beta_hi=2.0, cap=3.0):
    """Random (J, h, beta) with |beta*J| and |beta*h| bounded by ``cap``."""
    beta = float(rng.uniform(beta_lo, beta_hi))
    bj = float(rng.uniform(-cap, cap))
    bh = float(rng.uniform(-cap, cap))
    return bj / beta, bh / beta, beta


def exact_record(model, obs, points=None):
    """The exact probe record on the inversion grid; at eps = 1/2 the phases are t."""
    return simulate_probe_shots(model, obs, 0.5, build_theta_grid(obs, points=points), None)


def record_of(thetas, values, obs=None, shots=None):
    """A probe record at eps = 1/2 (theta = t) whose coherence is ``values``."""
    values = np.asarray(values, dtype=complex)
    return ProbeRecord(epsilon=0.5, time_grid=thetas, sx=values.real, sy=values.imag,
                       shots=shots, observable=obs)
