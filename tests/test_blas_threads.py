"""The bits of every moment, readout and norm do not depend on the BLAS thread count.

Above about 10,000 terms OpenBLAS splits a dot product across threads, so a
sum taken through BLAS changes its last bits with OPENBLAS_NUM_THREADS.  The
thread count is read when numpy loads, so each count runs in a fresh
interpreter.  On a one-CPU machine OpenBLAS runs one thread either way.
"""

import os
import subprocess
import sys
from pathlib import Path

import kinkprobe

_CODE = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from kinkprobe import (Distribution, ModelKind, ModelParams, QuantumRegister, closed_cumulants,
                       distribution_cumulants, magnetization, quantum_probe,
                       thermal_diagonal_ensemble)

rng = np.random.default_rng(5)
probs = rng.random(10001)
dist = Distribution(support=np.arange(-5000, 5001), probs=probs / probs.sum())
out = [dist.mean(), dist.variance()]
cs = distribution_cumulants(dist)
out += [cs.kappa1, cs.kappa2, cs.kappa3]
lr = ModelParams(kind=ModelKind.LONG_RANGE, N=10000, J=1.0, h=1.0, beta=0.5 / 10000)
cs = closed_cumulants(lr, magnetization(10000))
out += [cs.kappa1, cs.kappa2, cs.kappa3]
n = 14
thermal = thermal_diagonal_ensemble(ModelParams(kind=ModelKind.RING, N=n, J=1.0, h=0.2,
                                                beta=0.3))
psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
for state in (thermal, QuantumRegister.from_system_state(psi, n)):
    out += quantum_probe(state, magnetization(n), 0.3)
print(*(float(v).hex() for v in out))
"""


def _bits(threads: str) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    child = subprocess.run([sys.executable, "-c", _CODE, str(Path(kinkprobe.__file__).parents[1])],
                           capture_output=True, text=True, timeout=300, env=env, check=True)
    return child.stdout.split()


def test_moments_and_readouts_keep_their_bits_under_any_blas_thread_count():
    # M = 10001 moments, the long-range sector law at N = 1e4, and the N = 14
    # readouts of a thermal ensemble and of a random register
    one = _bits("1")
    assert len(one) == 12
    assert _bits("2") == one
