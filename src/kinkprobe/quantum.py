"""Quantum-state variant of the probe protocol, on a dense state vector.

The ancilla starts in |+>, a controlled gate applies e^{i theta X} to the
system when the ancilla is up, and a Hadamard on the ancilla turns its
(sigma_z, sigma_y) expectations into (Re F, Im F): sigma_z + i sigma_y is
the one inner product 2 <down| e^{i theta X} |up> of the register's ancilla
halves, and a diagonal ensemble reads the weighted mean of e^{i theta X(s)}.
The readout takes the ObservableSpec the classical probe takes: its z-type
products commute, so the controlled evolution is the diagonal phase
theta X(s) on each basis state s, with X from spin_model.observable_values.
Mixed-axis Pauli strings (PauliObservable) only feed the m-step product
formula, whose first-order error for non-commuting terms trotter_error_probe
measures directly.

Basis convention: system site n (1-based) maps to bit N - n of the index,
bit value 0 meaning spin up (+1); the ancilla bit is the most significant,
0 meaning up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .spin_model import (ModelParams, ObservableSpec, _config_matrix, _is_integer,
                         check_term_count, energy, observable_values)

QUANTUM_SITES_LIMIT = 14
TROTTER_SITES_LIMIT = 6

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliObservable:
    """X = a + b * sum of Pauli-string terms; each factor is (site, axis)."""

    a: float
    b: float
    terms: tuple  # of tuples of (site, axis)
    n_sites: int

    def __post_init__(self):
        terms = tuple(tuple((int(s), str(ax)) for s, ax in t) for t in self.terms)
        for t in terms:
            for s, ax in t:
                if not 1 <= s <= self.n_sites:
                    raise InputError(f"site {s} outside 1..{self.n_sites}")
                if ax not in ("x", "y", "z"):
                    raise InputError(f"unknown Pauli axis {ax!r}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_spec(cls, obs: ObservableSpec, n_sites: int) -> "PauliObservable":
        terms = tuple(tuple((i, "z") for i in t) for t in obs.terms)
        return cls(a=obs.a, b=obs.b, terms=terms, n_sites=n_sites)


def noncommuting_test_observable(n_sites: int) -> PauliObservable:
    """Mixed-axis two-site products around the ring; adjacent terms clash."""
    if n_sites < 2:
        raise InputError("need at least two sites")
    axes = ("x", "z", "y")
    terms = []
    for i in range(1, n_sites + 1):
        j = i % n_sites + 1
        ax = axes[(i - 1) % len(axes)]
        terms.append(((i, ax), (j, ax)))
    return PauliObservable(a=0.0, b=1.0, terms=tuple(terms), n_sites=n_sites)


@dataclass(frozen=True)
class DiagonalEnsemble:
    """Probabilities over computational basis states (e.g. a thermal state)."""

    probs: np.ndarray
    n_sites: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.size != 1 << self.n_sites:
            raise InputError("probability vector must have length 2^N")
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-12:
            raise InputError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class QuantumRegister:
    """Ancilla (MSB) plus N system qubits as a dense unit-norm amplitude vector."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.size != 1 << (self.n_sites + 1):
            raise InputError("register must have length 2^(N+1) (ancilla + system)")
        if abs(math.sqrt((abs(amp) ** 2).sum()) - 1.0) > 1e-12:
            raise InputError("register must be normalized")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_system_state(cls, psi, n_sites: int) -> "QuantumRegister":
        """Ancilla prepared in |+> tensored with a normalized system state."""
        psi = np.asarray(psi, dtype=complex)
        if psi.size != 1 << n_sites:
            raise InputError("system state must have length 2^N")
        norm = math.sqrt((abs(psi) ** 2).sum())
        if norm == 0:
            raise InputError("system state must be non-zero")
        half = psi / (norm * math.sqrt(2.0))
        return cls(amplitudes=np.concatenate([half, half]), n_sites=n_sites)

    @classmethod
    def from_basis_state(cls, index: int, n_sites: int) -> "QuantumRegister":
        psi = np.zeros(1 << n_sites, dtype=complex)
        psi[index] = 1.0
        return cls.from_system_state(psi, n_sites)


def thermal_diagonal_ensemble(model: ModelParams) -> DiagonalEnsemble:
    """Gibbs weights of a diagonal Hamiltonian over the computational basis."""
    if model.N > QUANTUM_SITES_LIMIT:
        raise SizeError(f"dense thermal ensemble limited to N <= {QUANTUM_SITES_LIMIT}")
    energies = energy(model, _config_matrix(model.N, 0, 1 << model.N))
    w = np.exp(-model.beta * (energies - energies.min()))
    return DiagonalEnsemble(probs=w / w.sum(), n_sites=model.N)


def quantum_probe(state: QuantumRegister | DiagonalEnsemble, obs: ObservableSpec,
                  theta: float) -> tuple[float, float]:
    """Ancilla readout (<sigma_z>, <sigma_y>) = (Re F, Im F) after the circuit.

    ``state`` is a QuantumRegister (ancilla included) or a DiagonalEnsemble
    on n = state.n_sites <= 14 sites.  ``obs`` is an ObservableSpec; the
    phase on basis state s is theta * X(s), X from observable_values.  A
    PauliObservable is refused with InputError (a z-type one is written with
    custom_observable), and so is a built-in observable that does not cover
    all n sites or a term index above n.
    """
    if not isinstance(obs, ObservableSpec):
        raise InputError("quantum_probe takes an ObservableSpec; write a z-type Pauli "
                         "observable as custom_observable(a, b, site tuples)")
    n = state.n_sites
    if n > QUANTUM_SITES_LIMIT:
        raise SizeError(f"dense register limited to N <= {QUANTUM_SITES_LIMIT}")
    check_term_count(n, obs)

    dim = 1 << n
    rot = np.exp(1j * theta * observable_values(_config_matrix(n, 0, dim), obs))
    if isinstance(state, DiagonalEnsemble):
        f = (state.probs * rot).sum()
    else:  # sigma_z + i sigma_y after the Hadamard is 2 <down| e^{i theta X} |up>
        f = 2.0 * (state.amplitudes[dim:].conj() * state.amplitudes[:dim] * rot).sum()
    return float(f.real), float(f.imag)


# ---------------------------------------------------------------------------
# product-formula error probe
# ---------------------------------------------------------------------------


def _term_matrix(term, n_sites: int) -> np.ndarray:
    ops = [np.eye(2, dtype=complex)] * n_sites
    for site, ax in term:
        ops[site - 1] = ops[site - 1] @ _PAULI[ax]
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def trotter_error_probe(obs: PauliObservable, theta: float, steps: int) -> float:
    """Spectral-norm distance between e^{i theta X} and the m-step product.

    Every Pauli string P squares to the identity, so each factor is the
    closed form cos(alpha) I + i sin(alpha) P with alpha = theta b / m; the
    exact exponential comes from an eigendecomposition of the dense X.
    Commuting terms give zero error at any m; non-commuting ones decay as
    O(1/m).
    """
    if obs.n_sites > TROTTER_SITES_LIMIT:
        raise SizeError(f"dense error probe limited to N <= {TROTTER_SITES_LIMIT}")
    if not _is_integer(steps):
        raise InputError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise InputError("steps must be at least 1")
    dim = 1 << obs.n_sites
    terms = [_term_matrix(t, obs.n_sites) for t in obs.terms]
    x = obs.a * np.eye(dim, dtype=complex) + obs.b * sum(terms)
    vals, vecs = np.linalg.eigh(x)
    exact = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
    alpha = theta * obs.b / steps
    step = np.eye(dim, dtype=complex)
    for p in terms:
        step = (math.cos(alpha) * np.eye(dim) + 1j * math.sin(alpha) * p) @ step
    approx = np.linalg.matrix_power(step, steps) * np.exp(1j * theta * obs.a)
    return float(np.linalg.norm(exact - approx, 2))
