import math

import numpy as np
import pytest

from kinkprobe import (InputError, PauliObservable, QuantumRegister, SizeError,
                       build_theta_grid, charfunc_values, kink_number, magnetization,
                       noncommuting_test_observable, observable_values,
                       quantum_probe, term_sums, thermal_diagonal_ensemble,
                       trotter_error_probe)
from kinkprobe.quantum import DiagonalEnsemble
from kinkprobe.spin_model import _config_matrix
from conftest import ring


def test_basis_state_gives_pure_phase(rng):
    n = 5
    obs = magnetization(n)
    for _ in range(10):
        s = int(rng.integers(0, 1 << n))
        reg = QuantumRegister.from_basis_state(s, n)
        x = float(observable_values(_config_matrix(n, s, s + 1)[0], obs))
        theta = float(rng.uniform(0, 2 * math.pi))
        re, im = quantum_probe(reg, obs, theta)
        assert re == pytest.approx(math.cos(theta * x), abs=1e-12)
        assert im == pytest.approx(math.sin(theta * x), abs=1e-12)


@pytest.mark.parametrize("obs_builder", [magnetization, kink_number])
def test_thermal_ensemble_matches_analytic_charfunc(obs_builder):
    n = 8
    model = ring(n, j=0.8, h=0.25, beta=0.9)
    obs = obs_builder(n)
    ensemble = thermal_diagonal_ensemble(model)
    thetas = np.linspace(0.0, 2 * math.pi, 17, endpoint=False)
    f = charfunc_values(model, obs, thetas)
    for theta, expect in zip(thetas, f):
        re, im = quantum_probe(ensemble, obs, float(theta))
        assert re == pytest.approx(expect.real, abs=1e-10)
        assert im == pytest.approx(expect.imag, abs=1e-10)


def test_superposition_register_averages_diagonal_phases(rng):
    n = 4
    obs = magnetization(n)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    reg = QuantumRegister.from_system_state(psi, n)
    spins = _config_matrix(n, 0, 1 << n)
    x = spins.sum(axis=1)
    theta = 0.77
    expect = (np.abs(psi) ** 2 * np.exp(1j * theta * x)).sum()
    re, im = quantum_probe(reg, obs, theta)
    assert re == pytest.approx(expect.real, abs=1e-12)
    assert im == pytest.approx(expect.imag, abs=1e-12)


def test_quantum_probe_takes_no_step_count():
    # a diagonal phase is exact in one pass; trotter_error_probe studies steps
    ensemble = thermal_diagonal_ensemble(ring(4))
    with pytest.raises(TypeError):
        quantum_probe(ensemble, magnetization(4), 0.3, trotter_steps=2)


def test_quantum_probe_rejects_offdiagonal_and_oversize():
    with pytest.raises(InputError):
        quantum_probe(thermal_diagonal_ensemble(ring(3)),
                      noncommuting_test_observable(3), 0.5)
    with pytest.raises(SizeError):
        thermal_diagonal_ensemble(ring(15))
    with pytest.raises(SizeError):
        quantum_probe(DiagonalEnsemble(probs=np.full(1 << 15, 1.0 / (1 << 15)), n_sites=15),
                      magnetization(15), 0.2)


def test_quantum_probe_refuses_every_pauli_observable():
    # the readout takes the ObservableSpec the classical probe takes; a Pauli
    # string is refused whether it is diagonal, mixed-axis or of another size
    ensemble = thermal_diagonal_ensemble(ring(5))
    for obs in (PauliObservable.from_spec(magnetization(5), 5),
                noncommuting_test_observable(5),
                PauliObservable.from_spec(kink_number(3), 3)):
        for state in (ensemble, QuantumRegister.from_basis_state(3, 5)):
            with pytest.raises(InputError, match="custom_observable"):
                quantum_probe(state, obs, 0.4)


@pytest.mark.parametrize("make_obs", [magnetization, kink_number])
def test_quantum_probe_rejects_builtin_of_another_size(make_obs):
    # magnetization(3) or kink_number(3) on 5 sites would read a 3-spin law
    for state in (thermal_diagonal_ensemble(ring(5)), QuantumRegister.from_basis_state(6, 5)):
        with pytest.raises(InputError, match="covers 3 sites, the model has N=5"):
            quantum_probe(state, make_obs(3), 0.4)


def test_readouts_on_criterion_09_cases_keep_the_split_phase_values():
    # the phase theta * (a + b s) reads as theta a + theta b s did, to 1e-12,
    # on the ensemble and on a register holding its square-root amplitudes
    for n, make_obs in ((10, magnetization), (10, kink_number), (8, magnetization)):
        model, obs = ring(n, j=0.9, h=0.3, beta=0.8), make_obs(n)
        ensemble = thermal_diagonal_ensemble(model)
        register = QuantumRegister.from_system_state(np.sqrt(ensemble.probs), n)
        signed = term_sums(_config_matrix(n, 0, 1 << n), obs.terms)
        for theta in build_theta_grid(obs):
            split = theta * obs.a + theta * obs.b * signed
            expect = (ensemble.probs @ np.cos(split), ensemble.probs @ np.sin(split))
            for state in (ensemble, register):
                np.testing.assert_allclose(quantum_probe(state, obs, float(theta)), expect,
                                           rtol=0, atol=1e-12)


def test_trotter_error_zero_for_commuting_terms():
    kinks = PauliObservable.from_spec(kink_number(4), 4)
    for m in (1, 2, 8, 64, np.int64(8)):
        assert trotter_error_probe(kinks, 1.1, m) < 1e-12


def test_trotter_error_zero_at_zero_theta():
    obs = noncommuting_test_observable(4)
    assert trotter_error_probe(obs, 0.0, 3) < 1e-14


def test_trotter_error_decays_as_one_over_m():
    obs = noncommuting_test_observable(4)
    steps = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    errors = [trotter_error_probe(obs, 0.9, m) for m in steps]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))  # monotone trend
    # asymptotic halving: error(2m)/error(m) in [0.4, 0.6]
    ratios = [errors[i + 1] / errors[i] for i in range(4, len(errors) - 1)]
    assert all(0.4 <= r <= 0.6 for r in ratios)
    # log-log slope within a factor two of -1
    slope = np.polyfit(np.log(steps[4:]), np.log(errors[4:]), 1)[0]
    assert -2.0 < slope < -0.5


@pytest.mark.parametrize("steps", [2.5, 2.0, "2", True])
def test_trotter_error_refuses_a_step_count_that_is_not_an_integer(steps):
    # a count is never rounded or parsed, and True is no step count though it equals 1
    with pytest.raises(InputError, match="steps must be an integer"):
        trotter_error_probe(noncommuting_test_observable(4), 0.9, steps)


def test_trotter_probe_size_limit():
    with pytest.raises(SizeError):
        trotter_error_probe(noncommuting_test_observable(7), 0.5, 2)


@pytest.mark.parametrize("make, fragment", [
    (lambda: PauliObservable(a=0.0, b=1.0, terms=(((3, "z"),),), n_sites=2),
     "site 3 outside 1..2"),
    (lambda: PauliObservable(a=0.0, b=1.0, terms=(((1, "w"),),), n_sites=2),
     "unknown Pauli axis 'w'"),
    (lambda: noncommuting_test_observable(1), "at least two sites"),
    (lambda: DiagonalEnsemble(probs=np.ones(3) / 3, n_sites=2), r"length 2\^N"),
    (lambda: DiagonalEnsemble(probs=np.ones(4) / 2, n_sites=2), "sum to 1"),
    (lambda: QuantumRegister(amplitudes=np.ones(4) / 2, n_sites=2), r"length 2\^\(N\+1\)"),
    (lambda: QuantumRegister(amplitudes=np.ones(8), n_sites=2), "must be normalized"),
    (lambda: QuantumRegister.from_system_state(np.ones(3), 2), r"length 2\^N"),
    (lambda: QuantumRegister.from_system_state(np.zeros(4), 2), "must be non-zero"),
    (lambda: trotter_error_probe(noncommuting_test_observable(3), 0.5, 0), "at least 1"),
    # a NaN state passed the norm checks, and quantum_probe read (nan, nan)
    (lambda: DiagonalEnsemble(probs=np.full(4, np.nan), n_sites=2), "finite"),
    (lambda: QuantumRegister(amplitudes=np.full(8, np.nan), n_sites=2), "finite amplitudes"),
], ids=["site-out-of-range", "unknown-axis", "one-site-test-observable",
        "ensemble-length", "ensemble-unnormalised", "register-length",
        "register-unnormalised", "system-state-length", "zero-system-state", "zero-steps",
        "nan-ensemble", "nan-register"])
def test_quantum_refusals(make, fragment):
    with pytest.raises(InputError, match=fragment):
        make()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [math.nan, math.inf, 1e308], ids=["nan", "inf", "1e308"])
@pytest.mark.parametrize("state", ["ensemble", "register"])
def test_quantum_probe_refuses_a_phase_that_overflows_against_the_values(state, theta):
    # NaN read (nan, nan); 1e308 warned "overflow encountered in multiply"
    state = (thermal_diagonal_ensemble(ring(4)) if state == "ensemble"
             else QuantumRegister.from_basis_state(3, 4))
    with pytest.raises(InputError, match="times values of X up to 4.0 overflow"):
        quantum_probe(state, magnetization(4), theta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [math.nan, math.inf, -1e308], ids=["nan", "inf", "-1e308"])
def test_trotter_error_probe_refuses_a_phase_that_overflows_against_the_values(theta):
    # NaN raised numpy's LinAlgError, inf warned
    with pytest.raises(InputError, match="times values of X up to 3.0 overflows"):
        trotter_error_probe(noncommuting_test_observable(3), theta, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantum_probes_take_large_finite_phases():
    # 1e307 |X| stays below the float maximum for |X| <= 4 and <= 3
    sz, sy = quantum_probe(QuantumRegister.from_basis_state(0, 4), magnetization(4), 1e307)
    assert sz * sz + sy * sy == pytest.approx(1.0)
    assert math.isfinite(trotter_error_probe(noncommuting_test_observable(3), 1e307, 2))
