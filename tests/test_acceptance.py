"""Acceptance suite: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``)."""

import json
import math
import time

import numpy as np
import pytest

from kinkprobe import (build_theta_grid, charfunc_values, closed_cumulants,
                       enumerate_oracle, estimate_gate_error, exact_kink_mean,
                       invert_dft, kink_number,
                       loschmidt_amplitude, magnetization,
                       noncommuting_test_observable, quantum_probe,
                       simulate_probe_shots,
                       thermal_diagonal_ensemble, total_variation,
                       trotter_error_probe)
from kinkprobe.cli import main
from kinkprobe.probe import default_time_grid
from kinkprobe.quantum import PauliObservable
from kinkprobe.spin_model import _batch_energy, _config_matrix
from conftest import exact_record, longrange, random_couplings, ring


def _line(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {state}  {detail}")
    return ok


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 13):
        for _ in range(50):
            j, h, beta = random_couplings(rng)
            for make in (ring, longrange):
                model = make(n, j=j, h=h, beta=beta)
                for obs in (magnetization(n), kink_number(n)):
                    exact = enumerate_oracle(model, obs).dist
                    recon = invert_dft(exact_record(model, obs))
                    worst = max(worst, float(np.abs(recon.probs - exact.probs).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    assert _line(1, "oracle equivalence (N=2..12, 50 draws)", ok,
                 f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_kink_mean_exact_formula():
    worst = 0.0
    for n in (10, 50, 200):
        model = ring(n, j=1.0, h=0.0, beta=1.0)
        mean = invert_dft(exact_record(model, kink_number(n))).mean()
        worst = max(worst, abs(mean - exact_kink_mean(model)))
    ok = worst < 1e-10
    assert _line(2, "kink mean vs exact formula (N=10,50,200)", ok,
                 f"max abs dev {worst:.2e}")


@pytest.mark.xfail(strict=True, reason=(
    "the dominant-eigenvalue formula N/(1+e^{2 beta J}) differs from the exact "
    "two-eigenvalue mean by (1 - tanh^{N-1})/(1 + tanh^N) - 1 ~ 2.8e-6 in "
    "relative terms at N=50, beta=J=1, which exceeds the stated 1e-6 tolerance; "
    "the stated correction estimate of ~1e-33 is off (tanh(1)^50 ~ 1.2e-6)"))
def test_criterion_02b_kink_mean_large_n_tolerance():
    model = ring(50, j=1.0, h=0.0, beta=1.0)
    mean = invert_dft(exact_record(model, kink_number(50))).mean()
    large_n = 50 / (1 + math.exp(2))
    rel = abs(mean - large_n) / large_n
    _line(2, "kink mean vs N/(1+e^{2bJ}) at 1e-6 rel", rel < 1e-6,
          f"rel dev {rel:.3e} (documented conflict)")
    assert rel < 1e-6


def test_criterion_03_cumulant_consistency():
    model = ring(50, j=1.0, h=0.2, beta=1.0)
    dist = invert_dft(exact_record(model, magnetization(50)))
    closed = closed_cumulants(model, magnetization(50))
    mu = dist.mean()
    var = dist.variance()
    third = float(dist.probs @ (dist.support - mu) ** 3)
    devs = (abs(mu - closed.kappa1) / abs(closed.kappa1),
            abs(var - closed.kappa2) / closed.kappa2,
            abs(third - closed.kappa3) / abs(closed.kappa3))
    ok = max(devs) < 1e-6
    assert _line(3, "cumulants at N=50, beta=1, h=0.2", ok,
                 f"rel devs {devs[0]:.1e}/{devs[1]:.1e}/{devs[2]:.1e}")


def test_criterion_04_parity_sum_rules():
    worst = 0.0
    cases = [(ring(50, h=0.0), magnetization(50)), (ring(50, h=0.2), magnetization(50)),
             (ring(51, h=0.3, beta=0.7), magnetization(51)),
             (ring(50, beta=0.1), kink_number(50)),
             (ring(50, h=10.0, beta=0.1), kink_number(50)),
             (longrange(20, h=0.4, beta=0.05), kink_number(20)),
             (longrange(50, h=2.0, beta=0.03), magnetization(50))]
    for model, obs in cases:
        dist = invert_dft(exact_record(model, obs))
        if obs.kind.value == "magnetization":
            forbidden = (dist.support - model.N) % 2 != 0
        else:
            forbidden = dist.support % 2 != 0
        worst = max(worst, float(np.abs(dist.probs[forbidden]).sum()))
    ok = worst < 1e-9
    assert _line(4, "parity sum rules on analytic reconstructions", ok,
                 f"max forbidden mass {worst:.2e}")


def test_criterion_05_scaling_laws():
    worst_rel = 0.0
    for n in (50, 200, 800):
        model = ring(n, j=1.0, h=0.0, beta=1.0)
        dist = invert_dft(exact_record(model, kink_number(n)))
        ratio = math.sqrt(dist.variance()) / dist.mean()
        target = math.exp(1.0) / math.sqrt(n)
        worst_rel = max(worst_rel, abs(ratio - target) / target)
    ok_ratio = worst_rel < 0.005

    worst_double = 0.0
    for obs_builder in (magnetization, kink_number):
        a = closed_cumulants(ring(40, j=0.8, h=0.3, beta=0.9), obs_builder(40))
        b = closed_cumulants(ring(80, j=0.8, h=0.3, beta=0.9), obs_builder(80))
        for name in ("kappa1", "kappa2", "kappa3"):
            worst_double = max(worst_double,
                               abs(getattr(b, name) / getattr(a, name) - 2.0) / 2.0)
    ok_double = worst_double < 1e-9
    ok = ok_ratio and ok_double
    assert _line(5, "fluctuation scaling e^{bJ}/sqrt(N) and linear-in-N cumulants", ok,
                 f"ratio dev {worst_rel:.2e}, doubling dev {worst_double:.2e}")


_PRESET_CHECKS = ["fig2b", "fig2c", "fig3b", "fig3c",
                  "sm-m-a", "sm-m-b", "sm-m-c", "sm-m-d", "sm-k-a", "sm-k-b"]


def _preset_model_obs(name):
    from kinkprobe.cli import PRESETS

    p = PRESETS[name]
    make = ring if p["model"] == "ring" else longrange
    model = make(p["N"], j=1.0, h=p["h"], beta=p["beta"])
    obs = magnetization(p["N"]) if p["obs"] == "magnetization" else kink_number(p["N"])
    return model, obs


def test_criterion_06_figure_presets(tmp_path):
    slowest = 0.0
    worst = 0.0
    for name in _PRESET_CHECKS:
        out = tmp_path / name
        start = time.perf_counter()
        code = main(["repro", name, "--outdir", str(out)])
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert code == 0
        rows = (out / "distribution.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        mean = float(data[:, 0] @ data[:, 1])
        model, obs = _preset_model_obs(name)
        if name.startswith("sm-k"):
            reference = enumerate_oracle(model, obs).dist.mean()  # no closed form here
            tol = 1e-9 * max(1.0, abs(reference))
        else:
            reference = closed_cumulants(model, obs).kappa1
            tol = 1e-6 * max(1.0, abs(reference))
        worst = max(worst, abs(mean - reference) / max(1.0, abs(reference)))
        assert abs(mean - reference) <= tol, (name, mean, reference)
        payload = json.loads((out / "cumulants.json").read_text())
        assert payload["validation"]["parity_violation_mass"] < 1e-9
    # Fig 2(c): finite field shifts the magnetization mean positive
    fig2c_rows = (tmp_path / "fig2c" / "distribution.csv").read_text().strip().splitlines()[1:]
    fig2c = np.array([[float(v) for v in r.split(",")] for r in fig2c_rows])
    assert float(fig2c[:, 0] @ fig2c[:, 1]) > 0
    ok = slowest < 5.0
    assert _line(6, "figure presets regenerate and match closed means", ok,
                 f"slowest {slowest:.2f}s, worst mean dev {worst:.1e}")


def test_criterion_07_gate_error_correction():
    model, obs = ring(20, j=1.0, h=0.1, beta=1.0), magnetization(20)
    eps, eta = 0.01, 0.02
    truth = invert_dft(exact_record(model, obs)).cleaned()

    naive_times = default_time_grid(obs, eps)
    distorted = simulate_probe_shots(model, obs, eps, naive_times, None, eta=eta)
    tv_naive = total_variation(invert_dft(distorted).cleaned(), truth)

    warped_times = default_time_grid(obs, eps, eta=eta)
    warped = simulate_probe_shots(model, obs, eps, warped_times, None, eta=eta)
    corrected = invert_dft(warped, eta=eta)
    tv_corrected = total_variation(corrected.cleaned(), truth)

    est_times = np.linspace(0.0, 1.3 * math.pi / eps, 4096)
    est_record = simulate_probe_shots(model, obs, eps, est_times, None, eta=eta)
    eta_hat = estimate_gate_error(est_record)

    ok = tv_corrected < 1e-9 and tv_naive > 0.01 and abs(eta_hat - eta) < 1e-3
    assert _line(7, "gate-error correction at N=20, eta=0.02", ok,
                 f"TV corr {tv_corrected:.1e}, TV naive {tv_naive:.3f}, "
                 f"eta_hat {eta_hat:.5f}")


def test_criterion_08_shot_noise_convergence():
    model, obs = ring(12, j=1.0, h=0.2, beta=1.0), magnetization(12)
    eps = 0.01
    times = default_time_grid(obs, eps)
    truth = invert_dft(exact_record(model, obs)).cleaned()

    def tv_at(shots, seed):
        record = simulate_probe_shots(model, obs, eps, times, shots=shots, seed=seed)
        return total_variation(invert_dft(record).cleaned(), truth)

    tv_fixed = tv_at(10_000, seed=0)
    ok_fixed = tv_fixed < 0.05

    lo = np.mean([tv_at(10_000, seed=s) for s in range(10)])
    hi = np.mean([tv_at(40_000, seed=s) for s in range(10)])
    ratio = hi / lo
    ok = ok_fixed and 0.3 <= ratio <= 0.8
    assert _line(8, "shot-noise convergence (1e4 shots, 4x scaling)", ok,
                 f"TV {tv_fixed:.4f}, ratio {ratio:.2f}")


def test_criterion_09_quantum_mode():
    worst = 0.0
    for n, obs_builder in ((10, magnetization), (10, kink_number), (8, magnetization)):
        model = ring(n, j=0.9, h=0.3, beta=0.8)
        obs = obs_builder(n)
        ensemble = thermal_diagonal_ensemble(model)
        thetas = build_theta_grid(obs)
        f = charfunc_values(model, obs, thetas)
        for theta, expect in zip(thetas, f):
            re, im = quantum_probe(ensemble, obs, float(theta))
            worst = max(worst, abs(re - expect.real), abs(im - expect.imag))
    ok_ensemble = worst < 1e-10

    commuting = max(trotter_error_probe(PauliObservable.from_spec(kink_number(4), 4), 1.1, m)
                    for m in (1, 2, 8, 64))
    ok_commuting = commuting < 1e-12

    probe_obs = noncommuting_test_observable(4)
    errors = [trotter_error_probe(probe_obs, 0.9, m) for m in (32, 64, 128, 256)]
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    ok_decay = all(0.4 <= r <= 0.6 for r in ratios)
    ok = ok_ensemble and ok_commuting and ok_decay
    assert _line(9, "quantum mode (ensemble readout, product-formula errors)", ok,
                 f"readout dev {worst:.1e}, commuting err {commuting:.1e}, "
                 f"decay ratios {['%.2f' % r for r in ratios]}")


def test_criterion_10_loschmidt_amplitude():
    rng = np.random.default_rng(1010)
    model = ring(10, j=0.8, h=0.25, beta=0.9)
    assert loschmidt_amplitude(model, 0.0) == pytest.approx(1.0, abs=1e-13)
    bound_ok = all(abs(loschmidt_amplitude(model, float(t))) <= 1.0 + 1e-12
                   for t in rng.uniform(-50, 50, size=1000))

    worst = 0.0
    for make in (ring, longrange):
        m = make(9, j=0.7, h=0.2, beta=0.8)
        spins = _config_matrix(m.N, 0, 1 << m.N)
        e = _batch_energy(m, spins)
        w = np.exp(-m.beta * (e - e.min()))
        w /= w.sum()
        for t in rng.uniform(0, 20, size=10):
            spectral = complex((w * np.exp(-1j * float(t) * e)).sum())
            worst = max(worst, abs(loschmidt_amplitude(m, float(t)) - spectral))
    ok = bound_ok and worst < 1e-10
    assert _line(10, "Loschmidt amplitude bound and spectral sum", ok,
                 f"max dev {worst:.2e}")
