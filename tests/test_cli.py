import json
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import kinkprobe.cli as cli
from kinkprobe import (InputError, distribution_cumulants, enumerate_oracle, invert_dft,
                       kink_number, magnetization, simulate_probe_shots)
from kinkprobe.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, PRESETS, main
from kinkprobe.probe import default_time_grid
from conftest import exact_record, longrange, ring
from oracles import charfunc_of_distribution


def _read_csv(path):
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    return header, data


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--model", "cubic"])
    assert exc.value.code == EXIT_USAGE


def test_no_command_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_probe_run_writes_files(tmp_path):
    out = tmp_path / "run"
    code = main(["probe", "--model", "ring", "--obs", "magnetization", "--N", "10",
                 "--beta", "1", "--h", "0.2", "--eps", "0.01",
                 "--outdir", str(out), "--formats", "csv,json,svg"])
    assert code == EXIT_OK
    header, coh = _read_csv(out / "coherence.csv")
    assert header == ["t", "theta", "sx", "sy"]
    assert coh.shape == (21, 4)
    assert coh[0, 2] == pytest.approx(1.0)  # sx(0) = 1
    header, dist = _read_csv(out / "distribution.csv")
    assert header == ["x", "p"]
    assert dist[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["closed"]["flavor"] == "closed-large-N"
    # the closed form truncates at lambda_plus^N; at N=10 that costs ~1.5%
    assert payload["numerical"]["kappa1"] == pytest.approx(payload["closed"]["kappa1"],
                                                           rel=0.05)
    assert (out / "plot.svg").read_text().startswith("<svg")
    ET.parse(out / "plot.svg")  # well-formed XML, labels escaped
    assert json.loads((out / "effective-config.json").read_text())["N"] == 10


def test_longrange_kink_run_at_n1000(tmp_path):
    out = tmp_path / "run"
    code = main(["probe", "--model", "longrange", "--obs", "kinks", "--N", "1000",
                 "--beta", "0.0005", "--h", "0", "--outdir", str(out)])
    assert code == EXIT_OK
    _, dist = _read_csv(out / "distribution.csv")
    assert dist[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.abs(dist[dist[:, 0] % 2 == 1, 1]).sum() <= 1e-9  # kinks come in pairs


def test_probe_oracle_flag(tmp_path):
    out = tmp_path / "run"
    code = main(["probe", "--model", "ring", "--obs", "kinks", "--N", "8",
                 "--beta", "0.7", "--eps", "0.01", "--oracle", "--outdir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["oracle_comparison"]["max_abs_prob_deviation"] < 1e-10


@pytest.mark.parametrize("model", ["ring", "longrange"])
@pytest.mark.parametrize("obs", ["magnetization", "kinks"])
def test_infinite_temperature_matches_the_oracle(tmp_path, model, obs):
    out = tmp_path / "run"
    assert main(["probe", "--model", model, "--obs", obs, "--N", "10", "--beta", "0",
                 "--oracle", "--outdir", str(out)]) == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["oracle_comparison"]["max_abs_prob_deviation"] <= 1e-12


@pytest.mark.parametrize("argv, message", [
    (["--model", "longrange", "--beta", "nan", "--shots", "10"], "beta must be finite, got nan"),
    (["--model", "longrange", "--J", "nan", "--shots", "10"], "J must be finite, got nan"),
    (["--model", "longrange", "--obs", "kinks", "--h", "inf", "--shots", "10"],
     "h must be finite, got inf"),
    (["--model", "ring", "--beta", "nan"], "beta must be finite, got nan"),
    (["--model", "ring", "--J=-inf"], "J must be finite, got -inf"),
    (["--eps", "nan"], "epsilon must be finite, got nan"),
    (["--eta", "nan", "--shots", "10"], "eta must be finite, got nan"),
    (["--N", "4", "--eta", "-1", "--correct-eta"], "eta must exceed -1"),
    (["--eps", "1e-320"], "epsilon = 1e-320 is too small"),
    # the phase rate 2 eps (1 + eta) overflows: at eta = 1 only the gates' rate does
    (["--eps", "1e308"], "is too large"),
    (["--eps", "5e307", "--eta", "1", "--shots", "10"], "is too large"),
    (["--model", "ring", "--J", "1e308", "--beta", "10"], "beta*J = 10.0 * 1e+308 overflows"),
    (["--model", "longrange", "--J", "1e308", "--beta", "10"], "beta*J"),
    (["--model", "ring", "--obs", "kinks", "--h", "1e308", "--beta", "10"], "beta*h"),
    (["--model", "longrange", "--obs", "kinks", "--N", "8", "--h", "1e308", "--beta", "10",
      "--shots", "10"], "beta*h = 10.0 * 1e+308 overflows"),
    # beta J and beta h are finite here, but the route exponents, up to
    # 4 (|beta J| N^2 + |beta h| N), are not
    (["--model", "longrange", "--N", "8", "--J", "1e307"],
     "beta*J = 1.0 * 1e+307 overflows the float range at N = 8"),
    (["--model", "longrange", "--N", "8", "--J", "1e307", "--shots", "10"], "beta*J"),
    (["--model", "longrange", "--obs", "kinks", "--N", "8", "--J", "1e307"], "beta*J"),
    (["--model", "ring", "--N", "8", "--J", "1e308"], "beta*J"),
    (["--model", "longrange", "--N", "8", "--h", "1e308", "--shots", "10"], "beta*h"),
], ids=["lr-beta-nan", "lr-J-nan", "lr-kinks-h-inf", "ring-beta-nan", "ring-J-inf",
        "eps-nan", "eta-nan", "eta-minus-one-warped", "eps-subnormal", "eps-huge",
        "eps-huge-gate-error-shots", "ring-beta-J-inf",
        "lr-beta-J-inf", "ring-kinks-beta-h-inf", "lr-kinks-beta-h-inf-shots",
        "lr-J-route-overflow", "lr-J-route-overflow-shots", "lr-kinks-J-route-overflow",
        "ring-J-route-overflow", "lr-h-route-overflow-shots"])
def test_refused_input_exits_before_any_numpy_warning(tmp_path, capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["probe", "--N", "6", *argv, "--outdir", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("model", ["ring", "longrange"])
def test_large_finite_coupling_inside_the_float_range_runs(tmp_path, model):
    # 4 |beta J| N^2 = 2.6e202 is finite, so J = 1e200 at N = 8 runs, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["probe", "--model", model, "--N", "8", "--J", "1e200",
                     "--outdir", str(tmp_path / "o")]) == EXIT_OK


def test_tiny_normal_epsilon_runs(tmp_path):
    # the time grid ends near pi / 1e-300, still finite: only a grid that
    # overflows (a subnormal eps) is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["probe", "--N", "10", "--eps", "1e-300",
                     "--outdir", str(tmp_path / "o")]) == EXIT_OK


def test_probe_oracle_flag_rejects_large_n(tmp_path):
    code = main(["probe", "--N", "20", "--oracle", "--outdir", str(tmp_path / "x")])
    assert code == 1


def test_sm_error_oracle_flag_is_the_probe_input_error(tmp_path, capsys):
    # the gate-error preset runs at N = 20, past the enumeration limit
    assert PRESETS["sm-error"]["N"] > cli.ORACLE_N_LIMIT
    assert main(["probe", "--N", "20", "--oracle", "--outdir", str(tmp_path / "p")]) == EXIT_INPUT
    probe_err = capsys.readouterr().err
    out = tmp_path / "sm"
    assert main(["repro", "sm-error", "--oracle", "--outdir", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == probe_err == (
        f"kinkprobe: error: --oracle requires N <= {cli.ORACLE_N_LIMIT}\n")
    assert not out.exists()


def test_sm_error_oracle_compares_the_corrected_distribution(tmp_path):
    # below the enumeration limit the gate-error run compares its corrected P
    out = tmp_path / "sm"
    cfg = cli.RunConfig(**{**PRESETS["sm-error"], "N": 10, "oracle": True, "outdir": str(out)})
    assert cli.run(cfg) == EXIT_OK
    comparison = json.loads((out / "cumulants.json").read_text())["oracle_comparison"]
    assert comparison["max_abs_prob_deviation"] <= 1e-12
    corrected = _read_csv(out / "distribution-corrected.csv")[1]
    assert comparison["oracle_mean"] == pytest.approx(corrected[:, 0] @ corrected[:, 1],
                                                      abs=1e-12)


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, "h": 0.3, "beta": 0.5}))
    out = tmp_path / "out"
    code = main(["probe", "--config", str(cfg), "--h", "0.1", "--outdir", str(out)])
    assert code == EXIT_OK
    eff = json.loads((out / "effective-config.json").read_text())
    assert eff["N"] == 6 and eff["beta"] == 0.5  # from file
    assert eff["h"] == 0.1  # flag wins


def test_unknown_config_key_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spins": 6}))
    assert main(["probe", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1


def test_workers_is_not_a_config_key(tmp_path, capsys):
    # shot simulation runs on one thread, so there is no worker count to set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, "shots": 100, "workers": 2}))
    out = tmp_path / "o"
    assert main(["probe", "--config", str(cfg), "--outdir", str(out)]) == EXIT_INPUT
    assert "unknown config keys: ['workers']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("preset", "fig2b"), ("command", "sm-error")])
def test_config_file_cannot_choose_the_command(tmp_path, capsys, key, value):
    # the subcommand picks the run; a file key would only be echoed back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, key: value}))
    out = tmp_path / "o"
    assert main(["probe", "--config", str(cfg), "--outdir", str(out)]) == EXIT_INPUT
    assert f"['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("file_cfg", [
    {"N": "50"}, {"beta": "1"}, {"N": True}, {"N": 50.0}, {"seed": False},
    {"oracle": 1}, {"shots": "100"}, {"shots": 1.5}, {"formats": 3}, {"grid": "64"},
    {"model": 1}, [{"N": 6}],
])
def test_config_value_of_the_wrong_type_is_input_error(tmp_path, capsys, file_cfg):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    assert main(["probe", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("kinkprobe: error: ")


def test_config_values_of_every_accepted_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, "beta": 1, "h": 0.1, "shots": "exact", "grid": None,
                               "formats": ["csv", "json"], "oracle": True, "model": "ring"}))
    out = tmp_path / "o"
    assert main(["probe", "--config", str(cfg), "--outdir", str(out)]) == EXIT_OK
    eff = json.loads((out / "effective-config.json").read_text())
    assert eff["shots"] is None and eff["formats"] == ["csv", "json"] and eff["oracle"]
    cfg.write_text(json.dumps({"N": 6, "shots": 50, "formats": "csv"}))
    assert main(["probe", "--config", str(cfg), "--outdir", str(tmp_path / "p")]) == EXIT_OK


@pytest.mark.parametrize("argv, message", [
    (["--shots", "abc"], "--shots expects an integer or 'exact', got 'abc'"),
    (["--shots", "0"], "--shots must be at least 1"),
    (["--formats", "csv,pdf"], "unknown output format 'pdf'"),
    (["--shots", "9223372036854775808"], "shots must be at most 2**63 - 1"),
    (["--model", "longrange", "--shots", "100000000000000000000"],
     "shots must be at most 2**63 - 1"),
    (["--seed", "-1", "--shots", "10"], "seed must be a non-negative integer, got -1"),
    (["--model", "longrange", "--seed", "-1", "--shots", "10"],
     "seed must be a non-negative integer, got -1"),
], ids=["shots-abc", "shots-0", "formats-pdf", "shots-2-63", "lr-shots-1e20", "seed-minus-one",
        "lr-seed-minus-one"])
def test_refused_flag_value_is_input_error(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(["probe", "--N", "6", *argv, "--outdir", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("kinkprobe: error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["ring", "longrange"])
def test_exact_run_ignores_the_seed(tmp_path, model):
    # only a shot record draws from the seeded stream
    assert main(["probe", "--model", model, "--N", "6", "--seed", "-1",
                 "--outdir", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("command", ["probe", "sm-error"])
def test_run_refuses_an_unknown_format_before_writing(tmp_path, command):
    # the check sits in run itself, so direct callers meet it too
    out = tmp_path / "o"
    cfg = cli.RunConfig(command=command, formats=("csv", "pdf"), N=4, outdir=str(out))
    with pytest.raises(InputError, match="unknown output format 'pdf'"):
        cli.run(cfg)
    assert not out.exists()


@pytest.mark.parametrize("file_cfg, message", [
    ({"formats": ["csv", "pdf"]}, "unknown output format 'pdf'"),
    ({"model": "chain"}, "unknown model 'chain'"),
    ({"obs": "energy"}, "unknown observable 'energy'"),
], ids=["formats-pdf", "model-chain", "obs-energy"])
def test_refused_config_value_is_input_error(tmp_path, capsys, file_cfg, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, **file_cfg}))
    out = tmp_path / "o"
    assert main(["probe", "--config", str(cfg), "--outdir", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("kinkprobe: error: ") and message in err
    assert not out.exists()


def test_repro_without_outdir_writes_under_the_preset_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["repro", "fig3b"]) == EXIT_OK
    out = tmp_path / "kinkprobe-out" / "fig3b"
    assert sorted(p.name for p in out.iterdir()) == [
        "coherence.csv", "cumulants.json", "distribution.csv", "effective-config.json"]
    assert json.loads((out / "effective-config.json").read_text())["outdir"] == str(
        Path("kinkprobe-out") / "fig3b")


def test_uncorrected_gate_error_trips_validation(tmp_path):
    # exact-mode acquisition with a miscalibrated angle and no correction:
    # the reconstruction is corrupted and the exact-run gate must flag it
    code = main(["probe", "--model", "ring", "--obs", "magnetization", "--N", "12",
                 "--beta", "1", "--h", "0.2", "--eps", "0.01", "--eta", "0.05",
                 "--outdir", str(tmp_path / "distorted")])
    assert code == EXIT_VALIDATION
    code = main(["probe", "--model", "ring", "--obs", "magnetization", "--N", "12",
                 "--beta", "1", "--h", "0.2", "--eps", "0.01", "--eta", "0.05",
                 "--correct-eta", "--outdir", str(tmp_path / "corrected")])
    assert code == EXIT_OK


def test_nonfinite_charfunc_is_input_error(tmp_path, monkeypatch):
    # an F that cancelled or overflowed is refused before anything is inverted
    charfunc_module = sys.modules["kinkprobe.charfunc"]
    monkeypatch.setattr(charfunc_module, "_ring_charfunc",
                        lambda model, obs, thetas: np.full(thetas.shape, np.nan + 0j))
    out = tmp_path / "nan"
    code = main(["probe", "--model", "ring", "--N", "3", "--outdir", str(out)])
    assert code == EXIT_INPUT
    assert not (out / "distribution.csv").exists()


@pytest.mark.parametrize("j", ["-19", "-700"])
def test_frustrated_odd_ring_shot_run(tmp_path, j):
    # N = 3 at beta J = -19 and -700: the run exits 0, and its shot record
    # passes a chi-square test against the enumeration oracle's F
    shots, out = 2000, tmp_path / "run"
    code = main(["probe", "--model", "ring", "--obs", "magnetization", "--N", "3",
                 "--J", j, "--beta", "1", "--h", "0", "--shots", str(shots),
                 "--seed", "4", "--outdir", str(out)])
    assert code == EXIT_OK
    _, coh = _read_csv(out / "coherence.csv")
    oracle = enumerate_oracle(ring(3, j=float(j), h=0.0, beta=1.0), magnetization(3)).dist
    f = charfunc_of_distribution(oracle, coh[:, 1])
    read = np.concatenate([coh[:, 2], coh[:, 3]])
    mean = np.concatenate([f.real, f.imag])
    var = (1.0 - mean ** 2) / shots
    noisy = var > 1e-12
    assert np.array_equal(read[~noisy], np.rint(mean[~noisy]))  # certain readouts
    stat = float((((read - mean) ** 2)[noisy] / var[noisy]).sum())
    assert chi2.sf(stat, int(noisy.sum())) > 1e-6


@pytest.mark.parametrize("model, obs, n, shots", [("ring", "kinks", 20, 1000),
                                                   ("longrange", "magnetization", 8, 200)])
def test_shot_run_cumulants_are_those_of_the_unclipped_inversion(tmp_path, model, obs, n,
                                                                 shots):
    out = tmp_path / "run"
    assert main(["probe", "--model", model, "--obs", obs, "--N", str(n), "--beta", "0.5",
                 "--h", "0.2", "--shots", str(shots), "--seed", "7",
                 "--outdir", str(out)]) == EXIT_OK
    params = (ring if model == "ring" else longrange)(n, h=0.2, beta=0.5)
    spec = (kink_number if obs == "kinks" else magnetization)(n)
    record = simulate_probe_shots(params, spec, 0.01, default_time_grid(spec, 0.01), shots,
                                  seed=7)
    want = distribution_cumulants(invert_dft(record))
    got = json.loads((out / "cumulants.json").read_text())["numerical"]
    assert [got[k] for k in ("kappa1", "kappa2", "kappa3")] == [want.kappa1, want.kappa2,
                                                                want.kappa3]


def test_shot_run_mean_is_unbiased(tmp_path):
    # kappa_1 of the unclipped inversion is linear in the readouts,
    # kappa_1 = sum_j Re(a_j) sx_j - Im(a_j) sy_j with a_j = sum_x x e^{-i theta_j x} / M,
    # and each readout is a mean of iid +-1 shots, of variance (1 - Re F_j^2) / shots
    # for sx and (1 - Im F_j^2) / shots for sy.  The cumulants of the clipped
    # distribution put the mean about 25 standard errors low here (40.09 against 41.50)
    n, shots, seeds = 50, 10000, range(1, 21)
    exact = exact_record(ring(n, h=0.2), magnetization(n))
    x = np.arange(-n, n + 1)
    a = np.exp(-1j * np.outer(exact.theta, x)) @ x / exact.theta.size
    f = exact.values
    var = (a.real ** 2 * (1 - f.real ** 2) + a.imag ** 2 * (1 - f.imag ** 2)).sum() / shots
    kappa1 = []
    for seed in seeds:
        out = tmp_path / str(seed)
        assert main(["probe", "--model", "ring", "--obs", "magnetization", "--N", str(n),
                     "--beta", "1", "--h", "0.2", "--shots", str(shots), "--seed", str(seed),
                     "--outdir", str(out)]) == EXIT_OK
        kappa1.append(json.loads((out / "cumulants.json").read_text())["numerical"]["kappa1"])
    want = distribution_cumulants(invert_dft(exact)).kappa1
    assert abs(np.mean(kappa1) - want) <= 5.0 * np.sqrt(var / len(seeds))


@pytest.mark.parametrize("obs", ["magnetization", "kinks"])
@pytest.mark.parametrize("coupling", [["--J", "200"], ["--h", "400"]])
def test_ring_run_beyond_the_old_closed_form_overflow(tmp_path, obs, coupling):
    # past beta J = 70.9 and |beta h| = 140.7 e^{4 beta J} sinh^2(beta h) overflows
    out = tmp_path / "run"
    assert main(["probe", "--model", "ring", "--obs", obs, "--N", "50", *coupling,
                 "--outdir", str(out)]) == EXIT_OK
    closed = json.loads((out / "cumulants.json").read_text())["closed"]
    assert all(np.isfinite(closed[k]) for k in ("kappa1", "kappa2", "kappa3"))


def test_closed_cumulants_beyond_the_float_range_are_null(tmp_path):
    # kappa2 of M is N e^{2 beta J} at h = 0; everything else still runs
    out = tmp_path / "run"
    assert main(["probe", "--model", "ring", "--obs", "magnetization", "--N", "50",
                 "--J", "700", "--h", "0", "--outdir", str(out)]) == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["closed"] is None
    assert "kappa2" in payload["closed_unavailable"]
    # the gate-error demonstration fills its closed block the same way
    cfg = cli.RunConfig(**{**PRESETS["sm-error"], "J": 700.0, "h": 0.0,
                           "outdir": str(tmp_path / "sm")})
    assert cli.run(cfg) == EXIT_OK
    assert json.loads((tmp_path / "sm" / "cumulants.json").read_text())["closed"] is None


@pytest.mark.parametrize("argv", [["probe", "--N", "6"], ["repro", "sm-error"]])
def test_nan_defect_trips_validation(tmp_path, monkeypatch, argv):
    real = cli.validate_distribution
    monkeypatch.setattr(cli, "validate_distribution",
                        lambda dist: replace(real(dist), residual_imag=float("nan")))
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == EXIT_VALIDATION


def _cli(*argv):
    return lambda out: main([*argv, "--outdir", str(out), "--formats", "csv,json,svg"])


_PROBE_KEYS = {"method", "validation", "numerical", "closed"}
_SM_ERROR_KEYS = {"eta_true", "eta_estimate", "tv_naive_vs_ideal", "tv_corrected_vs_ideal",
                  "validation", "numerical", "closed"}


@pytest.mark.parametrize("run, keys", [
    (_cli("probe", "--N", "8"), _PROBE_KEYS),
    (_cli("probe", "--N", "8", "--shots", "200", "--seed", "3"), _PROBE_KEYS),
    (_cli("probe", "--N", "8", "--oracle"), _PROBE_KEYS | {"oracle_comparison"}),
    (_cli("probe", "--N", "50", "--J", "700", "--h", "0"), _PROBE_KEYS | {"closed_unavailable"}),
    (_cli("repro", "sm-error"), _SM_ERROR_KEYS),
    (lambda out: cli.run(cli.RunConfig(**{**PRESETS["sm-error"], "N": 10, "oracle": True,
                                          "outdir": str(out), "formats": ("json", "svg")})),
     _SM_ERROR_KEYS | {"oracle_comparison"}),
], ids=["probe-exact", "probe-shots", "probe-oracle", "probe-closed-overflow", "sm-error",
        "sm-error-oracle"])
def test_every_run_writes_the_shared_report(tmp_path, run, keys):
    # both commands write one cumulants.json schema, apart from their own keys,
    # and one figure: the coherence traces above the bars of the clipped P
    out = tmp_path / "run"
    assert run(out) == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert set(payload) == keys
    assert set(payload["validation"]) == {"norm_defect", "min_prob", "parity_violation_mass",
                                          "residual_imag"}
    assert (payload["closed"] is None) == ("closed_unavailable" in keys)
    svg = "{http://www.w3.org/2000/svg}"
    traces, bars = ET.parse(out / "plot.svg").getroot()
    assert traces.findall(svg + "polyline") and not bars.findall(svg + "polyline")
    assert len(bars.findall(svg + "rect")) > 1  # the background and at least one bar


def test_repro_presets_exist_and_fig_preset_is_byte_stable(tmp_path):
    for name in ("fig2b", "fig2c", "fig3b", "fig3c", "sm-m-a", "sm-m-b",
                 "sm-m-c", "sm-m-d", "sm-k-a", "sm-k-b", "sm-error"):
        assert name in PRESETS
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["repro", "fig2c", "--outdir", str(out1)]) == EXIT_OK
    assert main(["repro", "fig2c", "--outdir", str(out2)]) == EXIT_OK
    for name in ("coherence.csv", "distribution.csv", "cumulants.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_repro_sm_error_outputs(tmp_path):
    out = tmp_path / "err"
    assert main(["repro", "sm-error", "--outdir", str(out),
                 "--formats", "csv,json,svg"]) == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["eta_true"] == 0.02
    assert payload["eta_estimate"] == pytest.approx(0.02, abs=1e-3)
    assert payload["tv_corrected_vs_ideal"] < 1e-9
    assert payload["tv_naive_vs_ideal"] > 0.01
    assert sorted(path.name for path in out.iterdir()) == [
        "coherence-distorted.csv", "coherence.csv", "cumulants.json", "distribution-corrected.csv",
        "distribution-naive.csv", "distribution.csv", "effective-config.json", "plot.svg"]


def test_grid_override_densifies_traces(tmp_path):
    out_min = tmp_path / "minimal"
    out_dense = tmp_path / "dense"
    base = ["probe", "--N", "10", "--h", "0.25", "--outdir"]
    assert main(base + [str(out_min)]) == EXIT_OK
    assert main(base + [str(out_dense), "--grid", "105"]) == EXIT_OK
    _, coh = _read_csv(out_dense / "coherence.csv")
    assert coh.shape[0] == 105
    _, a = _read_csv(out_min / "distribution.csv")
    _, b = _read_csv(out_dense / "distribution.csv")
    np.testing.assert_allclose(a[:, 1], b[:, 1], atol=1e-12)  # inversion unchanged


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "kinkprobe.cli", "repro", "fig3b",
         "--outdir", str(tmp_path / "cli")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "cli" / "distribution.csv").exists()


def test_importing_the_cli_loads_no_network_modules():
    # xml.sax.saxutils would load these, about 28 ms of every run's start-up
    code = ("import sys, kinkprobe.cli; print(*sorted("
            "{'urllib.request', 'http.client', 'ssl', 'email'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def _written(out, capsys):
    """The files a run printed, by name; effective-config.json without its outdir."""
    names = [Path(line).name for line in capsys.readouterr().out.splitlines()]
    got = {name: (out / name).read_bytes() for name in names}
    cfg = json.loads(got.pop("effective-config.json"))
    cfg.pop("outdir")
    return got, cfg


@pytest.mark.parametrize("first, second", [
    (["probe", "--N", "30", "--formats", "csv,json,svg"],
     ["probe", "--N", "8", "--formats", "csv,json"]),
    (["repro", "sm-error"], ["repro", "fig2c"]),
], ids=["probe", "repro"])
def test_rerun_into_a_used_directory_writes_a_fresh_runs_bytes(tmp_path, capsys, first,
                                                               second):
    # files are overwritten in place, so every one the second run writes must be
    # cut to its new length; a file it does not write keeps the first run's bytes
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert main(first + ["--outdir", str(used)]) == EXIT_OK
    capsys.readouterr()
    before = {path.name: path.read_bytes() for path in used.iterdir()}
    assert main(second + ["--outdir", str(used)]) == EXIT_OK
    rerun = _written(used, capsys)
    assert main(second + ["--outdir", str(fresh)]) == EXIT_OK
    assert rerun == _written(fresh, capsys)
    left = set(before) - set(rerun[0]) - {"effective-config.json"}
    assert left  # plot.svg, or the gate-error demonstration's extra tables
    for name in left:
        assert (used / name).read_bytes() == before[name]


@pytest.mark.parametrize("argv", [
    ["repro", "fig2c", "--formats", "csv,json,svg"],
    ["probe", "--model", "ring", "--obs", "kinks", "--N", "1000"],
], ids=["repro", "probe-kinks-1000"])
def test_short_writes_give_the_same_bytes(tmp_path, capsys, monkeypatch, argv):
    # os.write may take fewer bytes than it is given; the writer loops until
    # every byte is out
    assert main(argv + ["--outdir", str(tmp_path / "whole")]) == EXIT_OK
    whole = _written(tmp_path / "whole", capsys)
    calls = []
    write = cli.os.write

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:1000]))

    monkeypatch.setattr(cli.os, "write", short_write)
    assert main(argv + ["--outdir", str(tmp_path / "short")]) == EXIT_OK
    assert _written(tmp_path / "short", capsys) == whole
    assert max(calls) > 1000  # some file took more than one call


def test_a_table_that_raises_leaves_its_files_old_bytes(tmp_path, capsys, monkeypatch):
    # a thunk runs before its file is opened: the re-run stops at the table
    # that raises, with exit code 1, and that file and the ones after it keep
    # the first run's bytes
    out = tmp_path / "out"
    assert main(["repro", "fig2b", "--outdir", str(out)]) == EXIT_OK
    capsys.readouterr()
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def refuse(dist):
        raise InputError("no table")

    monkeypatch.setattr(cli, "_distribution_csv", refuse)
    assert main(["repro", "fig2c", "--outdir", str(out)]) == EXIT_INPUT
    assert "kinkprobe: error: no table" in capsys.readouterr().err
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert after.keys() == before.keys()
    assert after["coherence.csv"] != before["coherence.csv"]  # fig2c's, written first
    for name in ("distribution.csv", "cumulants.json"):
        assert after[name] == before[name]


def test_one_shared_parser_leaks_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()

    def config(argv):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main(argv + ["--outdir", str(out)]) == EXIT_OK
        return json.loads((out / "effective-config.json").read_text())

    assert config(["probe", "--N", "8", "--oracle"])["oracle"] is True
    assert config(["probe", "--N", "8"])["oracle"] is False
    assert config(["repro", "fig2c", "--grid", "201"])["grid"] == 201
    assert config(["repro", "fig2c"])["grid"] is None
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--model", "cubic"])
    assert exc.value.code == EXIT_USAGE
    assert config(["probe", "--N", "8"])["model"] == "ring"
