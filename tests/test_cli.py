import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import kinkprobe.cli as cli
from kinkprobe.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, PRESETS, main


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


def test_probe_oracle_flag(tmp_path):
    out = tmp_path / "run"
    code = main(["probe", "--model", "ring", "--obs", "kinks", "--N", "8",
                 "--beta", "0.7", "--eps", "0.01", "--oracle", "--outdir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "cumulants.json").read_text())
    assert payload["oracle_comparison"]["max_abs_prob_deviation"] < 1e-10


def test_probe_oracle_flag_rejects_large_n(tmp_path):
    code = main(["probe", "--N", "20", "--oracle", "--outdir", str(tmp_path / "x")])
    assert code == 1


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_charfunc_is_input_error(tmp_path):
    # a frustrated odd ring this cold cancels Z to 0, so F is 0/0
    out = tmp_path / "nan"
    code = main(["probe", "--model", "ring", "--N", "3", "--J", "-19", "--beta", "1",
                 "--h", "0", "--outdir", str(out)])
    assert code == EXIT_INPUT
    assert not (out / "distribution.csv").exists()


@pytest.mark.parametrize("argv", [["probe", "--N", "6"], ["repro", "sm-error"]])
def test_nan_defect_trips_validation(tmp_path, monkeypatch, argv):
    real = cli.validate_distribution
    monkeypatch.setattr(cli, "validate_distribution",
                        lambda dist: replace(real(dist), residual_imag=float("nan")))
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == EXIT_VALIDATION


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
    for name in ("coherence.csv", "coherence-distorted.csv", "distribution.csv",
                 "distribution-naive.csv", "distribution-corrected.csv", "plot.svg"):
        assert (out / name).exists()


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


def test_threads_env_caps_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("KINKPROBE_THREADS", "3")
    out = tmp_path / "threaded"
    code = main(["probe", "--N", "6", "--h", "0.1", "--shots", "300",
                 "--seed", "8", "--outdir", str(out)])
    assert code == EXIT_OK
    eff = json.loads((out / "effective-config.json").read_text())
    assert 1 <= eff["workers"] <= 3
    # worker count must not change the record
    monkeypatch.setenv("KINKPROBE_THREADS", "1")
    out2 = tmp_path / "serial"
    assert main(["probe", "--N", "6", "--h", "0.1", "--shots", "300",
                 "--seed", "8", "--outdir", str(out2)]) == EXIT_OK
    assert (out / "coherence.csv").read_bytes() == (out2 / "coherence.csv").read_bytes()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "kinkprobe.cli", "repro", "fig3b",
         "--outdir", str(tmp_path / "cli")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "cli" / "distribution.csv").exists()
