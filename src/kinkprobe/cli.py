"""Command-line frontend: model -> probe record -> distribution -> files.

Outputs per run directory: effective-config.json (the resolved settings),
coherence.csv (t, theta, sx, sy), distribution.csv (x, p), cumulants.json
(closed + numerical cumulants, validation report, optional extras) and an
optional plot.svg.  Exit codes: 0 ok, 1 input error, 2 validation-report
defects above tolerance, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import svgplot
from .charfunc import CumulantFlavor, CumulantSet, closed_cumulants
from .distribution import total_variation, validate_distribution
from .errors import InputError, KinkprobeError
from .probe import (GateErrorModel, default_time_grid, simulate_probe_exact,
                    simulate_probe_shots)
from .reconstruct import invert_dft, invert_with_gate_error, estimate_gate_error
from .spin_model import (ModelKind, ModelParams, enumerate_oracle, kink_number,
                         magnetization)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64

ORACLE_N_LIMIT = 12
EXACT_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    command: str = "probe"
    preset: str | None = None
    model: str = "ring"
    obs: str = "magnetization"
    N: int = 50
    J: float = 1.0
    h: float = 0.0
    beta: float = 1.0
    epsilon: float = 0.01
    shots: int | None = None  # None = exact expectations
    eta: float = 0.0
    correct_eta: bool = False
    seed: int = 1234
    grid: int | None = None
    outdir: str = "kinkprobe-out"
    formats: tuple = ("csv", "json")
    oracle: bool = False
    workers: int = 1


PRESETS: dict[str, dict] = {
    "fig2b": dict(model="ring", obs="magnetization", N=50, beta=1.0, h=0.0),
    "fig2c": dict(model="ring", obs="magnetization", N=50, beta=1.0, h=0.2),
    "fig3b": dict(model="ring", obs="kinks", N=50, beta=0.1, h=0.0),
    "fig3c": dict(model="ring", obs="kinks", N=50, beta=0.1, h=10.0),
    "sm-m-a": dict(model="longrange", obs="magnetization", N=50, beta=0.01, h=0.0),
    "sm-m-b": dict(model="longrange", obs="magnetization", N=50, beta=0.03, h=0.0),
    "sm-m-c": dict(model="longrange", obs="magnetization", N=50, beta=0.01, h=10.0),
    "sm-m-d": dict(model="longrange", obs="magnetization", N=50, beta=0.03, h=2.0),
    "sm-k-a": dict(model="longrange", obs="kinks", N=20, beta=0.05, h=0.0),
    "sm-k-b": dict(model="longrange", obs="kinks", N=20, beta=0.05, h=10.0),
    "sm-error": dict(model="ring", obs="magnetization", N=20, beta=1.0, h=0.1,
                     eta=0.02, command="sm-error"),
}

_MODEL_KINDS = {"ring": ModelKind.RING, "longrange": ModelKind.LONG_RANGE}
_OBS_BUILDERS = {"magnetization": magnetization, "kinks": kink_number}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_shots(text: str):
    if text == "exact":
        return None
    try:
        val = int(text)
    except ValueError as exc:
        raise InputError(f"--shots expects an integer or 'exact', got {text!r}") from exc
    if val < 1:
        raise InputError("--shots must be at least 1")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinkprobe",
                     description="Distributions of Ising observables via a probe-qubit protocol")
    sub = parser.add_subparsers(dest="command")

    probe = sub.add_parser("probe", help="run the full pipeline once")
    probe.add_argument("--model", choices=sorted(_MODEL_KINDS))
    probe.add_argument("--obs", choices=sorted(_OBS_BUILDERS))
    probe.add_argument("--N", type=int, dest="N")
    probe.add_argument("--J", type=float, dest="J")
    probe.add_argument("--h", type=float)
    probe.add_argument("--beta", type=float)
    probe.add_argument("--eps", type=float, dest="epsilon")
    probe.add_argument("--shots", type=str, help="integer shot count per point, or 'exact'")
    probe.add_argument("--eta", type=float, help="controlled-rotation angle error")
    probe.add_argument("--correct-eta", action="store_true", default=None,
                       dest="correct_eta", help="pre-warp the grid and invert with the "
                       "gate-error-aware transform")
    probe.add_argument("--seed", type=int)
    probe.add_argument("--grid", type=int, help="phase-grid points (>= minimal)")
    probe.add_argument("--outdir", type=str)
    probe.add_argument("--formats", type=str, help="comma list from csv,json,svg")
    probe.add_argument("--oracle", action="store_true", default=None,
                       help=f"append enumeration comparison (N <= {ORACLE_N_LIMIT})")
    probe.add_argument("--config", type=str, help="JSON file with RunConfig fields")

    repro = sub.add_parser("repro", help="regenerate a named figure dataset")
    repro.add_argument("preset", choices=sorted(PRESETS))
    repro.add_argument("--outdir", type=str)
    repro.add_argument("--formats", type=str)
    repro.add_argument("--grid", type=int)
    repro.add_argument("--oracle", action="store_true", default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    if args.command == "repro":
        merged.update(PRESETS[args.preset])
        merged["preset"] = args.preset
        merged.setdefault("command", "probe")
    else:
        merged["command"] = "probe"
    for key in RunConfig.__dataclass_fields__:
        if key in ("command", "preset"):
            continue  # fixed by the subcommand / preset above
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if isinstance(merged.get("shots"), str):
        merged["shots"] = _parse_shots(merged["shots"])
    if isinstance(merged.get("formats"), str):
        merged["formats"] = tuple(f.strip() for f in merged["formats"].split(",") if f.strip())
    elif isinstance(merged.get("formats"), list):
        merged["formats"] = tuple(merged["formats"])
    env_workers = os.environ.get("KINKPROBE_THREADS")
    if env_workers:
        merged["workers"] = max(1, min(int(env_workers), os.cpu_count() or 1))
    cfg = RunConfig(**merged)
    for fmt in cfg.formats:
        if fmt not in ("csv", "json", "svg"):
            raise InputError(f"unknown output format {fmt!r}")
    return cfg


def _build_model_obs(cfg: RunConfig):
    if cfg.model not in _MODEL_KINDS:
        raise InputError(f"unknown model {cfg.model!r}")
    if cfg.obs not in _OBS_BUILDERS:
        raise InputError(f"unknown observable {cfg.obs!r}")
    if cfg.epsilon <= 0:
        raise InputError("epsilon must be positive")
    if cfg.beta <= 0:
        raise InputError("beta must be positive")
    model = ModelParams(kind=_MODEL_KINDS[cfg.model], N=cfg.N, J=cfg.J, h=cfg.h, beta=cfg.beta)
    obs = _OBS_BUILDERS[cfg.obs](cfg.N)
    return model, obs


def _write(outdir: Path, name: str, text: str, paths: list):
    path = outdir / name
    path.write_text(text, encoding="utf-8")
    paths.append(str(path))


def _coherence_csv(record) -> str:
    lines = ["t,theta,sx,sy"]
    for t, th, sx, sy in zip(record.time_grid, record.nominal_theta, record.sx, record.sy):
        lines.append(",".join(map(_fmt, (t, th, sx, sy))))
    return "\n".join(lines) + "\n"


def _distribution_csv(dist) -> str:
    lines = ["x,p"]
    for x, p in zip(dist.support, dist.probs):
        lines.append(f"{int(x)},{_fmt(p)}")
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_payload(report) -> dict:
    return {
        "norm_defect": report.norm_defect,
        "min_prob": report.min_prob,
        "parity_violation_mass": report.parity_violation_mass,
        "residual_imag": report.residual_imag,
    }


def _cumulant_payload(cs) -> dict:
    def clean(x):
        return None if (isinstance(x, float) and math.isnan(x)) else x

    return {"kappa1": clean(cs.kappa1), "kappa2": clean(cs.kappa2),
            "kappa3": clean(cs.kappa3), "flavor": cs.flavor.value}


def _cumulants_from_dist(dist, flavor=CumulantFlavor.NUMERICAL_FROM_F) -> CumulantSet:
    mu1 = dist.raw_moment(1)
    mu2 = dist.raw_moment(2)
    mu3 = dist.raw_moment(3)
    return CumulantSet(kappa1=mu1, kappa2=mu2 - mu1 ** 2,
                          kappa3=mu3 - 3 * mu1 * mu2 + 2 * mu1 ** 3, flavor=flavor)


def _defect_tolerance(shots, grid_points: int) -> float:
    """Exact runs must be clean; sampled runs get a gate well above their
    expected noise floor (parity mass scales like sqrt(M / shots)), so exit
    code 2 flags anomalies rather than ordinary shot noise."""
    if shots is None:
        return EXACT_DEFECT_TOL
    return 6.0 * math.sqrt(grid_points / shots)


def run_probe(cfg: RunConfig) -> int:
    model, obs = _build_model_obs(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list = []

    warp_eta = cfg.eta if cfg.correct_eta else 0.0
    times = default_time_grid(obs, cfg.N, cfg.epsilon, eta=warp_eta, points=cfg.grid)
    error_model = GateErrorModel(cfg.eta)
    record = simulate_probe_shots(model, obs, cfg.epsilon, times, cfg.shots,
                                  error_model=error_model, seed=cfg.seed,
                                  workers=cfg.workers)
    samples = record.to_charfunc_samples()
    if cfg.correct_eta:
        raw = invert_with_gate_error(samples, cfg.eta, obs, cfg.N)
    else:
        raw = invert_dft(samples, obs, cfg.N)
    report = validate_distribution(raw)
    dist = raw.cleaned()

    payload = {
        "method": raw.meta.method,
        "validation": _report_payload(report),
        "numerical": _cumulant_payload(_cumulants_from_dist(dist)),
    }
    try:
        payload["closed"] = _cumulant_payload(closed_cumulants(model, obs))
    except InputError as exc:
        payload["closed"] = None
        payload["closed_unavailable"] = str(exc)
    if cfg.oracle:
        if cfg.N > ORACLE_N_LIMIT:
            raise InputError(f"--oracle requires N <= {ORACLE_N_LIMIT}")
        oracle = enumerate_oracle(model, obs)
        payload["oracle_comparison"] = {
            "max_abs_prob_deviation": float(np.abs(
                dist.probs - oracle.dist.probs).max()),
            "oracle_mean": oracle.dist.mean(),
        }

    _write(outdir, "effective-config.json", _json_text(asdict(cfg)), written)
    if "csv" in cfg.formats:
        _write(outdir, "coherence.csv", _coherence_csv(record), written)
        _write(outdir, "distribution.csv", _distribution_csv(dist), written)
    if "json" in cfg.formats:
        _write(outdir, "cumulants.json", _json_text(payload), written)
    if "svg" in cfg.formats:
        traces = svgplot.line_chart(record.time_grid,
                                    [("<sigma_x>", record.sx), ("<sigma_y>", record.sy)],
                                    title=f"probe coherence ({cfg.model}, {cfg.obs})",
                                    x_label="t", y_label="coherence")
        bars = svgplot.bar_chart(dist.support, dist.probs,
                                 title=f"P(x) for {cfg.obs}", x_label="x", y_label="P")
        _write(outdir, "plot.svg", svgplot.stack_svgs([traces, bars]), written)

    for path in written:
        print(path)
    if not report.worst_defect() <= _defect_tolerance(cfg.shots, times.size):  # NaN fails
        print(f"validation defects above tolerance: {_report_payload(report)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run_sm_error(cfg: RunConfig) -> int:
    """Gate-error demonstration: ideal vs distorted vs corrected reconstruction."""
    model, obs = _build_model_obs(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list = []
    eta = cfg.eta

    ideal_times = default_time_grid(obs, cfg.N, cfg.epsilon, points=cfg.grid)
    ideal = simulate_probe_exact(model, obs, cfg.epsilon, ideal_times)
    p_ideal = invert_dft(ideal.to_charfunc_samples(), obs, cfg.N)

    distorted = simulate_probe_shots(model, obs, cfg.epsilon, ideal_times, None,
                                     error_model=GateErrorModel(eta))
    p_naive = invert_dft(distorted.to_charfunc_samples(), obs, cfg.N)

    warped_times = default_time_grid(obs, cfg.N, cfg.epsilon, eta=eta, points=cfg.grid)
    warped = simulate_probe_shots(model, obs, cfg.epsilon, warped_times, None,
                                  error_model=GateErrorModel(eta))
    p_corrected = invert_with_gate_error(warped.to_charfunc_samples(), eta, obs, cfg.N)

    # a long dense record exposes the shifted recurrence for the estimator
    span = 1.3 * math.pi / (cfg.epsilon * min(1.0, 1.0 + eta))
    est_times = np.linspace(0.0, span, 4096)
    est_record = simulate_probe_shots(model, obs, cfg.epsilon, est_times, None,
                                      error_model=GateErrorModel(eta))
    eta_hat = estimate_gate_error(est_record)

    payload = {
        "eta_true": eta,
        "eta_estimate": eta_hat,
        "tv_naive_vs_ideal": total_variation(p_naive.cleaned(), p_ideal.cleaned()),
        "tv_corrected_vs_ideal": total_variation(p_corrected.cleaned(), p_ideal.cleaned()),
        "validation": _report_payload(validate_distribution(p_corrected)),
        "numerical": _cumulant_payload(_cumulants_from_dist(p_corrected.cleaned())),
        "closed": _cumulant_payload(closed_cumulants(model, obs)),
    }

    _write(outdir, "effective-config.json", _json_text(asdict(cfg)), written)
    if "csv" in cfg.formats:
        _write(outdir, "coherence.csv", _coherence_csv(ideal), written)
        _write(outdir, "coherence-distorted.csv", _coherence_csv(distorted), written)
        _write(outdir, "distribution.csv", _distribution_csv(p_ideal.cleaned()), written)
        _write(outdir, "distribution-naive.csv", _distribution_csv(p_naive.cleaned()), written)
        _write(outdir, "distribution-corrected.csv",
               _distribution_csv(p_corrected.cleaned()), written)
    if "json" in cfg.formats:
        _write(outdir, "cumulants.json", _json_text(payload), written)
    if "svg" in cfg.formats:
        traces = svgplot.line_chart(
            ideal.time_grid,
            [("<sigma_x> ideal", ideal.sx), ("<sigma_y> ideal", ideal.sy),
             ("<sigma_x> distorted", distorted.sx), ("<sigma_y> distorted", distorted.sy)],
            title=f"gate-error demonstration (eta={eta})", x_label="t", y_label="coherence")
        bars = svgplot.bar_chart(p_corrected.cleaned().support, p_corrected.cleaned().probs,
                                 title="corrected P(m)", x_label="m", y_label="P")
        _write(outdir, "plot.svg", svgplot.stack_svgs([traces, bars]), written)

    for path in written:
        print(path)
    report = validate_distribution(p_corrected)
    if not report.worst_defect() <= EXACT_DEFECT_TOL:  # NaN fails
        print(f"validation defects above tolerance: {_report_payload(report)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run(cfg: RunConfig) -> int:
    if cfg.command == "sm-error":
        return run_sm_error(cfg)
    return run_probe(cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = resolve_config(args)
        if args.command == "repro" and cfg.outdir == RunConfig.outdir:
            cfg = replace(cfg, outdir=str(Path(cfg.outdir) / args.preset))
        return run(cfg)
    except (KinkprobeError, OSError, ValueError) as exc:
        print(f"kinkprobe: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
