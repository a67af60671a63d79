"""Command-line frontend: model -> probe record -> distribution -> files.

Outputs per run directory: effective-config.json (the resolved settings),
coherence.csv (t, theta, sx, sy), distribution.csv (x, p; clipped), cumulants.json
(closed cumulants, those of the unclipped inversion, validation report, extras)
and an optional plot.svg.  A re-run into a used directory overwrites each file
it writes in place and leaves every other file as it was.  The argparse tree is
built once per process.  Exit codes: 0 ok, 1 input error, 2 validation-report
defects above tolerance, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import svgplot
from .charfunc import closed_cumulants, distribution_cumulants
from .distribution import total_variation, validate_distribution
from .errors import InputError, KinkprobeError
from .probe import default_time_grid, simulate_probe_shots
from .reconstruct import estimate_gate_error, invert_dft
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


@functools.cache  # parse_args leaves the parser as it was, so every call can share it
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


# JSON types a config file may give for each declared RunConfig type;
# formats may be "csv,json" or a list, shots may also be "exact"
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
                 "None": type(None), "tuple": (str, list)}


def _check_config_file(file_cfg) -> None:
    """Refuse keys a config file may not set and values of the wrong type."""
    if not isinstance(file_cfg, dict):
        raise InputError("a config file holds one JSON object of RunConfig fields")
    fields = RunConfig.__dataclass_fields__
    unknown = set(file_cfg) - set(fields)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    fixed = {"command", "preset"} & set(file_cfg)
    if fixed:
        raise InputError(f"config keys {sorted(fixed)} are set by the subcommand, not a file")
    for key, val in file_cfg.items():
        declared = fields[key].type  # the annotation text, e.g. "int | None"
        types = tuple(_CONFIG_TYPES[name] for name in declared.split(" | "))
        if isinstance(val, bool) != (declared == "bool") or not (
                isinstance(val, types) or (key == "shots" and val == "exact")):
            raise InputError(f"config key {key!r} has the wrong type: {val!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        _check_config_file(file_cfg)
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
    if cfg.oracle and cfg.N > ORACLE_N_LIMIT:
        raise InputError(f"--oracle requires N <= {ORACLE_N_LIMIT}")
    model = ModelParams(kind=_MODEL_KINDS[cfg.model], N=cfg.N, J=cfg.J, h=cfg.h, beta=cfg.beta)
    obs = _OBS_BUILDERS[cfg.obs](cfg.N)
    return model, obs


def _coherence_csv(record) -> str:
    rows = np.column_stack((record.time_grid, record.theta, record.sx, record.sy))
    return "t,theta,sx,sy\n" + ("%.17g,%.17g,%.17g,%.17g\n" * len(rows)
                                 % tuple(rows.ravel().tolist()))


def _distribution_csv(dist) -> str:
    rows = zip(dist.support.tolist(), dist.probs.tolist())  # a float column would round x
    return "x,p\n" + "".join(map("%d,%.17g\n".__mod__, rows))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cumulant_payload(cs) -> dict:
    def clean(x):
        return None if (isinstance(x, float) and math.isnan(x)) else x

    return {"kappa1": clean(cs.kappa1), "kappa2": clean(cs.kappa2),
            "kappa3": clean(cs.kappa3), "flavor": cs.flavor.value}


def _closed_block(model, obs) -> dict:
    """The closed cumulants, or null and the reason where none can be given."""
    try:
        return {"closed": _cumulant_payload(closed_cumulants(model, obs))}
    except InputError as exc:
        return {"closed": None, "closed_unavailable": str(exc)}


def _oracle_block(cfg: RunConfig, model, obs, dist) -> dict:
    """``dist`` against the enumeration oracle when ``cfg.oracle`` asks for it."""
    if not cfg.oracle:  # _build_model_obs has checked N
        return {}
    oracle = enumerate_oracle(model, obs).dist
    return {"oracle_comparison": {
        "max_abs_prob_deviation": float(np.abs(dist.probs - oracle.probs).max()),
        "oracle_mean": oracle.mean(),
    }}


def _defect_tolerance(shots, grid_points: int) -> float:
    """Exact runs must be clean; sampled runs get a gate well above their
    expected noise floor (parity mass scales like sqrt(M / shots)), so exit
    code 2 flags anomalies rather than ordinary shot noise."""
    if shots is None:
        return EXACT_DEFECT_TOL
    return 6.0 * math.sqrt(grid_points / shots)


def _write_outputs(cfg: RunConfig, tables: list, payload: dict, plot, report,
                   tolerance: float) -> int:
    """The output tail shared by every command.

    Writes effective-config.json, then the (name, text thunk) ``tables`` as
    CSV, cumulants.json and the ``plot`` thunk's SVG as ``cfg.formats`` asks;
    prints each path and returns EXIT_VALIDATION when the worst defect of
    ``report`` exceeds ``tolerance`` (NaN included).

    Each file is overwritten in place and then cut to the new text's length,
    since opening with O_TRUNC first frees the old blocks, which on ext4 made
    a re-run's write several times slower.  A thunk runs before its file is
    opened, so one that raises leaves the file as it was.  The write is not
    atomic: a crash part way can leave a file of new bytes and old ones.
    Files the run does not write keep their old contents.
    """
    files = [("effective-config.json", lambda: _json_text(asdict(cfg)))]
    if "csv" in cfg.formats:
        files += tables
    if "json" in cfg.formats:
        files.append(("cumulants.json", lambda: _json_text(payload)))
    if "svg" in cfg.formats:
        files.append(("plot.svg", plot))
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, thunk in files:
        text = thunk()
        fd = os.open(outdir / name, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.truncate()
    for name, _ in files:
        print(outdir / name)
    if not report.worst_defect() <= tolerance:  # NaN fails
        print(f"validation defects above tolerance: {asdict(report)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run_probe(cfg: RunConfig) -> int:
    model, obs = _build_model_obs(cfg)
    warp_eta = cfg.eta if cfg.correct_eta else 0.0
    times = default_time_grid(obs, cfg.epsilon, eta=warp_eta, points=cfg.grid)
    record = simulate_probe_shots(model, obs, cfg.epsilon, times, cfg.shots,
                                  eta=cfg.eta, seed=cfg.seed)
    raw = invert_dft(record, eta=warp_eta)
    report = validate_distribution(raw)
    dist = raw.cleaned()  # clipping would bias the cumulants, so they are taken from raw

    payload = {
        "method": raw.method,
        "validation": asdict(report),
        "numerical": _cumulant_payload(distribution_cumulants(raw)),
        **_closed_block(model, obs),
        **_oracle_block(cfg, model, obs, dist),
    }

    def plot():
        traces = svgplot.line_chart(record.time_grid,
                                    [("<sigma_x>", record.sx), ("<sigma_y>", record.sy)],
                                    title=f"probe coherence ({cfg.model}, {cfg.obs})",
                                    x_label="t", y_label="coherence")
        bars = svgplot.bar_chart(dist.support, dist.probs,
                                 title=f"P(x) for {cfg.obs}", x_label="x", y_label="P")
        return svgplot.stack_svgs([traces, bars])

    tables = [("coherence.csv", lambda: _coherence_csv(record)),
              ("distribution.csv", lambda: _distribution_csv(dist))]
    return _write_outputs(cfg, tables, payload, plot, report,
                          _defect_tolerance(cfg.shots, times.size))


def run_sm_error(cfg: RunConfig) -> int:
    """Gate-error demonstration: ideal vs distorted vs corrected reconstruction."""
    model, obs = _build_model_obs(cfg)
    eta = cfg.eta

    def exact_record(times, error):
        return simulate_probe_shots(model, obs, cfg.epsilon, times, None, eta=error)

    ideal_times = default_time_grid(obs, cfg.epsilon, points=cfg.grid)
    ideal = exact_record(ideal_times, 0.0)
    p_ideal = invert_dft(ideal).cleaned()
    distorted = exact_record(ideal_times, eta)
    p_naive = invert_dft(distorted).cleaned()
    warped_times = default_time_grid(obs, cfg.epsilon, eta=eta, points=cfg.grid)
    p_corrected = invert_dft(exact_record(warped_times, eta), eta=eta)
    report = validate_distribution(p_corrected)
    corrected = p_corrected.cleaned()

    # a long dense record exposes the shifted recurrence for the estimator
    span = 1.3 * math.pi / (cfg.epsilon * min(1.0, 1.0 + eta))
    eta_hat = estimate_gate_error(exact_record(np.linspace(0.0, span, 4096), eta))

    payload = {
        "eta_true": eta,
        "eta_estimate": eta_hat,
        "tv_naive_vs_ideal": total_variation(p_naive, p_ideal),
        "tv_corrected_vs_ideal": total_variation(corrected, p_ideal),
        "validation": asdict(report),
        "numerical": _cumulant_payload(distribution_cumulants(p_corrected)),
        **_closed_block(model, obs),
        **_oracle_block(cfg, model, obs, corrected),
    }

    def plot():
        traces = svgplot.line_chart(
            ideal.time_grid,
            [("<sigma_x> ideal", ideal.sx), ("<sigma_y> ideal", ideal.sy),
             ("<sigma_x> distorted", distorted.sx), ("<sigma_y> distorted", distorted.sy)],
            title=f"gate-error demonstration (eta={eta})", x_label="t", y_label="coherence")
        bars = svgplot.bar_chart(corrected.support, corrected.probs,
                                 title="corrected P(m)", x_label="m", y_label="P")
        return svgplot.stack_svgs([traces, bars])

    tables = [("coherence.csv", lambda: _coherence_csv(ideal)),
              ("coherence-distorted.csv", lambda: _coherence_csv(distorted)),
              ("distribution.csv", lambda: _distribution_csv(p_ideal)),
              ("distribution-naive.csv", lambda: _distribution_csv(p_naive)),
              ("distribution-corrected.csv", lambda: _distribution_csv(corrected))]
    return _write_outputs(cfg, tables, payload, plot, report, EXACT_DEFECT_TOL)


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
