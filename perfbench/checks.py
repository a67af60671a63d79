"""Correctness checks of one job's output directory, run outside the timed region.

Exact runs are compared with a reference computed another way:

* N <= 20: the 2^N enumeration oracle, pointwise;
* ring, 20 < N < 1000: joint (m, k) configuration counts, reweighted;
* long-range magnetization: the sector sum over the number of down spins,
  written here from the Hamiltonian;
* ring, N >= 1000: the closed-form cumulants (dominant transfer eigenvalue,
  exact to O((lambda_-/lambda_+)^N)).

Shot runs must pass a chi-square test of sx and sy against the exact F.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from kinkprobe import (ModelKind, ModelParams, charfunc_values, closed_cumulants,
                       enumerate_oracle, kink_number, magnetization)

ORACLE_MAX_N = 20
LARGE_N = 1000
PROB_TOL = 1e-9        # pointwise |p - p_ref| of an exact reconstruction
CUMULANT_RTOL = 1e-6   # relative error of kappa_1..3 against the closed forms
NOISE_FLOOR = 1e-12    # entries at or below this are the inversion's float noise
ETA_TOL = 1e-3         # |eta_estimate - eta| of the gate-error preset
CHI2_ALPHA = 1e-6      # a record whose chi-square p-value is below this fails
# the CLI's exit-code gate on the worst validation defect (see its README)
EXACT_DEFECT_GATE = 1e-9
SHOT_DEFECT_GATE = 6.0  # times sqrt(M / shots)

# outputs the program promises to write byte for byte the same for a fixed seed
BYTE_STABLE = ("*.csv", "*.svg", "cumulants.json")


def defect_gate(shots, grid_points: int) -> float:
    if shots is None:
        return EXACT_DEFECT_GATE
    return SHOT_DEFECT_GATE * math.sqrt(grid_points / shots)


def fingerprint(outdir: Path) -> dict:
    """Bytes of the byte-stable outputs, plus the config minus its outdir."""
    out = {}
    for pattern in BYTE_STABLE:
        for path in sorted(outdir.glob(pattern)):
            out[path.name] = path.read_bytes()
    cfg = _config(outdir)
    cfg.pop("outdir", None)
    out["effective-config.json"] = json.dumps(cfg, sort_keys=True).encode()
    return out


def _config(outdir: Path) -> dict:
    return json.loads((outdir / "effective-config.json").read_text(encoding="utf-8"))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _model_obs(cfg: dict):
    kind = ModelKind.RING if cfg["model"] == "ring" else ModelKind.LONG_RANGE
    model = ModelParams(kind=kind, N=cfg["N"], J=cfg["J"], h=cfg["h"], beta=cfg["beta"])
    obs = magnetization(cfg["N"]) if cfg["obs"] == "magnetization" else kink_number(cfg["N"])
    return model, obs


def _normalized(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _longrange_magnetization(model: ModelParams):
    """P(M) from the sector sum: C(N, d) configurations with d down spins share
    E = -J (M^2 - N) / 2 - h M, M = N - 2d."""
    n = model.N
    d = np.arange(n + 1)
    m = n - 2 * d
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                          for k in range(n + 1)])
    energy = -model.J * (m * m - n) / 2.0 - model.h * m
    probs = np.zeros(2 * n + 1)  # support -N..N; the other parity stays empty
    probs[m + n] = _normalized(log_binom - model.beta * energy)
    return np.arange(-n, n + 1), probs


def _shift(a: np.ndarray, dm: int, dk: int) -> np.ndarray:
    # no count reaches the array edge: |m| and k stay below the sites placed
    return np.roll(np.roll(a, dm, axis=0), dk, axis=1)


def _ring_joint_counts(n: int) -> np.ndarray:
    """Q[m + N, k]: ring configurations with magnetization m and k kinks.

    Sites are placed one by one, tracking the first and the last spin; the
    wrap bond closes the ring.  Floats carry the counts, which is exact to
    float rounding, plenty for a 1e-9 comparison.
    """
    q = np.zeros((2 * n + 1, n + 1))
    for first in (1, -1):
        by_last = {s: np.zeros_like(q) for s in (1, -1)}
        by_last[first][first + n, 0] = 1.0
        for _ in range(n - 1):
            by_last = {new: sum(_shift(by_last[cur], new, int(new != cur)) for cur in (1, -1))
                       for new in (1, -1)}
        for last, counts in by_last.items():
            q += _shift(counts, 0, int(last != first))
    return q


def _ring_from_joint_counts(model: ModelParams, obs_kind: str):
    """P(x) from the (m, k) counts: E = -J (N - 2k) - h m on the ring."""
    n = model.N
    q = _ring_joint_counts(n)
    m = np.arange(-n, n + 1)[:, None]
    k = np.arange(n + 1)[None, :]
    present = q > 0
    logw = np.where(present, np.log(np.where(present, q, 1.0))
                    + model.beta * (model.J * (n - 2 * k) + model.h * m), -np.inf)
    p = _normalized(logw)
    if obs_kind == "magnetization":
        return np.arange(-n, n + 1), p.sum(axis=1)
    return np.arange(n + 1), p.sum(axis=0)


def reference_distribution(cfg: dict):
    """(support, probabilities) computed without the program's F routes, or None."""
    model, obs = _model_obs(cfg)
    if model.N <= ORACLE_MAX_N:
        dist = enumerate_oracle(model, obs).dist
        return dist.support, dist.probs
    if model.kind is ModelKind.LONG_RANGE and cfg["obs"] == "magnetization":
        return _longrange_magnetization(model)
    if model.kind is ModelKind.RING and model.N < LARGE_N:
        return _ring_from_joint_counts(model, cfg["obs"])
    return None


def _compare_distribution(path: Path, ref) -> str | None:
    data = _read_csv(path)
    x, p = data[:, 0].astype(np.int64), data[:, 1]
    support, probs = ref
    if not np.array_equal(x, support):
        return f"{path.name}: support differs from the reference"
    worst = float(np.abs(p - probs).max())
    if worst > PROB_TOL:
        return f"{path.name}: max |p - p_ref| = {worst:.3g} > {PROB_TOL:g}"
    return None


def _cumulants(x: np.ndarray, p: np.ndarray) -> tuple:
    k1 = float(p @ x)
    c = x - k1
    return k1, float(p @ c ** 2), float(p @ c ** 3)


def _compare_cumulants(path: Path, cfg: dict) -> str | None:
    model, obs = _model_obs(cfg)
    data = _read_csv(path)
    # noise in the far tails would dominate kappa_3 through the (x - mu)^3 weight
    x, p = data[:, 0], data[:, 1]
    keep = p > NOISE_FLOOR
    got = _cumulants(x[keep], p[keep] / p[keep].sum())
    closed = closed_cumulants(model, obs)
    want = (closed.kappa1, closed.kappa2, closed.kappa3)
    for order, (g, w) in enumerate(zip(got, want), start=1):
        if abs(g - w) > CUMULANT_RTOL * abs(w):
            return f"{path.name}: kappa{order} = {g!r}, closed form {w!r}"
    return None


def chi2_pvalue(sx, sy, f_exact, shots: int) -> float:
    """p-value of the shot record against the exact F.

    Each readout is a mean of +-1 outcomes, so a point has variance
    (1 - Re F^2) / shots for sx and (1 - Im F^2) / shots for sy.  A point
    with zero variance must hit its mean exactly.
    """
    stat, dof = 0.0, 0
    for got, mean in ((sx, f_exact.real), (sy, f_exact.imag)):
        var = (1.0 - mean ** 2) / shots
        certain = var < 1e-12
        if np.any(np.abs(got[certain] - mean[certain]) > 1e-9):
            return 0.0
        dev = got[~certain] - mean[~certain]
        stat += float(np.sum(dev * dev / var[~certain]))
        dof += int(np.count_nonzero(~certain))
    return float(chi2.sf(stat, dof)) if dof else 1.0


def _check_shots(outdir: Path, cfg: dict) -> str | None:
    model, obs = _model_obs(cfg)
    data = _read_csv(outdir / "coherence.csv")
    theta, sx, sy = data[:, 1], data[:, 2], data[:, 3]
    f = charfunc_values(model, obs, theta * (1.0 + cfg["eta"]))
    p = chi2_pvalue(sx, sy, f, cfg["shots"])
    if p < CHI2_ALPHA:
        return f"coherence.csv: chi-square p = {p:.3g} < {CHI2_ALPHA:g} against the exact F"
    return None


def _check_sm_error(outdir: Path, cfg: dict) -> str | None:
    ref = reference_distribution(cfg)
    for name in ("distribution.csv", "distribution-corrected.csv"):
        problem = _compare_distribution(outdir / name, ref)
        if problem:
            return problem
    payload = json.loads((outdir / "cumulants.json").read_text(encoding="utf-8"))
    if abs(payload["eta_estimate"] - cfg["eta"]) > ETA_TOL:
        return f"eta estimate {payload['eta_estimate']!r} is off eta = {cfg['eta']!r}"
    return None


def check_job(job, outdir: Path, exit_code: int) -> str | None:
    """None if the run is correct, else one line saying what is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    cfg = _config(outdir)
    for key, value in job.requested().items():
        if cfg.get(key) != value:
            return f"effective-config.json: {key} = {cfg.get(key)!r}, asked for {value!r}"
    if cfg.get("workers", 1) != 1:
        return f"ran with {cfg['workers']} workers, not 1"
    if cfg["shots"] is not None:
        return _check_shots(outdir, cfg)
    if cfg["command"] == "sm-error":
        return _check_sm_error(outdir, cfg)
    ref = reference_distribution(cfg)
    if ref is None:
        return _compare_cumulants(outdir / "distribution.csv", cfg)
    return _compare_distribution(outdir / "distribution.csv", ref)
