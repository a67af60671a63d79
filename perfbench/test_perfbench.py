"""Self-tests of the benchmark: contract output, tracing, correctness checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import worker
from jobs import Job, build_workload
from kinkprobe import ModelKind, ModelParams, charfunc_values, kink_number, simulate_probe_shots

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "presets", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench[section]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


SMALL_JOBS = [
    Job(key="ring-m", params=(("model", "ring"), ("obs", "magnetization"), ("N", 30),
                              ("J", 1.0), ("beta", 1.0), ("h", 0.2))),
    Job(key="lr-k", params=(("model", "longrange"), ("obs", "kinks"), ("N", 12),
                            ("J", 1.0), ("beta", 0.05), ("h", 0.0))),
    Job(key="sm-error", preset="sm-error", formats="csv,json,svg"),
]


def _traced_run(jobs, outdir: Path) -> spans.Tracer:
    tracer = spans.Tracer()
    with spans.boundaries(tracer):
        for i, job in enumerate(jobs):
            code, _ = worker.run_job(job, outdir / job.key, tracer, i)
            assert code == 0
    return tracer


def test_traced_and_untraced_runs_write_the_same_bytes(tmp_path):
    _traced_run(SMALL_JOBS, tmp_path / "traced")
    for job in SMALL_JOBS:
        code, _ = worker.run_job(job, tmp_path / "plain" / job.key)
        assert code == 0
        traced = checks.fingerprint(tmp_path / "traced" / job.key)
        assert checks.fingerprint(tmp_path / "plain" / job.key) == traced
        assert checks.check_job(job, tmp_path / "plain" / job.key, code) is None


def test_self_times_sum_to_job_time(tmp_path):
    tracer = _traced_run(SMALL_JOBS, tmp_path)
    own = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli"] * len(SMALL_JOBS)
    for i, root in enumerate(roots):
        total = sum(t for s, t in zip(tracer.spans, own) if s.job == i)
        assert total == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
    names = {s.name for s in tracer.spans}
    assert {"probe.record", "charfunc.values", "partition.z", "reconstruct.invert",
            "reconstruct.estimate", "distribution.validate", "svgplot.render",
            "spin_model.build"} <= names
    metrics, _ = spans.layer_metrics(tracer.spans, {i: 1e-9 for i in range(len(SMALL_JOBS))})
    assert metrics["reconstruct.invert_calls"] == 5  # one per probe run, three in sm-error


def test_chi_square_accepts_exact_and_rejects_wrong_beta():
    model = ModelParams(kind=ModelKind.RING, N=10, J=1.0, h=0.0, beta=0.4)
    obs = kink_number(10)
    times = 2.0 * np.pi * np.arange(11) / 11 / (2 * 0.01)
    exact = charfunc_values(model, obs, 2 * 0.01 * times)
    assert checks.chi2_pvalue(exact.real, exact.imag, exact, 2000) == 1.0
    for beta, accept in ((0.4, True), (0.8, False)):
        shifted = ModelParams(kind=ModelKind.RING, N=10, J=1.0, h=0.0, beta=beta)
        record = simulate_probe_shots(shifted, obs, 0.01, times, 2000, seed=3)
        p = checks.chi2_pvalue(record.sx, record.sy, exact, 2000)
        assert (p >= checks.CHI2_ALPHA) is accept, p


@pytest.mark.xfail(strict=True, reason=(
    "known Metropolis bias: in the ordered long-range regime the chains do not "
    "tunnel between the two wells, so the record fails the chi-square test "
    "(p about 1e-15 at this seed) while the CLI's own gate passes it"))
def test_ordered_longrange_shots_pass_chi_square(tmp_path):
    job = Job(key="lr-m-20-ordered", params=(
        ("model", "longrange"), ("obs", "magnetization"), ("N", 20), ("J", 1.0),
        ("beta", 0.2), ("h", 0.05), ("shots", 200), ("seed", 1)))
    code, _ = worker.run_job(job, tmp_path)
    assert code == 0
    assert checks.check_job(job, tmp_path, code) is None


def test_checks_catch_a_wrong_distribution(tmp_path):
    job = SMALL_JOBS[0]
    code, _ = worker.run_job(job, tmp_path)
    path = tmp_path / "distribution.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    x, p = rows[31].split(",")
    rows[31] = f"{x},{float(p) + 1e-6!r}"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert "max |p - p_ref|" in checks.check_job(job, tmp_path, code)


def test_pass_order_depends_only_on_seed():
    a, b = build_workload("presets", 7), build_workload("presets", 7)
    assert [j.key for j in a.pass_order(3)] == [j.key for j in b.pass_order(3)]
    assert sorted(j.key for j in a.pass_order(0)) == sorted(j.key for j in a.pass_order(1))

    def seeds(seed):
        return [dict(j.params)["seed"] for j in build_workload("shots-small-n", seed).jobs]

    assert seeds(7) == seeds(7) != seeds(8)
