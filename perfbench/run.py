"""Benchmark of the kinkprobe pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload presets --seed 3 --seconds 20 --trace 0

Each workload runs in a worker process of its own (worker.py) with BLAS
pinned to one thread.  An untraced run prints the end-to-end metrics, a
traced run (--trace 1) the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
WORKLOADS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9      # set-ups timed per untraced run (odd); the median is reported
TIME_LIMIT_S = 170.0   # one workload run, set-up samples included

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "reconstruct.invert_s": "s", "reconstruct.invert_calls": "count",
    "reconstruct.grid_points": "count", "reconstruct.estimate_s": "s",
    "charfunc.values_s": "s", "charfunc.thetas": "count", "charfunc.thetas_per_s": "1/s",
    "charfunc.cumulants_s": "s", "charfunc.joint_counts_s": "s",
    "partition.z_s": "s", "partition.z_points": "count",
    "probe.record_s": "s", "probe.sampler_s": "s", "probe.draws": "count",
    "probe.draws_per_s": "1/s", "probe.self_s": "s",
    "distribution.validate_s": "s", "distribution.worst_defect_ratio": "ratio",
    "spin_model.build_s": "s",
    "svgplot.render_s": "s", "svgplot.calls": "count",
    "cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "B",
    "trace.overhead_frac": "fraction",
}


class RunError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("KINKPROBE_THREADS", None)  # the CLI then runs its shots with one worker
    return env


def _worker(args: list, deadline: float, setup_only: bool):
    """Start worker.py; return (seconds from start to READY, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - start))[0]:
            raise subprocess.TimeoutExpired(cmd, TIME_LIMIT_S)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker did not finish within {TIME_LIMIT_S:.0f} s") from None
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode} {ready.strip()!r}")
    if setup_only:
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if trace:
        return _worker(args, deadline, setup_only=False)[1]
    # set-up samples before and after the measured run, which is one of them,
    # so that they span the run's time on the machine
    half = SETUP_SAMPLES // 2
    setups = [_worker(args, deadline, setup_only=True)[0] for _ in range(half)]
    setup, result = _worker(args, deadline, setup_only=False)
    setups += [setup] + [_worker(args, deadline, setup_only=True)[0] for _ in range(half)]
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def contract_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(name: str, seed: int, seconds: float, trace: bool, r: dict) -> list:
    kind = "traced" if trace else "untraced"
    lines = [f"== {name}: seed {seed}, {seconds:g} s, {kind}: {r['passes']} untraced "
             f"pass(es) of {r['jobs_per_pass']} jobs"]
    if not trace:
        tail = (f"{r['job_tail_s']:.6g} s (p{r['job_tail_pct']:.2f} of {r['jobs']} jobs)"
                if r["job_tail_s"] is not None else f"n/a (only {r['jobs']} jobs)")
        lines += [
            f"  setup_s      {r['setup_s']:.6g} s (median of {len(r['setup_samples'])} set-ups)",
            f"  wall_s       {r['wall_s']:.6g} s (one pass, each job at its fastest repeat)",
            f"  job_p50_s    {r['job_p50_s']:.6g} s (median over a pass, each job at its "
            f"fastest repeat)",
            f"  job_tail_s   {tail}",
            f"  peak_rss_mb  {r['peak_rss_mb']:.6g} MB",
        ]
    else:
        lines += [f"  {n:34s} {r['layers'][n]:.6g} {u}" for n, u in PER_LAYER.items()]
        total = sum(r["self_s"].values())
        lines.append(f"  self time in the fastest traced pass ({r['traced_wall_s']:.6g} s), "
                     f"by span:")
        for n, v in sorted(r["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {n:24s} {v:10.6f} s  {100 * v / r['traced_wall_s']:5.1f}%")
        lines.append(f"    {'sum':24s} {total:10.6f} s  {100 * total / r['traced_wall_s']:5.1f}%")
    frac = r["failed"] / r["attempted"]
    lines.append(f"  failed_frac  {frac:.6g} ({r['failed']} of {r['attempted']} jobs)")
    lines += [f"    {count} x {msg}" for msg, count in r["failures"].items()]
    h, m = r["hygiene"], r["machine"]
    lines.append(f"  hygiene: pid {h['pid']}, {h['threads']} thread(s), env {h['env']}, "
                 f"outputs removed: {h['outputs_removed']}")
    lines.append(f"  machine: {m['nproc']} CPUs ({m['cpus_usable']} usable), {m['cpu_model']}, "
                 f"Python {m['python']}, numpy {m['numpy']}, BLAS {m['blas']}, "
                 f"kinkprobe {m['kinkprobe']}")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: 0 with --workload, else both")
    parser.add_argument("--out", help="also write every result to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kinkprobe" / "__init__.py").is_file():
        print(f"perfbench: no kinkprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else (
        [False] if args.workload else [False, True])
    results = {}
    for name in names:
        for trace in traces:
            try:
                r = run_workload(name, args.seed, args.seconds, trace)
            except RunError as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 1
            print("\n".join(report(name, args.seed, args.seconds, trace, r)), flush=True)
            results[f"{name}/{'traced' if trace else 'untraced'}"] = r
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    line = [contract_line(r, key.endswith("/traced")) for key, r in results.items()]
    print(json.dumps(line[0] if len(line) == 1 else {k: v for k, v in zip(results, line)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
