"""One workload run, in a process of its own: set up, time passes, check outputs.

run.py starts this script with BLAS pinned to one thread.  It prints READY
once set-up is done, so run.py can time set-up from process start, and one
JSON object as its last line.  Every job is a ``kinkprobe.cli.main`` call
from this one thread, each started when the previous one has returned.

A pass runs the workload's job list once.  Passes repeat while the next one
is expected to end within ``--seconds``, and at least twice.  Outputs go to
a fresh directory under ``.perfbench-tmp`` in the checkout.  They are
checked after each pass, outside the timed region, and removed at the end.
With ``--trace 1`` untraced and traced passes alternate, in the same job
order, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kinkprobe  # noqa: E402
from kinkprobe import cli  # noqa: E402

import spans  # noqa: E402
from jobs import WORKLOADS, build_workload  # noqa: E402

TAIL_BEYOND = 10  # jobs above the reported tail latency


def run_job(job, outdir: Path, tracer=None, index=None) -> tuple[int, str]:
    """Exit code of one CLI call, and what it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                return cli.main(job.argv(str(outdir))), ""
            tracer.job = index
            return tracer.call("cli", cli.main, (job.argv(str(outdir)),)), ""
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this job; the run goes on
            traceback.print_exc()
            code = -1
    return code, sink.getvalue()


class Verdicts:
    """Checks each distinct job once; repeats must write the same bytes."""

    def __init__(self):
        self._first: dict = {}

    def judge(self, job, outdir: Path, code: int) -> str | None:
        import checks  # imported here so scipy stays out of set-up and memory

        try:
            fingerprint = checks.fingerprint(outdir)
        except OSError:
            fingerprint = None
        if job.key not in self._first:
            try:
                problem = checks.check_job(job, outdir, code)
            except Exception as exc:  # a broken output fails the job, not the run
                problem = f"check raised {exc!r}"
            self._first[job.key] = (fingerprint, problem)
            return problem
        first, problem = self._first[job.key]
        if code != 0:
            return f"exit code {code}"
        if fingerprint != first:
            return "outputs differ from the first run of this job"
        return problem


def _defect_gates(order, job_spans) -> dict:
    """The validation level each job's exit code is gated on, by job index."""
    import checks

    grid = {}
    for s in job_spans:
        if s.name == "reconstruct.invert":
            grid[s.job] = max(grid.get(s.job, 1), int(s.note))
    return {i: checks.defect_gate(dict(job.params).get("shots"), grid.get(i, 1))
            for i, job in enumerate(order)}


def _outdirs(order, root: Path) -> list:
    """One output directory per job in a pass, the same one in every pass.

    The n-th run of a job within a pass always writes to ``<key>-<n>``, so a
    pass overwrites the files the previous pass wrote, after they were
    checked.  Removing them between passes instead made file creation in
    later passes slow down erratically on an ext4 disk: over six interleaved
    pairs of runs, presets ``wall_s`` ranged from 0.66 to 1.05 s with
    removal, against 0.64 to 0.79 s without.
    """
    seen: dict = {}
    out = []
    for job in order:
        seen[job.key] = seen.get(job.key, -1) + 1
        out.append(root / f"{job.key}-{seen[job.key]}")
    return out


def _best_case(passes: list) -> list:
    """Each job's fastest latency over ``passes``, in the job order of a pass."""
    fastest = {}
    for r in passes:
        for key, t in zip(r["keys"], r["latencies"]):
            fastest[key] = min(fastest.get(key, t), t)
    return [fastest[key] for key in passes[0]["keys"]]


def _tail(latencies: list) -> tuple[float, float] | None:
    """Latency with TAIL_BEYOND jobs above it, and its percentile (at least p90)."""
    n = len(latencies)
    if n < 10 * TAIL_BEYOND:
        return None
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # numpy's build info varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "kinkprobe": getattr(kinkprobe, "__version__", "?"),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip()}


def measure(workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """Run timed passes and summarize them.

    Other tenants of the machine only ever add time to a job, so each job's
    fastest repeat in the run is its least disturbed time.  ``wall_s`` and
    ``job_p50_s`` are the sum and the median of those over one pass.  The
    per-layer figures come from the fastest traced pass, so that its self
    times add up to its wall time.
    """
    verdicts = Verdicts()
    passes = []
    attempted = 0
    failures: dict = {}
    peak_rss_mb = None
    step = 2 if trace else 1  # a traced run times untraced-traced pairs
    timed, index = 0.0, 0
    while True:
        traced = trace and index % 2 == 1
        order = workload.pass_order(index // 2 if trace else index)
        tracer = spans.Tracer() if traced else None
        outdirs = _outdirs(order, scratch / "out")
        codes, lat = [], []
        with spans.boundaries(tracer) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            for i, (job, outdir) in enumerate(zip(order, outdirs)):
                t0 = time.perf_counter()
                codes.append(run_job(job, outdir, tracer, i))
                lat.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
        if peak_rss_mb is None:  # set-up plus one pass, before any check ran
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed += wall
        record = {"wall": wall, "traced": traced, "latencies": lat,
                  "keys": [job.key for job in order]}

        # untimed from here: checks, output sizes, span summaries
        files = size = 0
        for job, outdir, (code, printed) in zip(order, outdirs, codes):
            attempted += 1
            problem = verdicts.judge(job, outdir, code)
            if problem:
                line = f"{job.key}: {problem}"
                if printed.strip():
                    line += f" [{printed.strip().splitlines()[-1]}]"
                failures[line] = failures.get(line, 0) + 1
            for path in outdir.rglob("*"):
                if path.is_file():
                    files += 1
                    size += path.stat().st_size
        if traced:
            gates = _defect_gates(order, tracer.spans)
            record["layers"], record["self_s"] = spans.layer_metrics(tracer.spans, gates)
            record["layers"].update({"cli.files_written": files, "cli.bytes_written": size})
        passes.append(record)
        index += 1
        # every job runs at least twice; stop before a step that would overrun
        if index % step == 0 and index >= 2:
            last = sum(r["wall"] for r in passes[-step:])
            if timed + last > seconds:
                break

    plain = [r for r in passes if not r["traced"]]
    best = _best_case(plain)
    tail = _tail([t for r in plain for t in r["latencies"]])
    result = {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "passes": len(plain),
        "pass_walls": [r["wall"] for r in passes],
        "jobs": sum(len(r["latencies"]) for r in plain),
        "jobs_per_pass": len(best),
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "peak_rss_mb": peak_rss_mb,
        "job_tail_s": tail[0] if tail else None,
        "job_tail_pct": tail[1] if tail else None,
    }
    if trace:
        traced = [r for r in passes if r["traced"]]
        fastest = min(traced, key=lambda r: r["wall"])
        result["layers"] = dict(fastest["layers"])
        result["layers"]["trace.overhead_frac"] = sum(_best_case(traced)) / sum(best) - 1.0
        result["traced_wall_s"] = fastest["wall"]
        result["self_s"] = fastest["self_s"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done (set-up timing)")
    args = parser.parse_args(argv)

    if not Path(kinkprobe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kinkprobe was imported from {kinkprobe.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = build_workload(args.workload, args.seed)
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        for job in workload.warmups:
            run_job(job, scratch / "warmup" / job.key)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            tmp_root.rmdir()
    result["hygiene"] = {
        "pid": os.getpid(),
        "threads": threading.active_count(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "KINKPROBE_THREADS")},
        "outputs_removed": not scratch.exists(),
    }
    result["machine"] = _machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
