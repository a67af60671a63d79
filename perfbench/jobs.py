"""Job lists of the three benchmark workloads, generated from a seed.

Every job is one ``kinkprobe.cli.main`` call.  A job carries the parameters
it asks for, so the correctness checks can compare them with the
``effective-config.json`` the run writes.  WORKLOADS.md says why each
workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-large-n", "shots-small-n", "presets")

# the repro presets as the program names them, fixed here so the workload
# does not change when a preset is added
PRESET_NAMES = ("fig2b", "fig2c", "fig3b", "fig3c", "sm-m-a", "sm-m-b", "sm-m-c",
                "sm-m-d", "sm-k-a", "sm-k-b", "sm-error")
PRESET_ROUNDS = 20  # shuffled rounds of all presets in one pass


@dataclass(frozen=True)
class Job:
    key: str               # names the job; repeats of one key write the same bytes
    params: tuple = ()     # (flag, value) pairs of a ``probe`` job
    preset: str | None = None
    formats: str = "csv,json"

    def argv(self, outdir: str) -> list:
        if self.preset is not None:
            head = ["repro", self.preset]
        else:
            head = ["probe"]
            for flag, value in self.params:
                if value is True:
                    head.append(f"--{flag}")
                else:
                    head += [f"--{flag}", str(value)]
        return head + ["--formats", self.formats, "--outdir", outdir]

    def requested(self) -> dict:
        """Settings the run must report in effective-config.json."""
        if self.preset is not None:
            return {"preset": self.preset}
        return {flag.replace("-", "_"): value for flag, value in self.params}


def _probe(key, model, obs, n, beta, h, j=1.0, **extra) -> Job:
    params = [("model", model), ("obs", obs), ("N", n), ("J", j), ("beta", beta), ("h", h)]
    params += [(flag.replace("_", "-"), value) for flag, value in extra.items()]
    return Job(key=key, params=tuple(params))


def _exact_large_n() -> list:
    return [
        _probe("ring-m-1000", "ring", "magnetization", 1000, 1.0, 0.1),
        _probe("ring-m-4000", "ring", "magnetization", 4000, 1.0, 0.1),
        _probe("ring-k-1000", "ring", "kinks", 1000, 0.5, 0.0),
        _probe("ring-k-10000", "ring", "kinks", 10000, 0.5, 0.0),
        _probe("lr-m-1000", "longrange", "magnetization", 1000, 0.5 / 1000, 1.0),
        _probe("lr-m-4000", "longrange", "magnetization", 4000, 0.5 / 4000, 1.0),
        _probe("lr-m-2000-eta", "longrange", "magnetization", 2000, 0.5 / 2000, 1.0,
               eta=0.02, correct_eta=True),
    ]


def _shots_small_n(rng: random.Random) -> list:
    # No ordered long-range job (beta = 0.2, h = 0.05): its Metropolis record
    # fails the chi-square check on every seed, and a workload must run
    # without failures.  test_perfbench.py keeps that defect in view.
    specs = [
        ("ring-m-50-1e3", "ring", "magnetization", 50, 1.0, 0.2, 1000),    # fig2c
        ("ring-m-50-1e4", "ring", "magnetization", 50, 1.0, 0.2, 10000),   # fig2c
        ("ring-k-50-1e3", "ring", "kinks", 50, 0.1, 0.0, 1000),            # fig3b
        ("lr-m-20-disordered", "longrange", "magnetization", 20, 0.02, 0.0, 200),
        ("lr-k-20", "longrange", "kinks", 20, 0.05, 0.0, 200),             # sm-k-a
    ]
    return [_probe(key, model, obs, n, beta, h, shots=shots, seed=rng.randrange(1 << 31))
            for key, model, obs, n, beta, h, shots in specs]


def _warmups(workload: str) -> list:
    """One small job per route the workload takes, run before timing starts."""
    if workload == "exact-large-n":
        return [_probe("warm-ring-m", "ring", "magnetization", 8, 1.0, 0.1),
                _probe("warm-ring-k", "ring", "kinks", 8, 0.5, 0.0),
                _probe("warm-lr-m", "longrange", "magnetization", 8, 0.05, 1.0),
                _probe("warm-lr-m-eta", "longrange", "magnetization", 8, 0.05, 1.0,
                       eta=0.02, correct_eta=True)]
    if workload == "shots-small-n":
        # the long-range sampler's burn-in grows with N, so its warm-ups are tiny
        return [_probe("warm-ring-m", "ring", "magnetization", 8, 1.0, 0.2, shots=20, seed=1),
                _probe("warm-ring-k", "ring", "kinks", 8, 0.1, 0.0, shots=20, seed=1),
                _probe("warm-lr-m", "longrange", "magnetization", 4, 0.2, 0.05,
                       shots=4, seed=1),
                _probe("warm-lr-k", "longrange", "kinks", 4, 0.05, 0.0, shots=4, seed=1)]
    # the presets are small already; one per route, which also fills the
    # joint-count cache at the N = 20 the long-range kink presets use
    return [Job(key=f"warm-{p}", preset=p, formats="csv,json,svg")
            for p in ("fig2c", "fig3b", "sm-m-a", "sm-k-a", "sm-error")]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple        # the distinct jobs
    warmups: tuple

    def pass_order(self, index: int) -> list:
        """Jobs of timed pass ``index``, in an order fixed by the seed."""
        rng = random.Random(f"{self.seed}/{index}")
        if self.name != "presets":
            order = list(self.jobs)
            rng.shuffle(order)
            return order
        out = []
        for _ in range(PRESET_ROUNDS):
            round_ = list(self.jobs)
            rng.shuffle(round_)
            out += round_
        return out


def build_workload(name: str, seed: int) -> Workload:
    if name == "exact-large-n":
        jobs = _exact_large_n()
    elif name == "shots-small-n":
        jobs = _shots_small_n(random.Random(seed))
    elif name == "presets":
        jobs = [Job(key=p, preset=p, formats="csv,json,svg") for p in PRESET_NAMES]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=name, seed=seed, jobs=tuple(jobs), warmups=tuple(_warmups(name)))
