"""Spans around the calls at kinkprobe's module boundaries (traced runs only).

``boundaries`` patches the names each module imported from the next layer,
so a call is recorded where it crosses a module boundary.  Names a later
version of the program no longer has are skipped, so the traced run keeps
working across refactors.  Spans stay in memory; ``layer_metrics`` turns
one pass of them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span
    job: int | None      # index of the job in the run
    note: float = 0.0    # work count the layer reports (phases, draws, ...)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job: int | None = None

    def call(self, name, fn, args=(), kwargs=None, note=None):
        kwargs = kwargs or {}
        span = Span(name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                span.note = float(note(args, result))
            return result
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return traced


def _grid_points(args, result):
    return len(args[0].theta)


def _rows(args, result):
    return len(result)  # phases evaluated, or configurations drawn


def _z_points(args, result):
    return len(result[0])  # (log scale, value), one entry per point


def _worst_defect(args, result):
    return result.worst_defect()


def _targets():
    """(owner, name, span name, note) for every boundary the program has."""
    cli = importlib.import_module("kinkprobe.cli")
    probe = importlib.import_module("kinkprobe.probe")
    # the package re-exports the function charfunc, which hides the module
    charfunc = importlib.import_module("kinkprobe.charfunc")
    svgplot = importlib.import_module("kinkprobe.svgplot")
    out = []
    for name in dir(cli):
        if name.startswith("simulate_probe"):
            out.append((cli, name, "probe.record", None))
        elif name.startswith("invert"):
            out.append((cli, name, "reconstruct.invert", _grid_points))
    out += [(cli, "estimate_gate_error", "reconstruct.estimate", None),
            (cli, "validate_distribution", "distribution.validate", _worst_defect),
            (cli, "closed_cumulants", "charfunc.cumulants", None),
            (cli, "ModelParams", "spin_model.build", None),
            (probe, "charfunc_values", "charfunc.values", _rows),
            (charfunc, "_znn_scaled_arrays", "partition.z", _z_points),
            (charfunc, "joint_counts", "charfunc.joint_counts", None)]
    builders = getattr(cli, "_OBS_BUILDERS", {})
    out += [(builders, name, "spin_model.build", None) for name in builders]
    out += [(svgplot, name, "svgplot.render", None) for name, fn in vars(svgplot).items()
            if callable(fn) and not name.startswith("_")
            and getattr(fn, "__module__", None) == svgplot.__name__]
    out += [(cls, "sample_batch", "probe.sampler", _rows) for cls in vars(probe).values()
            if isinstance(cls, type) and "sample_batch" in vars(cls)]
    return [t for t in out if _has(t[0], t[1])]


def _has(owner, name) -> bool:
    return name in owner if isinstance(owner, dict) else hasattr(owner, name)


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


@contextmanager
def boundaries(tracer: Tracer):
    """Record a span for every boundary call while the block runs."""
    targets = [(owner, name, span_name, note, _get(owner, name))
               for owner, name, span_name, note in _targets()]
    try:
        for owner, name, span_name, note, fn in targets:
            _set(owner, name, tracer.wrap(span_name, fn, note))
        yield tracer
    finally:
        for owner, name, _, _, fn in reversed(targets):
            _set(owner, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], gates: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and the self time of each span name.

    ``gates`` maps a job index to the defect level its exit code is gated on.
    Times named ``*_s`` include the time of nested spans, except the
    ``self_s`` ones.
    """
    incl, own, calls, notes = {}, {}, {}, {}
    worst = 0.0
    for s, s_own in zip(spans, self_times(spans)):
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + s_own
        calls[s.name] = calls.get(s.name, 0) + 1
        notes[s.name] = notes.get(s.name, 0.0) + s.note
        if s.name == "distribution.validate":
            worst = max(worst, s.note / gates[s.job])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def t(name):
        return incl.get(name, 0.0)

    return {
        "reconstruct.invert_s": t("reconstruct.invert"),
        "reconstruct.invert_calls": calls.get("reconstruct.invert", 0),
        "reconstruct.grid_points": notes.get("reconstruct.invert", 0.0),
        "reconstruct.estimate_s": t("reconstruct.estimate"),
        "charfunc.values_s": t("charfunc.values"),
        "charfunc.thetas": notes.get("charfunc.values", 0.0),
        "charfunc.thetas_per_s": rate(notes.get("charfunc.values", 0.0), t("charfunc.values")),
        "charfunc.cumulants_s": t("charfunc.cumulants"),
        "charfunc.joint_counts_s": t("charfunc.joint_counts"),
        "partition.z_s": t("partition.z"),
        "partition.z_points": notes.get("partition.z", 0.0),
        "probe.record_s": t("probe.record"),
        "probe.sampler_s": t("probe.sampler"),
        "probe.draws": notes.get("probe.sampler", 0.0),
        "probe.draws_per_s": rate(notes.get("probe.sampler", 0.0), t("probe.sampler")),
        "probe.self_s": own.get("probe.record", 0.0),
        "distribution.validate_s": t("distribution.validate"),
        "distribution.worst_defect_ratio": worst,
        "spin_model.build_s": t("spin_model.build"),
        "svgplot.render_s": t("svgplot.render"),
        "svgplot.calls": calls.get("svgplot.render", 0),
        "cli.self_s": own.get("cli", 0.0),
    }, own
