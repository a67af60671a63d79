"""Command-line frontend: model -> probe record -> distribution -> files.

Outputs per run directory: effective-config.json (the resolved settings),
coherence.csv (t, theta, sx, sy), distribution.csv (x, p; Distribution.cleaned),
cumulants.json and an optional plot.svg; sm-error adds coherence-distorted.csv,
distribution-naive.csv and distribution-corrected.csv.  Every run reports
through _report, from the record it inverted: cumulants.json holds the
validation, numerical (of the unclipped inversion), closed and, with --oracle,
oracle blocks beside the run's own keys; plot.svg stacks the coherence above
the cleaned distribution; the exit gate is that record's tolerance.  CSV floats
are '%.17g' and integers '%d'; a table of _BULK_ROWS rows or more is formatted
in numpy chunks to the same bytes (_csv_table).  Under glibc the first such
table sets the process's allocator to keep the heap it frees
(_keep_freed_heap): a process runs one pipeline, and each chunk then reuses
the memory the last one freed instead of faulting it in again; no output
changes.  A re-run into a used directory overwrites each file it writes in
place and leaves every other file as it was.  The argparse tree is built once
per process.  Exit codes: 0 ok, 1 input error, 2 validation-report defects
above tolerance, 64 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import svgplot
from .charfunc import closed_cumulants, distribution_cumulants
from .distribution import total_variation, validate_distribution
from .errors import InputError, KinkprobeError
from .probe import default_time_grid, simulate_probe_shots
from .reconstruct import estimate_gate_error, gate_error_times, invert_dft
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
    shared = argparse.ArgumentParser(add_help=False)  # the flags both subcommands take
    shared.add_argument("--outdir", type=str)
    shared.add_argument("--formats", type=str, help="comma list from csv,json,svg")
    shared.add_argument("--grid", type=int, help="phase-grid points (>= minimal)")
    shared.add_argument("--oracle", action="store_true", default=None,
                        help=f"append enumeration comparison (N <= {ORACLE_N_LIMIT})")

    probe = sub.add_parser("probe", parents=[shared], help="run the full pipeline once")
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
    probe.add_argument("--config", type=str, help="JSON file with RunConfig fields")

    repro = sub.add_parser("repro", parents=[shared], help="regenerate a named figure dataset")
    repro.add_argument("preset", choices=sorted(PRESETS))
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
    return RunConfig(**merged)


def _build_model_obs(cfg: RunConfig):
    if cfg.model not in _MODEL_KINDS:
        raise InputError(f"unknown model {cfg.model!r}")
    if cfg.obs not in _OBS_BUILDERS:
        raise InputError(f"unknown observable {cfg.obs!r}")
    if cfg.oracle and cfg.N > ORACLE_N_LIMIT:
        raise InputError(f"--oracle requires N <= {ORACLE_N_LIMIT}")
    model = ModelParams(kind=_MODEL_KINDS[cfg.model], N=cfg.N, J=cfg.J, h=cfg.h, beta=cfg.beta)
    obs = _OBS_BUILDERS[cfg.obs](cfg.N)
    return model, obs


_BULK_ROWS = 1000     # tables from this many rows up take the numpy route of _csv_table
_CHUNK_CELLS = 16384  # values per numpy chunk
_TIE_BAND = 1e-6      # entries this close to a rounding tie take the % route
_X_LO, _X_HI = -324, 308  # decimal exponents of the nonzero finite doubles
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc keep the heap it frees, for the rest of the process.

    Each chunk of _csv_table's numpy route frees a few MB of temporaries.  By
    default glibc hands that heap top back to the kernel, and the next chunk
    faults it in again: 1,700 to 3,300 minor faults in one pass of the seven
    exact N = 1e3 to 1e4 benchmark jobs, and 0 to 2 once this is set.  The
    heap is then trimmed only when 64 MiB lie free at its top, and only blocks
    of 16 MiB or more are mmapped.  Both are set, because fixing the trim
    threshold alone also stops glibc raising its mmap threshold from 128 KiB,
    so the larger temporaries would still be mmapped and faulted in on every
    call.  A no-op where the C library is not glibc; it never raises.
    """
    try:
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "gnu_get_libc_version"):
            return
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)


@functools.cache
def _pow10_table():
    """Per decimal exponent X, row X - _X_LO: (hh, hl, l, b) with 10**(16 - X)
    = (hh + hl + l) * 2**b to 2**-105 relative, hh + hl an integer in
    [2**52, 2**53) cut into halves of at most 27 bits for Dekker's product."""
    pows = [1]
    for _ in range(max(16 - _X_LO, _X_HI - 16)):
        pows.append(pows[-1] * 10)
    rows = []
    for k in range(16 - _X_LO, 15 - _X_HI, -1):  # r = floor(10**k * 2**t) has 117 bits
        p = pows[abs(k)]
        if k >= 0:
            t = 117 - p.bit_length()
            r = p << t if t >= 0 else p >> -t
        else:
            t = 116 + p.bit_length()
            r = (1 << t) // p
        rows.append((r >> 64, (r & (2**64 - 1)) / 2**64, 64 - t))
    h, l, b = zip(*rows)
    h = np.array(h, dtype=float)
    c = h * 134217729.0  # 2**27 + 1
    hh = c - (c - h)
    return hh, h - hh, np.array(l), np.array(b, dtype=np.int32)


@functools.cache
def _exponent_slots():
    """Per decimal exponent X, row X - _X_LO: the digit after which '%.17g'
    puts its point (-1: before the digits, after '0.'), and as one 10-byte item
    the characters X alone fixes: up to five of '0.000' before the digits and
    up to five of 'e+308' after them, NUL where there is none."""
    x = np.arange(_X_LO, _X_HI + 1)
    sci = (x < -4) | (x > 16)
    small = ~sci & (x < 0)
    ax = np.abs(x)
    zero = ord("0")
    chars = np.array([small * zero, small * ord("."), (small & (x < -1)) * zero,
                      (small & (x < -2)) * zero, (small & (x < -3)) * zero,
                      sci * ord("e"), sci * np.where(x < 0, ord("-"), ord("+")),
                      (sci & (ax > 99)) * (zero + ax // 100),
                      sci * (zero + ax // 10 % 10), sci * (zero + ax % 10)], dtype=np.uint8)
    point = np.where(sci, 0, np.maximum(x, -1)).astype(np.int8)
    return point, np.ascontiguousarray(chars.T).view("V10").ravel()


@functools.cache
def _digit_quads():
    """The ASCII of 0000 to 9999, one 4-byte item each."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    return np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), -1).view("V4").ravel()


def _digits(v, width: int):
    """The low ``width`` (a multiple of 4) decimal digits of the integers
    ``v >= 0`` as ASCII, shape (width, *v.shape)."""
    groups = np.empty((width // 4,) + v.shape, np.int64)
    for g in range(width // 4 - 1, -1, -1):
        q = v // 10000
        groups[g] = v - q * 10000
        v = q
    chars = _digit_quads().take(groups).view(np.uint8).reshape(groups.shape + (4,))
    return np.moveaxis(chars, -1, 1).reshape((width,) + groups.shape[1:])


def _round17(a):
    """(D, i, flagged) for the finite ``a > 0``: D = round(a * 10**(16 - X)) in
    [1e16, 1e17), the 17 digits of '%.17g' % a, and i = X - _X_LO.

    The product is a double-double: Dekker's exact two-product (1971) of a's
    mantissa with the integer part of the table row, plus the small terms.
    It is within 7e-15 of a * 10**(16 - X) by the rounding count, and 4e5
    random doubles gave at most 3.7e-15.  An entry within _TIE_BAND of a
    rounding tie is flagged, so the last digit never rests on that error;
    2**49 + 0.125 is such a tie ('562949953421312.12', half to even).  The
    decimal exponent X comes from log10 and can be one off next to a power of
    ten.  D then falls outside [1e16, 1e17), or equals 1e16 for an ``a`` just
    below a power of ten, and the entry is flagged unless that rounds the same.
    """
    m, ex = np.frexp(a)
    i = np.floor(np.log10(a)).astype(np.int32) - _X_LO
    thh, thl, tl, tb = _pow10_table()
    hh, hl = thh.take(i), thl.take(i)
    p = m * (hh + hl)
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # m * (hh + hl) = p + err exactly
    scale = np.ldexp(1.0, tb.take(i) + ex)
    frac = (err + m * tl.take(i)) * scale
    up = np.rint(frac)
    whole = (p * scale).astype(np.int64)  # an integer once scaled past 2**53
    D = whole + up.astype(np.int64)
    outside = (D - 10**16).view(np.uint64) >= 9 * 10**16  # D not in [1e16, 1e17)
    flagged = (np.abs(frac - up) > 0.5 - _TIE_BAND) | outside
    low = np.flatnonzero(D == 10**16)  # right unless a * 10**(16 - X) < 1e16 - 0.05
    flagged.flat[low] |= (whole.flat[low] - 10**16) + frac.flat[low] < _TIE_BAND - 0.05
    return D, i, flagged


def _float_slots(x):
    """'%.17g' of each entry of x, shape (F, n), as ASCII slots (F, 45, n) with
    NUL where there is no character, and the rows (n,) that hold an entry the
    slots may get wrong (flagged or not finite).  The slots of an entry: sign,
    '0.000' (5), the 17 digits with a point slot after each of the first 16,
    'e+308' (5), separator."""
    a = np.abs(x)
    finite, zero = np.isfinite(a), a == 0
    D, i, flagged = _round17(np.where(finite & ~zero, a, 1.0))
    dig = np.empty((17,) + x.shape, np.uint8)
    d0 = D // 10**16
    dig[0] = ord("0") + d0 - zero  # a zero went through as 1.0, so its digits read 0000...
    dig[1:] = _digits(D - d0 * 10**16, 16)
    point, fixed = _exponent_slots()
    pp = point.take(i)
    j = np.arange(17, dtype=np.int8)[:, None, None]
    last = np.maximum(pp, ((dig != ord("0")) * (j + 1)).max(axis=0) - 1)  # last digit written
    dig *= j <= last
    slots = np.empty((x.shape[0], 45, x.shape[1]), np.uint8)
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    ends = fixed.take(i).view(np.uint8).reshape(x.shape + (10,))
    slots[:, 1:6] = ends[..., :5].transpose(0, 2, 1)
    slots[:, 6:39:2] = dig.transpose(1, 0, 2)
    dot = (j[:16] == np.where(last > pp, pp, -1)) * np.uint8(ord("."))
    slots[:, 7:38:2] = dot.transpose(1, 0, 2)
    slots[:, 39:44] = ends[..., 5:].transpose(0, 2, 1)
    slots[:, 44] = ord(",")
    return slots, (flagged | ~finite).any(axis=0)


def _int_slots(v):
    """'%d' of the int64 v, shape (n,), as ASCII slots (sign, digits, separator)
    with NUL where there is no character, as in _float_slots."""
    neg = v < 0
    mag = np.where(neg, 0 - v.view(np.uint64), v.view(np.uint64))  # |v|, -2**63 included
    width = -(-len(str(int(mag.max()))) // 4) * 4
    slots = np.empty((width + 2,) + v.shape, np.uint8)
    slots[0] = neg * np.uint8(ord("-"))
    dig = _digits(mag, width)
    lead = dig != ord("0")
    lead[-1] = True
    slots[1:-1] = dig * np.logical_or.accumulate(lead, axis=0)
    slots[-1] = ord(",")
    return slots


def _csv_chunk(ints, floats, line: str) -> bytes:
    """The lines of one chunk of _csv_table, as ASCII."""
    fslots, flagged = _float_slots(np.array(floats))
    m = np.concatenate([_int_slots(v) for v in ints] + [fslots.reshape(-1, len(floats[0]))])
    m[-1] = ord("\n")
    rows = m[m.any(axis=1)].T  # slots no row uses are dropped before the transpose
    out, start = [], 0
    for r in np.flatnonzero(flagged):
        out += [rows[start:r].tobytes().translate(None, b"\0"),
                (line % tuple(c[r].item() for c in ints + floats)).encode()]
        start = r + 1
    out.append(rows[start:].tobytes().translate(None, b"\0"))
    return b"".join(out)


def _csv_table(header: str, ints, floats) -> bytes:
    """``header`` and one line per row: the ``ints`` columns as '%d', then the
    ``floats`` columns as '%.17g', comma separated; the ASCII bytes of the % line.

    CPython writes '%.17g' through dtoa's bignum path, 0.5 to 0.7 us a value,
    so a table of _BULK_ROWS rows or more is formatted in numpy instead, in
    chunks of _CHUNK_CELLS values.  _round17 gives each float's 17 digits, and
    a row with an entry it flags, or with a non-finite one, is written by the %
    line.  The %g rules fill a slot matrix with NUL where there is no
    character: fixed notation for decimal exponents -4 to 16, trailing zeros
    and a bare point dropped, '-0', an exponent of at least two digits.  Its
    transpose without the NULs is the text.

    Measured on a shared 2-CPU Xeon (CPU time, best of 20 alternating runs):
    at 10001 rows the coherence takes 6.3 ms instead of 21.0, the
    distribution 2.5 ms instead of 6.0.  A process builds the numpy route's
    tables once, in 1 to 2.5 ms.  After that the route is the faster one from
    about 100 rows of the coherence and 350 of the distribution; a fresh
    process writing both tables breaks even between 900 and 1500 rows.  With
    the heap kept (_keep_freed_heap), both tables at 8001 and 10001 rows took
    16.1, 14.8, 13.9, 12.7 and 12.6 ms in chunks of 2048 to 32768 values.  In
    two sets of ten alternating pairs of the benchmark's exact N = 1e3 to 1e4
    jobs, chunks of 16384 beat 8192 in 9 of 10 pairs each (wall time -3% and
    -7%), and 4096 lost 9 of 10 to 8192.  At 16384 a 10001-row coherence
    table peaks at 2.7 MB of traced memory, against 1.7 MB at 8192.
    """
    ints = [np.asarray(c, dtype=np.int64) for c in ints]
    floats = [np.asarray(c, dtype=float) for c in floats]
    cols = ints + floats
    line = "%d," * len(ints) + ",".join(["%.17g"] * len(floats)) + "\n"
    n = len(floats[0])
    if n < _BULK_ROWS:
        cells = [None] * (n * len(cols))
        for k, c in enumerate(cols):
            cells[k::len(cols)] = c.tolist()
        return (header + line * n % tuple(cells)).encode("ascii")
    _keep_freed_heap()
    step = _CHUNK_CELLS // len(cols)
    return b"".join([header.encode()] + [
        _csv_chunk([c[s:s + step] for c in ints], [c[s:s + step] for c in floats], line)
        for s in range(0, n, step)])


def _coherence_csv(record) -> bytes:
    return _csv_table("t,theta,sx,sy\n", (),
                      (record.time_grid, record.theta, record.sx, record.sy))


def _distribution_csv(dist) -> bytes:
    return _csv_table("x,p\n", (dist.support,), (dist.probs,))


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def _cumulant_payload(cs) -> dict:
    def clean(x):
        return None if (isinstance(x, float) and math.isnan(x)) else x

    return {"kappa1": clean(cs.kappa1), "kappa2": clean(cs.kappa2),
            "kappa3": clean(cs.kappa3), "flavor": cs.flavor.value}


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

    Writes effective-config.json, then the (name, bytes thunk) ``tables`` as
    CSV, cumulants.json and the ``plot`` thunk's SVG as ``cfg.formats`` asks;
    prints each path and returns EXIT_VALIDATION when the worst defect of
    ``report`` exceeds ``tolerance`` (NaN included).

    Each thunk returns its file's bytes: the CSV tables as built, the JSON
    and SVG text encoded once.  Each path string is built once, as pathlib
    would join it, and serves both os.open and the printed line.  The bytes
    go out by os.write calls until none is left, then os.ftruncate cuts the
    file to the new length: it is overwritten in place, since opening with
    O_TRUNC first frees the old blocks, which on ext4 made a re-run's write
    several times slower.  A thunk runs before its file is opened, so one
    that raises leaves the file as it was.  The write is not atomic: a crash
    part way can leave a file of new bytes and old ones.
    Files the run does not write keep their old contents.
    """
    files = [("effective-config.json", lambda: _json_bytes(vars(cfg)))]
    if "csv" in cfg.formats:
        files += tables
    if "json" in cfg.formats:
        files.append(("cumulants.json", lambda: _json_bytes(payload)))
    if "svg" in cfg.formats:
        files.append(("plot.svg", plot))
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = str(outdir / "_")[:-1]  # pathlib's text for outdir / name, less the name
    paths = []
    for name, thunk in files:
        data = thunk()
        paths.append(prefix + name)
        fd = os.open(paths[-1], os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    print("\n".join(paths))
    if not report.worst_defect() <= tolerance:  # NaN fails
        print(f"validation defects above tolerance: {vars(report)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _acquire(cfg: RunConfig, model, obs, shots, eta: float, warp: float):
    """Grid -> record -> unclipped inversion; times pre-warped for ``warp``, gates at ``eta``."""
    times = default_time_grid(obs, cfg.epsilon, eta=warp, points=cfg.grid)
    record = simulate_probe_shots(model, obs, cfg.epsilon, times, shots, eta=eta,
                                  seed=cfg.seed)
    return record, invert_dft(record, eta=warp)


def _report(cfg: RunConfig, model, obs, record, raw, shown, tables: list, traces,
            titles, keys: dict) -> int:
    """The report every run writes, and its exit gate.

    ``record`` is the probe record inverted to ``raw``, and ``shown`` is the
    cleaned distribution the files hold.  cumulants.json holds ``keys`` and the
    shared blocks: the validation report and the cumulants of ``raw`` (clipping
    would bias them), the closed cumulants or the reason there are none, and,
    with ``cfg.oracle``, ``shown`` against the enumeration oracle.  plot.svg
    stacks the coherence ``traces`` (t, [(label, values), ...]) above the bars
    of ``shown``; ``titles`` are those of the two panels and the bars' x label.
    The defect tolerance is that of ``record``.
    """
    report = validate_distribution(raw)
    payload = {**keys, "validation": vars(report),
               "numerical": _cumulant_payload(distribution_cumulants(raw))}
    try:
        payload["closed"] = _cumulant_payload(closed_cumulants(model, obs))
    except InputError as exc:
        payload.update(closed=None, closed_unavailable=str(exc))
    if cfg.oracle:  # _build_model_obs has checked N
        oracle = enumerate_oracle(model, obs).dist
        payload["oracle_comparison"] = {
            "max_abs_prob_deviation": float(np.abs(shown.probs - oracle.probs).max()),
            "oracle_mean": oracle.mean(),
        }

    def plot():
        line_title, bar_title, x_label = titles
        return svgplot.stack_svgs([
            svgplot.line_chart(*traces, title=line_title, x_label="t", y_label="coherence"),
            svgplot.bar_chart(shown.support, shown.probs, title=bar_title, x_label=x_label,
                              y_label="P")]).encode()

    return _write_outputs(cfg, tables, payload, plot, report,
                          _defect_tolerance(record.shots, record.time_grid.size))


def run_probe(cfg: RunConfig) -> int:
    model, obs = _build_model_obs(cfg)
    record, raw = _acquire(cfg, model, obs, cfg.shots, cfg.eta,
                           cfg.eta if cfg.correct_eta else 0.0)
    dist = raw.cleaned()
    tables = [("coherence.csv", lambda: _coherence_csv(record)),
              ("distribution.csv", lambda: _distribution_csv(dist))]
    traces = (record.time_grid, [("<sigma_x>", record.sx), ("<sigma_y>", record.sy)])
    titles = (f"probe coherence ({cfg.model}, {cfg.obs})", f"P(x) for {cfg.obs}", "x")
    return _report(cfg, model, obs, record, raw, dist, tables, traces, titles,
                   {"method": raw.method})


def run_sm_error(cfg: RunConfig) -> int:
    """Gate-error demonstration: ideal vs distorted vs corrected reconstruction."""
    model, obs = _build_model_obs(cfg)
    eta = cfg.eta
    ideal, p_ideal = _acquire(cfg, model, obs, None, 0.0, 0.0)
    distorted, p_naive = _acquire(cfg, model, obs, None, eta, 0.0)
    warped, p_corrected = _acquire(cfg, model, obs, None, eta, eta)
    p_ideal, p_naive, corrected = p_ideal.cleaned(), p_naive.cleaned(), p_corrected.cleaned()

    # a dense exact record around the shifted recurrence, only where the estimator reads it
    eta_hat = estimate_gate_error(simulate_probe_shots(
        model, obs, cfg.epsilon, gate_error_times(cfg.epsilon, eta), None, eta=eta))

    tables = [("coherence.csv", lambda: _coherence_csv(ideal)),
              ("coherence-distorted.csv", lambda: _coherence_csv(distorted)),
              ("distribution.csv", lambda: _distribution_csv(p_ideal)),
              ("distribution-naive.csv", lambda: _distribution_csv(p_naive)),
              ("distribution-corrected.csv", lambda: _distribution_csv(corrected))]
    traces = (ideal.time_grid,
              [("<sigma_x> ideal", ideal.sx), ("<sigma_y> ideal", ideal.sy),
               ("<sigma_x> distorted", distorted.sx), ("<sigma_y> distorted", distorted.sy)])
    titles = (f"gate-error demonstration (eta={eta})", "corrected P(m)", "m")
    return _report(cfg, model, obs, warped, p_corrected, corrected, tables, traces, titles,
                   {"eta_true": eta, "eta_estimate": eta_hat,
                    "tv_naive_vs_ideal": total_variation(p_naive, p_ideal),
                    "tv_corrected_vs_ideal": total_variation(corrected, p_ideal)})


def run(cfg: RunConfig) -> int:
    for fmt in cfg.formats:
        if fmt not in ("csv", "json", "svg"):
            raise InputError(f"unknown output format {fmt!r}")
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
