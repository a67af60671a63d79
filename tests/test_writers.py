"""The CSV and SVG writers against per-value reference formatters.

The references below format one value per call, as the writers once did, and
the stacked figure is checked against its old construction: one SVG document
per chart, sliced open and wrapped again.
Tables below ``cli._BULK_ROWS`` rows take the % line; larger ones are
formatted in numpy chunks of ``cli._CHUNK_CELLS`` values.  Both routes must
give the same bytes for any input, including -0.0, +-inf, nan, subnormals, the
%g exponent switch points (1e16/1e17 and 1e-4/1e-5) and their neighbours,
exact rounding ties, large integer supports and columns that are mostly +-0.0,
as a distribution's p is, at the switch between the routes and at the chunk
boundaries.  The numpy route has glibc keep the heap its chunks free; where
that cannot be set, the tables are written all the same.  Its working set on
the largest tables is bounded too.
"""

import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinkprobe import (ModelKind, ModelParams, cli, invert_dft, kink_number,
                       simulate_probe_shots, svgplot)
from kinkprobe.probe import default_time_grid
from kinkprobe.svgplot import _COLORS, _H, _MARGIN, _W, _axes, _scale

WRITERS = settings(max_examples=80, deadline=None, derandomize=True)

SWITCHES = np.array([1e16, 1e17, 1e-4, 1e-5])  # where %g changes notation
SPECIAL = tuple(map(float, (
    -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, *SWITCHES, *np.nextafter(SWITCHES, 0.0),
    *np.nextafter(SWITCHES, np.inf), 0.1, -1 / 3, 1e300, -1.5,
    2**49 + 0.125, 2**49 + 0.375,  # exact ties: 562949953421312.12 and ...38
    9.508396845224331e-07, 3.888475069819475e-07)))  # 8.9e-16 and 4.4e-16 off a tie
INT_SPECIAL = (0, -1, 2**53 + 1, -(2**62), -(2**63), 2**63 - 1)
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.sampled_from(INT_SPECIAL), st.integers(-(2**63), 2**63 - 1))
SPECIAL_COLUMN = np.array(SPECIAL)


def _sizes(columns: int):
    """Row counts of small tables, and of a table of ``columns`` columns next to
    the switch between the two routes and next to a chunk boundary."""
    step = cli._CHUNK_CELLS // columns
    return st.one_of(st.integers(0, 40), st.sampled_from(
        (cli._BULK_ROWS - 1, cli._BULK_ROWS, step - 1, step, step + 1)))


POWERS = 10.0 ** np.arange(-323, 309)
NEAR_POWERS = np.concatenate([POWERS, np.nextafter(POWERS, 0.0)])


def _column(data, m: int, elements, dtype):
    """m entries: a seeded background, and up to 40 drawn ``elements`` at a
    drawn offset.  A float background is of every magnitude, or zero-heavy, as
    in a distribution table, 60% to 79% of whose p is exactly 0: a drawn share
    of +-0.0, the rest at or just below a signed power of ten."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if dtype == float and data.draw(st.booleans()):
        out = rng.choice(NEAR_POWERS, m) * rng.choice([-1.0, 1.0], m)
        out[rng.random(m) < data.draw(st.floats(0.6, 0.8))] *= 0.0  # keeps the sign
    elif dtype == float:
        bits = rng.integers(0, 2**64, m, dtype=np.uint64).view(float)
        scaled = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 20, m)
        out = np.where(rng.random(m) < 0.5, bits, scaled)
    else:
        out = rng.integers(-(2**63), 2**63, m, dtype=np.int64) >> rng.integers(0, 64, m)
    drawn = data.draw(arrays(dtype, min(m, 40), elements=elements))
    start = data.draw(st.integers(0, m - drawn.size))
    out[start:start + drawn.size] = drawn
    return out


def _ref_fmt(x: float) -> str:
    return f"{x:.17g}"


def _ref_coherence_csv(record) -> str:
    lines = ["t,theta,sx,sy"]
    for t, th, sx, sy in zip(record.time_grid, record.theta, record.sx, record.sy):
        lines.append(",".join(map(_ref_fmt, (t, th, sx, sy))))
    return "\n".join(lines) + "\n"


def _ref_distribution_csv(dist) -> str:
    lines = ["x,p"]
    for x, p in zip(dist.support, dist.probs):
        lines.append(f"{int(x)},{_ref_fmt(p)}")
    return "\n".join(lines) + "\n"


def _ref_line_chart(x, series, title="", x_label="", y_label="") -> str:
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(title, x_label, y_label, float(x.min()), float(x.max()), y_lo, y_hi)
    for i, (label, y) in enumerate(series):
        xp = _scale(x, x.min(), x.max(), _MARGIN, _W - 12)
        yp = _scale(ys[i], y_lo, y_hi, _H - _MARGIN, 12)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xp, yp))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{_W - 140}" y="{28 + 16 * i}" font-size="12" '
                     f'fill="{color}">{escape(label)}</text>')
    return "\n".join(parts)


def _ref_bar_chart(x, heights, title="", x_label="", y_label="") -> str:
    x = np.asarray(x, dtype=float)
    h = np.asarray(heights, dtype=float)
    y_hi = float(h.max()) * 1.05 or 1.0
    parts = _axes(title, x_label, y_label, float(x.min()), float(x.max()), 0.0, y_hi)
    xp = _scale(x, x.min() - 0.5, x.max() + 0.5, _MARGIN, _W - 12)
    width = max(1.0, 0.8 * (_W - 12 - _MARGIN) / max(x.size, 1))
    base = _H - _MARGIN
    for xi, hi in zip(xp, h):
        top = _scale([max(hi, 0.0)], 0.0, y_hi, base, 12)[0]
        parts.append(f'<rect x="{xi - width / 2:.2f}" y="{top:.2f}" width="{width:.2f}" '
                     f'height="{base - top:.2f}" fill="#1f77b4"/>')
    return "\n".join(parts)


def _ref_document(panel: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n{panel}\n</svg>\n')


def _ref_stack_svgs(svgs: list[str]) -> str:
    # the figure as once built: one document per chart, sliced open and re-wrapped
    inner = []
    for i, svg in enumerate(svgs):
        start = svg.index(">") + 1
        end = svg.rindex("</svg>")
        inner.append(f'<g transform="translate(0 {i * _H})">{svg[start:end]}</g>')
    total_h = _H * len(svgs)
    body = "\n".join(inner)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{total_h}" '
            f'viewBox="0 0 {_W} {total_h}">\n{body}\n</svg>\n')


@WRITERS
@given(m=_sizes(4), data=st.data())
@example(m=SPECIAL_COLUMN.size, data=None)
@example(m=cli._BULK_ROWS, data=None)
def test_coherence_csv_matches_the_per_value_reference(m, data):
    if data is None:
        cols = [np.resize(np.roll(SPECIAL_COLUMN, k), m) for k in range(4)]
    else:
        cols = [_column(data, m, values, float) for _ in range(4)]
    record = SimpleNamespace(time_grid=cols[0], theta=cols[1], sx=cols[2], sy=cols[3])
    assert cli._coherence_csv(record) == _ref_coherence_csv(record).encode("ascii")


@WRITERS
@given(m=_sizes(2), data=st.data())
@example(m=SPECIAL_COLUMN.size, data=None)
@example(m=cli._BULK_ROWS, data=None)
def test_distribution_csv_matches_the_per_value_reference(m, data):
    if data is None:
        dist = SimpleNamespace(support=np.resize(np.array(INT_SPECIAL), m),
                               probs=np.resize(SPECIAL_COLUMN, m))
    else:
        dist = SimpleNamespace(support=_column(data, m, ints, np.int64),
                               probs=_column(data, m, values, float))
    assert cli._distribution_csv(dist) == _ref_distribution_csv(dist).encode("ascii")


@WRITERS
@given(data=st.data())
def test_round17_gives_the_17_digits_of_every_entry_it_does_not_flag(data):
    # D and X of each entry the kernel does not flag are those of '%.16e', which
    # writes the same 17 significant digits as '%.17g'
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = np.abs(rng.integers(0, 2**64, 2000, dtype=np.uint64).view(float))
    bits = bits[np.isfinite(bits) & (bits > 0)]
    special = np.abs(SPECIAL_COLUMN[np.isfinite(SPECIAL_COLUMN) & (SPECIAL_COLUMN != 0)])
    a = np.concatenate([bits, NEAR_POWERS, special])
    D, i, flagged = cli._round17(a.copy())
    for v, d, x in zip(a[~flagged], D[~flagged].tolist(), i[~flagged].tolist()):
        digits, exponent = f"{v:.16e}".split("e")
        assert (d, x + cli._X_LO) == (int(digits.replace(".", "")), int(exponent)), v
    # ties are exact only for doubles with few fraction bits, 0.09% of random bit patterns
    assert flagged[:bits.size].mean() < 0.01


@WRITERS
@given(text=st.text())
@example(text="<s0> & co &amp; ]]> \"'")
def test_escape_matches_saxutils(text):
    assert svgplot._escape(text) == escape(text)


@WRITERS
@given(m=st.integers(1, 40), k=st.integers(1, 5), data=st.data())
@example(m=SPECIAL_COLUMN.size, k=2, data=None)
def test_line_chart_matches_the_per_value_reference(m, k, data):
    if data is None:
        x, ys = np.linspace(0.0, 9.0, m), [SPECIAL_COLUMN, np.roll(SPECIAL_COLUMN, 3)]
    else:
        x = data.draw(arrays(float, m, elements=values))
        ys = [data.draw(arrays(float, m, elements=values)) for _ in range(k)]
    series = [(f"<s{i}> & co", y) for i, y in enumerate(ys)]
    with np.errstate(all="ignore"):
        got = svgplot.line_chart(x, series, title="t", x_label="x", y_label="y")
        want = _ref_line_chart(x, series, title="t", x_label="x", y_label="y")
    assert got == want


@WRITERS
@given(m=st.integers(1, 40), data=st.data())
@example(m=SPECIAL_COLUMN.size, data=None)
def test_bar_chart_matches_the_per_value_reference(m, data):
    if data is None:
        x, h = np.arange(m) - 2**40, SPECIAL_COLUMN
    else:
        x = data.draw(arrays(np.int64, m, elements=ints))
        h = data.draw(arrays(float, m, elements=values))
    with np.errstate(all="ignore"):
        got = svgplot.bar_chart(x, h, title="P", x_label="x", y_label="P")
        want = _ref_bar_chart(x, h, title="P", x_label="x", y_label="P")
    assert got == want


@WRITERS
@given(m=st.integers(1, 40), k=st.integers(1, 5), data=st.data())
@example(m=SPECIAL_COLUMN.size, k=2, data=None)
def test_stacked_figure_matches_the_sliced_chart_documents(m, k, data):
    if data is None:
        x, ys = np.linspace(0.0, 9.0, m), [SPECIAL_COLUMN, np.roll(SPECIAL_COLUMN, 3)]
        support, h = np.arange(m) - 2**40, SPECIAL_COLUMN
    else:
        x = data.draw(arrays(float, m, elements=values))
        ys = [data.draw(arrays(float, m, elements=values)) for _ in range(k)]
        support = data.draw(arrays(np.int64, m, elements=ints))
        h = data.draw(arrays(float, m, elements=values))
    series = [(f"<s{i}> & co", y) for i, y in enumerate(ys)]
    with np.errstate(all="ignore"):
        got = svgplot.stack_svgs([
            svgplot.line_chart(x, series, title="t", x_label="x", y_label="y"),
            svgplot.bar_chart(support, h, title="P", x_label="x", y_label="P")])
        want = _ref_stack_svgs([
            _ref_document(_ref_line_chart(x, series, title="t", x_label="x", y_label="y")),
            _ref_document(_ref_bar_chart(support, h, title="P", x_label="x", y_label="P"))])
    assert got == want


def _bulk_tables(m: int = 10001):
    """A coherence record and a distribution of ``m`` rows, the numpy route's."""
    theta = 2 * np.pi * np.arange(m) / m
    record = SimpleNamespace(time_grid=theta / 0.02, theta=theta, sx=np.cos(3 * theta),
                             sy=np.sin(3 * theta))
    support = np.arange(m) - m // 2
    probs = np.exp(-0.5 * (support / 40.0) ** 2)
    return record, SimpleNamespace(support=support, probs=probs / probs.sum())


@pytest.fixture
def fresh_policy():
    """Clear the allocator policy's cache before and after, so the next bulk
    table sets the policy again through the real C library."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def test_allocator_policy_is_set_once_per_process(monkeypatch, fresh_policy):
    loaded, calls = [], []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name):
        loaded.append(name)
        return SimpleNamespace(gnu_get_libc_version=None, mallopt=mallopt)

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    record, dist = _bulk_tables()
    small = SimpleNamespace(support=dist.support[:cli._BULK_ROWS - 1],
                            probs=dist.probs[:cli._BULK_ROWS - 1])
    cli._distribution_csv(small)
    assert loaded == []  # the % line leaves the allocator alone
    for _ in range(3):
        cli._coherence_csv(record)
        cli._distribution_csv(dist)
    assert len(loaded) == 1
    assert calls == [(cli._M_TRIM_THRESHOLD, 64 << 20), (cli._M_MMAP_THRESHOLD, 16 << 20)]


def _no_libc(name):
    raise OSError("no C library here")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: SimpleNamespace(),
                                  lambda name: SimpleNamespace(gnu_get_libc_version=None)],
                         ids=["no-library", "not-glibc", "no-mallopt"])
def test_bulk_tables_are_written_where_the_policy_cannot_be_set(monkeypatch, fresh_policy,
                                                                cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    record, dist = _bulk_tables()
    assert cli._coherence_csv(record) == _ref_coherence_csv(record).encode("ascii")
    assert cli._distribution_csv(dist) == _ref_distribution_csv(dist).encode("ascii")


def _steady_faults() -> int:
    """Minor faults of five writes of both bulk tables, after five warm writes
    (the heap grows to its high-water mark in a few)."""
    import resource

    record, dist = _bulk_tables()

    def write_both():
        cli._coherence_csv(record)
        cli._distribution_csv(dist)

    for _ in range(5):
        write_both()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        write_both()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_repeated_bulk_tables_reuse_the_freed_heap():
    # in a fresh interpreter: once a large mmapped block is freed, glibc raises
    # its own thresholds, and earlier tests in this process may have done that
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from test_writers import _steady_faults; print(_steady_faults())")
    paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    child = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True,
                           text=True, timeout=300, check=True)
    # without the policy each pair faults its temporaries in again, ~900 pages
    assert int(child.stdout) < 50


def _traced_peak(write, table) -> int:
    """Bytes of traced memory ``write(table)`` holds at its peak."""
    write(table)  # the first call builds the cached tables of the numpy route
    tracemalloc.start()
    try:
        write(table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_tables_keep_a_small_working_set():
    # the exact ring kink record at N = 1e4, 10001 rows, and its distribution, 76%
    # of whose p is exactly 0.  With chunks of 16384 values the two peak at 1.54 and
    # 0.75 MB; the bounds leave 17% and 9% for other numpy versions.  The kernel that
    # kept every chunk-sized temporary alive to the end peaked at 3.02 and 1.61 MB, and
    # the one that concatenated an int and a float slot matrix per chunk at 0.85 MB
    # for the distribution.
    n = 10000
    obs = kink_number(n)
    record = simulate_probe_shots(ModelParams(kind=ModelKind.RING, N=n, J=1.0, h=0.0, beta=0.5),
                                  obs, 0.01, default_time_grid(obs, 0.01), None)
    dist = invert_dft(record).cleaned()
    assert _traced_peak(cli._coherence_csv, record) < 1.8e6
    assert _traced_peak(cli._distribution_csv, dist) < 0.82e6
