"""The CSV and SVG writers against per-value reference formatters.

The references below format one value per call, as the writers once did.
The writers format whole files in a few bulk operations and must give the
same bytes for any input, including -0.0, +-inf, nan, subnormals, the %g
exponent switch points (1e16/1e17 and 1e-4/1e-5) and large integer supports.
"""

from types import SimpleNamespace
from xml.sax.saxutils import escape

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinkprobe import cli, svgplot
from kinkprobe.svgplot import _COLORS, _H, _MARGIN, _W, _axes, _scale

WRITERS = settings(max_examples=80, deadline=None, derandomize=True)

SPECIAL = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           1e16, 9999999999999998.0, 1e17, 1e-4, 9.999999999999999e-05, 1e-5, 0.1, -1 / 3,
           1e300, -1.5)
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.sampled_from((0, -1, 2**53 + 1, -(2**62), 2**63 - 1)),
                 st.integers(-(2**63), 2**63 - 1))
SPECIAL_COLUMN = np.array(SPECIAL)


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
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n{body}\n</svg>\n')


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
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n{body}\n</svg>\n')


@WRITERS
@given(m=st.integers(0, 40), data=st.data())
@example(m=SPECIAL_COLUMN.size, data=None)
def test_coherence_csv_matches_the_per_value_reference(m, data):
    if data is None:
        cols = [np.roll(SPECIAL_COLUMN, k) for k in range(4)]
    else:
        cols = [data.draw(arrays(float, m, elements=values)) for _ in range(4)]
    record = SimpleNamespace(time_grid=cols[0], theta=cols[1], sx=cols[2], sy=cols[3])
    assert cli._coherence_csv(record) == _ref_coherence_csv(record)


@WRITERS
@given(data=st.data())
@example(data=None)
def test_distribution_csv_matches_the_per_value_reference(data):
    if data is None:
        dist = SimpleNamespace(support=np.arange(SPECIAL_COLUMN.size) - 2**62,
                               probs=SPECIAL_COLUMN)
    else:
        support = data.draw(arrays(np.int64, st.integers(0, 40), elements=ints))
        probs = data.draw(arrays(float, support.size, elements=values))
        dist = SimpleNamespace(support=support, probs=probs)
    assert cli._distribution_csv(dist) == _ref_distribution_csv(dist)


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
