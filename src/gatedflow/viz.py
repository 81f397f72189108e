"""Cross-run aggregation, CSV export, and deterministic SVG line charts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmptyInput, NonNumericValue

SVG_WIDTH = 800
SVG_HEIGHT = 500
MARGIN_FRACTION = 0.05
PLOT_PAD = 60  # pixel inset for axes

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


@dataclass
class AggregatedSeries:
    key: tuple
    steps: list[int] = field(default_factory=list)
    mean: list[float] = field(default_factory=list)
    std: list[float] = field(default_factory=list)
    n: list[int] = field(default_factory=list)

    def label(self) -> str:
        return "/".join(str(k) for k in self.key)


def left_sum(values) -> float:
    """The float sum of ``values`` from 0.0, left to right. The built-in
    ``sum()`` compensates float sums from Python 3.12, so its last bits
    depend on the interpreter; these do not."""
    total = 0.0
    for value in values:
        total += value
    return total


def aggregate(records, group_by=("component", "tag")):
    """Group records by key and step across runs; mean and population sigma.

    Steps present in only some runs are retained with a smaller n.
    Each group's mean is its float sum over n, and its sigma is the square
    root of the sum of squared deviations from that mean over n. Both sums
    run left to right from 0.0, so for a group of fewer than 8 values the
    results equal NumPy's ``mean`` and ``std`` bit for bit; from 8 values
    NumPy sums pairwise, and the last bits may differ, as they also do
    between NumPy builds.
    """
    groups: dict[tuple, dict[int, list]] = {}
    for rec in records:
        if isinstance(rec.value, bool) or not isinstance(rec.value, (int, float)):
            raise NonNumericValue(
                f"record {rec.key} holds non-numeric value {rec.value!r}"
            )
        key = tuple(getattr(rec, attr) for attr in group_by)
        groups.setdefault(key, {}).setdefault(rec.step, []).append(rec.value)
    out = []
    for key in sorted(groups):
        series = AggregatedSeries(key)
        for step in sorted(groups[key]):
            values = groups[key][step]
            n = len(values)
            mean = left_sum(values) / n
            squares = 0.0  # a loop: a generator into left_sum costs twice as much
            for value in values:
                deviation = value - mean
                squares += deviation * deviation
            series.steps.append(step)
            series.mean.append(mean)
            series.std.append(math.sqrt(squares / n))
            series.n.append(n)
        out.append(series)
    return out


def _fmt(value) -> str:
    # shortest representation that parses back bit-exact
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def export_csv(series: AggregatedSeries, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,mean,std,n\n")
        for step, mean, std, n in zip(series.steps, series.mean, series.std,
                                      series.n):
            fh.write(f"{_fmt(step)},{_fmt(mean)},{_fmt(std)},{_fmt(n)}\n")


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_csv(path) -> AggregatedSeries:
    series = AggregatedSeries(key=())
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "step,mean,std,n":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            step, mean, std, n = line.split(",")
            series.steps.append(int(step))
            series.mean.append(_parse_number(mean))
            series.std.append(_parse_number(std))
            series.n.append(int(n))
    return series


def _extent(values, margin=MARGIN_FRACTION):
    low, high = min(values), max(values)
    span = high - low
    if span == 0:
        span = abs(high) if high != 0 else 1.0
    return low - margin * span, high + margin * span


def render_svg(series_list, title="", x_label="step", y_label="value",
               width=SVG_WIDTH, height=SVG_HEIGHT, palette=None) -> str:
    """Emit a static SVG: one mean line plus a translucent +/- sigma band per
    series. Pure function of its inputs; byte-identical across invocations."""
    series_list = sorted(series_list, key=lambda s: s.key)
    if not series_list:
        raise EmptyInput("no series to render")
    palette = palette or PALETTE
    xs = [s for series in series_list for s in series.steps]
    ys = [m + sign * sd
          for series in series_list
          for m, sd in zip(series.mean, series.std)
          for sign in (1, -1)]
    x_low, x_high = _extent(xs)
    y_low, y_high = _extent(ys)

    def sx(x):
        return PLOT_PAD + (x - x_low) / (x_high - x_low) * (width - 2 * PLOT_PAD)

    def sy(y):
        return height - PLOT_PAD - (y - y_low) / (y_high - y_low) * (
            height - 2 * PLOT_PAD
        )

    def pt(x, y):
        return f"{sx(x):.3f},{sy(y):.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{PLOT_PAD}" y1="{height - PLOT_PAD}" x2="{width - PLOT_PAD}" '
        f'y2="{height - PLOT_PAD}" stroke="black"/>',
        f'<line x1="{PLOT_PAD}" y1="{PLOT_PAD}" x2="{PLOT_PAD}" '
        f'y2="{height - PLOT_PAD}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="25" text-anchor="middle" '
            f'font-size="16">{title}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>'
    )
    for idx, series in enumerate(series_list):
        color = palette[idx % len(palette)]
        upper = [pt(x, m + sd) for x, m, sd in
                 zip(series.steps, series.mean, series.std)]
        lower = [pt(x, m - sd) for x, m, sd in
                 zip(reversed(series.steps), reversed(series.mean),
                     reversed(series.std))]
        band = " ".join(upper + lower)
        parts.append(
            f'<path class="band" d="M {band} Z" fill="{color}" '
            f'fill-opacity="0.2" stroke="none"/>'
        )
        line = " ".join(pt(x, m) for x, m in zip(series.steps, series.mean))
        parts.append(
            f'<path class="mean" d="M {line}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = PLOT_PAD + 18 * idx
        parts.append(
            f'<rect x="{width - PLOT_PAD - 150}" y="{ly}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - PLOT_PAD - 132}" y="{ly + 10}" font-size="11">'
            f"{series.label()}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
