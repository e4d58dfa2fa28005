"""Minimal deterministic SVG boxplot emitter (Tukey convention)."""

import math

import numpy as np

WIDTH, HEIGHT = 640, 420  # of a panel, in pixels


def _quantile(v, q):
    """The q quantile of the sorted values v by Hyndman & Fan's type 7, rounded as
    numpy's default (linear) ``np.percentile`` rounds it."""
    m = len(v)
    vi = (m - 1) * q
    if vi >= m - 1:  # numpy takes the last value for both ends, with t = vi + 1
        a = b = v[-1]
        t = vi + 1.0
    else:
        lo = math.floor(vi)
        a, b = v[lo], v[lo + 1]
        t = vi - lo
    # no t == 0 shortcut: numpy adds (b - a) * 0, which turns a -0.0 into 0.0 and is
    # nan where b - a overflows
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)


def box_stats(values):
    """Median, quartiles and 1.5*IQR whiskers; fliers beyond the whiskers."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty data")
    sv = v.tolist()
    if not math.isfinite(sv[-1] - sv[0]):  # the quartiles' interpolation would overflow
        raise ValueError(f"box_stats: the spread [{sv[0]:g}, {sv[-1]:g}] of its values "
                         "is not finite")
    q1, med, q3 = (_quantile(sv, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    whis_lo = float(inside.min())
    whis_hi = float(inside.max())
    fliers = v[(v < lo_fence) | (v > hi_fence)]
    return {"q1": q1, "median": med, "q3": q3,
            "whisker_lo": whis_lo, "whisker_hi": whis_hi,
            "fliers": fliers.tolist()}


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi):
    raw = (hi - lo) / 6  # about six ticks
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step).tolist()


class SvgCanvas:
    def __init__(self):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>')

    def rect(self, x, y, w, h):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            'stroke="black" fill="none"/>')

    def circle(self, cx, cy):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.0" stroke="black" fill="none"/>')

    def text(self, x, y, s, size=11, anchor="middle"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')

    def cross(self, cx, cy):
        self.line(cx - 3.5, cy - 3.5, cx + 3.5, cy + 3.5, stroke="blue", width=1.5)
        self.line(cx - 3.5, cy + 3.5, cx + 3.5, cy - 3.5, stroke="blue", width=1.5)

    def to_string(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def boxplot_panel(groups, title="", ref_line=None, true_value=None, mean_markers=False):
    """Tukey boxplots for [(label, values), ...] groups.

    ref_line draws a solid horizontal reference (e.g. a zero line for
    log-likelihood gaps); true_value draws a dashed red line with
    optional Monte Carlo mean crosses.
    """
    if not groups or any(len(v) == 0 for _, v in groups):
        raise ValueError("boxplot requires nonempty groups")
    ml, mr, mt, mb = 60, 15, 30, 40
    plot_w = WIDTH - ml - mr
    plot_h = HEIGHT - mt - mb

    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, v in groups])
    if not np.isfinite(all_vals).all():
        raise ValueError("boxplot requires finite values")
    lines = [v for v in (ref_line, true_value) if v is not None]
    lo = min([float(all_vals.min()), *lines])
    hi = max([float(all_vals.max()), *lines])
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo -= pad
    hi += pad
    if not 0.0 < hi - lo < np.inf:  # the values span more than a float holds, or a pad is lost
        raise ValueError(f"boxplot {title!r}: the padded range [{lo:g}, {hi:g}] of its values "
                         "is not a positive finite span")

    def ty(v):
        return mt + plot_h * (hi - v) / (hi - lo)

    c = SvgCanvas()
    c.rect(ml, mt, plot_w, plot_h)
    for tick in _ticks(lo, hi):
        c.line(ml - 4, ty(tick), ml, ty(tick))
        c.text(ml - 8, ty(tick) + 4, _fmt(tick), size=10, anchor="end")
    if title:
        c.text(ml + plot_w / 2, mt - 10, title, size=13)
    if ref_line is not None:
        c.line(ml, ty(ref_line), ml + plot_w, ty(ref_line), stroke="red", width=1.2)
    if true_value is not None:
        c.line(ml, ty(true_value), ml + plot_w, ty(true_value),
               stroke="red", width=1.2, dash="6,4")

    k = len(groups)
    slot = plot_w / k
    box_w = 0.5 * slot
    for i, (label, values) in enumerate(groups):
        cx = ml + (i + 0.5) * slot
        st = box_stats(values)
        x0 = cx - box_w / 2
        c.rect(x0, ty(st["q3"]), box_w, ty(st["q1"]) - ty(st["q3"]))
        c.line(x0, ty(st["median"]), x0 + box_w, ty(st["median"]), width=1.6)
        c.line(cx, ty(st["q3"]), cx, ty(st["whisker_hi"]))
        c.line(cx, ty(st["q1"]), cx, ty(st["whisker_lo"]))
        c.line(cx - box_w / 4, ty(st["whisker_hi"]), cx + box_w / 4, ty(st["whisker_hi"]))
        c.line(cx - box_w / 4, ty(st["whisker_lo"]), cx + box_w / 4, ty(st["whisker_lo"]))
        for f in st["fliers"]:
            c.circle(cx, ty(f))
        if mean_markers:
            c.cross(cx, ty(float(np.mean(values))))
        c.text(cx, mt + plot_h + 16, str(label), size=11)
    return c.to_string()
