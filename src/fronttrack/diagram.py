"""Deterministic SVG renderings: front trajectories and potential decay.

Byte-stable for a fixed input: floats are formatted with a fixed precision
and elements carry their exact rational coordinates in data attributes.
"""

from fractions import Fraction

from .potential import PotentialSeries
from .rationals import format_rational
from .tracker import Timeline

WIDTH, HEIGHT, MARGIN = 800, 600, 60


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _frame() -> list:
    """The opening tag, the white canvas and the two axes."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{MARGIN}" y2="{MARGIN}" '
        f'stroke="black"/>',
    ]


def _death_events(tl: Timeline) -> dict:
    out = {}
    for ev in tl.events:
        for fr in ev.incoming:
            out[fr.fid] = ev
    return out


def _horizon(tl: Timeline) -> Fraction:
    if tl.events:
        t_last = tl.events[-1].t
        return t_last + max(t_last / 4, 1)
    return Fraction(1)


def render_front_diagram(tl: Timeline) -> str:
    deaths = _death_events(tl)
    t_max = _horizon(tl)
    segments = []
    for fid in sorted(tl.fronts_by_id):
        fr = tl.fronts_by_id[fid]
        death = deaths.get(fid)
        t1 = death.t if death is not None else t_max
        segments.append((fid, fr, fr.birth_time, fr.birth_x, t1, fr.position_at(t1)))

    xs = [s[3] for s in segments] + [s[5] for s in segments] or [Fraction(0)]
    x_lo, x_hi = min(xs), max(xs)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    span_x = x_hi - x_lo
    span_t = t_max

    def px(x):
        return MARGIN + float((x - x_lo) / span_x) * (WIDTH - 2 * MARGIN)

    def py(t):
        return HEIGHT - MARGIN - float(Fraction(t) / span_t) * (HEIGHT - 2 * MARGIN)

    parts = _frame()
    for fid, fr, t0, x0, t1, x1 in segments:
        parts.append(
            f'<line id="front-{fid}" class="front" '
            f'x1="{_fmt(px(x0))}" y1="{_fmt(py(t0))}" '
            f'x2="{_fmt(px(x1))}" y2="{_fmt(py(t1))}" '
            f'data-t0="{format_rational(t0)}" data-x0="{format_rational(x0)}" '
            f'data-t1="{format_rational(t1)}" data-x1="{format_rational(x1)}" '
            f'data-speed="{format_rational(fr.speed)}" '
            f'stroke="{"#1f77b4" if fr.sign > 0 else "#d62728"}" stroke-width="1.5"/>'
        )
    for e, ev in enumerate(tl.events):
        parts.append(
            f'<circle id="event-{e}" class="event" '
            f'cx="{_fmt(px(ev.x))}" cy="{_fmt(py(ev.t))}" r="3.5" '
            f'data-t="{format_rational(ev.t)}" data-x="{format_rational(ev.x)}" '
            f'data-kind="{ev.kind}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_potential_plot(series: PotentialSeries, tl: Timeline) -> str:
    t_max = _horizon(tl)
    tops = [rec.upsilon_strict for rec in series.slabs] + [Fraction(1)]
    y_hi = max(tops)
    if y_hi == 0:
        y_hi = Fraction(1)

    def px(t):
        return MARGIN + float(Fraction(t) / t_max) * (WIDTH - 2 * MARGIN)

    def py(v):
        return HEIGHT - MARGIN - float(Fraction(v) / y_hi) * (HEIGHT - 2 * MARGIN)

    def steps(values, color, name):
        parts = []
        for rec, v in zip(series.slabs, values):
            t0 = rec.t_lo
            t1 = rec.t_hi if rec.t_hi is not None else t_max
            parts.append(
                f'<line class="{name}" x1="{_fmt(px(t0))}" y1="{_fmt(py(v))}" '
                f'x2="{_fmt(px(t1))}" y2="{_fmt(py(v))}" '
                f'data-t0="{format_rational(t0)}" data-value="{format_rational(v)}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        return parts

    parts = _frame()
    parts += steps([rec.Q for rec in series.slabs], "#2ca02c", "q-step")
    parts += steps(
        [rec.upsilon_strict for rec in series.slabs], "#9467bd", "upsilon-step"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
