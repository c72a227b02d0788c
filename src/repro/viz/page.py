"""The one HTML emitter: page shell, stylesheet, table, bar, sparkline.

The analysis report (:mod:`repro.viz.report`), the run-ledger report
and the serve dashboard (:mod:`repro.obs.ledger.report`) are built from
these, so they share one stylesheet and one colour scheme: serial
interactions blue, parallel red, as :func:`repro.viz.svg.diverging_color`
draws them.  Pages are self-contained (inline CSS and SVG, no script or
external asset), and the module loads no numpy.
"""

from __future__ import annotations

import html
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.viz.svg import PALETTE, SvgDocument

STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 70em;
       color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 3px 10px; text-align: right;
         font-variant-numeric: tabular-nums; }
th { background: #f2f2f2; } .name { text-align: left; }
tr.interaction td, tr.info td, .info, .independent { color: #667; }
tr.regression td { background: #ffe3e3; font-weight: 600; }
.serial { color: #0050b0; font-weight: 600; }
.parallel { color: #c03000; font-weight: 600; }
.ok { color: #2a7; } .bad { color: #c33; font-weight: 700; }
.bar { display: inline-block; height: 0.8em; vertical-align: middle;
       border-radius: 2px; background: %s; }
.bar.build { background: %s; } .bar.analyze { background: %s; }
.bar.other { background: %s; }
.stat { font-size: 1.2em; font-weight: 600; }
.advice { background: #f7f7e8; border-left: 4px solid #ccc;
          padding: 0.6em 1em; }
code { background: #f2f3f8; padding: 0.1em 0.3em; border-radius: 3px; }
figure { margin: 1.5em 0; }
""" % (PALETTE[0], PALETTE[2], PALETTE[1], PALETTE[4])


class Html(str):
    """Markup the primitives insert as-is; other values are escaped."""


class Cell(NamedTuple):
    """A table cell with its own class instead of its column's."""
    value: object
    cls: str


def esc(value) -> str:
    """*value* as HTML: :class:`Html` as-is, anything else escaped."""
    return value if isinstance(value, Html) else html.escape(str(value))


def code(value) -> Html:
    """*value*, escaped, in a ``<code>`` element."""
    return Html(f"<code>{esc(value)}</code>")


def page(title: str, *body: str, refresh: Optional[int] = None) -> str:
    """A complete document; *refresh* (seconds) adds a meta refresh."""
    meta = (f"<meta http-equiv='refresh' content='{refresh}'>"
            if refresh else "")
    return (f"<!doctype html><html><head><meta charset='utf-8'>{meta}"
            f"<title>{esc(title)}</title><style>{STYLE}</style></head>"
            f"<body>{''.join(body)}</body></html>\n")


def table(head: Optional[Sequence], rows: Iterable[Sequence],
          align: str = "lr", row_classes: Sequence[str] = ()) -> Html:
    """A table of escaped cells under an optional *head* row.

    *align* marks each column ``l`` (text, class ``name``) or ``r``
    (number); its last letter covers the remaining columns.
    *row_classes* gives each body row's class.
    """
    def cell(tag: str, column: int, value) -> str:
        name = ("name" if align[min(column, len(align) - 1)] == "l"
                else "")
        if isinstance(value, Cell):
            value, name = value
        attr = f" class='{esc(name)}'" if name else ""
        return f"<{tag}{attr}>{esc(value)}</{tag}>"

    def row(tag: str, values: Sequence, row_cls: str = "") -> str:
        attr = f" class='{esc(row_cls)}'" if row_cls else ""
        cells = "".join(cell(tag, i, v) for i, v in enumerate(values))
        return f"<tr{attr}>{cells}</tr>"

    body = [row("td", values, row_classes[i] if row_classes else "")
            for i, values in enumerate(rows)]
    return Html(f"<table>{row('th', head) if head else ''}"
                f"{''.join(body)}</table>")


#: The pixel width of a full-length bar and of a sparkline.
WIDTH = 280


def bar(value: float, limit: float, cls: str) -> Html:
    """A horizontal bar, :data:`WIDTH` pixels long at *limit*."""
    px = 0 if limit <= 0 else max(1, round(WIDTH * value / limit))
    return Html(f"<span class='bar {cls}' style='width:{px}px'></span>")


def sparkline(values: Sequence[float]) -> Html:
    """An inline SVG line through *values*, scaled to the box."""
    height = 36
    lo, hi, n = min(values), max(values) or 1.0, len(values)
    span, step = (hi - lo) or 1.0, WIDTH / max(1, n - 1)
    doc = SvgDocument(WIDTH, height, background=None)
    doc.polyline([(i * step if n > 1 else WIDTH / 2,
                   height - 2 - (height - 4) * (v - lo) / span)
                  for i, v in enumerate(values)], stroke=PALETTE[0])
    return Html(doc.render())
