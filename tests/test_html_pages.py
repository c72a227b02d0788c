"""Every HTML page the package writes is well formed and self-contained.

The analysis report, the run-ledger report and the serve dashboard are
built from the one set of page primitives in :mod:`repro.viz.page`;
this pins what they all promise: the page parses, every non-void
element is closed, every inline SVG is well-formed XML, nothing is
fetched from anywhere, and all three carry the same stylesheet.
"""

import re
import xml.etree.ElementTree as ET
from html.parser import HTMLParser

import pytest

from repro.obs.ledger import (
    diff_manifests,
    render_dashboard_html,
    render_html_report,
)
from repro.viz.report import html_report
from tests.test_ledger import _toy_manifest
from tests.test_serve_telemetry import DASHBOARD_SNAPSHOT

#: HTML elements that take no end tag.
VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "source", "track", "wbr"}


class _Structure(HTMLParser):
    """Records unclosed or misnested elements, links and styles."""

    def __init__(self):
        super().__init__()
        self.open = []
        self.errors = []
        self.hrefs = []
        self.styles = []

    def handle_starttag(self, tag, attrs):
        self.hrefs += [value or "" for name, value in attrs
                       if name == "href"]
        if tag not in VOID:
            self.open.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.hrefs += [value or "" for name, value in attrs
                       if name == "href"]

    def handle_endtag(self, tag):
        if self.open and self.open[-1] == tag:
            self.open.pop()
        else:
            self.errors.append(f"</{tag}> closes {self.open[-1:]}")

    def handle_data(self, data):
        if self.open[-1:] == ["style"]:
            self.styles.append(data)


def _ledger_page(trace):
    before = _toy_manifest("aaaa00000001",
                           metrics={"breakdown.dl1_pp": 20.0})
    after = _toy_manifest("bbbb00000002",
                          metrics={"breakdown.dl1_pp": 30.0})
    return render_html_report([before, after],
                              diff_manifests(before, after))


PAGES = {
    "ledger-report": (_ledger_page, 0),
    "dashboard": (lambda trace: render_dashboard_html(DASHBOARD_SNAPSHOT),
                  1),
    "analysis-report": (html_report, 3),
}


def _parse(page):
    parser = _Structure()
    parser.feed(page)
    parser.close()
    return parser


@pytest.mark.parametrize("name", sorted(PAGES))
def test_page_is_well_formed_and_self_contained(name, small_gzip_trace):
    render, svgs = PAGES[name]
    page = render(small_gzip_trace)
    parser = _parse(page)
    assert parser.errors == []
    assert parser.open == []  # every non-void element closed
    assert len(parser.styles) == 1
    blocks = re.findall(r"<svg\b.*?</svg>", page, flags=re.DOTALL)
    assert len(blocks) == svgs
    for block in blocks:
        ET.fromstring(block)
    lowered = page.lower()
    assert "<script" not in lowered
    assert "<link" not in lowered
    assert "src=" not in lowered
    assert not [href for href in parser.hrefs
                if href.lower().startswith(("http://", "https://"))]


def test_pages_share_one_stylesheet(small_gzip_trace):
    styles = {name: _parse(render(small_gzip_trace)).styles[0]
              for name, (render, _) in PAGES.items()}
    assert len(set(styles.values())) == 1, sorted(styles)
