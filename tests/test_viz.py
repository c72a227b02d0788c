"""SVG rendering: well-formedness and content checks."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis.matrix import interaction_matrix
from repro.core import Category, interaction_breakdown
from repro.viz import (
    SvgDocument,
    matrix_heatmap_svg,
    pipeline_timeline_svg,
    sensitivity_curves_svg,
    stacked_bar_svg,
)
from repro.viz.svg import diverging_color

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(doc):
    return ET.fromstring(doc.render())


class TestSvgDocument:
    def test_well_formed(self):
        doc = SvgDocument(100, 50)
        doc.rect(1, 2, 3, 4, title="a <title> & more")
        doc.line(0, 0, 10, 10)
        doc.text(5, 5, "hello <world> & co")
        doc.polyline([(0, 0), (1, 1)])
        doc.circle(3, 3, 1)
        root = parse(doc)
        assert root.tag == f"{SVG_NS}svg"
        tags = [child.tag for child in root]
        assert f"{SVG_NS}rect" in tags and f"{SVG_NS}text" in tags

    def test_escaping(self):
        doc = SvgDocument(10, 10, background=None)
        doc.text(0, 0, "a<b&c")
        assert "a<b&c" not in doc.render()
        assert "a&lt;b&amp;c" in doc.render()

    def test_save(self, tmp_path):
        path = tmp_path / "out.svg"
        SvgDocument(10, 10).save(path)
        assert path.read_text().startswith("<svg")

    def test_diverging_color_endpoints(self):
        assert diverging_color(0, 10) == "#ffffff"
        assert diverging_color(10, 10) == "#ff0000"
        assert diverging_color(-10, 10) == "#0000ff"
        assert diverging_color(99, 10) == "#ff0000"  # clamped


@pytest.fixture(scope="module")
def breakdown(request):
    provider = request.getfixturevalue("miss_provider")
    return interaction_breakdown(provider, focus=Category.DL1,
                                 workload="miss-loop")


class TestCharts:
    def test_stacked_bar(self, breakdown):
        doc = stacked_bar_svg({"miss-loop": breakdown})
        root = parse(doc)
        rects = root.findall(f"{SVG_NS}rect")
        nonzero = [e for e in breakdown.entries
                   if e.kind in ("base", "interaction", "other")
                   and e.percent != 0]
        assert len(rects) >= len(nonzero)
        assert "miss-loop" in doc.render()

    def test_stacked_bar_empty_rejected(self):
        with pytest.raises(ValueError):
            stacked_bar_svg({})

    def test_sensitivity_curves(self):
        curves = {1: [(64, 0.0), (128, 6.0)], 4: [(64, 0.0), (128, 9.0)]}
        doc = sensitivity_curves_svg(curves)
        root = parse(doc)
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2
        assert "dl1=4" in doc.render()

    def test_matrix_heatmap(self, miss_provider):
        matrix = interaction_matrix(miss_provider, workload="miss-loop")
        doc = matrix_heatmap_svg(matrix)
        root = parse(doc)
        rects = root.findall(f"{SVG_NS}rect")
        # background + 8 diagonal + 28 pairs
        assert len(rects) >= 1 + 8 + 28
        assert "serial" in doc.render()


class TestTimeline:
    def test_rows_and_spans(self, miss_result):
        doc = pipeline_timeline_svg(miss_result, start=10, count=20)
        root = parse(doc)
        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert any("miss-loop" in (t or "") for t in texts)
        rects = root.findall(f"{SVG_NS}rect")
        assert len(rects) > 20  # at least one span per row

    def test_empty_window_rejected(self, miss_result):
        with pytest.raises(ValueError):
            pipeline_timeline_svg(miss_result, start=10 ** 9, count=5)

    def test_mispredict_marker(self, small_gzip_trace):
        from repro.uarch import simulate

        result = simulate(small_gzip_trace)
        misp = next((ev.seq for ev in result.events if ev.mispredicted), None)
        if misp is None:
            pytest.skip("no mispredicts in the scaled trace")
        doc = pipeline_timeline_svg(result, start=max(0, misp - 3), count=8)
        assert ">!<" in doc.render().replace("</text>", "<").replace(
            'font-family="monospace">', ">")


class TestHtmlReport:
    def test_report_structure(self, small_gzip_trace, tmp_path):
        from repro.viz.report import html_report, save_report

        html = html_report(small_gzip_trace)
        assert html.startswith("<!doctype html>")  # the one page shell
        assert html.count("<svg") == 3  # bar, heat map, timeline
        assert "Breakdown" in html and "Machine" in html
        assert "bottleneck is" in html  # the characterization advice
        path = tmp_path / "r.html"
        save_report(small_gzip_trace, path)
        assert path.read_text() == html

    def test_focus_none_omits_interactions(self, small_gzip_trace):
        from repro.viz.report import html_report

        html = html_report(small_gzip_trace, focus=None)
        assert "dl1+win" not in html
