"""Tests for ASCII chart rendering."""

from repro.bench.plotting import ascii_log_chart


class TestAsciiLogChart:
    def test_bars_scale_with_magnitude(self):
        chart = ascii_log_chart(
            "demo", "k", [3, 4],
            {"HG": [0.001, 0.001], "GC": [1.0, 10.0]},
        )
        lines = chart.splitlines()
        hg_bar = next(l for l in lines if l.startswith("HG") and "k=3" in l)
        gc_bar = next(l for l in lines if l.startswith("GC") and "k=4" in l)
        assert gc_bar.count("#") > hg_bar.count("#")

    def test_markers_rendered_verbatim(self):
        chart = ascii_log_chart("demo", "k", [3], {"OPT": ["OOT"]})
        assert "OOT" in chart

    def test_title_and_units(self):
        chart = ascii_log_chart("runtime", "k", [3], {"LP": [0.5]}, unit="s")
        assert chart.startswith("== runtime")
        assert "0.5s" in chart

    def test_all_markers_no_numeric(self):
        chart = ascii_log_chart("x", "k", [3, 4], {"GC": ["OOM", "OOM"]})
        assert chart.count("OOM") == 2

    def test_zero_value_edge_case(self):
        chart = ascii_log_chart("x", "k", [1], {"A": [0.0]})
        assert "0" in chart

