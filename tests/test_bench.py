"""Tests for the bench harness and table rendering."""

import time

import numpy as np
import pytest

from repro.bench import harness, tables
from repro.errors import OutOfMemoryError, OutOfTimeError


class TestRunCell:
    def test_ok_value(self):
        cell = harness.run_cell(lambda: 42)
        assert cell.ok and cell.value == 42 and cell.marker is None
        assert cell.display() == "42"

    def test_oot_from_exception(self):
        def boom():
            raise OutOfTimeError("too slow")

        cell = harness.run_cell(boom)
        assert cell.marker == "OOT" and not cell.ok

    def test_oom_from_exception(self):
        def boom():
            raise OutOfMemoryError("too big")

        assert harness.run_cell(boom).marker == "OOM"

    def test_oom_from_memoryerror(self):
        def boom():
            raise MemoryError

        assert harness.run_cell(boom).marker == "OOM"

    def test_wallclock_overrun_marked(self):
        cell = harness.run_cell(lambda: time.sleep(0.05) or 7, time_budget=0.01)
        assert cell.marker == "OOT" and cell.value is None

    def test_memory_tracing(self):
        cell = harness.run_cell(lambda: np.zeros(1_000_000), trace_memory=True)
        assert cell.peak_mb > 5

    def test_display_formatting(self):
        cell = harness.run_cell(lambda: 1234567)
        assert cell.display(tables.format_count) == "1.23M"


class TestSubprocessCell:
    def test_ok(self):
        cell = harness.run_cell_subprocess(lambda: 5, time_budget=10)
        assert cell.ok and cell.value == 5

    def test_hard_timeout(self):
        cell = harness.run_cell_subprocess(lambda: time.sleep(30), time_budget=0.3)
        assert cell.marker == "OOT"
        assert cell.seconds < 5

    def test_child_error_propagates(self):
        def boom():
            raise ValueError("child failed")

        with pytest.raises(RuntimeError, match="child failed"):
            harness.run_cell_subprocess(boom, time_budget=10)

    def test_scaled(self):
        assert harness.scaled(100) >= 1


class TestFormatting:
    def test_format_count(self):
        assert tables.format_count(950) == "950"
        assert tables.format_count(12_500) == "12.5K"
        assert tables.format_count(3_220_000_000) == "3.22B"
        assert tables.format_count(75_200_000_000_000) == "75.2T"
        assert tables.format_count("OOM") == "OOM"

    def test_format_seconds(self):
        assert tables.format_seconds(0.0123) == "12.3ms"
        assert tables.format_seconds(2.5) == "2.50s"
        assert tables.format_seconds("OOT") == "OOT"

    def test_format_micros(self):
        assert tables.format_micros(25e-6) == "25.0us"
        assert tables.format_micros(0.5) == "500.0ms"

    def test_render_table_alignment(self):
        text = tables.render_table(
            "Demo", ["A", "Blong"], [[1, 2], ["xxxxxx", 3]], note="hello"
        )
        lines = text.splitlines()
        assert lines[0] == "== Demo =="
        assert "A" in lines[1] and "Blong" in lines[1]
        assert lines[-1].strip().startswith("note: hello")
        # All body lines equally wide.
        widths = {len(l) for l in lines[1:-1]}
        assert len(widths) == 1

    def test_render_series(self):
        text = tables.render_series(
            "S", "k", [3, 4], {"LP": [0.5, "OOT"]}, fmt=tables.format_seconds
        )
        assert "500.0ms" in text and "OOT" in text

