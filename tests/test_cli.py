"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSolve:
    def test_solve_dataset(self, capsys):
        assert main(["solve", "--dataset", "FTB", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "|S|=" in out and "coverage=" in out

    def test_solve_show(self, capsys):
        main(["solve", "--dataset", "FTB", "--k", "3", "--show", "2"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_solve_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "cliques.txt"
        main(["solve", "--dataset", "FTB", "--k", "3", "--output", str(out_file)])
        lines = out_file.read_text().strip().splitlines()
        assert lines and all(len(line.split()) == 3 for line in lines)

    def test_solve_edge_list_input(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        main(["solve", "--input", str(edges), "--k", "3"])
        assert "|S|=2" in capsys.readouterr().out

    def test_missing_graph_source(self):
        with pytest.raises(SystemExit):
            main(["solve", "--k", "3"])


class TestSolveAnytime:
    def test_json_output(self, capsys):
        import json

        assert main(["solve", "--dataset", "FTB", "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interrupted"] is False
        assert payload["size"] > 0 and payload["method"] == "lp"

    def test_anytime_runs_to_completion(self, capsys):
        import json

        assert main([
            "solve", "--dataset", "FTB", "--k", "3",
            "--anytime", "--progress-every", "10",
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["interrupted"] is False
        assert payload["bound"] >= payload["size"] > 0
        assert payload["work"] > 0
        assert "anytime: |S|=" in captured.err

    def test_anytime_interrupt_returns_best_so_far(self, capsys):
        """SIGINT semantics via the driver: stop mid-run, keep the work."""
        import json

        from repro.cli import run_anytime
        from repro.core.session import Session
        from repro.graph import datasets
        from repro.core.result import verify_solution

        graph = datasets.load("FTB")
        task = Session(graph).task(3, "lp")
        calls = []
        interrupted, work = run_anytime(
            task,
            progress_every=5,
            should_stop=lambda: len(calls) >= 3,
            log=lambda *args: calls.append(args),
        )
        # stopped by the flag, not by completion, with usable work done
        assert interrupted is True
        assert not task.done
        assert work > 0
        verify_solution(graph, 3, task.best().cliques)

    def test_anytime_rejects_non_resumable_method(self):
        with pytest.raises(SystemExit, match="not resumable"):
            main(["solve", "--dataset", "FTB", "--k", "3",
                  "--method", "gc", "--anytime"])


class TestOtherCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "FTB", "--ks", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "3-cliques: 424" in out and "degeneracy=" in out

    def test_compare(self, capsys):
        assert main(["compare", "--dataset", "FTB", "--k", "3",
                     "--methods", "hg", "lp"]) == 0
        out = capsys.readouterr().out
        assert "hg" in out and "lp" in out and "certificate" in out

    def test_dynamic(self, capsys):
        assert main([
            "dynamic", "--dataset", "FTB", "--k", "3",
            "--workload", "deletion", "--count", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean-update=" in out and "drift" in out

    def test_dynamic_insertion(self, capsys):
        assert main([
            "dynamic", "--dataset", "FTB", "--k", "3",
            "--workload", "insertion", "--count", "10",
        ]) == 0
        assert "workload=insertion" in capsys.readouterr().out

    def test_dynamic_batched(self, capsys):
        assert main([
            "dynamic", "--dataset", "FTB", "--k", "3",
            "--workload", "mixed", "--count", "15",
            "--batch-size", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode=batched(8)" in out and "updates/s" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "FTB" in out and "OR" in out

    def test_experiments_passthrough(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_rejects_non_positive_quantum(self, capsys):
        for quantum in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--quantum", quantum])
            assert exc.value.code == 2
            assert "--quantum: must be positive seconds" in capsys.readouterr().err
