"""The CI gate scripts under tools/ must hold on the repo itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name, *args):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    return proc


class TestDocstringGate:
    def test_public_surface_fully_documented(self):
        proc = run_tool("check_docstrings.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "100.0%" in proc.stdout

    def test_gate_actually_detects_missing_docstrings(self, tmp_path):
        # Guard the guard: strip one docstring in a sandboxed copy of the
        # tree and the gate must fail naming the symbol.
        import shutil

        sandbox = tmp_path / "repo"
        shutil.copytree(ROOT / "src", sandbox / "src")
        shutil.copytree(TOOLS, sandbox / "tools")
        pool_py = sandbox / "src" / "repro" / "serve" / "pool.py"
        text = pool_py.read_text(encoding="utf-8")
        needle = '''    def clear(self) -> int:
        """Drop every resident session; returns how many were evicted."""'''
        assert needle in text
        pool_py.write_text(
            text.replace(needle, "    def clear(self) -> int:"), encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, str(sandbox / "tools" / "check_docstrings.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 1
        assert "repro.serve.pool.SessionPool.clear" in proc.stderr


class TestLinkGate:
    def test_repo_docs_links_resolve(self):
        proc = run_tool("check_doc_links.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_gate_detects_broken_links(self, tmp_path):
        import shutil

        sandbox = tmp_path / "repo"
        (sandbox / "docs").mkdir(parents=True)
        shutil.copytree(TOOLS, sandbox / "tools")
        (sandbox / "README.md").write_text("[ok](docs/real.md)\n")
        (sandbox / "docs" / "real.md").write_text(
            "[broken](../src/missing_module.py)\n"
            "[fine](real.md#anchor)\n"
            "[external](https://example.com/x)\n"
        )
        proc = subprocess.run(
            [sys.executable, str(sandbox / "tools" / "check_doc_links.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "missing_module.py" in proc.stderr
        assert "real.md#anchor" not in proc.stderr

    @staticmethod
    def _bare_ref_sandbox(tmp_path, module_doc):
        import shutil

        sandbox = tmp_path / "repo"
        (sandbox / "docs").mkdir(parents=True)
        (sandbox / "src" / "repro").mkdir(parents=True)
        shutil.copytree(TOOLS, sandbox / "tools")
        # A bare name resolves against its own file's directory.
        (sandbox / "docs" / "real.md").write_text("Sibling: real.md.\n")
        (sandbox / "README.md").write_text(
            "See docs/real.md and tools/check_doc_links.py.\n"
            "Patterns are skipped: docs/*.md, benchmarks/bench_<name>.py,\n"
            "tools/{a,b}.py; so are generated files like EXPERIMENTS.md.\n"
        )
        (sandbox / "src" / "repro" / "mod.py").write_text(f'"""{module_doc}"""\n')
        return subprocess.run(
            [sys.executable, str(sandbox / "tools" / "check_doc_links.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_bare_references_that_resolve_pass(self, tmp_path):
        proc = self._bare_ref_sandbox(tmp_path, "Documented in docs/real.md.")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_gate_detects_dangling_bare_references(self, tmp_path):
        proc = self._bare_ref_sandbox(
            tmp_path, "See MISSING.md \u00a74 and\nbenchmarks/bench_gone.py."
        )
        assert proc.returncode == 1
        assert "src/repro/mod.py:1: MISSING.md" in proc.stderr
        assert "src/repro/mod.py:2: benchmarks/bench_gone.py" in proc.stderr
        assert "real.md" not in proc.stderr
