"""The logic-line counter in tools/logic_lines.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "logic_lines.py"

# a module docstring, a comment, a blank line and one statement over three lines
SAMPLE = '''"""A sample module."""
# a comment

total = sum(
    [1, 2],
)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("logic_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_the_statement_lines():
    assert _tool().logic_lines(SAMPLE) == 3


def test_function_and_class_docstrings_do_not_count():
    source = (
        'class A:\n    """Doc."""\n\n'
        '    def f(self):\n        """Two\n        lines."""\n        return 1\n'
    )
    assert _tool().logic_lines(source) == 3


def test_script_reports_each_file_and_the_total(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "other.py").write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "     1  other.py", "     3  sample.py", "     4  total", ""
    ]
