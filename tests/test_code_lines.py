"""tools/code_lines.py counts code lines and nothing else."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / 'tools' / 'code_lines.py'

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        \'\'\'Method docstring.\'\'\'
        s = """a string
that is assigned"""
        return (s,
                os.sep)
'''


def _tool():
    spec = importlib.util.spec_from_file_location('code_lines', TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / 'sample.py'
    path.write_text(SAMPLE)
    # import, class, def, the two lines of s, the two of the return
    assert _tool().code_lines(path) == 7


def test_code_lines_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    rows = dict(line.split() for line in out.splitlines())
    modules = {p.stem for p in (ROOT / 'src' / 'gf2perfect').glob('*.py')}
    assert set(rows) == modules | {'total'}
    assert int(rows['total']) == sum(int(rows[m]) for m in modules)
