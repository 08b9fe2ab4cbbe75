"""The size counts that the change records quote: `tools/src_lines.py` must
count every line, and as code only the lines that hold code outside module,
class and function docstrings.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code


# a comment line
def f(x):
    """A function docstring."""
    text = """a string that is
not a docstring"""
    return math.floor(x), text


class C:
    """A class
    docstring."""

    y = 1
'''

CODE = ["import math", "def f(x):", "text =", "not a docstring", "return", "class C:", "y = 1"]


def test_counts_every_line_and_the_code_outside_docstrings():
    assert src_lines.counts(SOURCE) == (19, len(CODE))


def test_main_sums_the_files_it_is_given(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(tmp_path / name)
        paths[-1].write_text(SOURCE)
    assert src_lines.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out == f"38 {2 * len(CODE)}\n"
