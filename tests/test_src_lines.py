"""tools/src_lines.py on a fixture with one line of each kind it tells apart, and on the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment-only line
TEXT = """a multi-line string
that is not a docstring"""


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        with a blank line inside it."""
        return os.sep
'''


def test_fixture_lines_by_kind():
    # code: 4, 7, 8, 11, 14, 18; docstring: 1, 2, 12, 15, 16, 17; comment: 6; blank: 3, 5, 9, 10, 13
    assert src_lines.count(FIXTURE) == {"lines": 18, "code": 6, "docstring": 6, "comment": 1, "blank": 5}


def test_a_string_statement_after_the_docstring_is_code():
    source = 'def f():\n    """Docstring."""\n    """Not a docstring."""\n'
    assert src_lines.count(source) == {"lines": 3, "code": 2, "docstring": 1, "comment": 0, "blank": 0}


def test_every_line_of_every_module_has_one_kind():
    for path in sorted(src_lines.PACKAGE.glob("*.py")):
        counts = src_lines.count(path.read_text())
        assert counts["lines"] == len(path.read_text().splitlines()) > 0, path.name
        assert sum(counts[kind] for kind in src_lines.KINDS) == counts["lines"], path.name
