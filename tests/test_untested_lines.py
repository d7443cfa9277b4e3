import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"
_spec = importlib.util.spec_from_file_location("untested_lines", _PATH)
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

_MODULE = textwrap.dedent('''\
    """A module docstring."""
    import os


    @staticmethod
    def f(x):
        """A function docstring."""
        global y
        total = (x +
                 1)
        if total:
            return 1
        else:
            return 2
''')


def test_statements_are_simple_lines_and_compound_headers():
    # The docstrings and ``global`` are no statements; ``f``'s header runs
    # from its decorator; the assignment spans its two lines.
    assert untested_lines.statements(_MODULE) == [(2, 2), (5, 6), (9, 10), (11, 11), (12, 12),
                                                  (14, 14)]


def test_report_names_each_run_of_untested_statements(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(_MODULE)
    b.write_text("x = 1\n")
    # Line 10 is the second line of the assignment, line 6 the def of the
    # header that starts at line 5; line 12 never ran, nor did b.
    hits = {str(a): {2, 6, 10, 11, 14}}
    assert untested_lines.report(hits, [a, b]) == [
        "a 1 of 6 untested: 12", "b 1 of 1 untested: 1", "total 2 of 7 untested"]
    # Untested statements next to each other in line order make one run.
    hits = {str(a): {2, 6, 11}, str(b): {1}}
    assert untested_lines.report(hits, [a, b]) == [
        "a 3 of 6 untested: 9-10, 12-14", "b 0 of 1 untested", "total 3 of 7 untested"]
