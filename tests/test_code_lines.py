import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line is marked with whether it counts; the marks are stripped.
_MODULE = '''
    """A module docstring                 # no
    over two lines."""                    # no
                                          # no
    # a comment                           # no
    import os                             # yes
                                          # no
                                          # no
    class A:                              # yes
        """A class docstring."""          # no
        x = """not a docstring            # yes
    but a string"""                       # yes
                                          # no
        def f(self):                      # yes
            \'\'\'A function docstring.\'\'\'  # no
            return [1,                    # yes
                    # inside brackets     # no
                    2]                    # yes
                                          # no
    async def g():                        # yes
        "docstring"                       # no
        "a second string is code"         # yes
'''


def _source_and_count():
    lines = textwrap.dedent(_MODULE).splitlines()
    marks = [line.rsplit("#", 1)[1].strip() for line in lines if line]
    source = "\n".join(line.rsplit("#", 1)[0].rstrip() for line in lines) + "\n"
    return source, marks.count("yes")


def test_code_lines_skips_blank_comment_and_docstring_lines():
    source, want = _source_and_count()
    assert code_lines.code_lines(source) == want == 9


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    source, want = _source_and_count()
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == f"{want} a\n1 b\n{want + 1} total\n"
