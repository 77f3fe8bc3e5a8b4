"""The repository's measuring tools, run as their users run them."""

import os
import subprocess
import sys
import textwrap

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

# 9 code lines: the import, the two-line def, the two-line string and the
# four-line call; the docstrings, comments and blank lines are not code
_MODULE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""
    # a comment

    import os

    TEXT = """one
    two"""


    def join(a,
             b):  # a trailing comment
        """Function docstring."""
        return os.path.join(
            a,
            b,
        )
    ''')


def _code_lines(*paths):
    out = subprocess.run([sys.executable, os.path.join(_TOOLS, "code_lines.py"), *paths],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return [line.split(None, 1) for line in out.stdout.splitlines()]


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(_MODULE)
    assert _code_lines(str(module)) == [["9", str(module)]]
    (tmp_path / "other.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert _code_lines(str(tmp_path)) == [["9", str(module)], ["1", str(tmp_path / "other.py")],
                                          ["10", "total"]]
