"""tools/code_lines.py: code lines without blanks, comments or docstrings."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is no docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_of_a_snippet():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, class, def, both lines of the string and both of the return
    assert tool.code_lines(SNIPPET) == 7
