"""tools/loc.py on small source strings."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def test_code_lines_skip_comments_docstrings_and_blanks():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comment\n"
        "\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line docstring."""\n'
        "    text = '''a string\n"
        "    that is code'''\n"
        "    return (a +\n"
        "            # inside a statement\n"
        "            b)\n"
        "\n"
        "class C:\n"
        "    'docstring' 'in two parts'\n"
        "    x = 1\n"
    )
    # import; def over two lines; the assigned string over two; return over
    # two, not its comment line; class; x = 1
    assert loc.code_lines(source) == 1 + 2 + 2 + 2 + 1 + 1
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_count_covers_every_module_of_the_package():
    rows = loc.count(loc.PACKAGE)
    assert {"simnet.py", "pairing/ate.py"} <= {name for name, _, _ in rows}
    assert all(0 < code < raw for _, raw, code in rows)
