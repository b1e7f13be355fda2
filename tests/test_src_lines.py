"""tools/src_lines.py, the line counter of src/dipolefield."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    text = '\n'.join([
        '"""A module docstring',
        'over two lines."""',
        '',
        '# a comment line',
        'x = """a string',
        'spanning lines"""  # and a trailing comment',
        '',
        'def f():',
        '    """A function docstring."""',
        '    return x',
    ]) + '\n'
    # code: the two lines of the string, the def and the return
    assert _load().count(text) == (10, 4)


def test_the_script_sums_its_module_rows():
    result = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    header, *rows = (line.split() for line in result.stdout.splitlines())
    assert header == ["module", "total", "code"]
    *modules, (name, *total) = rows
    assert name == "all" and len(modules) >= 5
    assert all(m[0].endswith(".py") for m in modules)
    assert [int(v) for v in total] == [sum(int(m[i]) for m in modules) for i in (1, 2)]


@pytest.mark.parametrize("text, counts", [
    ("", (0, 0)),
    ("# only a comment\n\n", (2, 0)),
    ('class A:\n    """A class docstring\n    over two lines."""\n    y = 2\n', (4, 2)),
    ('async def f():\n    """An async docstring."""\n', (2, 1)),
    ('x = 1\n"""a string after code is no docstring"""\n', (2, 2)),
    ("x = (1 +\n     2)\n", (2, 2)),
], ids=["empty", "comment", "class", "async", "late-string", "continued"])
def test_count_cases(text, counts):
    assert _load().count(text) == counts


def test_the_script_counts_the_directory_it_is_given(tmp_path):
    sources = {"a.py": '"""Doc."""\nx = 1\n', "b.py": "# note\ny = 2\nz = 3\n", "c.txt": "w = 4\n"}
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    result = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    # .py files only, in name order, then their sum
    assert [line.split() for line in result.stdout.splitlines()[1:]] == [
        ["a.py", "2", "1"], ["b.py", "3", "2"], ["all", "5", "3"]]
