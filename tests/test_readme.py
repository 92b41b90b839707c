"""The README's library tour runs as written and gives the results its
comments state."""

import ast
import re
from pathlib import Path as FsPath

README = FsPath(__file__).parent.parent / "README.md"

# a comment that states a result: a tuple or a quoted string, maybe
# followed by prose ("# (131, 6, 22, 1), the fragment 5.1.21")
_RESULT_RE = re.compile(r"#\s*(\([^)]*\)|'[^']*')")


def tour_block():
    text = README.read_text()
    section = text.split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_tour_results(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the tour saves and loads tree.db
    source = tour_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        result = _RESULT_RE.search(lines[stmt.end_lineno - 1])
        if result is None or not isinstance(stmt, ast.Expr):
            exec(compile(code, str(README), "exec"), namespace)
            continue
        got = eval(compile(code, str(README), "eval"), namespace)
        assert repr(got) == result.group(1), code
        checked.append(code)
    assert len(checked) == 5, checked
    assert (tmp_path / "tree.db").exists()
