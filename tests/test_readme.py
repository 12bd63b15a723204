"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    """The first fenced python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs_on_c4(tmp_path, monkeypatch):
    (tmp_path / "g.txt").write_text("1 2\n2 3\n3 4\n4 1\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(_library_snippet(), namespace)
    assert namespace["census"].total == 6
    assert len(namespace["facets"]) == 6
