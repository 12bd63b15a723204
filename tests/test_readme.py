"""The README's library and CLI examples run against the package as it is."""

import re
from pathlib import Path

from adjpoly.cli import run

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
    assert namespace["census"] == ((1, 6),)
    assert len(namespace["facets"]) == 6


def _cli_example(heading: str) -> list[tuple[list[str], list[str]]]:
    """Each `$ adjpoly` command of the first fenced block after the README
    line that starts with heading, with the lines shown under it."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    examples = []
    for chunk in block.split("$ adjpoly ")[1:]:
        command, *shown = chunk.strip().split("\n")
        examples.append((command.split(), shown))
    return examples


def _assert_shown(result, shown: list[str]) -> None:
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    if "..." in shown:
        # "..." stands for lines left out between the first and the last
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        assert lines[: len(head)] == head
        assert lines[len(lines) - len(tail) :] == tail
    else:
        assert lines == shown


def test_cli_example_matches_run(joined45_path):
    examples = _cli_example("Example, with `g.txt`")
    assert [argv[0] for argv, _ in examples] == ["count", "joined-cycles"]
    for argv, shown in examples:
        argv = [str(joined45_path) if arg == "g.txt" else arg for arg in argv]
        _assert_shown(run(argv), shown)


def test_bipartite_example_matches_run(tmp_path):
    ((argv, shown),) = _cli_example("### `bipartite` output")
    assert argv == ["bipartite", "c5.txt"]
    c5 = tmp_path / "c5.txt"
    c5.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    _assert_shown(run(["bipartite", str(c5)]), shown)
