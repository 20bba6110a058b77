"""The README's examples run as shown.

The "Library" block is executed as it stands, and each ``$ hooktrees``
example runs through ``cli.main`` with its stdout held against the lines
printed under it; a ``...`` line ends the shown part, which is then a
prefix of the output.
"""

import re
import shlex
from pathlib import Path

from hooktrees import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def examples() -> list[tuple[list[str], list[str]]]:
    """Each ``$`` command's argv and the lines shown under it."""
    found = []
    for block in blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.strip("\n").split("\n")
            found.append((shlex.split(command), shown))
    return found


def test_readme_examples_run_as_shown(capsys):
    (library,) = blocks("python")
    exec(compile(library, "README.md", "exec"), {})

    shown_examples = examples()
    assert [argv[0] for argv, _ in shown_examples] == ["hooktrees"] * 4
    for argv, shown in shown_examples:
        assert cli.main(argv[1:]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown = shown[:-1]
            lines = lines[: len(shown)]
        assert lines == shown, argv
