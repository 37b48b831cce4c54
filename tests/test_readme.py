"""README's examples stay true: its python blocks run, and every newtonbench
command of its Quick start parses with the CLI's own parser (parsed only,
since the commands train and write files)."""

import pathlib
import re
import shlex

import pytest

from newtonbench.bench import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(text, lang):
    """The bodies of the fenced code blocks of one language, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def quick_start_commands():
    """argv of each command of the Quick start sh block: continued lines
    joined, comments dropped, each line split on &&."""
    block = blocks(README.split("## Quick start", 1)[1], "sh")[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            commands += [shlex.split(part) for part in line.split("&&")]
    return commands


@pytest.mark.parametrize(
    "source", [pytest.param(b, id=f"block{i}") for i, b in enumerate(blocks(README, "python"))]
)
def test_every_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", quick_start_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_every_quick_start_command_parses(argv):
    assert argv[0] == "newtonbench"
    cli.build_parser().parse_args(argv[1:])


def test_the_quick_start_has_every_command():
    # the continued bench command is one, and the && line three
    assert len(quick_start_commands()) == 9
