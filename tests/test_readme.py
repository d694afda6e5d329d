"""The README's library example runs and its CLI examples parse."""

import re
import shlex
from pathlib import Path

from ambcsync.cli import _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, lang: str) -> str:
    """The first ```lang block after the ``## section`` heading."""
    body = README.split(f"## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_library_example_runs(capsys):
    code = fenced_block("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    # the comment on the print line states the value it prints
    promised = re.search(r"print\(.*\)  # (-?\d+)", code).group(1)
    assert capsys.readouterr().out.strip() == promised


def test_readme_cli_examples_parse():
    commands = fenced_block("CLI", "sh").replace("\\\n", " ").splitlines()
    assert len(commands) == 3
    parser = _build_parser()
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "ambcsync"
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
