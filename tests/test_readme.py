"""Every ```python block in README.md runs as written, and every documented
command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from buildlag import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def _documented_commands():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    readme = [shlex.split(line)[1:] for line in block.splitlines()
              if line.startswith("buildlag ")]
    # epilog recipes: two-space indent, the command, two or more spaces, a note
    recipes = [line.split()
               for line in re.findall(r"^  (\S.*?)(?: {2,}|$)", cli._EPILOG, re.M)]
    assert readme and recipes
    return [pytest.param(argv, id=f"{where}:{'_'.join(argv)}")
            for where, argvs in (("readme", readme), ("epilog", recipes)) for argv in argvs]


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_command_lines_parse(argv):
    # parsing only: a renamed or removed flag makes argparse exit
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
