"""The README's library quick start runs as written, and every `rwkvp`
command of its CLI walkthrough parses, so neither can drift from the code."""

import re
import shlex
from pathlib import Path

from rwkvp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_walkthrough_parses():
    shell = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S))
    commands = [shlex.split(line) for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("rwkvp ")]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])          # a usage error exits, failing the test
    # the walkthrough runs every subcommand
    assert {argv[1] for argv in commands} == {name[len("cmd_"):].replace("_", "-")
                                              for name in dir(cli) if name.startswith("cmd_")}
