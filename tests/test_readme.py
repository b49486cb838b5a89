"""The README must advertise only commands that parse and name every config key."""

import json
import re
import shlex
from pathlib import Path

import pytest

from suturekit.cli import TABLES, build_parser

ROOT = Path(__file__).resolve().parents[1]


def _cli_section() -> str:
    text = (ROOT / "README.md").read_text()
    return re.search(r"^## CLI\n(.*?)^## ", text, re.S | re.M).group(1)


def _shell_lines(prefix: str) -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", _cli_section(), re.S)
    return [
        line.split("#")[0].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith(prefix)
    ]


def test_cli_section_lists_commands():
    assert len(_shell_lines("suturekit ")) >= 6


@pytest.mark.parametrize("line", _shell_lines("suturekit "))
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])  # SystemExit(2) on a bad command


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_readme_names_every_config_key(config):
    text = _cli_section()
    keys = json.loads((ROOT / "configs" / config).read_text())
    assert [k for k in keys if f"`{k}`" not in text] == []


def test_readme_names_every_key_the_cli_reads():
    keys = set()
    for table in TABLES.values():
        for key, (kind, _, _) in table.items():
            keys |= {key, *kind} if isinstance(kind, dict) else {key}
    text = _cli_section()
    assert sorted(k for k in keys if f"`{k}`" not in text) == []
