"""The README's examples stay runnable: its config block resolves, and every
`signalfolio` command line parses and resolves its `--set` pairs."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from signalfolio.cli import _parser
from signalfolio.config import apply_overrides, parse_config_file, resolve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced code blocks in lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def commands() -> list[list[str]]:
    """Each `signalfolio ...` line of the sh blocks, continuations joined, comments dropped."""
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [
        shlex.split(line, comments=True)[1:] for line in lines if line.startswith("signalfolio ")
    ]


def test_config_block_resolves(tmp_path):
    [block] = blocks("ini")
    path = tmp_path / "run.cfg"
    path.write_text(block)
    cfg = resolve(parse_config_file(path))
    assert cfg["agent.enabled"] is True


def test_there_is_a_command_per_subcommand():
    assert {argv[0] for argv in commands()} == {"backtest", "train", "sweep", "metrics"}


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: " ".join(argv))
def test_command_parses_and_resolves(argv):
    args = _parser().parse_args(argv)
    resolve(apply_overrides({}, args.overrides))
