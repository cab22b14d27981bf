"""The README's examples stay runnable: its config block resolves, and every
`signalfolio` command line parses and resolves its `--set` pairs.  Its Layout
table names only files and code that exist."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from signalfolio.cli import _parser
from signalfolio.config import apply_overrides, parse_config_file, resolve

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "signalfolio"


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


def occurs(name: str, code: str) -> bool:
    """name is a word of code, or a module's top-level definition, as in market.open_whole."""
    module, _, attr = name.rpartition(".")
    path = PACKAGE / f"{module}.py"
    if module and path.is_file() and re.search(rf"^(def |class )?{attr}\b", path.read_text(), re.M):
        return True
    return re.search(rf"(?<![\w.]){re.escape(name)}\b", code) is not None


def test_layout_table_names_only_what_exists():
    """Each backticked path in the Layout table is a file, of the package or from the
    repository root, and each backticked identifier, the text before any "(", occurs
    in src/ or tests/scalar.py; a shape such as (T, d) names nothing."""
    table = README.partition("## Layout")[2].partition("\n## ")[0]
    rows = "\n".join(line for line in table.splitlines() if line.startswith("|"))
    code = "".join(p.read_text() for p in [*PACKAGE.glob("*.py"), ROOT / "tests" / "scalar.py"])
    stale = []
    for token in re.findall(r"`([^`]+)`", rows):
        name = token.partition("(")[0]
        if token.endswith(".py"):
            found = (PACKAGE / token).is_file() or (ROOT / token).is_file()
        else:
            found = not name or occurs(name, code)
        if not found:
            stale.append(token)
    assert rows and stale == []
