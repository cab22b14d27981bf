"""Package layout: numpy is the only runtime dependency, there is one import path,
one writer of JSON artifacts, and one way into each setting.

hypothesis and pytest-benchmark may be installed beside the package, but the
package must not come to need them, so every module's imports are read from
its source rather than trusted to fail at import time.
"""

from __future__ import annotations

import argparse
import ast
import sys
import types
from pathlib import Path

import pytest

import signalfolio
from signalfolio.cli import _parser

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "signalfolio").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    assert absolute_imports(path) - ALLOWED == set()


def test_package_top_level_binds_only_submodules():
    public = {
        name
        for name, value in vars(signalfolio).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set()


def test_only_write_json_encodes_or_replaces():
    """json.dumps( and os.replace( appear in src/ only inside market.write_json."""
    writers, outside = [], []
    for path in SOURCES:
        text = path.read_text()
        bodies = [
            ast.get_source_segment(text, node)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == "write_json"
        ]
        writers += [path.name] * len(bodies)
        for body in bodies:
            text = text.replace(body, "")
        outside += [(path.name, call) for call in ("json.dumps(", "os.replace(") if call in text]
    assert writers == ["market.py"]
    assert outside == []


def test_each_subcommand_takes_only_config_set_and_out():
    """Each value has one way in: a config file or --set; --out names the directory."""
    [commands] = [
        action.choices
        for action in _parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in commands.items()
    }
    expected = {"-h", "--help", "--config", "--set", "--out"}
    assert options == {name: expected for name in ("backtest", "train", "sweep", "metrics")}
