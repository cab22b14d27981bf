"""Package layout: numpy is the only runtime dependency, there is one import path,
one writer through which every artifact is written and one encoder of JSON
artifacts, one path that sets up and trains the agent, training settings that
are agent.train's keywords, one way into each setting, a reader for every
config key, a caller in src/ for everything src/ defines, and no process pool
loaded before a sweep needs one.

hypothesis and pytest-benchmark may be installed beside the package, but the
package must not come to need them, so every module's imports are read from
its source rather than trusted to fail at import time.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import signalfolio
from signalfolio.agent import train
from signalfolio.cli import _parser
from signalfolio.config import KEYS, build_segments, resolve, train_settings

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted((SRC / "signalfolio").glob("*.py"))
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


def test_one_writer_replaces_and_only_write_json_encodes():
    """os.replace( appears in src/ only inside market.open_whole, the one writer every
    artifact goes through, and json.dumps( only inside market.write_json."""
    for writer, call in (("open_whole", "os.replace("), ("write_json", "json.dumps(")):
        writers, outside = [], []
        for path in SOURCES:
            text = path.read_text()
            bodies = [
                ast.get_source_segment(text, node)
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == writer
            ]
            writers += [path.name] * len(bodies)
            for body in bodies:
                text = text.replace(body, "")
            outside += [path.name] * (call in text)
        assert (writer, writers, outside) == (writer, ["market.py"], [])


def test_one_agent_path_inits_and_trains():
    """init_policy( and train( are called in src/ once each, inside config.train_agents,
    the one set-up and training path of train, backtest and every sweep group."""
    callers = {"init_policy": [], "train": []}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callers:
                    callers[name].append((path.stem, getattr(top, "name", None)))
    assert callers == {name: [("config", "train_agents")] for name in callers}


def test_train_settings_are_the_keywords_of_agent_train():
    """config.train_settings gives agent.train its keyword-only settings, no more and no
    fewer, each the value of its key: window, or agent.<name> for the others."""
    cfg = resolve(
        {
            "market.synthetic.n_steps": 150,
            "window": 9,
            "agent.batch_window": 17,
            "agent.learning_rate": 0.25,
            "agent.epochs": 3,
            "agent.steps_per_epoch": 2,
        }
    )
    settings = train_settings(cfg, build_segments(cfg)[0])
    keywords = [
        param.name
        for param in inspect.signature(train).parameters.values()
        if param.kind is param.KEYWORD_ONLY
    ]
    key = {name: "window" if name == "window" else f"agent.{name}" for name in keywords}
    assert settings == {name: cfg[key[name]] for name in keywords}


def test_only_open_whole_opens_a_file_to_write():
    """Every artifact, tables and config echo too, is written through market.open_whole."""
    calls = (".write_text(", ".write_bytes(", '.open("w', '.open("a')
    found = [(path.name, call) for path in SOURCES for call in calls if call in path.read_text()]
    assert found == [("market.py", '.open("w')]


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


def test_every_config_key_is_read():
    """Each KEYS key is read as cfg["key"] somewhere in src/: a key that nothing reads goes."""
    read = {
        node.slice.value
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
    }
    assert sorted(set(KEYS) - read) == []


def test_everything_src_defines_is_used_in_src(monkeypatch):
    """Each top-level function and class in src/, and each method but dunders, is named
    in src/ outside its own definition: code that only the tests call lives in tests/.

    The exceptions are the functions the benchmark's tracer wraps, read from
    perfbench/tracer.py so the list follows the benchmark, and
    sweep.read_sweep_csv, which a resumable sweep will read back (ROADMAP item 12).
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    exempt = {(target.module, target.attr) for target in tracer.TARGETS}
    exempt.add(("sweep", "read_sweep_csv"))
    defined, named = [], []  # (module, qualified name, node); (module, name, line)
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, top.name, top))
            if isinstance(top, ast.ClassDef):
                defined += [
                    (path.stem, f"{top.name}.{node.name}", node)
                    for node in top.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.append((path.stem, name, node.lineno))
    unused = [
        f"{module}.{qualname}"
        for module, qualname, node in defined
        if (module, qualname) not in exempt
        and not any(
            name == qualname.rpartition(".")[2]
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in named
        )
    ]
    assert unused == []


def test_importing_the_cli_loads_no_process_pool():
    """Only a sweep split over several workers imports concurrent.futures."""
    code = (
        "import sys, signalfolio.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
