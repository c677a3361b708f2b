"""The demos and the README's python blocks use only levylab names that
exist, with keywords their callees take, and every demo runs.

Each demo and block is parsed: every ``L.<name>`` and ``L.presets.<name>``
must resolve, and the arguments of every call to one of them must bind to
the callee's parameters: no unknown keyword, and no more positional
arguments than it takes.  Each demo then runs as a script in a fresh
working directory, where it may write its ``demo_output/``.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import levylab as L

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           flags=re.S | re.M)


def _owner(node: ast.Attribute):
    """The module ``node`` reads an attribute of: levylab for ``L.x``,
    levylab.presets for ``L.presets.x``, None otherwise."""
    v = node.value
    if isinstance(v, ast.Name) and v.id == "L":
        return L
    if (isinstance(v, ast.Attribute) and v.attr == "presets"
            and isinstance(v.value, ast.Name) and v.value.id == "L"):
        return L.presets
    return None


def test_every_demo_is_found():
    assert DEMOS


def _check_names_and_keywords(source: str, where: str):
    nodes = list(ast.walk(ast.parse(source, filename=where)))
    for node in nodes:
        if isinstance(node, ast.Attribute) and _owner(node) is not None:
            assert hasattr(_owner(node), node.attr), \
                f"{where}:{node.lineno}: {_owner(node).__name__}.{node.attr} does not exist"
    for node in nodes:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _owner(node.func) is not None):
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        try:   # the argument nodes stand in for their values
            inspect.signature(getattr(_owner(node.func), node.func.attr)).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}:{node.lineno}: {node.func.attr}: {exc}") from None


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_names_and_keywords_exist(demo):
    _check_names_and_keywords(demo.read_text(), demo.name)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_every_readme_block_is_found():
    assert README_BLOCKS


@pytest.mark.parametrize("k", range(len(README_BLOCKS)))
def test_readme_names_and_keywords_exist(k):
    _check_names_and_keywords(README_BLOCKS[k], f"README.md python block {k}")
