"""The demos use only levylab names that exist, with keywords their callees take.

Each demo is parsed, not run: every ``L.<name>`` and ``L.presets.<name>``
must resolve, and every keyword argument of a call to one of them must
be a parameter of the callee.
"""

import ast
import inspect
from pathlib import Path

import pytest

import levylab as L

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_names_and_keywords_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Attribute) and _owner(node) is not None:
            assert hasattr(_owner(node), node.attr), \
                f"{demo.name}:{node.lineno}: {_owner(node).__name__}.{node.attr} does not exist"
    for node in nodes:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _owner(node.func) is not None):
            continue
        params = inspect.signature(getattr(_owner(node.func), node.func.attr)).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in params, \
                f"{demo.name}:{node.lineno}: {node.func.attr} takes no keyword {kw.arg!r}"
