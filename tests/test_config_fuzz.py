"""Property tests of the config schema: any config, valid or not, is parsed
or rejected with an error that ``main`` maps to exit 2, and the CLI exits
with a documented code and no traceback."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from levylab import config  # noqa: E402
from levylab.cli import main  # noqa: E402
from levylab.errors import InputError  # noqa: E402
from test_cli import _scalar_model_dict  # noqa: E402

EXIT_2 = (InputError,)
FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# A value of every JSON type, copied so that a later edit inside it cannot
# change the pool; a valid one keeps a run tiny.
SMALL = st.sampled_from([None, True, False, -1, 0, 1, 2, 0.5, -0.5, math.nan, math.inf,
                         -math.inf, "x", [], [1.0], [0.0, 1.0], {}, {"kind": "x"}]
                        ).map(copy.deepcopy)
# Any JSON value, for the parser alone.
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

# the experiment keys that keep each kind's run tiny
TINY = {"check": {}, "simulate": {"y0": [1.0]}, "bounded": {"n_obs": 2},
        "recurrence": {"epsilon": 0.5, "scan_window": 2.0, "tau_step": 0.5,
                       "sup_horizon": 1.0, "n_boot": 1, "t_grid_n": 1},
        "stability": {"y0a": 1.0, "y0b": 3.0, "horizon": 0.5},
        "example61": {"scan_window": 2.0, "tau_step": 0.5, "sup_horizon": 1.0, "n_boot": 1},
        "example62": {"n_modes": 2}}
# objects of the scalar model built from a registry table, and that table
TABLE_PATHS = [(("model", "jumps", f"{size}_marks"), config._MARKS) for size in ("small", "large")]
TABLE_PATHS += [(("model", "coefficients", coef, "terms", 0, "profile"), config._PROFILES)
                for coef in ("drift", "diffusion", "small_jump", "large_jump")]


def _nodes(node, path=()):
    """The path of every object, list entry and value below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _at(d, path):
    for key in path:
        d = d[key]
    return d


def _object_at(d, path):
    """The object at ``path``, or None where an earlier edit replaced it."""
    for key in path:
        try:
            d = d[key]
        except (KeyError, IndexError, TypeError):
            return None
    return d if isinstance(d, dict) else None


def _section_from(draw, schema, values):
    """An object with a random subset of the keys of ``schema``."""
    return {key: draw(values) for key in schema if draw(st.booleans())}


@st.composite
def configs(draw, values):
    """A tiny valid config of some kind, then up to three edits: a key of its
    experiment or run table set, a registry object redrawn from its table,
    a node set or deleted, or an unknown key added."""
    kind = draw(st.sampled_from(sorted(config.EXPERIMENTS)))
    d = {"run": {"window": [0.0, 0.5], "step": 0.05, "n_paths": 2, "seed": 1,
                 "tolerance": 0.5},
         "experiment": {"kind": kind, **copy.deepcopy(TINY[kind])}}
    if not kind.startswith("example") or draw(st.booleans()):
        d["model"] = _scalar_model_dict()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("schema", "table", "set", "delete", "unknown")))
        if edit == "schema":
            section, schema = draw(st.sampled_from(
                [("experiment", config.EXPERIMENTS[kind]), ("run", config._RUN[kind])]))
            key, value = draw(st.sampled_from(sorted(schema))), draw(values)
            if isinstance(d.get(section), dict):
                d[section][key] = value
        elif edit == "table":
            path, table = draw(st.sampled_from(TABLE_PATHS))
            name = draw(st.sampled_from(sorted(table)))
            section = {"kind": name, **_section_from(draw, table[name][1], values)}
            parent = _object_at(d, path[:-1])
            if parent is not None:
                parent[path[-1]] = section
        elif edit in ("set", "delete"):
            path = draw(st.sampled_from(list(_nodes(d))))
            if edit == "set":
                _at(d, path[:-1])[path[-1]] = draw(values)
            else:
                del _at(d, path[:-1])[path[-1]]
        else:
            target = _at(d, draw(st.sampled_from([p for p in [()] + list(_nodes(d))
                                                  if isinstance(_at(d, p), dict)])))
            target["zz_unknown"] = draw(values)
    return kind, d


@settings(FUZZ, max_examples=200)
@given(configs(ANY))
def test_parse_config_raises_only_exit_2_errors(case):
    _, d = case
    try:
        config.parse_config(d)
    except EXIT_2:
        pass


@settings(FUZZ, max_examples=100)
@given(configs(SMALL))
def test_cli_exits_with_a_documented_code_and_no_traceback(case):
    kind, d = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([kind, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
