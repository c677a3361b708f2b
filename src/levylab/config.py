"""Declarative experiment configuration, and the file formats of every output.

A single JSON file drives every run: a ``model`` section naming registry
profiles, state maps and mark samplers with explicit parameters, a
``run`` section (window, step, paths, seed, tolerance), an ``experiment``
section choosing the subcommand behavior, and an ``output`` section.
Each section has a schema mapping every key to ``(check, default)``;
``_section`` checks them all before anything runs, and each error names
the full path of one key.  Physical quantities (K, omega, Lipschitz
constant, growth constant, jump rates) have no defaults.

The ``example61`` and ``example62`` experiment kinds may omit the model
section; the presets supply it and accept overrides from the experiment
parameters.

The file formats of every run live here too: ``canonical_json`` writes the
summaries and ``write_csv`` the tables.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from .errors import ConfigError
from .galerkin import GalerkinSpec
from .model import (CONDITION_NAMES, MARK_MODES, STATE_KINDS, CoefficientSet,
                    SdeModel, SemigroupSpec, StateMap, coefficient, jump_coefficient)
from .noise import (JumpMeasureSpec, WienerSpec, exp_tail_marks, finite_rank_marks,
                    point_mass_marks, uniform_shell_marks)
from .profiles import (OUTERS, clipped_ramp_profile, constant_profile,
                       harmonic_profile, reciprocal_profile, trig_reciprocal_profile)

REQUIRED = object()     # the default of a key that must be given
CSV_BLOCK = 1024        # rows that write_csv formats and writes at a time


# -- checks: each takes (value, key path) and returns the typed value -------

def _fail(path: str, what: str, v):
    raise ConfigError(f"{path}: expected {what}, got {v!r}")


def _finite(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _number(bound="", holds=lambda x: True):
    """A finite number for which ``holds`` is true (``bound`` says so); a float."""
    def check(v, path):
        if not (_finite(v) and holds(v)):
            _fail(path, f"a finite number {bound}".rstrip(), v)
        return float(v)
    return check


def _integer(least: int):
    def check(v, path):
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= least):
            _fail(path, f"an integer >= {least}", v)
        return v
    return check


def _list(item, nonempty=False):
    """A list whose entries each pass ``item``; a tuple."""
    def check(v, path):
        if not (isinstance(v, list) and (v or not nonempty)):
            _fail(path, "a non-empty list" if nonempty else "a list", v)
        return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _one_of(names):
    def check(v, path):
        if not (isinstance(v, str) and v in names):
            _fail(path, "one of " + ", ".join(names), v)
        return v
    return check


def _instance(cls, what: str):
    def check(v, path):
        if not isinstance(v, cls):
            _fail(path, what, v)
        return v
    return check


def _window(v, path):
    if not (isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] < v[1]):
        _fail(path, "[t0, t1] of finite numbers with t0 < t1", v)
    return float(v[0]), float(v[1])


def _object(schema: dict, build=dict):
    """An object checked against ``schema`` and passed to ``build`` by key;
    ``build`` raises ConfigError about one of its keys, ValueError otherwise."""
    def check(v, path):
        fields = _section(v, path, schema)
        try:
            return build(**fields)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return check


def _kinded(table: dict):
    """An object whose ``kind`` picks its ``(constructor, schema)`` in ``table``."""
    def check(v, path):
        if not isinstance(v, dict):
            _fail(path, "an object", v)
        build, schema = table[_one_of(table)(v.get("kind"), f"{path}.kind")]
        return _object(schema, build)({k: x for k, x in v.items() if k != "kind"}, path)
    return check


def _section(d, path: str, schema: dict) -> dict:
    """Check the mapping ``d`` against ``schema``; every key typed, defaults
    filled in.  A null value stands for a key whose default is null."""
    if not isinstance(d, dict):
        _fail(path, "an object", d)
    prefix = f"{path}." if path else ""
    unknown = sorted(set(d) - set(schema))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")
    missing = [k for k, (_, default) in schema.items() if default is REQUIRED and k not in d]
    if missing:
        raise ConfigError(f"{prefix}{missing[0]}: required key missing")
    out = {}
    for key, (check, default) in schema.items():
        v = d.get(key, default)
        out[key] = None if v is None and default is None else check(v, prefix + key)
    return out


_REAL = _number()
_NONNEG = _number(">= 0", lambda x: x >= 0)
_POSITIVE = _number("> 0", lambda x: x > 0)
_STRING = _instance(str, "a string")
_BOOL = _instance(bool, "true or false")
_NUMBERS = _list(_REAL)
_SOME_NUMBERS = _list(_REAL, nonempty=True)


def _vector(v, path):
    """A number or a non-empty list of numbers; a tuple."""
    return _SOME_NUMBERS(v, path) if isinstance(v, list) else (_REAL(v, path),)


# -- the model section --------------------------------------------------------

_RECIPROCAL = {"amp": (_REAL, REQUIRED), "offset": (_REAL, REQUIRED),
               "inner_amps": (_NUMBERS, REQUIRED), "inner_freqs": (_NUMBERS, REQUIRED),
               "inner_phases": (_NUMBERS, None), "recurrence_class": (_STRING, "levitan")}
_PROFILES = {
    "constant": (constant_profile, {"value": (_REAL, REQUIRED)}),
    "harmonic": (harmonic_profile, {
        "amps": (_NUMBERS, REQUIRED), "freqs": (_NUMBERS, REQUIRED),
        "phases": (_NUMBERS, None), "recurrence_class": (_STRING, "quasi_periodic")}),
    "reciprocal": (reciprocal_profile, _RECIPROCAL),
    "trig_reciprocal": (trig_reciprocal_profile, {"outer": (_one_of(OUTERS), REQUIRED),
                                                  **_RECIPROCAL}),
    "clipped_ramp": (clipped_ramp_profile, {"bound": (_REAL, REQUIRED),
                                            "scale": (_REAL, 1.0)}),
}

_MARKS = {
    "uniform_shell": (uniform_shell_marks, {"lo": (_NONNEG, REQUIRED), "hi": (_REAL, REQUIRED),
                                            "signed": (_BOOL, False)}),
    "point_mass": (point_mass_marks, {"value": (_vector, REQUIRED)}),
    "exp_tail": (exp_tail_marks, {"scale": (_POSITIVE, REQUIRED), "cut": (_NONNEG, 1.0),
                                  "signed": (_BOOL, False)}),
    "finite_rank": (finite_rank_marks, {"atoms": (_list(_vector, nonempty=True), REQUIRED),
                                        "probs": (_list(_NONNEG, nonempty=True), REQUIRED)}),
}


def _jumps(small_marks, large_marks, moment_p, **kw):
    """The jump measure, and the moment order the section names (None if none)."""
    samplers = {}
    for size, marks in (("small", small_marks), ("large", large_marks)):
        if kw[f"{size}_rate"] > 0:
            if marks is None:
                raise ConfigError(f"{size}_marks: required when {size}_rate > 0")
            samplers[f"{size}_sampler"] = marks
    return JumpMeasureSpec(**kw, **samplers), moment_p


def _model(jumps, coefficients, **kw):
    """The model; a ``jumps.moment_p`` must be the one order, ``coefficients.moment_p``."""
    spec, p = jumps
    if p not in (None, coefficients.moment_p):
        raise ConfigError(f"jumps.moment_p: expected null or coefficients.moment_p "
                          f"({coefficients.moment_p!r}), got {p!r}")
    return SdeModel(jumps=spec, coefficients=coefficients, **kw)


_TERMS = _list(_object({"profile": (_kinded(_PROFILES), REQUIRED),
                        "state_map": (_object({"kind": (_one_of(STATE_KINDS), REQUIRED),
                                               "scale": (_REAL, 1.0),
                                               "bound": (_REAL, 1.0)}, StateMap), REQUIRED)},
                       lambda profile, state_map: (profile, state_map)))
_COEFFICIENT = _object({"terms": (_TERMS, REQUIRED), "pointwise": (_BOOL, False)},
                       lambda terms, pointwise: coefficient(*terms, pointwise=pointwise))
_JUMP_COEFFICIENT = _object(
    {"terms": (_TERMS, REQUIRED), "mark_mode": (_one_of(MARK_MODES), "ignore"),
     "pointwise": (_BOOL, False)},
    lambda terms, **kw: jump_coefficient(*terms, **kw))

_MODEL = {
    "semigroup": (_object({"eigenvalues": (_SOME_NUMBERS, REQUIRED),
                           "K": (_REAL, REQUIRED), "omega": (_REAL, REQUIRED)},
                          SemigroupSpec), REQUIRED),
    "wiener": (_object({"mode_variances": (_list(_NONNEG, nonempty=True), REQUIRED),
                        "drift": (_NUMBERS, None)},
                       lambda mode_variances, drift: WienerSpec(mode_variances, drift or None)),
               REQUIRED),
    "jumps": (_object({"small_rate": (_NONNEG, REQUIRED), "small_marks": (_kinded(_MARKS), None),
                       "large_rate": (_NONNEG, REQUIRED), "large_marks": (_kinded(_MARKS), None),
                       "truncation_delta": (_REAL, 0.1), "moment_p": (_REAL, None)},
                      _jumps), REQUIRED),
    "coefficients": (_object({"drift": (_COEFFICIENT, REQUIRED),
                              "diffusion": (_COEFFICIENT, REQUIRED),
                              "small_jump": (_JUMP_COEFFICIENT, REQUIRED),
                              "large_jump": (_JUMP_COEFFICIENT, REQUIRED),
                              "A0": (_NONNEG, REQUIRED), "lipschitz_L": (_NONNEG, REQUIRED),
                              "moment_p": (_REAL, 2.05)}, CoefficientSet), REQUIRED),
    "galerkin": (_object({"n_modes": (_integer(1), REQUIRED),
                          "collocation_points": (_integer(0), 0)}, GalerkinSpec), None),
}


# -- the run, experiment and output sections ----------------------------------

_SCAN = {"epsilon": (_POSITIVE, 0.05), "scan_window": (_POSITIVE, 200.0),
         "tau_step": (_POSITIVE, 0.05), "sup_horizon": (_POSITIVE, 30.0),
         "n_boot": (_integer(1), 20)}

# every experiment kind with the keys of its section besides ``kind``
EXPERIMENTS = {
    "check": {"require": (_list(_one_of(CONDITION_NAMES)), None)},
    "simulate": {"y0": (_vector, REQUIRED)},
    "bounded": {"n_obs": (_integer(1), 21)},
    "recurrence": {**_SCAN, "epsilon": (_POSITIVE, REQUIRED),
                   "coefficient": (_one_of(("drift", "diffusion", "small_jump", "large_jump")),
                                   "drift"),
                   "tau": (_NONNEG, None), "t_grid_n": (_integer(1), 5)},
    "stability": {"y0a": (_REAL, REQUIRED), "y0b": (_REAL, REQUIRED),
                  "horizon": (_POSITIVE, None), "ultimate_y0": (_REAL, None)},
    # b <= 1 keeps the worked example's moment conditions
    "example61": {"b": (_number("in [0, 1]", lambda x: 0 <= x <= 1), 1.0),
                  "small_rate": (_NONNEG, 1.0), "A0": (_NONNEG, 1.0), "forcing": (_REAL, 0.0),
                  **_SCAN},
    "example62": {"n_modes": (_integer(1), 8), "b": (_NONNEG, 0.5),
                  "small_rate": (_NONNEG, 1.0), "q_base": (_NONNEG, 0.09),
                  "q_decay": (_REAL, 2.0)},
}

# every kind but check and simulate reports a Monte Carlo standard error
_RUN = {kind: {"window": (_window, REQUIRED), "step": (_POSITIVE, REQUIRED),
               "n_paths": (_integer(1 if kind in ("check", "simulate") else 2), REQUIRED),
               "seed": (_integer(0), REQUIRED), "tolerance": (_POSITIVE, 0.02)}
        for kind in EXPERIMENTS}
_OUTPUT = {"directory": (_STRING, "out"),
           "formats": (_list(_one_of(("csv", "json"))), ["csv", "json"])}


@dataclass(frozen=True)
class RunSection:
    window: tuple[float, float]
    step: float
    n_paths: int
    seed: int
    tolerance: float


@dataclass(frozen=True)
class ExperimentConfig:
    model: SdeModel | None
    run: RunSection
    experiment: dict        # every key of its kind, typed, defaults filled in
    out_dir: str
    formats: tuple[str, ...]


def parse_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        _fail("config", "an object", d)
    ex = d.get("experiment")
    kind = _one_of(EXPERIMENTS)(ex.get("kind") if isinstance(ex, dict) else None,
                                "experiment.kind")
    c = _section(d, "", {
        "experiment": (_object({"kind": (_STRING, REQUIRED), **EXPERIMENTS[kind]}), REQUIRED),
        "run": (_object(_RUN[kind], RunSection), REQUIRED),
        "model": (_object(_MODEL, _model),
                  None if kind in ("example61", "example62") else REQUIRED),
        "output": (_object(_OUTPUT), {})})
    ex, model = c["experiment"], c["model"]
    if kind == "simulate" and len(ex["y0"]) not in (1, model.dim):
        lengths = "1 number" if model.dim == 1 else f"1 or {model.dim} numbers"
        _fail("experiment.y0", f"a number or a list of {lengths}", ex["y0"])
    return ExperimentConfig(model=model, run=c["run"], experiment=ex,
                            out_dir=c["output"]["directory"], formats=c["output"]["formats"])


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits;
    a dataclass instance is the object of its fields."""
    return _canon(obj, 0) + "\n"


def _canon(obj: Any, indent: int) -> str:
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{pad_in}"{k}": {_canon(obj[k], indent + 1)}' for k in sorted(obj))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = (f"{pad_in}{_canon(v, indent + 1)}" for v in seq)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, float) or hasattr(obj, "item"):
        v = float(obj)
        return format(v, ".17g") if _finite(v) else f'"{v}"'   # "nan", "inf", "-inf"
    return json.dumps(str(obj))


def write_csv(path, header, columns) -> None:
    """Write the equal-length 1-D arrays ``columns`` under ``header``, each value
    as its ``repr`` (floats read back exactly), ``CSV_BLOCK`` rows at a time, each
    block formatted column by column."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK):
            rows = zip(*(map(repr, c[lo:lo + CSV_BLOCK].tolist()) for c in columns))
            fh.write("".join(",".join(row) + "\n" for row in rows))
