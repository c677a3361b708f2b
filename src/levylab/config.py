"""Declarative experiment configuration.

A single JSON file drives every run: a ``model`` section naming registry
profiles, state maps and mark samplers with explicit parameters, a
``run`` section (window, step, paths, seed, tolerance), an ``experiment``
section choosing the subcommand behavior, and an ``output`` section.
Validation is strict: unknown keys are rejected with their full path and
physical quantities (K, omega, Lipschitz constant, growth constant,
jump rates) have no defaults.

The ``example61`` and ``example62`` experiment kinds may omit the model
section; the presets supply it and accept overrides from the experiment
parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .galerkin import GalerkinSpec
from .model import (CoefficientSet, SdeModel, SemigroupSpec, StateMap,
                    coefficient, jump_coefficient)
from .noise import JumpMeasureSpec, MarkSampler, WienerSpec
from .profiles import (TimeProfile, clipped_ramp_profile, constant_profile,
                       harmonic_profile, reciprocal_profile,
                       trig_reciprocal_profile)

EXPERIMENT_KINDS = ("check", "simulate", "bounded", "recurrence", "stability",
                    "example61", "example62")


def _require(section: dict, path: str, keys: set[str], optional: set[str] = frozenset()):
    unknown = set(section) - keys - set(optional)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    missing = keys - set(section)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}: required key missing")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(section: dict, path: str, key: str):
    v = section[key]
    if not _is_number(v):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(v).__name__}")
    return float(v)


def _positive(section: dict, path: str, key: str, default=None) -> float:
    v = _number(section, path, key) if key in section else default
    if not (math.isfinite(v) and v > 0):
        raise ConfigError(f"{path}.{key}: expected a finite number > 0, got {v!r}")
    return v


def _count(section: dict, path: str, key: str, least: int) -> int:
    v = section[key]
    if not (isinstance(v, int) and not isinstance(v, bool) and v >= least):
        raise ConfigError(f"{path}.{key}: expected an integer >= {least}, got {v!r}")
    return v


def parse_profile(d: dict, path: str) -> TimeProfile:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path}: profile needs a 'kind'")
    kind = d["kind"]
    if kind == "constant":
        _require(d, path, {"kind", "value"})
        return constant_profile(_number(d, path, "value"))
    if kind == "harmonic":
        _require(d, path, {"kind", "amps", "freqs"}, {"phases", "recurrence_class"})
        return harmonic_profile(d["amps"], d["freqs"], d.get("phases"),
                                d.get("recurrence_class", "quasi_periodic"))
    if kind == "reciprocal":
        _require(d, path, {"kind", "amp", "offset", "inner_amps", "inner_freqs"},
                 {"inner_phases", "recurrence_class"})
        return reciprocal_profile(d["amp"], d["offset"], d["inner_amps"],
                                  d["inner_freqs"], d.get("inner_phases"),
                                  d.get("recurrence_class", "levitan"))
    if kind == "trig_reciprocal":
        _require(d, path, {"kind", "outer", "amp", "offset", "inner_amps",
                           "inner_freqs"}, {"inner_phases", "recurrence_class"})
        return trig_reciprocal_profile(d["outer"], d["amp"], d["offset"],
                                       d["inner_amps"], d["inner_freqs"],
                                       d.get("inner_phases"),
                                       d.get("recurrence_class", "levitan"))
    if kind == "clipped_ramp":
        _require(d, path, {"kind", "bound"}, {"scale"})
        return clipped_ramp_profile(d["bound"], d.get("scale", 1.0))
    raise ConfigError(f"{path}.kind: unknown profile kind {kind!r}")


def parse_state_map(d: dict, path: str) -> StateMap:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path}: state map needs a 'kind'")
    _require(d, path, {"kind"}, {"scale", "bound"})
    try:
        return StateMap(kind=d["kind"], scale=float(d.get("scale", 1.0)),
                        bound=float(d.get("bound", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_marks(d: dict, path: str) -> MarkSampler:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path}: mark sampler needs a 'kind'")
    kind = d["kind"]
    try:
        if kind == "uniform_shell":
            _require(d, path, {"kind", "lo", "hi"}, {"signed"})
            return MarkSampler(kind=kind, lo=_number(d, path, "lo"),
                               hi=_number(d, path, "hi"), signed=bool(d.get("signed", False)))
        if kind == "point_mass":
            _require(d, path, {"kind", "value"})
            v = d["value"]
            atom = tuple(v) if isinstance(v, list) else (float(v),)
            return MarkSampler(kind=kind, atoms=(atom,), probs=(1.0,))
        if kind == "exp_tail":
            _require(d, path, {"kind", "scale"}, {"cut", "signed"})
            return MarkSampler(kind=kind, scale=_number(d, path, "scale"),
                               cut=float(d.get("cut", 1.0)), signed=bool(d.get("signed", False)))
        if kind == "finite_rank":
            _require(d, path, {"kind", "atoms", "probs"})
            atoms = tuple(tuple(float(x) for x in a) for a in d["atoms"])
            return MarkSampler(kind=kind, atoms=atoms,
                               probs=tuple(float(p) for p in d["probs"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown mark sampler kind {kind!r}")


def _parse_coefficient(d: dict, path: str, jump: bool):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _require(d, path, {"terms"}, {"mark_mode", "pointwise"} if jump else {"pointwise"})
    terms = []
    for i, td in enumerate(d["terms"]):
        _require(td, f"{path}.terms[{i}]", {"profile", "state_map"})
        terms.append((parse_profile(td["profile"], f"{path}.terms[{i}].profile"),
                      parse_state_map(td["state_map"], f"{path}.terms[{i}].state_map")))
    if jump:
        return jump_coefficient(*terms, mark_mode=d.get("mark_mode", "ignore"),
                                pointwise=bool(d.get("pointwise", False)))
    return coefficient(*terms, pointwise=bool(d.get("pointwise", False)))


def parse_model(d: dict, path: str = "model") -> SdeModel:
    _require(d, path, {"semigroup", "wiener", "jumps", "coefficients"}, {"galerkin"})
    sg = d["semigroup"]
    _require(sg, f"{path}.semigroup", {"eigenvalues", "K", "omega"})
    semigroup = SemigroupSpec(eigenvalues=tuple(float(x) for x in sg["eigenvalues"]),
                              K=_number(sg, f"{path}.semigroup", "K"),
                              omega=_number(sg, f"{path}.semigroup", "omega"))
    wn = d["wiener"]
    _require(wn, f"{path}.wiener", {"mode_variances"}, {"drift"})
    wiener = WienerSpec(mode_variances=tuple(float(x) for x in wn["mode_variances"]),
                        drift_a=tuple(float(x) for x in wn["drift"]) if wn.get("drift") else None)
    jm = d["jumps"]
    _require(jm, f"{path}.jumps", {"small_rate", "large_rate"},
             {"small_marks", "large_marks", "truncation_delta", "moment_p"})
    small_rate = _number(jm, f"{path}.jumps", "small_rate")
    large_rate = _number(jm, f"{path}.jumps", "large_rate")
    try:
        jumps = JumpMeasureSpec(
            small_rate=small_rate,
            small_sampler=parse_marks(jm["small_marks"], f"{path}.jumps.small_marks")
            if small_rate > 0 else None,
            truncation_delta=float(jm.get("truncation_delta", 0.1)),
            large_rate=large_rate,
            large_sampler=parse_marks(jm["large_marks"], f"{path}.jumps.large_marks")
            if large_rate > 0 else None,
            moment_p=float(jm.get("moment_p", 2.05)))
    except ValueError as exc:
        raise ConfigError(f"{path}.jumps: {exc}") from exc
    cf = d["coefficients"]
    _require(cf, f"{path}.coefficients",
             {"drift", "diffusion", "small_jump", "large_jump", "A0", "lipschitz_L"},
             {"moment_p"})
    try:
        coeffs = CoefficientSet(
            drift=_parse_coefficient(cf["drift"], f"{path}.coefficients.drift", False),
            diffusion=_parse_coefficient(cf["diffusion"], f"{path}.coefficients.diffusion", False),
            small_jump=_parse_coefficient(cf["small_jump"], f"{path}.coefficients.small_jump", True),
            large_jump=_parse_coefficient(cf["large_jump"], f"{path}.coefficients.large_jump", True),
            A0=_number(cf, f"{path}.coefficients", "A0"),
            lipschitz_L=_number(cf, f"{path}.coefficients", "lipschitz_L"),
            moment_p=float(cf.get("moment_p", 2.05)))
        galerkin = None
        if d.get("galerkin"):
            g = d["galerkin"]
            _require(g, f"{path}.galerkin", {"n_modes"}, {"collocation_points"})
            galerkin = GalerkinSpec(n_modes=int(g["n_modes"]),
                                    collocation_points=int(g.get("collocation_points", 0)))
        return SdeModel(semigroup=semigroup, coefficients=coeffs, wiener=wiener,
                        jumps=jumps, galerkin=galerkin)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    experiment: dict
    out_dir: str
    formats: tuple[str, ...]
    raw: dict = field(repr=False, default_factory=dict)


def parse_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("top level: expected an object")
    _require(d, "config", {"run", "experiment"}, {"model", "output"})
    ex = d["experiment"]
    if not isinstance(ex, dict) or "kind" not in ex:
        raise ConfigError("experiment.kind: required key missing")
    if ex["kind"] not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {ex['kind']!r}")
    rn = d["run"]
    _require(rn, "run", {"window", "step", "n_paths", "seed"}, {"tolerance"})
    w = rn["window"]
    if not (isinstance(w, list) and len(w) == 2
            and all(_is_number(v) and math.isfinite(v) for v in w) and w[0] < w[1]):
        raise ConfigError("run.window: expected [t0, t1] of finite numbers with t0 < t1")
    # every kind but check and simulate reports a Monte Carlo standard error
    min_paths = 1 if ex["kind"] in ("check", "simulate") else 2
    run = RunSection(window=(float(w[0]), float(w[1])),
                     step=_positive(rn, "run", "step"),
                     n_paths=_count(rn, "run", "n_paths", min_paths),
                     seed=_count(rn, "run", "seed", 0),
                     tolerance=_positive(rn, "run", "tolerance", 0.02))
    model = None
    if ex["kind"] not in ("example61", "example62"):
        if "model" not in d:
            raise ConfigError("model: required for this experiment kind")
        model = parse_model(d["model"])
    elif "model" in d and d["model"] is not None:
        model = parse_model(d["model"])
    out = d.get("output", {})
    _require(out, "output", set(), {"directory", "formats"})
    formats = tuple(out.get("formats", ["csv", "json"]))
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {f!r}")
    return ExperimentConfig(model=model, run=run, experiment=dict(ex),
                            out_dir=out.get("directory", "out"),
                            formats=formats, raw=d)


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
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    return _canon(obj, 0) + "\n"


def _canon(obj: Any, indent: int) -> str:
    pad, pad_in = "  " * indent, "  " * (indent + 1)
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
        if v != v:
            return '"nan"'
        if v in (float("inf"), float("-inf")):
            return f'"{v}"'
        return format(v, ".17g")
    return json.dumps(str(obj))
