"""In-memory span tracer for one levylab op.

The tracer replaces levylab's public functions by wrappers at the names
their callers bind (``levylab.cli.check_conditions``,
``levylab.pullback.simulate_ensemble``, ...), so no program file
changes.  Each wrapped call records one span: a name ``layer.function``,
its parent span and its start and end.  A layer's self time is the time
its spans cover minus the time their child spans cover, so the self
times of all spans of an op sum to the op's root span.  Counters are
taken at the same boundaries from the arguments and return values.

Bindings that a later version of the program no longer has are skipped
and listed in ``Tracer.missing``; a counter that cannot be taken is
listed in ``Tracer.hook_errors``.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

ROOT = "cli.main"

# (module, attribute, span name).  An attribute ``Class.method`` patches
# the class, which is where instance calls look it up.
SPANS = (
    ("levylab.cli", "load_config", "config.load_config"),
    ("levylab.cli", "check_conditions", "model.check_conditions"),
    ("levylab.cli", "theorem_constants", "model.theorem_constants"),
    ("levylab.profiles", "TimeProfile.__call__", "profiles.TimeProfile"),
    ("levylab.galerkin", "GalerkinSpec.to_phys", "galerkin.to_phys"),
    ("levylab.galerkin", "GalerkinSpec.to_modes", "galerkin.to_modes"),
    ("levylab.cli", "sample_noise", "noise.sample_noise"),
    ("levylab.pullback", "sample_noise", "noise.sample_noise"),
    ("levylab.noise", "sample_jumps", "noise.sample_jumps"),
    ("levylab.ensemble", "sample_jumps", "noise.sample_jumps"),
    ("levylab.noise", "sample_wiener_increments", "noise.sample_wiener_increments"),
    ("levylab.ensemble", "sample_wiener_increments", "noise.sample_wiener_increments"),
    ("levylab.ensemble", "simulate_ensemble", "ensemble.simulate_ensemble"),
    ("levylab.pullback", "simulate_ensemble", "ensemble.simulate_ensemble"),
    ("levylab.stability", "simulate_ensemble", "ensemble.simulate_ensemble"),
    ("levylab.stability", "coupled_gap", "ensemble.coupled_gap"),
    ("levylab.cli", "integrate", "integrator.integrate"),
    ("levylab.pullback", "integrate", "integrator.integrate"),
    ("levylab.cli", "pullback_plan", "pullback.pullback_plan"),
    ("levylab.pullback", "pullback_plan", "pullback.pullback_plan"),
    ("levylab.recurrence", "pullback_plan", "pullback.pullback_plan"),
    ("levylab.cli", "bounded_ensemble", "pullback.bounded_ensemble"),
    ("levylab.recurrence", "bounded_ensemble", "pullback.bounded_ensemble"),
    ("levylab.cli", "bounded_solution", "pullback.bounded_solution"),
    ("levylab.cli", "almost_periods", "recurrence.almost_periods"),
    ("levylab.cli", "distributional_almost_period_test", "recurrence.distributional_test"),
    ("levylab.recurrence", "bl_distance", "recurrence.bl_distance"),
    ("levylab.cli", "gap_experiment", "stability.gap_experiment"),
    ("levylab.cli", "_write", "cli.write"),
    ("levylab.integrator", "SamplePath.to_csv", "cli.to_csv"),
    ("levylab.ensemble", "GapCurve.to_csv", "cli.to_csv"),
    ("levylab.recurrence", "DistributionalReport.to_csv", "cli.to_csv"),
)

# Spans that do the work of a pipeline stage, by the layer they belong to.
# A layer's stage time is the inclusive time of its outermost such spans;
# it is how the split of an op between checker, ensembles, LPs and the
# single-path integrator is stated.  Spans that only orchestrate others
# (bounded_ensemble, distributional_test, gap_experiment) are not stages.
STAGES = ("config.load_config", "model.check_conditions", "model.theorem_constants",
          "noise.sample_noise", "ensemble.simulate_ensemble", "integrator.integrate",
          "recurrence.almost_periods", "recurrence.bl_distance", "cli.write",
          "cli.to_csv")

# Entry points into coefficient evaluation; counted at the outermost call
# only (JumpCoefficient.value calls Coefficient.value).
COEF_COUNTED = (
    ("levylab.model", "Coefficient.value"),
    ("levylab.model", "JumpCoefficient.value"),
)

# Per-layer metrics of a traced run, name and unit (values: ``op_metrics``)
LAYER_METRICS = (
    ("model.check_s", "s"), ("model.coef_calls", "count"),
    ("profiles.calls", "count"), ("profiles.self_s", "s"),
    ("noise.wiener_s", "s"), ("noise.jumps_s", "s"), ("noise.paths", "count"),
    ("noise.jumps_small", "count"), ("noise.jumps_large", "count"),
    ("ensemble.self_s", "s"), ("ensemble.path_steps", "count"),
    ("ensemble.ns_per_path_step", "ns"), ("ensemble.noise_block_mb", "MB"),
    ("integrator.self_s", "s"), ("integrator.steps", "count"),
    ("integrator.us_per_step", "us"),
    ("pullback.t_pull", "model_time"), ("pullback.burnin_share", "share"),
    ("recurrence.bl_calls", "count"), ("recurrence.bl_ms", "ms"),
    ("recurrence.bl_self_s", "s"), ("recurrence.scan_s", "s"),
    ("recurrence.law_test_pass_share", "share"),
    ("stability.gap_s", "s"),
    ("galerkin.transform_calls", "count"), ("galerkin.self_s", "s"),
    ("config.parse_s", "s"), ("cli.write_s", "s"),
    ("env.calib_s", "s"), ("trace.overhead_share", "share"),
)
COUNTERS = ("model.coef_calls", "profiles.calls", "noise.paths", "noise.jumps_small",
            "noise.jumps_large", "ensemble.path_steps", "ensemble.noise_block_mb",
            "integrator.steps", "pullback.t_pull", "pullback.burnin_share",
            "recurrence.bl_calls", "recurrence.law_test_pass_share",
            "galerkin.transform_calls")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans of one op, kept in parallel lists; counters in a dict."""

    def __init__(self):
        self._patches = []
        self.missing = []
        self.hook_errors = set()
        self.reset()

    def reset(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._coef_depth = 0
        self._last_plan = None

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                try:
                    hook(fn, args, kwargs, out)
                except Exception as exc:    # a counter must not fail the op
                    tracer.hook_errors.add(f"{name}: {exc!r}")
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._coef_depth == 0:
                tracer.counts["model.coef_calls"] += 1
            tracer._coef_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._coef_depth -= 1

        counted.__wrapped__ = fn
        return counted

    # -- counters taken at span boundaries ---------------------------------

    def _hooks(self, module: str, name: str):
        c = self.counts

        def on_jumps(fn, args, kwargs, out):
            c["noise.paths"] += 1
            c["noise.jumps_small"] += len(out[0])
            c["noise.jumps_large"] += len(out[2])

        def on_ensemble_wiener(fn, args, kwargs, out):
            # one call per ensemble path, over the whole shared grid
            c["ensemble.path_steps"] += out.shape[0]
            c["_ensemble.steps_last"] = out.shape[0]

        def on_simulate(fn, args, kwargs, out):
            from levylab.ensemble import CHUNK
            _, n_paths, dim = out.states.shape
            block = c["_ensemble.steps_last"] * min(n_paths, CHUNK) * dim * 8 / 2**20
            c["ensemble.noise_block_mb"] = max(c["ensemble.noise_block_mb"], block)

        def on_integrate(fn, args, kwargs, out):
            c["integrator.steps"] += out.times.size - 1

        def on_plan(fn, args, kwargs, out):
            self._last_plan = out

        def on_bounded(fn, args, kwargs, out):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            t_pull = a["t_pull"] if a["t_pull"] is not None else self._last_plan.t_pull
            span = float(a["window"][1]) - float(a["window"][0])
            c["pullback.t_pull"] = max(c["pullback.t_pull"], t_pull)
            c["_pullback.burnin_time"] += a["n_paths"] * t_pull
            c["_pullback.total_time"] += a["n_paths"] * (t_pull + span)

        def on_law_test(fn, args, kwargs, out):
            c["_recurrence.law_times"] += len(out.beta)
            c["_recurrence.law_passed"] += int((out.beta <= 3.0 * out.err).sum())

        if name == "noise.sample_jumps":
            return on_jumps
        if name == "noise.sample_wiener_increments" and module == "levylab.ensemble":
            return on_ensemble_wiener
        return {"ensemble.simulate_ensemble": on_simulate,
                "integrator.integrate": on_integrate,
                "pullback.pullback_plan": on_plan,
                "pullback.bounded_ensemble": on_bounded,
                "recurrence.distributional_test": on_law_test}.get(name)

    # -- installing the wrappers --------------------------------------------

    def install(self):
        """Wrap every binding in ``SPANS`` and ``COEF_COUNTED``."""
        if self._patches:
            return
        self.missing = []
        targets = [(module, attr, lambda fn, module=module, name=name:
                    self._span_wrapper(fn, name, self._hooks(module, name)))
                   for module, attr, name in SPANS]
        targets += [(module, attr, self._count_wrapper) for module, attr in COEF_COUNTED]
        for module, attr, wrap in targets:
            try:
                owner, key = _resolve(module, attr)
                fn = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patches.append((owner, key, fn))
            setattr(owner, key, wrap(fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []

    # -- derived quantities ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def by_name(self):
        """``{span name: (calls, inclusive seconds, self seconds)}``.

        Inclusive time counts only outermost spans of a name, so recursion
        through two bindings of one function is not counted twice.
        """
        own = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name in enumerate(self.names):
            row = out[name]
            row[0] += 1
            row[2] += own[sid]
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row[1] += self.ends[sid] - self.starts[sid]
        return {k: tuple(v) for k, v in out.items()}

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for name, (_, _, own) in self.by_name().items():
            out[name.split(".", 1)[0]] += own
        return dict(out)

    def stage_times(self) -> dict:
        """Inclusive seconds of the outermost ``STAGES`` spans, by layer."""
        out = defaultdict(float)
        for sid, name in enumerate(self.names):
            if name not in STAGES:
                continue
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] not in STAGES:
                parent = self.parents[parent]
            if parent < 0:
                out[name.split(".", 1)[0]] += self.ends[sid] - self.starts[sid]
        return dict(out)

    def op_metrics(self) -> dict:
        """Per-layer values of one traced op (timings and counters)."""
        spans = self.by_name()
        layers = self.layer_self()
        c = self.counts

        def incl(*names):
            return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        path_steps = c["ensemble.path_steps"]
        steps = c["integrator.steps"]
        bl_calls = calls("recurrence.bl_distance")
        total_time = c["_pullback.total_time"]
        law_times = c["_recurrence.law_times"]
        return {
            "model.check_s": incl("model.check_conditions"),
            "model.coef_calls": c["model.coef_calls"],
            "profiles.calls": calls("profiles.TimeProfile"),
            "profiles.self_s": layers.get("profiles", 0.0),
            "noise.wiener_s": incl("noise.sample_wiener_increments"),
            "noise.jumps_s": incl("noise.sample_jumps"),
            "noise.paths": c["noise.paths"],
            "noise.jumps_small": c["noise.jumps_small"],
            "noise.jumps_large": c["noise.jumps_large"],
            "ensemble.self_s": layers.get("ensemble", 0.0),
            "ensemble.path_steps": path_steps,
            "ensemble.ns_per_path_step":
                layers.get("ensemble", 0.0) / path_steps * 1e9 if path_steps else 0.0,
            "ensemble.noise_block_mb": c["ensemble.noise_block_mb"],
            "integrator.self_s": layers.get("integrator", 0.0),
            "integrator.steps": steps,
            "integrator.us_per_step":
                layers.get("integrator", 0.0) / steps * 1e6 if steps else 0.0,
            "pullback.t_pull": c["pullback.t_pull"],
            "pullback.burnin_share":
                c["_pullback.burnin_time"] / total_time if total_time else 0.0,
            "recurrence.bl_calls": bl_calls,
            "recurrence.bl_ms":
                incl("recurrence.bl_distance") / bl_calls * 1e3 if bl_calls else 0.0,
            "recurrence.bl_self_s": spans.get("recurrence.bl_distance", (0, 0.0, 0.0))[2],
            "recurrence.scan_s": incl("recurrence.almost_periods"),
            "recurrence.law_test_pass_share":
                c["_recurrence.law_passed"] / law_times if law_times else 0.0,
            "stability.gap_s": incl("stability.gap_experiment"),
            "galerkin.transform_calls": calls("galerkin.to_phys") + calls("galerkin.to_modes"),
            "galerkin.self_s": layers.get("galerkin", 0.0),
            "config.parse_s": incl("config.load_config"),
            "cli.write_s": incl("cli.write", "cli.to_csv"),
        }

    def dump(self) -> dict:
        """The recorded spans, with names interned, for writing to disk."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table, "name": [index[n] for n in self.names],
                "parent": self.parents, "start": self.starts, "end": self.ends}
