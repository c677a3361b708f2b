"""Command-line entry point.

Subcommands: check | simulate | bounded | recurrence | stability |
example61 | example62.  Every run is driven by a JSON config (the two
example subcommands provide their own defaults and accept overrides in
the experiment section) and writes CSV tables plus one canonical summary
JSON whose floats are formatted at 17 significant digits, so identical
configs produce byte-identical summaries; ``output.formats`` picks the kinds.

Exit codes: 0 success, 2 config error (or an input the library rejects),
3 threshold violation (including a failed condition check), 4 numerical
blowup.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import (ExperimentConfig, RunSection, canonical_json, load_config,
                     parse_config, write_csv)
from .ensemble import integrate
from .errors import ConfigError, InputError, NumericalBlowupError, ThresholdError
from .model import (CONDITION_DEFS, TheoremConstants, check_conditions,
                    stability_margin, theorem_constants)
from .noise import JUMP_LARGE, JUMP_SMALL
from .presets import example61_model, example62_model
from .pullback import bounded_ensemble, bounded_solution, pullback_plan
from .recurrence import almost_periods, distributional_almost_period_test, distributional_report
from .stability import (fit_decay_rate, fit_rate_stderr, gap_experiment,
                        ultimate_bound_check)

MARGIN_FORMULA = TheoremConstants.formulas()["stability_margin"]


def _write(cfg: ExperimentConfig, name: str, output) -> None:
    """Write the file ``name`` to the output directory when ``cfg.formats``
    lists its extension: a summary ``.json`` holds ``canonical_json(output)``,
    and ``output(path)`` writes a ``.csv`` table."""
    fmt = name.rpartition(".")[2]
    if fmt not in cfg.formats:
        return
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    if fmt == "csv":
        output(path)
    else:
        with open(path, "w") as fh:
            fh.write(canonical_json(output))
    print(f"wrote {path}")


def _bounded_moment(model, run: RunSection, n_obs: int):
    """Pullback plan, observation times, and E|Y|^2 with its standard error
    over a bounded-solution ensemble on the run window."""
    plan = pullback_plan(model, run.tolerance)
    obs = np.linspace(run.window[0], run.window[1], n_obs)
    res = bounded_ensemble(model, run.window, run.tolerance, run.n_paths,
                           run.seed, obs, run.step)
    msq, se = res.mean_sq_norm()
    return plan, res.times, msq, se


def _law_grid(run: RunSection, n_times: int):
    """The law test's n_times times in the first min(4, window) units."""
    t0, t1 = run.window
    return np.linspace(t0, t0 + min(4.0, t1 - t0), n_times)


def _ball_summary(plan, msq, se) -> dict:
    return {"t_pull": plan.t_pull, "margin": plan.margin, "radius": plan.radius,
            "max_second_moment": float(msq.max()),
            "within_ball": bool(np.all(msq <= plan.radius**2 + 3 * se))}


def _check_payload(model) -> tuple[dict, bool]:
    report = check_conditions(model)
    tc = theorem_constants(model)
    payload = {"conditions": report.to_dict(), "constants": tc,
               "definitions": {**tc.formulas(), **CONDITION_DEFS}}
    return payload, report.all_passed


def run_check(cfg: ExperimentConfig) -> int:
    payload, ok = _check_payload(cfg.model)
    wanted = cfg.experiment["require"]
    if wanted is not None:
        ok = all(payload["conditions"][name] for name in wanted)
    _write(cfg, "check_summary.json", payload)
    return 0 if ok else 3


def run_simulate(cfg: ExperimentConfig) -> int:
    model = cfg.model
    y0 = np.broadcast_to(cfg.experiment["y0"], (model.dim,))
    path = integrate(model, cfg.run.window, y0, cfg.run.step, cfg.run.seed)
    _write(cfg, "path.csv", path.to_csv)
    summary = {"window": list(cfg.run.window), "step": cfg.run.step,
               "seed": cfg.run.seed, "n_grid": int(path.times.size),
               "n_small_jumps": int(np.sum(path.jump_flags == JUMP_SMALL)),
               "n_large_jumps": int(np.sum(path.jump_flags == JUMP_LARGE)),
               "terminal_state": [float(v) for v in path.values[-1]]}
    _write(cfg, "simulate_summary.json", summary)
    return 0


def run_bounded(cfg: ExperimentConfig) -> int:
    model, run = cfg.model, cfg.run
    path = bounded_solution(model, run.window, run.tolerance, run.seed, run.step)
    _write(cfg, "bounded_path.csv", path.to_csv)
    plan, times, msq, se = _bounded_moment(model, run, cfg.experiment["n_obs"])
    _write(cfg, "bounded_moment.csv",
           lambda p: write_csv(p, ("t", "second_moment", "se"), (times, msq, se)))
    summary = {"t_pull": plan.t_pull, "margin": plan.margin, "tol": plan.tol,
               "radius": plan.radius, "n_paths": run.n_paths,
               "max_second_moment": float(msq.max()),
               "radius_sq_plus_3se": float(plan.radius**2 + 3 * se[int(np.argmax(msq))]),
               "definitions": {"t_pull": "log(5 K^2 start_bound / tol^2) / margin",
                               "margin": MARGIN_FORMULA,
                               "radius": "2 K A0 sqrt(1+2w+2b)/(w - 2 K L sqrt(1+2w+2b))"}}
    _write(cfg, "bounded_summary.json", summary)
    return 0


def run_recurrence(cfg: ExperimentConfig) -> int:
    ex, run, model = cfg.experiment, cfg.run, cfg.model
    which = ex["coefficient"]
    profiles = [p for p, _ in getattr(model.coefficients, which).terms]
    if not profiles:
        raise ConfigError(f"experiment.coefficient: {which} has no profiles to scan")
    report = almost_periods(profiles, ex["epsilon"], ex["scan_window"], ex["tau_step"],
                            ex["sup_horizon"])
    payload = {"scan": report}
    tau = ex["tau"]
    if tau is None and len(report.taus) > 1:
        tau = max(report.taus)
    if tau:
        dist = distributional_almost_period_test(
            model, tau, _law_grid(run, ex["t_grid_n"]), run.n_paths, run.seed,
            tol=run.tolerance, max_step=run.step, n_boot=ex["n_boot"])
        _write(cfg, "distributional.csv", dist.to_csv)
        payload["distributional"] = {"tau": dist.tau, "max_beta": dist.max_beta,
                                     "passed": dist.passed, "positive": dist.positive}
    _write(cfg, "recurrence_report.json", payload)
    return 0


def run_stability(cfg: ExperimentConfig) -> int:
    ex, run, model = cfg.experiment, cfg.run, cfg.model
    horizon = ex["horizon"] or run.window[1] - run.window[0]
    curve = gap_experiment(model, ex["y0a"], ex["y0b"], horizon,
                           run.n_paths, run.seed, max_step=run.step)
    _write(cfg, "stability_gap.csv", curve.to_csv)
    payload = {"gap0": float(curve.gap[0])}
    try:
        rate, r2 = fit_decay_rate(curve)
        payload.update(fitted_rate=rate, r_squared=r2,
                       rate_stderr=fit_rate_stderr(curve))
    except InputError as exc:  # insufficient points is a report, not a failure
        payload["fit_error"] = str(exc)
    ultimate_y0 = ex["y0a"] if ex["ultimate_y0"] is None else ex["ultimate_y0"]
    ub = ultimate_bound_check(model, horizon, run.n_paths, ultimate_y0,
                              run.seed, max_step=run.step)
    payload["ultimate_bound"] = ub
    payload["margin"] = stability_margin(model.K, model.omega,
                                         model.coefficients.lipschitz_L, model.b)
    payload["definitions"] = {"margin": MARGIN_FORMULA,
                              "ultimate_bound": "limsup E|Y|^2 < r + 1"}
    _write(cfg, "stability_summary.json", payload)
    return 0


def run_example61(cfg: ExperimentConfig) -> int:
    """Checker; one bounded ensemble on the union of E|Y|^2's 21 times and the law
    test's t, t + tau (tau from the scan), of which each stage reads its rows; gap."""
    ex, run = cfg.experiment, cfg.run
    model = example61_model(b=ex["b"], small_rate=ex["small_rate"], A0=ex["A0"],
                            forcing=ex["forcing"])
    payload, ok = _check_payload(model)
    if not ok:
        _write(cfg, "example61_summary.json", payload)
        return 3

    scan = almost_periods([p for p, _ in model.coefficients.drift.terms], ex["epsilon"],
                          ex["scan_window"], ex["tau_step"], ex["sup_horizon"])
    tau = max(scan.taus) if len(scan.taus) > 1 else 2 * np.pi
    t_mom, t_law = np.linspace(*run.window, 21), _law_grid(run, 5)
    res = bounded_ensemble(model, (run.window[0], max(run.window[1], t_law[-1] + tau)),
                           run.tolerance, run.n_paths, run.seed,
                           np.unique(np.concatenate([t_mom, t_law, t_law + tau])), run.step)
    msq, se = (a[np.searchsorted(res.times, t_mom)] for a in res.mean_sq_norm())
    plan = pullback_plan(model, run.tolerance)
    payload["bounded"] = _ball_summary(plan, msq, se)
    payload["almost_periods"] = scan
    dist = distributional_report(res, tau, t_law, run.seed, ex["n_boot"])
    payload["distributional"] = {"tau": dist.tau, "max_beta": dist.max_beta,
                                 "passed": dist.passed}

    curve = gap_experiment(model, 1.0, 3.0, min(10.0, run.window[1] - run.window[0]),
                           run.n_paths, run.seed, max_step=run.step)
    bound_ok = bool(np.all(curve.gap <= 5.0 * model.K**2 * curve.gap[0]
                           * np.exp(-plan.margin * curve.times) + 3.0 * curve.se))
    payload["stability"] = {"gap0": float(curve.gap[0]), "bound_satisfied": bound_ok}
    try:
        rate, r2 = fit_decay_rate(curve)
        payload["stability"].update(fitted_rate=rate, r_squared=r2)
    except InputError as exc:
        payload["stability"]["fit_error"] = str(exc)
    _write(cfg, "example61_gap.csv", curve.to_csv)
    _write(cfg, "example61_distributional.csv", dist.to_csv)
    _write(cfg, "example61_summary.json", payload)
    return 0 if (payload["bounded"]["within_ball"] and bound_ok and dist.passed) else 3


def run_example62(cfg: ExperimentConfig) -> int:
    ex, run = cfg.experiment, cfg.run
    model = example62_model(n_modes=ex["n_modes"], b=ex["b"], small_rate=ex["small_rate"],
                            q_base=ex["q_base"], q_decay=ex["q_decay"])
    payload, ok = _check_payload(model)
    payload["spectrum"] = {"omega": model.omega,
                           "eigenvalues": [float(v) for v in model.semigroup.eigenvalues],
                           "lipschitz_gate": model.coefficients.lipschitz_L,
                           "gate_formula": "max(2/5, ||Q^(1/2)||, small_rate^(1/p)/3, "
                                           "large_rate^(1/p)/3)"}
    if not ok:
        _write(cfg, "example62_summary.json", payload)
        return 3

    # zero-noise single-mode decay control
    m1 = example62_model(n_modes=1, b=0.0, small_rate=0.0, q_base=0.0, drift_scale=0.0)
    path = integrate(m1, (0.0, 0.5), [1.0], run.step, run.seed)
    exact = float(np.exp(-np.pi**2 * 0.5))
    payload["mode_decay"] = {"relative_error":
                             abs(float(path.values[-1, 0]) - exact) / exact}

    plan, _, msq, se = _bounded_moment(model, run, 11)
    payload["bounded"] = _ball_summary(plan, msq, se)
    _write(cfg, "example62_summary.json", payload)
    return 0 if payload["bounded"]["within_ball"] else 3


_RUNNERS = {"check": run_check, "simulate": run_simulate, "bounded": run_bounded,
            "recurrence": run_recurrence, "stability": run_stability,
            "example61": run_example61, "example62": run_example62}

_EXAMPLE_DEFAULTS = {
    "example61": {"run": {"window": [0.0, 10.0], "step": 0.01, "n_paths": 300,
                          "seed": 1, "tolerance": 0.05},
                  "experiment": {"kind": "example61"}},
    "example62": {"run": {"window": [0.0, 2.0], "step": 0.005, "n_paths": 200,
                          "seed": 1, "tolerance": 0.05},
                  "experiment": {"kind": "example62"}},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Seeded experiments on jump diffusions with recurrent "
                    "coefficients: hypothesis checks, bounded-solution pullback, "
                    "recurrence metrics, stability bounds.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; ensembles run on one thread")
    parser.add_argument("--out", help="override output.directory")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command in _EXAMPLE_DEFAULTS:
            cfg = parse_config(dict(_EXAMPLE_DEFAULTS[args.command]))
        else:
            raise ConfigError(f"--config is required for '{args.command}'")
        if cfg.experiment["kind"] != args.command:
            raise ConfigError(f"experiment.kind: config says "
                              f"{cfg.experiment['kind']!r}, command is "
                              f"{args.command!r}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed: expected an integer >= 0, got {args.seed}")
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=args.seed))
        if args.out:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        return _RUNNERS[args.command](cfg)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ThresholdError as exc:
        print(f"threshold violation: {exc}", file=sys.stderr)
        return 3
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
