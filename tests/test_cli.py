"""CLI: config validation, exit codes, artifacts, determinism."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from levylab import config, presets
from levylab.cli import main
from levylab.config import EXPERIMENTS, parse_config
from levylab.errors import ConfigError
from levylab.model import CONDITION_NAMES, check_conditions


def _scalar_model_dict(b=1.0, lipschitz=0.25):
    """The scalar worked example written out as an explicit config."""
    return {
        "semigroup": {"eigenvalues": [4.0], "K": 1.0, "omega": 4.0},
        "wiener": {"mode_variances": [1.0]},
        "jumps": {
            "small_rate": 1.0,
            "small_marks": {"kind": "uniform_shell", "lo": 0.1, "hi": 1.0,
                            "signed": True},
            "truncation_delta": 0.1,
            "large_rate": b,
            "large_marks": {"kind": "uniform_shell", "lo": 1.0, "hi": 2.0,
                            "signed": True},
            "moment_p": 2.05,
        },
        "coefficients": {
            "drift": {"terms": [{
                "profile": {"kind": "harmonic", "amps": [0.125, 0.125],
                            "freqs": [1.0, math.sqrt(3.0)],
                            "phases": [0.0, math.pi / 2]},
                "state_map": {"kind": "linear", "scale": 1.0}}]},
            "diffusion": {"terms": [{
                "profile": {"kind": "trig_reciprocal", "outer": "cos",
                            "amp": 0.2, "offset": 2.0,
                            "inner_amps": [1.0, 1.0],
                            "inner_freqs": [1.0, math.sqrt(2.0)]},
                "state_map": {"kind": "linear", "scale": 1.0}}]},
            "small_jump": {"terms": [{
                "profile": {"kind": "constant", "value": 0.2},
                "state_map": {"kind": "linear", "scale": 1.0}}],
                "mark_mode": "ignore"},
            "large_jump": {"terms": [{
                "profile": {"kind": "trig_reciprocal", "outer": "sin",
                            "amp": 0.25, "offset": 3.0,
                            "inner_amps": [1.0, 1.0],
                            "inner_freqs": [1.0, math.pi],
                            "inner_phases": [math.pi / 2, math.pi / 2]},
                "state_map": {"kind": "linear", "scale": 1.0}}],
                "mark_mode": "ignore"},
            "A0": 1.0,
            "lipschitz_L": lipschitz,
            "moment_p": 2.05,
        },
    }


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(kind, tmp_path, **experiment):
    return {
        "model": _scalar_model_dict(),
        "run": {"window": [0.0, 3.0], "step": 0.02, "n_paths": 40, "seed": 2,
                "tolerance": 0.1},
        "experiment": {"kind": kind, **experiment},
        "output": {"directory": str(tmp_path / "out")},
    }


def test_check_passes_for_valid_model(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("check", tmp_path))
    assert main(["check", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out" / "check_summary.json").read_text())
    assert out["conditions"]["cond_L11"] is True
    assert "definitions" in out


def test_check_fails_beyond_threshold(tmp_path):
    d = _base_cfg("check", tmp_path)
    d["model"] = _scalar_model_dict(b=8.0)
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["check", "--config", cfg]) == 3
    out = json.loads((tmp_path / "out" / "check_summary.json").read_text())
    assert out["conditions"]["cond_L11"] is False


def test_check_require_decides_the_exit_code(tmp_path):
    d = _base_cfg("check", tmp_path)
    d["model"] = _scalar_model_dict(lipschitz=0.3)   # fails thetap_lt_1 alone
    path = tmp_path / "out" / "check_summary.json"
    assert main(["check", "--config", _write_cfg(tmp_path, "c.json", d)]) == 3
    conditions = json.loads(path.read_text())["conditions"]
    assert [n for n in CONDITION_NAMES if not conditions[n]] == ["thetap_lt_1"]
    for require, code in (([n for n in CONDITION_NAMES if n != "thetap_lt_1"], 0),
                          (["e1", "thetap_lt_1"], 3)):
        d["experiment"]["require"] = require
        assert main(["check", "--config", _write_cfg(tmp_path, "c.json", d)]) == code
        assert json.loads(path.read_text())["conditions"] == conditions


def test_jumps_moment_p_is_optional_and_must_equal_the_one_order(tmp_path, capsys):
    d = _base_cfg("check", tmp_path)
    model = parse_config(d).model
    del d["model"]["jumps"]["moment_p"]
    assert parse_config(d).model == model
    d["model"]["jumps"]["moment_p"] = None
    assert parse_config(d).model == model
    # the checker reads coefficients.moment_p only, so this once ran at p = 2.05
    d["model"]["jumps"]["moment_p"] = 3.0
    assert main(["check", "--config", _write_cfg(tmp_path, "c.json", d)]) == 2
    assert capsys.readouterr().err.startswith("config error: model.jumps.moment_p:")


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    d = _base_cfg("check", tmp_path)
    d["model"]["jumps"]["smol_rate"] = 1.0
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["check", "--config", cfg]) == 2
    assert "smol_rate" in capsys.readouterr().err


def test_missing_required_key_rejected(tmp_path, capsys):
    d = _base_cfg("check", tmp_path)
    del d["model"]["coefficients"]["A0"]
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["check", "--config", cfg]) == 2
    assert "A0" in capsys.readouterr().err


def test_simulate_writes_path_csv(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("simulate", tmp_path, y0=1.0))
    assert main(["simulate", "--config", cfg]) == 0
    csv = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert csv[0] == "time,jump_flag,y0"
    assert len(csv) > 100


def test_bounded_reports_plan(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("bounded", tmp_path))
    assert main(["bounded", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out" / "bounded_summary.json").read_text())
    assert out["margin"] == pytest.approx(2.515625)
    assert out["t_pull"] > 0
    assert (tmp_path / "out" / "bounded_path.csv").exists()


def test_recurrence_scan_report(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json",
                     _base_cfg("recurrence", tmp_path, epsilon=0.05,
                               scan_window=60.0, tau_step=0.1,
                               sup_horizon=15.0, tau=0.0))
    assert main(["recurrence", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out" / "recurrence_report.json").read_text())
    assert out["scan"]["epsilon"] == pytest.approx(0.05)
    assert 0.0 in out["scan"]["taus"]


def test_recurrence_scans_the_chosen_coefficient(tmp_path, capsys):
    scan = {"epsilon": 0.05, "scan_window": 6.0, "tau_step": 0.5, "sup_horizon": 5.0,
            "tau": 0.0}
    d = _base_cfg("recurrence", tmp_path, coefficient="small_jump", **scan)
    assert main(["recurrence", "--config", _write_cfg(tmp_path, "c.json", d)]) == 0
    out = json.loads((tmp_path / "out" / "recurrence_report.json").read_text())
    # the small jump's one profile is the constant 0.2: every shift is an almost period
    assert out["scan"]["taus"] == pytest.approx([0.5 * k for k in range(13)])
    assert out["scan"]["distances"] == [0.0] * 13
    d["model"]["coefficients"]["diffusion"] = {"terms": []}
    d["experiment"]["coefficient"] = "diffusion"
    assert main(["recurrence", "--config", _write_cfg(tmp_path, "c.json", d)]) == 2
    assert "diffusion has no profiles to scan" in capsys.readouterr().err


def test_stability_ultimate_y0_sets_the_start_of_the_ultimate_bound(tmp_path):
    def ultimate_bound(**extra):
        d = _base_cfg("stability", tmp_path, y0a=1.0, y0b=3.0, horizon=3.0, **extra)
        assert main(["stability", "--config", _write_cfg(tmp_path, "c.json", d)]) == 0
        out = json.loads((tmp_path / "out" / "stability_summary.json").read_text())
        return out["ultimate_bound"]

    default = ultimate_bound()
    assert ultimate_bound(ultimate_y0=1.0) == default
    # every coefficient is linear in the state, so the tail moment scales as y0^2
    tripled = ultimate_bound(ultimate_y0=3.0)
    assert tripled["tail_second_moment"] == pytest.approx(
        9.0 * default["tail_second_moment"], rel=1e-9)


def test_stability_summary(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json",
                     _base_cfg("stability", tmp_path, y0a=1.0, y0b=3.0,
                               horizon=3.0))
    assert main(["stability", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out" / "stability_summary.json").read_text())
    assert out["gap0"] == pytest.approx(4.0)
    assert out["ultimate_bound"]["passed"] is True


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_exit_code(tmp_path):
    d = _base_cfg("simulate", tmp_path, y0=0.0)
    d["model"]["semigroup"] = {"eigenvalues": [0.01], "K": 1.0, "omega": 0.01}
    d["model"]["coefficients"]["drift"] = {"terms": [{
        "profile": {"kind": "constant", "value": 1e308},
        "state_map": {"kind": "ones", "scale": 1.0}}]}
    d["model"]["coefficients"]["A0"] = 1e308
    d["run"]["window"] = [0.0, 5.0]
    d["run"]["step"] = 0.5
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["simulate", "--config", cfg]) == 4


def test_seed_and_out_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("simulate", tmp_path, y0=1.0))
    assert main(["simulate", "--config", cfg, "--seed", "9",
                 "--out", str(tmp_path / "alt")]) == 0
    out = json.loads((tmp_path / "alt" / "simulate_summary.json").read_text())
    assert out["seed"] == 9


@pytest.mark.parametrize("dim, y0, lengths", [(1, [1.0, 2.0], "1 number"),
                                              (2, [1.0, 2.0, 3.0], "1 or 2 numbers")],
                         ids=["one-component", "two-component"])
def test_simulate_y0_of_a_wrong_length_names_each_allowed_length_once(
        tmp_path, capsys, dim, y0, lengths):
    d = _base_cfg("simulate", tmp_path, y0=y0)
    d["model"]["semigroup"]["eigenvalues"] = [4.0, 5.0][:dim]
    d["model"]["wiener"]["mode_variances"] = [1.0] * dim
    assert main(["simulate", "--config", _write_cfg(tmp_path, "c.json", d)]) == 2
    assert capsys.readouterr().err == (f"config error: experiment.y0: expected a number or "
                                       f"a list of {lengths}, got {tuple(y0)!r}\n")


def test_write_csv_blocks_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(config, "CSV_BLOCK", 3)
    rng = np.random.default_rng(0)
    flags = rng.integers(0, 3, 8).astype(np.int8)
    x = np.concatenate([[1 / 3, -0.1, 5e-324, 1e300], rng.normal(size=4)])
    y = rng.exponential(size=8)
    config.write_csv(tmp_path / "t.csv", ("t", "flag", "y"), (x, flags, y))
    header, *rows = (tmp_path / "t.csv").read_text().splitlines()
    assert header == "t,flag,y"
    assert len(rows) == 8
    for row, a, f, b in zip(rows, x, flags, y):
        got_a, got_f, got_b = row.split(",")
        assert float(got_a) == a and int(got_f) == f and float(got_b) == b


# every command but the two examples, each on a small run
_SMALL = {"check": {}, "simulate": {"y0": 1.0}, "bounded": {"n_obs": 3},
          "recurrence": {"epsilon": 0.05, "scan_window": 10.0, "sup_horizon": 5.0,
                         "tau_step": 0.1, "tau": 1.0, "t_grid_n": 2, "n_boot": 2},
          "stability": {"y0a": 1.0, "y0b": 3.0, "horizon": 1.0}}


@pytest.mark.parametrize("formats", [["csv"], ["json"], []])
@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_output_formats_choose_the_files(tmp_path, kind, formats):
    d = _base_cfg(kind, tmp_path, **_SMALL[kind])
    d["run"].update(window=[0.0, 1.0], n_paths=8)
    d["output"]["formats"] = formats
    assert main([kind, "--config", _write_cfg(tmp_path, "c.json", d)]) == 0
    out = tmp_path / "out"
    written = {p.suffix[1:] for p in out.iterdir()} if out.exists() else set()
    assert written == set(formats) - ({"csv"} if kind == "check" else set())


def test_summaries_byte_identical_between_runs(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("bounded", tmp_path))
    assert main(["bounded", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["bounded", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "bounded_summary.json").read_bytes()
    b = (tmp_path / "b" / "bounded_summary.json").read_bytes()
    assert a == b


def test_thread_count_does_not_change_results(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("bounded", tmp_path))
    assert main(["bounded", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["bounded", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--threads", "4"]) == 0
    a = (tmp_path / "a" / "bounded_summary.json").read_bytes()
    b = (tmp_path / "b" / "bounded_summary.json").read_bytes()
    assert a == b


def test_example61_bundle(tmp_path):
    d = {"run": {"window": [0.0, 4.0], "step": 0.02, "n_paths": 60, "seed": 3,
                 "tolerance": 0.1},
         "experiment": {"kind": "example61", "n_boot": 6},
         "output": {"directory": str(tmp_path / "out61")}}
    cfg = _write_cfg(tmp_path, "c61.json", d)
    assert main(["example61", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out61" / "example61_summary.json").read_text())
    assert out["conditions"]["cond_L11"] is True
    assert out["bounded"]["within_ball"] is True
    assert out["stability"]["bound_satisfied"] is True
    assert out["distributional"]["passed"] is True
    assert (tmp_path / "out61" / "example61_gap.csv").exists()


def test_example61_runs_one_bounded_ensemble(tmp_path, monkeypatch):
    # the scalar-pipeline op: the moment shares its run with law cluster 0
    import levylab.ensemble as ens
    import levylab.pullback as pb
    calls, run = [], ens._run_ensembles

    def spy(models, window, *args, **kw):
        calls.append((len(models), window))
        return run(models, window, *args, **kw)

    monkeypatch.setattr(ens, "_run_ensembles", spy)
    monkeypatch.setattr(pb, "_run_ensembles", spy)
    d = {"run": {"window": [0.0, 4.0], "step": 0.01, "n_paths": 100, "seed": 1,
                 "tolerance": 0.05},
         "experiment": {"kind": "example61", "scan_window": 50.0},
         "output": {"directory": str(tmp_path / "o")}}
    assert main(["example61", "--config", _write_cfg(tmp_path, "c.json", d), "--seed", "5"]) == 0
    assert [k for k, _ in calls] == [1, 1, 2]   # cluster 0, cluster 1, the coupled gap
    assert calls[0][1][1] == 4.0 and calls[1][1][0] > 4.0


def test_example61_stages_read_one_ensemble(tmp_path):
    # forced, the law is not a point mass; both stages equal their statistic
    # on one bounded ensemble observed at the union of their times (one
    # cluster here: the scan finds no tau, and 2 pi leaves a gap below t_pull)
    d = {"run": {"window": [0.0, 3.0], "step": 0.02, "n_paths": 40, "seed": 3,
                 "tolerance": 0.05},
         "experiment": {"kind": "example61", "forcing": 1.0, "n_boot": 4,
                        "scan_window": 50.0},
         "output": {"directory": str(tmp_path / "o")}}
    main(["example61", "--config", _write_cfg(tmp_path, "c.json", d)])
    out = json.loads((tmp_path / "o" / "example61_summary.json").read_text())
    from levylab import recurrence
    from levylab.presets import example61_model
    from levylab.pullback import bounded_ensemble
    tau = out["distributional"]["tau"]
    assert tau == 2 * np.pi
    t_mom, t_law = np.linspace(0.0, 3.0, 21), np.linspace(0.0, 3.0, 5)
    res = bounded_ensemble(example61_model(forcing=1.0), (0.0, 3.0 + tau), 0.05, 40, 3,
                           np.concatenate([t_mom, t_law + tau]), 0.02)
    msq, _ = res.mean_sq_norm()
    assert res.times.size == 26 and out["bounded"]["max_second_moment"] > 0.0
    assert out["bounded"]["max_second_moment"] == msq[:21].max()
    assert out["distributional"]["max_beta"] == recurrence.distributional_report(
        res, tau, t_law, 3, 4).max_beta > 0.0


def test_example61_rejects_large_jump_rate(tmp_path, capsys):
    d = {"run": {"window": [0.0, 2.0], "step": 0.05, "n_paths": 10, "seed": 1},
         "experiment": {"kind": "example61", "b": 2.0},
         "output": {"directory": str(tmp_path / "o")}}
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["example61", "--config", cfg]) == 2


def test_example62_bundle(tmp_path):
    d = {"run": {"window": [0.0, 1.0], "step": 0.005, "n_paths": 40, "seed": 2,
                 "tolerance": 0.1},
         "experiment": {"kind": "example62", "n_modes": 4},
         "output": {"directory": str(tmp_path / "out62")}}
    cfg = _write_cfg(tmp_path, "c62.json", d)
    assert main(["example62", "--config", cfg]) == 0
    out = json.loads((tmp_path / "out62" / "example62_summary.json").read_text())
    assert out["spectrum"]["omega"] == pytest.approx(np.pi**2)
    assert out["mode_decay"]["relative_error"] < 1e-6
    assert out["bounded"]["within_ball"] is True


def test_example62_q_decay_sets_the_mode_variances(tmp_path):
    def max_second_moment(**extra):
        d = {"run": {"window": [0.0, 0.5], "step": 0.01, "n_paths": 20, "seed": 2,
                     "tolerance": 0.1},
             "experiment": {"kind": "example62", "n_modes": 4, **extra},
             "output": {"directory": str(tmp_path / "out62")}}
        assert main(["example62", "--config", _write_cfg(tmp_path, "c62.json", d)]) == 0
        out = json.loads((tmp_path / "out62" / "example62_summary.json").read_text())
        return out["bounded"]["max_second_moment"]

    default = max_second_moment()
    assert max_second_moment(q_decay=2.0) == default
    # the diffusion is multiplicative, so it moves the moment only slightly
    assert max_second_moment(q_decay=0.5) != default


def test_example62_runs_one_mode(tmp_path):
    # one-mode finite-rank marks come as scalars; the checker's quadrature met
    # the (1, 2) basis with (2,) nodes and exited 1 with a traceback
    d = {"run": {"window": [0.0, 1.0], "step": 0.01, "n_paths": 20, "seed": 2,
                 "tolerance": 0.1},
         "experiment": {"kind": "example62", "n_modes": 1},
         "output": {"directory": str(tmp_path / "out1")}}
    assert main(["example62", "--config", _write_cfg(tmp_path, "c1.json", d)]) == 0
    out = json.loads((tmp_path / "out1" / "example62_summary.json").read_text())
    assert out["spectrum"]["eigenvalues"] == [pytest.approx(np.pi**2)]
    assert out["bounded"]["within_ball"] is True


def _heat_model_dict(n_modes=8):
    """example62's heat model written out as an explicit config, its jumps
    left at the default ``pointwise``; A0 and L are the preset's."""
    preset = presets.example62_model(n_modes=n_modes).coefficients
    jump = {"terms": [{
        "profile": {"kind": "reciprocal", "amp": 1.0 / 3.0, "offset": 2.0,
                    "inner_amps": [1.0], "inner_freqs": [math.sqrt(2.0)],
                    "recurrence_class": "periodic"},
        "state_map": {"kind": "cosine"}}], "mark_mode": "pointwise_product"}

    def modes(*scales):
        return {"kind": "finite_rank", "probs": [1.0 / len(scales)] * len(scales),
                "atoms": [[s if j == k else 0.0 for j in range(n_modes)]
                          for k, s in enumerate(scales)]}

    return {
        "semigroup": {"eigenvalues": [(n * math.pi) ** 2 for n in range(1, n_modes + 1)],
                      "K": 1.0, "omega": math.pi ** 2},
        "wiener": {"mode_variances": [0.09 * k ** -2.0 for k in range(1, n_modes + 1)]},
        "jumps": {"small_rate": 1.0, "small_marks": modes(0.5, 0.4), "truncation_delta": 0.1,
                  "large_rate": 0.5, "large_marks": modes(1.0), "moment_p": 2.05},
        "coefficients": {
            "drift": {"terms": [{
                "profile": {"kind": "harmonic", "amps": [0.2, 0.2],
                            "freqs": [1.0, math.sqrt(2.0)], "phases": [math.pi / 2, 0.0]},
                "state_map": {"kind": "sine"}}], "pointwise": True},
            "diffusion": {"terms": [{
                "profile": {"kind": "trig_reciprocal", "outer": "sin", "amp": 1.0,
                            "offset": 2.0, "inner_amps": [1.0, 1.0],
                            "inner_freqs": [1.0, math.sqrt(2.0)],
                            "inner_phases": [math.pi / 2, math.pi / 2]},
                "state_map": {"kind": "linear"}}]},
            "small_jump": jump, "large_jump": jump,
            "A0": preset.A0, "lipschitz_L": preset.lipschitz_L, "moment_p": 2.05},
        "galerkin": {"n_modes": n_modes},
    }


def test_check_passes_the_heat_model_written_as_a_config(tmp_path):
    # a pointwise_product jump acts at the nodes whatever its ``pointwise``
    # value; the checker once read its state part from coordinate maps, so
    # this config failed (e1p) with slack -0.623 where the preset passes
    d = {**_base_cfg("check", tmp_path), "model": _heat_model_dict()}
    preset = presets.example62_model(n_modes=8)
    c = preset.coefficients
    assert parse_config(d).model == replace(preset, coefficients=replace(
        c, small_jump=replace(c.small_jump, pointwise=False),
        large_jump=replace(c.large_jump, pointwise=False)))
    assert main(["check", "--config", _write_cfg(tmp_path, "heat.json", d)]) == 0
    out = json.loads((tmp_path / "out" / "check_summary.json").read_text())
    want = json.loads(config.canonical_json(check_conditions(preset).to_dict()))
    assert out["conditions"] == want
    assert out["conditions"]["e1p_slack"] == 1.0379764168818575e-4


def test_command_config_kind_mismatch(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("check", tmp_path))
    assert main(["simulate", "--config", cfg]) == 2


@pytest.mark.parametrize("key, value", [
    ("n_paths", 0), ("n_paths", -5), ("n_paths", 1), ("step", 0.0),
    ("step", -1.0), ("step", float("nan")), ("tolerance", 0.0),
    ("tolerance", -1.0), ("seed", -1), ("seed", "abc"), ("window", ["a", "b"]),
    ("window", [0.0, float("inf")]),
])
def test_bad_run_section_exits_2(tmp_path, capsys, key, value):
    d = {"run": {"window": [0.0, 2.0], "step": 0.05, "n_paths": 10, "seed": 1,
                 "tolerance": 0.1, key: value},
         "experiment": {"kind": "example61"},
         "output": {"directory": str(tmp_path / "o")}}
    cfg = _write_cfg(tmp_path, "c.json", d)
    assert main(["example61", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run.{key}:")
    assert "Traceback" not in err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", _base_cfg("simulate", tmp_path, y0=1.0))
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed:")


@pytest.mark.parametrize("kind, extra", [("simulate", {"y0": 1.0}), ("check", {})])
def test_one_path_accepted_without_standard_errors(tmp_path, kind, extra):
    d = _base_cfg(kind, tmp_path, **extra)
    d["run"]["n_paths"] = 1
    assert main([kind, "--config", _write_cfg(tmp_path, "c.json", d)]) == 0


# a valid experiment section per kind: the required keys only
_REQUIRED_KEYS = {"check": {}, "simulate": {"y0": [1.0]}, "bounded": {},
                  "recurrence": {"epsilon": 0.05}, "stability": {"y0a": 1.0, "y0b": 3.0},
                  "example61": {}, "example62": {}}
_DROP = object()
# a 2-vector large mark on the scalar model, entering a scalar jump coefficient
_TWO_D_SCALAR_MARKS = _scalar_model_dict()
_TWO_D_SCALAR_MARKS["jumps"]["large_marks"] = {"kind": "point_mass", "value": [1.0, 1.0]}
_TWO_D_SCALAR_MARKS["coefficients"]["large_jump"]["mark_mode"] = "scalar"


def _valid_cfg(kind, tmp_path):
    d = _base_cfg(kind, tmp_path, **_REQUIRED_KEYS[kind])
    if kind.startswith("example"):
        del d["model"]
    return d


@pytest.mark.parametrize("kind, key, value, named", [
    # these ended in a traceback
    ("example61", "experiment.n_boot", 0, None),
    ("example62", "experiment.n_modes", 0, None),
    ("bounded", "experiment.n_obs", "x", None),
    ("bounded", "experiment.n_obs", 0, None),
    ("recurrence", "experiment.epsilon", "abc", None),
    ("recurrence", "experiment.tau_step", 0, None),
    ("recurrence", "experiment.tau", -1.0, None),
    ("check", "experiment.require", ["nope"], "experiment.require[0]"),
    ("check", "experiment.require", "e1", None),
    ("simulate", "experiment.y0", "a", None),
    ("simulate", "experiment.y0", [1.0, 2.0], None),
    ("stability", "experiment.y0a", "a", None),
    ("stability", "experiment.horizon", -1, None),
    ("example61", "experiment.b", "x", None),
    ("example61", "experiment.small_rate", -1, None),
    ("example62", "experiment.q_base", -1, None),
    ("check", "model.semigroup.eigenvalues", "ab", None),
    ("check", "model.coefficients.drift.terms", 5, None),
    ("check", "model.jumps.small_marks", _DROP, None),
    # these were coerced or ignored
    ("example61", "experiment.scan_window", -5, None),
    ("example61", "experiment.b", True, None),
    ("example61", "experiment.A0", -1, None),
    ("example62", "experiment.n_modes", 2.7, None),
    ("example62", "experiment.n_modes", "4", None),
    ("check", "model.jumps.small_rate", float("nan"), None),
    ("check", "model.jumps.small_marks.signed", 1, None),
    # this message named its path three times
    ("check", "model.jumps.small_marks.lo", "x", None),
    # marks the jump coefficient cannot take: a traceback (simulate) or exit 3 (check)
    ("simulate", "model", _TWO_D_SCALAR_MARKS, None),
    ("check", "model.coefficients.small_jump.mark_mode", "pointwise_product", "model"),
    # atoms of two shapes: numpy's "inhomogeneous shape" message under model.jumps
    ("check", "model.jumps.large_marks",
     {"kind": "finite_rank", "atoms": [[1.0, 0.0], [2.0]], "probs": [0.5, 0.5]}, None),
])
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, kind, key, value, named):
    d = _valid_cfg(kind, tmp_path)
    *parents, last = key.split(".")
    node = d
    for part in parents:
        node = node[part]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    assert main([kind, "--config", _write_cfg(tmp_path, "c.json", d)]) == 2
    err = capsys.readouterr().err
    named = named or key
    assert err.startswith(f"config error: {named}:")
    assert err.count(named) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, key", [(k, key) for k in EXPERIMENTS for key in EXPERIMENTS[k]])
def test_every_experiment_key_is_checked(tmp_path, kind, key):
    d = _valid_cfg(kind, tmp_path)
    cfg = parse_config(d)
    assert set(cfg.experiment) == {"kind", *EXPERIMENTS[kind]}
    d["experiment"][key] = {"not": "a value of any experiment key"}
    with pytest.raises(ConfigError, match=rf"^experiment\.{key}: "):
        parse_config(d)


def test_stability_beyond_margin_is_a_threshold_violation(tmp_path, capsys):
    d = _base_cfg("stability", tmp_path, y0a=1.0, y0b=3.0, horizon=1.0)
    d["model"] = _scalar_model_dict(lipschitz=0.5)
    assert main(["stability", "--config", _write_cfg(tmp_path, "c.json", d)]) == 3
    assert capsys.readouterr().err.startswith("threshold violation:")
