"""Ensemble engine: determinism, coupling, the one jump rule it shares
with the single-path integrator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab import ensemble, noise
from levylab.ensemble import simulate_ensemble
from levylab.noise import jump_table


def test_ensemble_reproducible():
    m = L.presets.example61_model()
    obs = np.linspace(0, 3, 7)
    a = simulate_ensemble(m, (0.0, 3.0), 1.0, 64, 0.01, 5, obs)
    b = simulate_ensemble(m, (0.0, 3.0), 1.0, 64, 0.01, 5, obs)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


@pytest.mark.parametrize("model, atol", [(L.presets.example61_model(), 0.0),
                                         (L.presets.example62_model(n_modes=8), 1e-15)],
                         ids=["example61", "heat8"])
def test_paths_do_not_depend_on_chunking(model, atol, monkeypatch):
    # a path's states are a function of (seed, path index): the first paths
    # of a run that spans two chunks match a run of just those paths, and
    # smaller chunks give the same states.  Scalar models match bit for bit.
    # Galerkin transforms of a one-row batch (a one-path chunk, or a step in
    # which one path jumps) take numpy's matrix-vector route, whose rounding
    # differs from the matrix-matrix one, so the heat model matches to
    # rounding only.
    obs = np.linspace(0.0, 0.5, 3)
    big = simulate_ensemble(model, (0.0, 0.5), 0.5, ensemble.CHUNK + 3, 0.01, 4, obs)
    small = simulate_ensemble(model, (0.0, 0.5), 0.5, 3, 0.01, 4, obs)
    np.testing.assert_allclose(small.states, big.states[:, :3], rtol=0, atol=atol)
    monkeypatch.setattr(ensemble, "CHUNK", 2)
    split = simulate_ensemble(model, (0.0, 0.5), 0.5, 5, 0.01, 4, obs)
    np.testing.assert_allclose(split.states, big.states[:, :5], rtol=0, atol=atol)


@pytest.mark.parametrize("name", ["example61", "periodic", "heat8"])
def test_paths_do_not_depend_on_slab_size(name, monkeypatch):
    # slabs of 1 and 7 steps (7 does not divide the 150 steps) give the
    # states of the default slab bit for bit, jumps included; so do slabs of
    # 6 and 42 steps for the one path of integrate
    model = {"example61": L.presets.example61_model, "periodic": L.presets.periodic_model,
             "heat8": lambda: L.presets.example62_model(n_modes=8)}[name]()
    obs = np.linspace(-0.5, 1.0, 4)
    run = lambda: (simulate_ensemble(model, (-0.5, 1.0), 0.5, 6, 0.01, 3, obs).states,
                   L.integrate(model, (-0.5, 1.0), 0.5, 0.01, 3).values)
    want = run()
    for rows in (1, 7):
        monkeypatch.setattr(noise, "SLAB_BYTES", 8 * 6 * model.dim * rows)
        assert all(np.array_equal(got, w) for got, w in zip(run(), want, strict=True))


def test_coupled_gap_does_not_depend_on_slab_size(monkeypatch):
    # both models step through each slab before the next one is drawn
    m = L.presets.example61_model(forcing=1.0)
    run = lambda: L.coupled_gap(m, m.shifted(0.7), 0.5, 1.5, (-1.0, 2.0), 12, 0.05, 7,
                                np.linspace(0.0, 2.0, 5))
    want = run()
    for rows in (1, 7):
        monkeypatch.setattr(noise, "SLAB_BYTES", 8 * 12 * rows)
        got = run()
        assert np.array_equal(got.gap, want.gap) and np.array_equal(got.se, want.se)


def test_wiener_memory_does_not_grow_with_the_window(monkeypatch):
    # an ensemble holds one slab of Wiener increments, not the block of its
    # whole grid: with 16-step slabs, the traced peak of 64 paths of the
    # 8-mode heat model stays within SLAB_BYTES plus a fixed 1 MiB as the
    # window grows from 100 to 400 steps (whose whole block is 1.6 MB)
    monkeypatch.setattr(noise, "SLAB_BYTES", 16 * 64 * 8 * 8)
    m = L.presets.example62_model(n_modes=8)
    simulate_ensemble(m, (0.0, 0.1), 0.0, 64, 0.01, 3, [0.1])   # warm every cache
    for t1 in (1.0, 4.0):
        tracemalloc.start()
        try:
            simulate_ensemble(m, (0.0, t1), 0.0, 64, 0.01, 3, [t1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < noise.SLAB_BYTES + 2**20, (t1, peak)


def test_same_seed_couples_noise_across_runs():
    # two runs from different starts, same seed: the gap at time 0+ already
    # reflects the same Wiener draws (deterministic linear contraction)
    m = L.presets.linear_decay_model(2.0)
    obs = np.linspace(0, 2, 5)
    a = simulate_ensemble(m, (0.0, 2.0), 1.0, 16, 0.01, 9, obs)
    b = simulate_ensemble(m, (0.0, 2.0), 3.0, 16, 0.01, 9, obs)
    gap = np.abs(a.states - b.states)[:, :, 0]
    want = 2.0 * np.exp(-2.0 * a.times)
    assert np.allclose(gap, want[:, None], rtol=1e-9)


def _plane_model(jump_map):
    """A 2-D model without a Galerkin spec whose small and large jumps both
    map the state by ``jump_map``: a one-path state is (2,), not a batch row."""
    smap = jump_map(1.0)
    coeffs = L.CoefficientSet(
        drift=L.coefficient((L.periodic_profile(0.4, 1.0), L.sine_map(0.5))),
        diffusion=L.coefficient((L.constant_profile(0.3), L.linear_map(0.5))),
        small_jump=L.jump_coefficient((L.constant_profile(0.2), smap), mark_mode="scalar"),
        large_jump=L.jump_coefficient((L.periodic_profile(0.3, 1.0), smap), mark_mode="scalar"),
        A0=1.0, lipschitz_L=0.4, moment_p=2.05)
    jumps = L.JumpMeasureSpec(small_rate=2.0, small_sampler=L.uniform_shell_marks(0.1, 1.0),
                              truncation_delta=0.1, large_rate=2.0,
                              large_sampler=L.uniform_shell_marks(1.0, 2.0, signed=True))
    return L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(1.0, 2.0), K=1.0, omega=1.0),
                      coefficients=coeffs, wiener=L.WienerSpec(mode_variances=(0.5, 0.5)),
                      jumps=jumps)


@pytest.mark.parametrize("name, y0", [("example61", 0.5), ("heat8", 0.5), ("every_map", -0.0),
                                     ("periodic", 0.5), ("no_jumps", 0.7), ("drift_a", 0.5),
                                     ("plane-ones", 0.5), ("plane-linear", 0.5)],
                         ids=["example61", "heat8", "every_map", "periodic", "no_jumps",
                              "drift_a", "plane-ones", "plane-linear"])
def test_one_path_ensemble_is_integrate_bit_for_bit(name, y0):
    # one jump rule: on the grid of integrate and driven by the same noise, a
    # one-path ensemble reproduces integrate's path at every node; the 2-D
    # planes' jumps are tabulated (ones) or evaluated per event and coordinate
    # (linear), and drift_a adds the Wiener drift to a one-component path's drift
    from test_kernel import _model, every_map_model
    m = (L.presets.example61_model(b=0.0, small_rate=0.0) if name == "no_jumps"
         else _plane_model(getattr(L, name[6:] + "_map")) if name.startswith("plane")
         else replace(every_map_model(), wiener=L.WienerSpec((0.5,), drift_a=(-0.7,)))
         if name == "drift_a" else _model(name))
    window, seed = (-1.0, 1.5), 31
    # path 0 of an ensemble draws from the streams of SeedSequence(seed, (0,))
    path = L.integrate(m, window, np.full(m.dim, y0), 0.01,
                       np.random.SeedSequence(seed, spawn_key=(0,)))
    assert (np.count_nonzero(path.jump_flags) >= 2) == (name != "no_jumps")
    res = simulate_ensemble(m, window, y0, 1, 0.01, seed, path.times)
    assert np.array_equal(res.times, path.times)
    assert np.array_equal(res.states[:, 0], path.values)


def _jump_adapted_reference(m, window, y0, n, max_step, seed):
    """Terminal states of ``n`` paths on a grid refined by every jump time
    of every path: each path jumps at a node, where the one jump rule is
    the one of integrate."""
    nodes = np.concatenate([jump_table(m.jumps, window, seed, range(n))[0], window[1:]])
    return simulate_ensemble(m, window, y0, n, max_step, seed, nodes).states[-1, :, 0]


def test_agrees_with_reference_integrator_statistically_with_jumps():
    # jumps inside a step vs at grid nodes: weak agreement
    m = L.presets.ou_jump_model(decay=1.0, sigma=0.5, jump_rate=1.0)
    obs = np.array([4.0])
    n = 600
    res = simulate_ensemble(m, (0.0, 4.0), 0.0, n, 0.01, 17, obs)
    ens_mean = res.states[0, :, 0].mean()
    ref = _jump_adapted_reference(m, (0.0, 4.0), 0.0, n, 0.01, 10_000)
    ref_mean = np.mean(ref)
    pooled_se = np.sqrt(res.states[0, :, 0].var() / n + np.var(ref) / n)
    assert abs(ens_mean - ref_mean) < 5 * pooled_se


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_raises_with_time():
    from test_integrator import _huge_forcing_model
    with pytest.raises(L.NumericalBlowupError) as err:
        simulate_ensemble(_huge_forcing_model(), (0.0, 3.0), 0.0, 4, 0.1, 0,
                          np.array([3.0]))
    assert "path 0, component 0 non-finite" in str(err.value)


def test_stiff_many_mode_ensemble_has_no_false_blowup():
    # 128 modes: lambda dt reaches 8e2, so exp(-lambda dt) underflows to 0.
    # A step holding several jumps of one path must chain them without
    # multiplying that 0 by an overflowing exp(+lambda dt).
    m = L.presets.example62_model(n_modes=128)
    res = simulate_ensemble(m, (0.0, 0.5), 0.0, 256, 0.005, 1, np.array([0.5]))
    assert np.all(np.isfinite(res.states))
    assert np.max(np.abs(res.states)) < 1.0


def test_per_path_y0_array():
    m = L.presets.linear_decay_model(1.0)
    y0 = np.array([[1.0], [2.0], [3.0]])
    res = simulate_ensemble(m, (0.0, 1.0), y0, 3, 0.01, 0, np.array([1.0]))
    assert np.allclose(res.states[0, :, 0], y0[:, 0] * np.exp(-1.0), rtol=1e-12)


def test_gap_curve_zero_for_identical_initial_conditions():
    m = L.presets.example61_model()
    curve = L.coupled_gap(m, m, 1.0, 1.0, (0.0, 2.0), 32, 0.01, 3,
                          np.linspace(0, 2, 5))
    assert np.all(curve.gap == 0.0)


def test_coupled_gap_draws_each_path_once(monkeypatch):
    # the two coupled runs step on one draw of the noise: one draw per chunk,
    # not one per chunk and model, and the gap is the one of two separate
    # ensembles with the same seed, bit for bit (three chunks here)
    m = L.presets.example61_model(forcing=1.0)
    shifted = m.shifted(0.7)
    window, n, step, seed, obs = (-1.0, 2.0), 12, 0.05, 7, np.linspace(0.0, 2.0, 5)
    monkeypatch.setattr(ensemble, "CHUNK", 5)
    calls = []
    draw = ensemble._draw_chunk
    monkeypatch.setattr(ensemble, "_draw_chunk", lambda *a: calls.append(1) or draw(*a))
    curve = L.coupled_gap(m, shifted, 0.5, 1.5, window, n, step, seed, obs)
    assert len(calls) == 3
    a = simulate_ensemble(m, window, 0.5, n, step, seed, obs)
    b = simulate_ensemble(shifted, window, 1.5, n, step, seed, obs)
    gap, se = ensemble.mean_and_se(np.sum((a.states - b.states) ** 2, axis=2))
    assert np.array_equal(curve.times, a.times)
    assert np.array_equal(curve.gap, gap) and np.array_equal(curve.se, se)


@pytest.mark.parametrize("name, shift", [("example61", 0.3), ("example61", 0.0),
                                         ("every_map", 0.3)],
                         ids=["shifted", "equal", "every_map"])
def test_stacked_models_are_separate_runs_bit_for_bit(name, shift, monkeypatch):
    # six models from six starts step as one stacked batch over three chunks;
    # each block is the separate ensemble of its model, bit for bit, whether
    # the models read their own profile values or share them (every_map has
    # scalar marks and every state map kind)
    from test_kernel import _model
    m = _model(name)
    models = [m.shifted(shift * j) if shift else m for j in range(6)]
    y0s = [0.25 * j - 0.5 for j in range(6)]
    window, n, step, seed, obs = (-1.0, 2.0), 12, 0.05, 7, np.linspace(0.0, 2.0, 5)
    monkeypatch.setattr(ensemble, "CHUNK", 5)
    times, states = ensemble._run_ensembles(models, window, y0s, n, step, seed, obs)
    assert len(states) == 6
    for model, y0, got in zip(models, y0s, states):
        want = simulate_ensemble(model, window, y0, n, step, seed, obs)
        assert np.array_equal(times, want.times) and np.array_equal(got, want.states)


def test_heat_coupling_matches_separate_runs():
    # the stacked Galerkin transforms run block by block, a step on the (n,
    # dim) batch of a block and a jump slice on that block's events, so each
    # block rounds as its separate run does
    m = L.presets.example62_model(n_modes=8)
    shifted = m.shifted(0.4)
    window, n, step, seed, obs = (0.0, 0.5), 5, 0.01, 4, np.linspace(0.0, 0.5, 3)
    curve = L.coupled_gap(m, shifted, 0.5, 0.0, window, n, step, seed, obs)
    a = simulate_ensemble(m, window, 0.5, n, step, seed, obs)
    b = simulate_ensemble(shifted, window, 0.0, n, step, seed, obs)
    gap, se = ensemble.mean_and_se(np.sum((a.states - b.states) ** 2, axis=2))
    assert np.array_equal(curve.gap, gap) and np.array_equal(curve.se, se)


def _other_structure(m, which):
    if which == "semigroup":
        return replace(m, semigroup=L.SemigroupSpec(eigenvalues=(5.0,), K=1.0, omega=4.0))
    c = m.coefficients
    (profile, _), *rest = c.drift.terms
    drift = replace(c.drift, terms=((profile, L.linear_map(0.5)), *rest))
    return replace(m, coefficients=replace(c, drift=drift))


@pytest.mark.parametrize("which", ["semigroup", "state_maps"])
def test_stacked_models_need_one_structure(which):
    # stacked models share every state map and the semigroup; only their
    # coefficient profiles may differ
    m = L.presets.example61_model()
    with pytest.raises(L.InputError, match="one structure"):
        L.coupled_gap(m, _other_structure(m, which), 1.0, 1.0, (0.0, 1.0), 4, 0.1, 0, [1.0])


@pytest.mark.parametrize("n_paths", [0, -2, 2.0, True], ids=["zero", "negative", "float", "bool"])
def test_bad_path_counts_are_rejected(n_paths):
    # rejected before any draw, so an empty ensemble never reaches mean_and_se
    m = L.presets.example61_model()
    for run in (lambda: simulate_ensemble(m, (0.0, 1.0), 0.0, n_paths, 0.1, 0, [1.0]),
                lambda: L.coupled_gap(m, m, 0.0, 1.0, (0.0, 1.0), n_paths, 0.1, 0, [1.0])):
        with pytest.raises(L.InputError, match="n_paths"):
            run()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_observation_times_are_rejected(bad):
    # NaN passed the window check (every comparison with NaN is false) and
    # ended in refined_grid's "time grid must be finite"
    m = L.presets.example61_model()
    obs = [0.5, bad]
    for run in (lambda: simulate_ensemble(m, (0.0, 1.0), 0.0, 2, 0.1, 0, obs),
                lambda: L.coupled_gap(m, m, 0.0, 1.0, (0.0, 1.0), 2, 0.1, 0, obs),
                lambda: L.bounded_ensemble(m, (0.0, 1.0), 0.05, 2, 0, obs, 0.1)):
        with pytest.raises(L.InputError, match="obs_times"):
            run()


def test_coupled_gap_needs_one_noise_law():
    with pytest.raises(L.InputError, match="one noise law"):
        L.coupled_gap(L.presets.example61_model(), L.presets.linear_decay_model(2.0),
                      1.0, 1.0, (0.0, 1.0), 4, 0.1, 0, [1.0])


def test_state_dependent_jumps_agree_across_drivers():
    # multiplicative jump coefficients: jumps inside a step vs at grid nodes
    # must agree weakly (means and second moments within MC error)
    m = L.presets.example61_model(b=1.0, forcing=1.0)
    n, t_end = 500, 4.0
    res = simulate_ensemble(m, (0.0, t_end), 1.0, n, 0.005, 77, np.array([t_end]))
    ens = res.states[0, :, 0]
    ref = _jump_adapted_reference(m, (0.0, t_end), 1.0, n, 0.005, 88)
    for stat in (lambda x: x, lambda x: x**2):
        a, b = stat(ens), stat(ref)
        se = np.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 5 * se
