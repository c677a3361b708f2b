"""Ensemble engine: determinism, coupling, the one jump rule it shares
with the single-path integrator."""

import numpy as np
import pytest

import levylab as L
from levylab import ensemble
from levylab.ensemble import _path_seed, simulate_ensemble
from levylab.noise import sample_jumps


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


@pytest.mark.parametrize("name, y0", [("example61", 0.5), ("heat8", 0.5), ("every_map", -0.0),
                                     ("periodic", 0.5), ("no_jumps", 0.7)],
                         ids=["example61", "heat8", "every_map", "periodic", "no_jumps"])
def test_one_path_ensemble_is_integrate_bit_for_bit(name, y0):
    # one jump rule: on the grid of integrate and driven by the same noise, a
    # one-path ensemble reproduces integrate's path at every node
    from test_kernel import _model
    m = (L.presets.example61_model(b=0.0, small_rate=0.0) if name == "no_jumps"
         else _model(name))
    window, seed = (-1.0, 1.5), 31
    noise = L.sample_noise(m.wiener, m.jumps, window, _path_seed(seed, 0))
    path = L.integrate(m, noise, *window, np.full(m.dim, y0), 0.01)
    assert (np.count_nonzero(path.jump_flags) >= 2) == (name != "no_jumps")
    res = simulate_ensemble(m, window, y0, 1, 0.01, seed, path.times)
    assert np.array_equal(res.times, path.times)
    assert np.array_equal(res.states[:, 0], path.values)


def _jump_adapted_reference(m, window, y0, n, max_step, seed):
    """Terminal states of ``n`` paths on a grid refined by every jump time
    of every path: each path jumps at a node, where the one jump rule is
    the one of integrate."""
    jumps = [sample_jumps(m.jumps, window, _path_seed(seed, p)) for p in range(n)]
    nodes = np.concatenate([t for st, _, lt, _ in jumps for t in (st, lt)] + [window[1:]])
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
    # the two coupled runs step on one draw of the noise: n_paths draws of
    # the jump point sets, not 2 n_paths, and the gap is the one of two
    # separate ensembles with the same seed, bit for bit (three chunks here)
    m = L.presets.example61_model(forcing=1.0)
    shifted = m.shifted(0.7)
    window, n, step, seed, obs = (-1.0, 2.0), 12, 0.05, 7, np.linspace(0.0, 2.0, 5)
    monkeypatch.setattr(ensemble, "CHUNK", 5)
    calls = []
    draw = ensemble.sample_jumps
    monkeypatch.setattr(ensemble, "sample_jumps", lambda *a: calls.append(1) or draw(*a))
    curve = L.coupled_gap(m, shifted, 0.5, 1.5, window, n, step, seed, obs)
    assert len(calls) == n
    a = simulate_ensemble(m, window, 0.5, n, step, seed, obs)
    b = simulate_ensemble(shifted, window, 1.5, n, step, seed, obs)
    gap, se = ensemble.mean_and_se(np.sum((a.states - b.states) ** 2, axis=2))
    assert np.array_equal(curve.times, a.times)
    assert np.array_equal(curve.gap, gap) and np.array_equal(curve.se, se)


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
