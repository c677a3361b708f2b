"""Path integration: deterministic accuracy, jump bookkeeping, Galerkin."""

import numpy as np
import pytest

import levylab as L
from levylab.errors import InputError, NumericalBlowupError
from levylab.integrator import JUMP_LARGE, JUMP_SMALL


def _noise_for(model, window, seed):
    return L.sample_noise(model.wiener, model.jumps, window, seed)


def test_pure_decay_is_exact():
    m = L.presets.linear_decay_model(1.0)
    noise = _noise_for(m, (0.0, 1.0), 0)
    path = L.integrate(m, noise, 0.0, 1.0, [1.0], 1e-4)
    assert abs(path.values[-1, 0] - np.exp(-1.0)) < 1e-8


def test_example61_drift_value_at_origin_of_time():
    # with the decay rate 4 split off, the drift coefficient at (t=0, y=1)
    # is (1/8)(sin 0 + cos 0) * 1 = 1/8
    m = L.presets.example61_model()
    assert m.semigroup.eigenvalues == (4.0,)
    assert m.coefficients.drift.value(0.0, np.array([1.0]))[0] == pytest.approx(0.125)


def test_path_reproducible():
    m = L.presets.example61_model()
    noise = _noise_for(m, (0.0, 5.0), 11)
    p1 = L.integrate(m, noise, 0.0, 5.0, [1.0], 0.01)
    p2 = L.integrate(m, noise, 0.0, 5.0, [1.0], 0.01)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.times, p2.times)


def test_jump_bookkeeping_exact():
    m = L.presets.example61_model(b=2.0 / 3.0)   # denser large jumps not needed
    noise = _noise_for(m, (0.0, 20.0), 5)
    path = L.integrate(m, noise, 0.0, 20.0, [1.0], 0.01)
    marks = {}
    for t, x in zip(noise.small_times, noise.small_marks):
        marks[float(t)] = (JUMP_SMALL, x)
    for t, x in zip(noise.large_times, noise.large_marks):
        marks[float(t)] = (JUMP_LARGE, x)
    jump_idx = np.where(path.jump_flags > 0)[0]
    assert jump_idx.size == noise.small_times.size + noise.large_times.size
    for i in jump_idx:
        t = float(path.times[i])
        kind, x = marks[t]
        left = path.left_limits[i]
        coef = m.coefficients.small_jump if kind == JUMP_SMALL else m.coefficients.large_jump
        incr = coef.value(t, left, x, m.galerkin)
        # applying the recomputed increment to the left limit reproduces the
        # stored cadlag value bit for bit
        assert np.array_equal(path.values[i], left + incr)


def test_left_limits_equal_values_off_jumps():
    m = L.presets.example61_model()
    noise = _noise_for(m, (0.0, 5.0), 3)
    path = L.integrate(m, noise, 0.0, 5.0, [1.0], 0.01)
    off = path.jump_flags == 0
    assert np.array_equal(path.values[off], path.left_limits[off])


def test_step_refinement_first_order():
    # frozen jumps + time-dependent drift, no Wiener part: halving the step
    # should roughly halve the terminal defect
    m = L.presets.forced_linear_model(decay=1.0)
    jumps = L.JumpMeasureSpec(large_rate=0.5,
                              large_sampler=L.uniform_shell_marks(1.0, 2.0))
    coeffs = m.coefficients
    from dataclasses import replace
    m = replace(m, jumps=jumps, coefficients=replace(
        coeffs, large_jump=L.jump_coefficient(
            (L.constant_profile(1.0), L.ones_map(1.0)), mark_mode="scalar")))
    noise = _noise_for(m, (0.0, 5.0), 21)
    terminals = []
    for step in (0.04, 0.02, 0.01, 0.005):
        path = L.integrate(m, noise, 0.0, 5.0, [0.5], step)
        terminals.append(path.values[-1, 0])
    diffs = np.abs(np.diff(terminals))
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((ratios > 1.5) & (ratios < 2.5)), ratios


def test_deterministic_gap_decays_at_twice_the_rate():
    m = L.presets.linear_decay_model(1.5)
    noise = _noise_for(m, (0.0, 3.0), 0)
    pa = L.integrate(m, noise, 0.0, 3.0, [2.0], 1e-3)
    pb = L.integrate(m, noise, 0.0, 3.0, [1.0], 1e-3)
    gap = np.sum((pa.values - pb.values) ** 2, axis=1)
    want = gap[0] * np.exp(-2 * 1.5 * pa.times)
    assert np.allclose(gap, want, rtol=1e-6)


def test_nonfinite_initial_state_rejected():
    m = L.presets.linear_decay_model(1.0)
    noise = _noise_for(m, (0.0, 1.0), 0)
    with pytest.raises(InputError):
        L.integrate(m, noise, 0.0, 1.0, [np.nan], 0.01)


def _huge_forcing_model():
    # forcing equilibrium amp/decay = 1e310 overflows within a few steps
    coeffs = L.CoefficientSet(
        drift=L.coefficient((L.constant_profile(1e308), L.ones_map(1.0))),
        diffusion=L.coefficient(), small_jump=L.jump_coefficient(),
        large_jump=L.jump_coefficient(), A0=1e308, lipschitz_L=0.0)
    return L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(0.01,), omega=0.01),
                      coefficients=coeffs,
                      wiener=L.WienerSpec(mode_variances=(0.0,)),
                      jumps=L.JumpMeasureSpec())


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_reports_time():
    m = _huge_forcing_model()
    noise = _noise_for(m, (0.0, 3.0), 0)
    with pytest.raises(NumericalBlowupError) as err:
        L.integrate(m, noise, 0.0, 3.0, [0.0], 0.1)
    assert 0.0 < err.value.time <= 3.0
    assert str(err.value) == f"component 0 non-finite at t = {err.value.time:g}"


@pytest.mark.parametrize("max_step", [0.0, -0.01, np.nan, np.inf])
@pytest.mark.parametrize("driver", ["integrate", "ensemble"])
def test_max_step_must_be_positive_and_finite(driver, max_step):
    m = L.presets.example61_model()
    with pytest.raises(InputError, match="max_step"):
        if driver == "integrate":
            L.integrate(m, _noise_for(m, (0.0, 2.0), 0), 0.0, 2.0, [0.5], max_step)
        else:
            L.simulate_ensemble(m, (0.0, 2.0), 0.5, 4, max_step, 3, [2.0])


def test_noise_window_must_cover_integration_window():
    m = L.presets.linear_decay_model(1.0)
    noise = _noise_for(m, (0.0, 1.0), 0)
    with pytest.raises(InputError):
        L.integrate(m, noise, 0.0, 2.0, [1.0], 0.01)


# -- Galerkin heat model ------------------------------------------------------

def test_galerkin_gram_is_identity():
    gal = L.GalerkinSpec(n_modes=8, collocation_points=16)
    assert np.max(np.abs(gal.gram() - np.eye(8))) < 1e-10


def test_heat_model_reports_spectrum_and_envelope():
    m = L.presets.example62_model(n_modes=4)
    assert m.semigroup.K == 1.0
    assert m.omega == pytest.approx(np.pi**2)
    want = [(n * np.pi) ** 2 for n in range(1, 5)]
    assert np.allclose(m.semigroup.eigenvalues, want)


def test_heat_model_lipschitz_gate_matches_hand_formula():
    p = 2.05
    m = L.presets.example62_model(n_modes=8, b=0.5, small_rate=1.0,
                                  q_base=0.09, moment_p=p)
    want = max(2.0 / 5.0, np.sqrt(0.09), (1.0 ** (1 / p)) / 3.0,
               (0.5 ** (1 / p)) / 3.0)
    assert m.coefficients.lipschitz_L == pytest.approx(want, rel=1e-14)
    assert L.heat_lipschitz(np.sqrt(0.09), 1.0, 0.5, p) == pytest.approx(want)


def test_heat_coefficient_lipschitz_bounds():
    # time-uniform bounds 2/5, 1, 1/3 for drift, diffusion, jump coefficient
    m = L.presets.example62_model(n_modes=4)
    c = m.coefficients
    assert c.drift.lip_bound() == pytest.approx(0.4)
    assert c.diffusion.lip_bound() == pytest.approx(1.0)
    assert c.small_jump.lip_bound() == pytest.approx(1.0 / 3.0)


def test_single_mode_zero_noise_decay():
    m = L.presets.example62_model(n_modes=1, b=0.0, small_rate=0.0,
                                  q_base=0.0, drift_scale=0.0)
    noise = _noise_for(m, (0.0, 1.0), 0)
    path = L.integrate(m, noise, 0.0, 1.0, [1.0], 1e-4)
    exact = np.exp(-np.pi**2)
    assert abs(path.values[-1, 0] - exact) / exact < 1e-6


def test_heat_nonlinearity_uses_collocation():
    # sin applied pointwise in physical space differs from sin on modes
    m = L.presets.example62_model(n_modes=4)
    y = np.array([1.2, -0.3, 0.05, 0.0])
    gal = m.galerkin
    u = gal.to_phys(y)
    t = 0.7
    prof = 0.2 * (np.cos(t) + np.sin(np.sqrt(2.0) * t))
    want = gal.to_modes(prof * np.sin(u))
    drift = m.coefficients.drift.value(t, y, gal)
    assert np.allclose(drift, want, atol=1e-12)
    assert not np.allclose(drift, prof * np.sin(y), atol=1e-3)


def test_wiener_drift_vector_routed_through_diffusion():
    # dY = -lam Y dt + g a dt with constant diffusion field g = sigma:
    # the state settles at sigma * a / lam
    lam, sigma, a = 2.0, 0.5, 3.0
    coeffs = L.CoefficientSet(
        drift=L.coefficient(),
        diffusion=L.coefficient((L.constant_profile(sigma), L.ones_map(1.0))),
        small_jump=L.jump_coefficient(), large_jump=L.jump_coefficient(),
        A0=sigma, lipschitz_L=0.0)
    m = L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(lam,), omega=lam),
                   coefficients=coeffs,
                   wiener=L.WienerSpec(mode_variances=(0.0,), drift_a=(a,)),
                   jumps=L.JumpMeasureSpec())
    noise = _noise_for(m, (0.0, 10.0), 0)
    path = L.integrate(m, noise, 0.0, 10.0, [0.0], 1e-3)
    assert path.values[-1, 0] == pytest.approx(sigma * a / lam, rel=1e-4)


def test_zero_noise_heat_run_decays_in_every_mode():
    # nonlinearity active but subcritical (Lipschitz 2/5 < pi^2)
    m = L.presets.example62_model(n_modes=4, b=0.0, small_rate=0.0, q_base=0.0)
    noise = _noise_for(m, (0.0, 2.0), 0)
    y0 = np.array([1.0, -0.5, 0.3, 0.2])
    path = L.integrate(m, noise, 0.0, 2.0, y0, 1e-3)
    assert np.all(np.abs(path.values[-1]) < 1e-6)


def test_heat_nonlinear_drift_agrees_with_rk45():
    # independent oracle: zero-noise spectral system integrated by an
    # adaptive RK45 on the same Galerkin ODE
    from scipy.integrate import solve_ivp

    m = L.presets.example62_model(n_modes=4, b=0.0, small_rate=0.0, q_base=0.0)
    lam = m.semigroup.rates
    y0 = np.array([0.8, -0.4, 0.2, -0.1])

    def rhs(t, y):
        return -lam * y + m.coefficients.drift.value(t, y, m.galerkin)

    ref = solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-10, atol=1e-12,
                    dense_output=True)
    noise = _noise_for(m, (0.0, 1.0), 0)
    path = L.integrate(m, noise, 0.0, 1.0, y0, 1e-4)
    sup = np.max(np.abs(path.values[-1] - ref.y[:, -1]))
    assert sup < 1e-6, sup


def test_compensated_small_jumps_are_mean_zero():
    # additive compensated small jumps with nonzero-mean marks: the
    # compensator must cancel the drift of the jump integral, so
    # E[Y(t)] = exp(-t) Y0 exactly; a sign or placement error in the
    # compensator would shift the mean by order rate * E[mark] * 0.2
    from levylab.ensemble import simulate_ensemble

    jumps = L.JumpMeasureSpec(small_rate=2.0,
                              small_sampler=L.uniform_shell_marks(0.1, 1.0),
                              truncation_delta=0.1)
    coeffs = L.CoefficientSet(
        drift=L.coefficient(),
        diffusion=L.coefficient(),
        small_jump=L.jump_coefficient((L.constant_profile(0.2), L.ones_map(1.0)),
                                      mark_mode="scalar"),
        large_jump=L.jump_coefficient(),
        A0=1.0, lipschitz_L=0.0)
    m = L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(1.0,), omega=1.0),
                   coefficients=coeffs, wiener=L.WienerSpec(mode_variances=(0.0,)),
                   jumps=jumps)
    res = simulate_ensemble(m, (0.0, 3.0), 1.0, 4000, 0.005, 13, np.array([3.0]))
    x = res.states[0, :, 0]
    want = np.exp(-3.0)
    z = abs(x.mean() - want) / (x.std(ddof=1) / np.sqrt(x.size))
    assert z < 5.0, (x.mean(), want, z)
    # scale check: an uncompensated integral would sit far away
    uncompensated_shift = 2.0 * 0.55 * 0.2 * (1 - np.exp(-3.0))
    assert abs(x.mean() - want) < 0.2 * uncompensated_shift
