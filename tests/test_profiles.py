"""Registry profile bounds, shifts, and validation."""

import numpy as np
import pytest

import levylab as L


def test_constant_profile():
    p = L.constant_profile(0.3)
    t = np.linspace(-5, 5, 11)
    assert np.all(p(t) == 0.3)
    assert p.sup_bound() == 0.3
    assert p.lipschitz_t() == 0.0


def test_harmonic_values_and_bounds():
    p = L.harmonic_profile(amps=(0.125, 0.125), freqs=(1.0, np.sqrt(3.0)),
                           phases=(0.0, np.pi / 2.0))
    # sin(t)/8 + cos(sqrt(3) t)/8
    t = np.array([0.0, 1.0, -2.0])
    want = 0.125 * (np.sin(t) + np.cos(np.sqrt(3.0) * t))
    assert np.allclose(p(t), want, atol=1e-15)
    assert p.sup_bound() == pytest.approx(0.25)
    assert p.lipschitz_t() == pytest.approx(0.125 * (1 + np.sqrt(3.0)))


def test_shifted_profile_translates_time():
    p = L.periodic_profile(1.0, 2.0, 0.3)
    q = p.shifted(1.5)
    t = np.linspace(-3, 3, 7)
    assert np.allclose(q(t), p(t + 1.5))
    # shifts compose
    assert np.allclose(q.shifted(-1.5)(t), p(t))


def test_trig_reciprocal_is_bounded_despite_singular_denominator():
    # denominator 2 + sin t + sin(sqrt 2 t) approaches zero; profile stays in [-amp, amp]
    p = L.trig_reciprocal_profile("cos", 0.2, 2.0, (1.0, 1.0), (1.0, np.sqrt(2.0)))
    t = np.linspace(-500, 500, 200001)
    v = p(t)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v)) <= 0.2 + 1e-15
    assert p.sup_bound() == pytest.approx(0.2)


def test_trig_reciprocal_needs_window_for_lipschitz():
    p = L.trig_reciprocal_profile("cos", 0.2, 2.0, (1.0, 1.0), (1.0, np.sqrt(2.0)))
    with pytest.raises(ValueError):
        p.lipschitz_t()
    assert p.lipschitz_t(half_width=5.0) > 0


def test_reciprocal_global_bounds():
    # 1/(3(2 + sin(sqrt2 t))): denominator in [1, 3]
    p = L.reciprocal_profile(1.0 / 3.0, 2.0, (1.0,), (np.sqrt(2.0),))
    t = np.linspace(-50, 50, 20001)
    v = p(t)
    assert np.max(v) <= 1.0 / 3.0 + 1e-12
    assert np.min(v) >= 1.0 / 9.0 - 1e-12
    assert p.sup_bound() == pytest.approx(1.0 / 3.0)
    assert np.isfinite(p.lipschitz_t())


def test_reciprocal_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        L.reciprocal_profile(1.0, 2.0, (1.0, 1.0), (1.0, np.sqrt(2.0)))


def test_library_input_errors_are_input_errors():
    # the one class that the CLI maps to exit 2
    with pytest.raises(L.InputError, match=r"offset > sum \|amps\|"):
        L.reciprocal_profile(1.0, 2.0, (1.0, 1.0), (1.0, np.sqrt(2.0)))
    with pytest.raises(L.InputError, match="unknown profile kind 'spline'"):
        L.TimeProfile(kind="spline")
    assert issubclass(L.ConfigError, L.InputError)


def test_clipped_ramp():
    p = L.clipped_ramp_profile(bound=2.0, scale=0.5)
    assert p(np.array([10.0]))[0] == pytest.approx(1.0)
    assert p(np.array([-10.0]))[0] == pytest.approx(-1.0)
    assert p(np.array([1.0]))[0] == pytest.approx(0.5)
    assert p.recurrence_class == "none"


def test_recurrence_class_metadata():
    profs = L.presets.example61_profiles()
    assert profs["drift"].recurrence_class == "quasi_periodic"
    assert profs["diffusion"].recurrence_class == "levitan"
    assert profs["small_jump"].recurrence_class == "constant"
    assert profs["large_jump"].recurrence_class == "almost_automorphic"


def test_profile_table_matches_direct_evaluation_bitwise():
    # the drivers read profile values from tables built once per grid; each
    # entry must carry the same bits as evaluating the profile at that time
    profiles = [
        L.constant_profile(0.3),
        L.periodic_profile(0.7, 2.0, 0.3),
        L.harmonic_profile(amps=(0.125, 0.125), freqs=(1.0, np.sqrt(3.0)),
                           phases=(0.0, np.pi / 2.0)),
        L.reciprocal_profile(1.0 / 3.0, 2.0, (1.0,), (np.sqrt(2.0),)),
        # denominator 2 + 2 sin(t - pi/2) is exactly 0 at t = 0
        L.trig_reciprocal_profile("cos", 0.2, 2.0, (1.0, 1.0), (1.0, 1.0),
                                  (-np.pi / 2.0, -np.pi / 2.0)),
        L.trig_reciprocal_profile("sin", 0.25, 3.0, (1.0, 1.0), (1.0, np.pi)),
        L.clipped_ramp_profile(1.5, 0.5),
        L.harmonic_profile(amps=(1.0, 0.5), freqs=(1.0, np.sqrt(2.0))).shifted(0.7),
    ]
    coef = L.coefficient(*((p, L.linear_map(1.0)) for p in profiles))
    t = np.concatenate([np.linspace(-6.0, 6.0, 1201), [0.0, 2.0 * np.pi, 1e-300]])
    with np.errstate(invalid="ignore"):
        table = coef.profile_table(t)
        assert table.shape == (t.size, len(profiles))
        for k, prof in enumerate(profiles):
            direct = np.array([prof(ti) for ti in t])
            assert np.array_equal(table[:, k].view(np.int64), direct.view(np.int64)), k
    assert table[t.size - 3, 4] == 0.0      # the guarded zero denominator
