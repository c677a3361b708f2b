"""Explicit constants, thresholds, and hypothesis checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab.errors import InputError, ThresholdError
from levylab.model import REGISTRY_TOL, _kunita_parts


# -- c_p ---------------------------------------------------------------------

def test_cp_at_two():
    assert L.compute_cp(2.0) == 1.0


def test_cp_at_four():
    # [6 (4/3)^2]^2 = (32/3)^2
    assert L.compute_cp(4.0) == pytest.approx((32.0 / 3.0) ** 2, rel=1e-14)


def test_cp_continuous_at_two():
    assert abs(L.compute_cp(2.0 + 1e-9) - 1.0) < 1e-6


def test_cp_rejects_nonpositive():
    with pytest.raises(ValueError):
        L.compute_cp(0.0)


# -- d_p ---------------------------------------------------------------------

def test_dp_at_two_is_two_at_alpha_one():
    d, alpha = L.compute_dp(2.0)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert alpha == pytest.approx(1.0)


def test_dp_denominator_is_one_at_p_two():
    # factor (p - 2) kills the alpha term for every alpha
    alpha = np.geomspace(1.0, 1e6, 100)
    _, _, denom = _kunita_parts(2.0, alpha)
    assert np.allclose(denom, 1.0)


def test_dp_p3_matches_finer_grid_bruteforce():
    d_coarse, _ = L.compute_dp(3.0, n_grid=4001)
    d_fine, _ = L.compute_dp(3.0, n_grid=40001)
    assert abs(d_coarse - d_fine) / d_fine < 0.01


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0, 6.0])
def test_dp_and_cp_continuous_in_p(p):
    # relative increments: the constants themselves grow to ~1e2-1e4 on (2, 6]
    dp = 1e-4
    d0, d1 = L.compute_dp(p)[0], L.compute_dp(p + dp)[0]
    assert abs(d1 - d0) / d0 < 1e-2
    c0, c1 = L.compute_cp(p), L.compute_cp(p + dp)
    assert abs(c1 - c0) / c0 < 1e-2


# -- theta -------------------------------------------------------------------

def test_theta_vanishes_without_lipschitz_constant():
    assert L.compute_theta(2.7, 1.0, 4.0, 0.0, 1.0) == 0.0


def test_theta_limit_from_above():
    # near p = 2 the factor matches (4 K^2 L^2/w^2)(1 + 10 w + 2b)
    for K, w, Lc, b in [(1.0, 4.0, 0.25, 1.0), (1.5, 2.0, 0.1, 0.3)]:
        want = L.theta_limit_from_above(K, w, Lc, b)
        got = L.compute_theta(2.0 + 1e-6, K, w, Lc, b)
        assert abs(got - want) / want < 1e-3


def test_theta_limit_hand_value():
    # K=1, w=4, L=1/4, b=1: (1/64)(1+40+2) = 43/64
    got = L.compute_theta(2.0 + 1e-6, 1.0, 4.0, 0.25, 1.0)
    assert got == pytest.approx(43.0 / 64.0, rel=1e-3)


def test_theta_two_exceeded_by_limit():
    t2 = L.theta_two(1.0, 4.0, 0.25, 1.0)
    assert t2 == pytest.approx(11.0 / 64.0)
    assert L.theta_limit_from_above(1.0, 4.0, 0.25, 1.0) > t2


def test_theta_monotone_in_lipschitz_and_jump_rate():
    rng = np.random.default_rng(10)
    for _ in range(20):
        K = rng.uniform(1.0, 2.0)
        w = rng.uniform(1.0, 8.0)
        Lc = rng.uniform(0.01, 0.3)
        b = rng.uniform(0.0, 2.0)
        p = rng.uniform(2.05, 3.0)
        base = L.compute_theta(p, K, w, Lc, b)
        assert L.compute_theta(p, K, w, Lc * 1.2, b) > base
        assert L.compute_theta(p, K, w, Lc, b + 0.5) > base


# -- radius ------------------------------------------------------------------

def test_radius_zero_forcing():
    assert L.compute_radius(1.0, 4.0, 0.25, 0.0, 1.0) == 0.0


def test_radius_hand_value():
    # 2 sqrt(11) / (4 - sqrt(11)/2)
    want = 2.0 * math.sqrt(11.0) / (4.0 - math.sqrt(11.0) / 2.0)
    assert L.compute_radius(1.0, 4.0, 0.25, 1.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_radius_errors_at_threshold():
    thr = L.lip_threshold_existence(1.0, 4.0, 1.0)
    with pytest.raises(ThresholdError):
        L.compute_radius(1.0, 4.0, thr, 1.0, 1.0)


def test_radius_diverges_approaching_threshold():
    thr = L.lip_threshold_existence(1.0, 4.0, 1.0)
    assert L.compute_radius(1.0, 4.0, thr - 1e-8, 1.0, 1.0) > 1e6


# -- margins and gap constants -------------------------------------------------

def test_stability_margin_noise_free():
    assert L.stability_margin(1.0, 4.0, 0.0, 1.0) == 4.0


def test_stability_margin_hand_value():
    got = L.stability_margin(1.0, 4.0, 1.0 / 16.0, 1.0)
    assert got == pytest.approx(4.0 - 95.0 / 1024.0, rel=1e-14)


def test_margin_positive_iff_lmin_holds():
    for b in (0.0, 1.0, 10.0, 17.0, 17.2, 30.0):
        margin = L.stability_margin(1.0, 4.0, 0.25, b)
        slack = L.lip_threshold_stability(1.0, 4.0, b) - 0.25
        assert (margin > 0) == (slack > 0)


def test_compat_gap_bound_zero_shift():
    assert L.compat_gap_bound(1.0, 4.0, 0.25, 1.0, 0, 0, 0, 0) == 0.0


def test_compat_gap_bound_weights_at_zero_lipschitz():
    # c = 1; weights are (8K^2/w^2, 4K^2/w, 4K^2/w, 8K^2/w + 16K^2 b/w^2)
    K, w, b = 1.0, 2.0, 1.5
    got = L.compat_gap_bound(K, w, 0.0, b, 1.0, 1.0, 1.0, 1.0)
    want = 8 * K**2 / w**2 + 4 * K**2 / w + 4 * K**2 / w + (8 * K**2 / w + 16 * K**2 * b / w**2)
    assert got == pytest.approx(want, rel=1e-14)


def test_compat_c_hand_value():
    # K=1, w=4, L=1/4, b=1: c = 1 - (8/256)*... = 1 - (1/32)*11 = 21/32
    assert L.compat_c(1.0, 4.0, 0.25, 1.0) == pytest.approx(21.0 / 32.0, rel=1e-14)


def test_compat_gap_bound_requires_positive_c():
    with pytest.raises(ThresholdError):
        L.compat_gap_bound(1.0, 4.0, 1.0, 1.0, 1, 1, 1, 1)


# -- condition checks ----------------------------------------------------------

def test_example61_conditions_pass_at_b_one():
    rep = L.check_conditions(L.presets.example61_model(b=1.0))
    assert rep.all_passed


def test_cond_L11_boundary_sweep():
    flags = []
    for b in (1.0, 7.4, 7.6):
        rep = L.check_conditions(L.presets.example61_model(b=b, A0=1.0))
        flags.append(rep.cond_L11.passed)
    assert flags == [True, True, False]


def test_boundary_closed_forms():
    assert L.boundary_b_compact(1.0, 4.0, 0.25) == pytest.approx(7.5, abs=1e-12)
    assert L.boundary_b_stability(1.0, 4.0, 0.25) == pytest.approx(17.1, abs=1e-12)


def test_zero_lipschitz_slack_equals_threshold():
    m = L.presets.ou_jump_model(decay=4.0)   # L = 0, b = 1
    rep = L.check_conditions(m)
    assert rep.cond_L11.slack == pytest.approx(
        L.lip_threshold_compact(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.cond_lmin.slack == pytest.approx(
        L.lip_threshold_stability(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.thm_existence.slack == pytest.approx(
        L.lip_threshold_existence(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.all_passed


def test_report_booleans_match_slacks():
    for b in (1.0, 8.0):
        rep = L.check_conditions(L.presets.example61_model(b=b))
        for name, cond in ((n, getattr(rep, n)) for n in
                           ("e1", "e2", "cond_L", "cond_L11", "cond_lmin",
                            "theta2_lt_1", "thetap_lt_1")):
            assert cond.passed == (cond.slack > 0), name


def test_mark_dimension_must_fit_the_mark_mode():
    heat = L.presets.example62_model(n_modes=4)
    with pytest.raises(InputError, match="large_jump: .* dimension 4, got 1"):
        replace(heat, jumps=replace(heat.jumps, large_sampler=L.point_mass_marks(1.5)))
    # an ignored mark may have any dimension
    m = L.presets.example61_model()
    replace(m, jumps=replace(m.jumps, large_sampler=L.point_mass_marks([1.0, 1.0])))


def test_effective_lipschitz_constants_of_the_scalar_example():
    m = L.presets.example61_model(b=1.0, small_rate=1.0)
    eff = m.effective_lipschitz()
    assert eff["drift"] == pytest.approx(0.25)
    assert eff["diffusion"] == pytest.approx(0.2)
    assert eff["small_jump"] == pytest.approx(0.2)    # (1/5) sqrt(small_rate)
    assert eff["large_jump"] == pytest.approx(0.25)   # (1/4) sqrt(b)


def test_theorem_constants_bundle():
    tc = L.theorem_constants(L.presets.example61_model())
    d = tc.to_dict()
    assert d["theta_2"] == pytest.approx(11.0 / 64.0)
    assert d["compat_c"] == pytest.approx(21.0 / 32.0)
    assert d["stability_margin"] == pytest.approx(2.515625)
    assert set(tc.formulas()) == set(d)


# -- jump moments and the finite-difference Lipschitz oracle ---------------------

def _jump_cases():
    """(coefficient, rate, sampler, model) covering every mark mode."""
    m61 = L.presets.example61_model()
    m62 = L.presets.example62_model(n_modes=4)
    c61, c62, j61, j62 = m61.coefficients, m62.coefficients, m61.jumps, m62.jumps
    assert c62.small_jump.mark_mode == "pointwise_product"
    return [
        (c61.small_jump, j61.small_rate, j61.small_sampler, m61),        # ignore
        (replace(c61.large_jump, mark_mode="scalar"), j61.large_rate,
         j61.large_sampler, m61),                                        # scalar
        (c62.small_jump, j62.small_rate, j62.small_sampler, m62),        # pointwise
        (c62.large_jump, j62.large_rate, j62.large_sampler, m62),
    ]


def _quadrature_sq(coef, t, y1, y2, rate, sampler, galerkin):
    """rate * sum_w w ||J(t,y1,x) - J(t,y2,x)||^2 over the mark quadrature,
    row-wise, from the public ``value`` alone (``y2=None``: ||J(t,y1,x)||^2)."""
    if rate == 0.0 or sampler is None:
        return np.zeros(np.shape(y1)[:-1])
    nodes, weights = sampler.quadrature()
    acc = 0.0
    for x, w in zip(nodes, weights):
        d = coef.value(t, y1, x, galerkin)
        if y2 is not None:
            d = d - coef.value(t, y2, x, galerkin)
        acc = acc + w * np.sum(np.square(d), axis=-1)
    return rate * acc


@pytest.mark.parametrize("case", range(4))
def test_sq_moment_matches_mark_quadrature_of_value(case):
    coef, rate, sampler, m = _jump_cases()[case]
    rng = np.random.default_rng(7)
    t = rng.uniform(-10.0, 10.0, size=6)
    y = rng.normal(size=(6, m.dim))
    exact = np.concatenate([coef.sq_moment(t[i], y[i], rate, sampler, m.galerkin)
                            for i in range(6)])
    assert np.all(exact > 0)
    # a grid of times at one state reads the same rows as one time at a time
    grid = coef.sq_moment(t, y[0], rate, sampler, m.galerkin)
    assert grid.tobytes() == np.concatenate(
        [coef.sq_moment(ti, y[0], rate, sampler, m.galerkin) for ti in t]).tobytes()
    np.testing.assert_allclose(exact, _quadrature_sq(coef, t, y, None, rate, sampler,
                                                     m.galerkin), rtol=1e-12, atol=0)


# pairs per block of draws; the block size fixes which pairs a seed gives
_ORACLE_BLOCK = 256


def _lipschitz_oracle(model, n_pairs, seed, t_span):
    """Randomized finite-difference estimate of the largest effective
    Lipschitz ratio across the four coefficients.

    Per block of ``_ORACLE_BLOCK`` pairs: one uniform draw of the times and
    two normal draws of the states (``y1`` at scale 2, ``y2 - y1`` at
    scale 1).  The jump terms integrate ``value`` over the mark quadrature,
    so the oracle shares no code with the closed forms of the checker.
    Pairs closer than 1e-12 are skipped.
    """
    rng = np.random.default_rng(seed)
    c, j = model.coefficients, model.jumps
    qhalf = np.sqrt(model.wiener.q)
    worst = 0.0
    for start in range(0, n_pairs, _ORACLE_BLOCK):
        n = min(_ORACLE_BLOCK, n_pairs - start)
        t = rng.uniform(-t_span, t_span, size=n)
        y1 = rng.normal(scale=2.0, size=(n, model.dim))
        y2 = y1 + rng.normal(scale=1.0, size=(n, model.dim))
        dy = np.linalg.norm(y1 - y2, axis=-1)
        keep = dy >= 1e-12
        f, g, gal = c.drift, c.diffusion, model.galerkin
        diffs = (
            np.linalg.norm(f.value(t, y1, gal) - f.value(t, y2, gal), axis=-1),
            np.linalg.norm(qhalf * (g.value(t, y1, gal) - g.value(t, y2, gal)), axis=-1),
            np.sqrt(_quadrature_sq(c.small_jump, t, y1, y2, j.small_rate, j.small_sampler,
                                   model.galerkin)),
            np.sqrt(_quadrature_sq(c.large_jump, t, y1, y2, j.large_rate, j.large_sampler,
                                   model.galerkin)),
        )
        worst = max(worst, *(float(np.max(d[keep] / dy[keep], initial=0.0)) for d in diffs))
    return worst


_PRESETS = {
    "example61": L.presets.example61_model,
    "example61_forced": lambda: L.presets.example61_model(forcing=0.5),
    "example62": L.presets.example62_model,
    "example62_32": lambda: L.presets.example62_model(n_modes=32),
    "linear_decay": L.presets.linear_decay_model,
    "forced_linear": L.presets.forced_linear_model,
    "ou_jump": L.presets.ou_jump_model,
    "periodic": L.presets.periodic_model,
    "stationary": L.presets.stationary_model,
}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_lipschitz_probe_stays_below_exact_constant(name):
    """The finite-difference oracle never exceeds the exact constants the
    checker reads, beyond the registry tolerance.

    A finite-difference ratio carries the cancellation error of the
    difference, so it may sit above an exact constant it attains by
    rounding only (the periodic model's drift is sin t - 0.1 y).  On the
    worked examples it stays at or below.
    """
    m = _PRESETS[name]()
    eff = max(m.effective_lipschitz().values())
    probe = _lipschitz_oracle(m, 10_000, 0, 40.0)
    assert probe <= eff + REGISTRY_TOL
    if name.startswith("example"):
        assert probe <= eff


def test_e2_slack_is_the_analytic_one():
    m = L.presets.periodic_model()
    assert max(m.effective_lipschitz().values()) == m.coefficients.lipschitz_L
    assert L.check_conditions(m).e2.slack == REGISTRY_TOL


def test_check_conditions_draws_no_random_numbers(monkeypatch):
    models = [build() for build in _PRESETS.values()]

    def no_rng(*args, **kwargs):
        raise AssertionError("the checker drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for m in models:
        L.check_conditions(m)


# float.hex of every slack of the report, recorded before the checker read
# its coefficients from one table per grid; every flag is True
_PINNED_REPORTS = {
    "example61": {
        "e1": "0x1.0000000001198p+0", "e1p": "0x1.0000000001198p+0",
        "e2": "0x1.19799812dea11p-40", "e2p": "0x1.19799812dea11p-40", "e3": "inf",
        "thm_existence": "0x1.697ec7a2ad04cp-2", "cond_L": "0x1.c2895d10fa8f0p-5",
        "cond_L11": "0x1.30eafa4ef3dd0p-4", "cond_lmin": "0x1.487b415b8d132p-3",
        "theta2_lt_1": "0x1.a800000000000p-1", "thetap_lt_1": "0x1.2ef80cd40f9f8p-2"
    },
    "example61_forced": {
        "e1": "0x1.64c691293fcccp-11", "e1p": "0x1.64c691293fcccp-11",
        "e2": "0x1.19799812dea11p-40", "e2p": "0x1.19799812dea11p-40", "e3": "inf",
        "thm_existence": "0x1.697ec7a2ad04cp-2", "cond_L": "0x1.c2895d10fa8f0p-5",
        "cond_L11": "0x1.30eafa4ef3dd0p-4", "cond_lmin": "0x1.487b415b8d132p-3",
        "theta2_lt_1": "0x1.a800000000000p-1", "thetap_lt_1": "0x1.2ef80cd40f9f8p-2"
    },
    "periodic": {
        "e1": "0x1.489d18f443302p-17", "e1p": "0x1.489d18f443302p-17",
        "e2": "0x1.19799812dea11p-40", "e2p": "0x1.19799812dea11p-40", "e3": "inf",
        "thm_existence": "0x1.3333333333333p-3", "cond_L": "0x1.6b369e30d9940p-5",
        "cond_L11": "0x1.6b369e30d9940p-5", "cond_lmin": "0x1.52394f3a7c796p-4",
        "theta2_lt_1": "0x1.ae147ae147ae1p-1", "thetap_lt_1": "0x1.05977911a2214p-1"
    },
    "heat8": {
        "e1": "0x1.65d3ef626abf6p-4", "e1p": "0x1.b35bde7e33660p-14",
        "e2": "0x1.19799812dea11p-40", "e2p": "0x1.19799812dea11p-40", "e3": "inf",
        "thm_existence": "0x1.51192eb336b09p-1", "cond_L": "0x1.77e59dec834d4p-4",
        "cond_L11": "0x1.226b1655b022cp-3", "cond_lmin": "0x1.242f2a3e1c616p-2",
        "theta2_lt_1": "0x1.b6dec7b7db46ap-1", "thetap_lt_1": "0x1.31490cdb68cd2p-2"
    },
    "ou_jump": {
        "e1": "0x1.b21c3c95dd64dp-7", "e1p": "0x1.19799812dea11p-40",
        "e2": "0x1.19799812dea11p-40", "e2p": "0x1.19799812dea11p-40", "e3": "inf",
        "thm_existence": "0x1.c9f25c5bfedd9p-3", "cond_L": "0x1.1c01aa03be896p-3",
        "cond_L11": "0x1.11acee560242ap-3", "cond_lmin": "0x1.5a2cd8c69d61ap-3",
        "theta2_lt_1": "0x1.0000000000000p+0", "thetap_lt_1": "0x1.0000000000000p+0"
    },
}
_PINNED_MODELS = {
    "example61": L.presets.example61_model,
    "example61_forced": lambda: L.presets.example61_model(forcing=1.0),
    "periodic": L.presets.periodic_model,
    "heat8": lambda: L.presets.example62_model(n_modes=8),
    "ou_jump": L.presets.ou_jump_model,
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_check_conditions_report_is_pinned(name):
    got = L.check_conditions(_PINNED_MODELS[name]()).to_dict()
    want = {}
    for cond, slack in _PINNED_REPORTS[name].items():
        want[cond], want[f"{cond}_slack"] = True, slack
    assert {k: v if isinstance(v, bool) else float.hex(v) for k, v in got.items()} == want


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_check_conditions_tabulates_each_coefficient_once(monkeypatch, name):
    """Profile calls and StateMaps constructions grow with the number of
    terms, not with the checker's time grid."""
    m, counts = _PINNED_MODELS[name](), {"profiles": 0, "maps": 0}
    profile_call, maps_init = L.TimeProfile.__call__, L.model.StateMaps.__init__

    def counted_call(self, t):
        counts["profiles"] += 1
        return profile_call(self, t)

    def counted_init(self, *args, **kwargs):
        counts["maps"] += 1
        maps_init(self, *args, **kwargs)

    monkeypatch.setattr(L.TimeProfile, "__call__", counted_call)
    monkeypatch.setattr(L.model.StateMaps, "__init__", counted_init)
    L.check_conditions(m)
    c = m.coefficients
    n_terms = sum(len(coef.terms) for coef in (c.drift, c.diffusion, c.small_jump, c.large_jump))
    # drift and diffusion once; each jump coefficient once for its intensity
    # integrals and once for its state part on the subsampled grid
    assert 0 < counts["profiles"] <= 2 * n_terms
    assert 0 < counts["maps"] <= 6


@pytest.mark.parametrize("t_span, n_t_grid", [
    (math.nan, 401), (math.inf, 401), (0.0, 401), (-1.0, 401), (40.0, 0), (40.0, -3),
    (40.0, 2.5), (40.0, 401.0), (40.0, True), (40.0, "401")])
def test_check_conditions_rejects_a_grid_without_finite_times(t_span, n_t_grid):
    with pytest.raises(InputError):
        L.check_conditions(L.presets.example61_model(), t_span=t_span, n_t_grid=n_t_grid)


def test_check_conditions_accepts_small_grids():
    for n in (1, 21):
        assert L.check_conditions(L.presets.example61_model(), n_t_grid=n).e1.passed
