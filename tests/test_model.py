"""Explicit constants, thresholds, and hypothesis checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab.errors import InputError, ThresholdError
from levylab.model import REGISTRY_TOL, StateMaps, _kunita_parts


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
        flags.append(rep.cond_L11 > 0)
    assert flags == [True, True, False]


def test_boundary_closed_forms():
    assert L.lip_threshold_compact(1.0, 4.0, 7.5) == pytest.approx(0.25, rel=1e-12)
    assert L.lip_threshold_stability(1.0, 4.0, 17.1) == pytest.approx(0.25, rel=1e-12)


def test_zero_lipschitz_slack_equals_threshold():
    m = L.presets.ou_jump_model(decay=4.0)   # L = 0, b = 1
    rep = L.check_conditions(m)
    assert rep.cond_L11 == pytest.approx(
        L.lip_threshold_compact(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.cond_lmin == pytest.approx(
        L.lip_threshold_stability(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.thm_existence == pytest.approx(
        L.lip_threshold_existence(1.0, 4.0, 1.0), rel=1e-12)
    assert rep.all_passed


def test_report_booleans_match_slacks():
    for b in (1.0, 8.0):
        d = L.check_conditions(L.presets.example61_model(b=b)).to_dict()
        for name in ("e1", "e2", "cond_L", "cond_L11", "cond_lmin",
                     "theta2_lt_1", "thetap_lt_1"):
            assert d[name] == (d[f"{name}_slack"] > 0), name


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


def test_checker_sees_the_wiener_drift_vector():
    # the step's drift is f + g a: its Lipschitz constant gains L_g max|a_n|
    # (example61: g is linear with L_g = 1/5), and its growth bound is
    # sup_t |f(t, 0) + g(t, 0) a| (the periodic model: g(t, 0) = 3/10)
    m = L.presets.example61_model()
    with_a = replace(m, wiener=L.WienerSpec(m.wiener.mode_variances, drift_a=(50.0,)))
    eff, eff_a = m.effective_lipschitz(), with_a.effective_lipschitz()
    assert eff["drift"] == 0.25 and eff_a["drift"] == pytest.approx(0.25 + 0.2 * 50.0)
    assert {k: v for k, v in eff_a.items() if k != "drift"} == {
        k: v for k, v in eff.items() if k != "drift"}
    assert not L.check_conditions(with_a).e2 > 0
    per = L.presets.periodic_model()
    per_a = replace(per, wiener=L.WienerSpec(per.wiener.mode_variances, drift_a=(2.0,)))
    t = np.linspace(-40.0, 40.0, 401)
    c, zero = per.coefficients, np.zeros(1)
    want = max(abs(c.drift.value(s, zero)[0] + c.diffusion.value(s, zero)[0] * 2.0) for s in t)
    assert c.diffusion.value(0.0, zero)[0] == pytest.approx(0.3)
    assert per_a.zero_bounds(t)[0]["drift"] == pytest.approx(want, rel=1e-14)
    assert per_a.zero_bounds(t)[0]["drift"] > per.zero_bounds(t)[0]["drift"] + 0.5
    assert L.check_conditions(per_a).e1 < L.check_conditions(per).e1 - 0.5


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
def test_zero_bounds_jump_integrals_match_mark_quadrature_of_value(case):
    # each case's maps made cosines, so that J(t, 0, x) does not vanish
    coef, rate, sampler, m = _jump_cases()[case]
    coef = replace(coef, terms=tuple((p, L.cosine_map(s.scale)) for p, s in coef.terms))
    which = ("small", "large")[case % 2]
    m = replace(m, coefficients=replace(m.coefficients, **{f"{which}_jump": coef}))
    t = np.random.default_rng(7).uniform(-10.0, 10.0, size=6)
    want = _quadrature_sq(coef, t, np.zeros((6, m.dim)), None, rate, sampler, m.galerkin)
    assert np.all(want > 0)
    assert m.zero_bounds(t)[0][f"{which}_jump"] == pytest.approx(math.sqrt(want.max()),
                                                                rel=1e-12, abs=0)


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
    assert L.check_conditions(m).e2 == REGISTRY_TOL


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


def _heat8_coordinate_jumps():
    """heat8 with its jumps declared without ``pointwise``: pointwise_product
    jumps, whose maps act at the nodes all the same."""
    m = _PINNED_MODELS["heat8"]()
    c = m.coefficients
    return replace(m, coefficients=replace(
        c, small_jump=replace(c.small_jump, pointwise=False),
        large_jump=replace(c.large_jump, pointwise=False)))


@pytest.mark.parametrize("name", ["example61", "heat8", "example61_forced", "periodic",
                                  "ou_jump", "heat8_coordinate_jumps"])
def test_check_conditions_tabulates_each_coefficient_once(monkeypatch, name):
    """Profile calls and StateMaps constructions grow with the number of
    terms, not with the checker's time grid."""
    build = _PINNED_MODELS.get(name, _heat8_coordinate_jumps)
    m, counts = build(), {"profiles": 0, "maps": 0}
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
    # each coefficient role once: a jump's intensity integrals and its state
    # part on the subsampled grid read the same table and state maps, on the
    # space of ``on_nodes`` whatever the jump's ``pointwise``
    assert counts["profiles"] == n_terms > 0
    assert counts["maps"] == 4


def _zero_bounds_oracle(model, t_grid):
    """``SdeModel.zero_bounds`` as it read one row at a time: one ``evaluate``
    per time and coefficient, the jump intensity integrals in a loop of their
    own on a table of their own, and the state parts on a third table of the
    subsampled times."""
    t_grid, gal, zero = np.atleast_1d(t_grid), model.galerkin, np.zeros(model.dim)

    def at_zero(coef, times):
        maps = StateMaps((coef,), gal)
        cols, vals = tuple(coef.profile_table(times).T), maps(zero)
        return [coef.evaluate(cols, i, vals, maps.slots[0], gal) for i in range(times.size)]

    def sq_moment(coef, rate, sampler):
        if rate == 0.0:
            return np.zeros(t_grid.shape)
        maps = StateMaps((coef,), gal)
        cols, vals = tuple(coef.profile_table(t_grid).T), maps(zero)

        def sq(i, factor=None):
            v = coef.evaluate(cols, i, vals, maps.slots[0], gal, factor)
            return float(np.sum(np.square(v)))

        if coef.mark_mode != "pointwise_product":
            factor = 1.0 if coef.mark_mode == "ignore" else sampler.abs_moment(2)
            return np.array([rate * factor * sq(i) for i in range(t_grid.size)])
        nodes, weights = sampler.quadrature()
        acc = np.zeros(t_grid.shape)
        for xn, w in zip(coef.mark_factor(nodes, gal), weights):
            acc += w * np.array([sq(i, xn) for i in range(t_grid.size)])
        return rate * acc

    c, states, a, qh = model.coefficients, {}, model.wiener.drift, np.sqrt(model.wiener.q)
    fs, gs = at_zero(c.drift, t_grid), at_zero(c.diffusion, t_grid)
    bounds = {"drift": max([0.0, *(float(np.linalg.norm(f + g * a)) for f, g in zip(fs, gs))]),
              "diffusion": max([0.0, *(float(np.linalg.norm(qh * g)) for g in gs)])}
    for which in ("small", "large"):
        coef, rate, sampler = model._jump(which)
        bounds[f"{which}_jump"] = max([0.0, *map(math.sqrt, sq_moment(coef, rate, sampler))])
        states[which] = max([float(np.linalg.norm(v))
                             for v in at_zero(coef, t_grid[:: max(1, t_grid.size // 41)])],
                            default=0.0)
    return bounds, states


def _growth_models():
    from test_kernel import every_map_model, mixed_model, plane_model
    heat = L.presets.example62_model(n_modes=4)
    c = heat.coefficients
    models = {name: build() for name, build in _PRESETS.items()}
    models.update({f"example62_{n}": L.presets.example62_model(n_modes=n)
                   for n in (1, 2, 3, 8, 32, 128)})
    models.update(
        example61_forced_1=L.presets.example61_model(forcing=1.0),
        every_map=every_map_model(), mixed=mixed_model(), plane=plane_model(),
        plane_empty=plane_model(empty_large=True),
        periodic_drift_a=replace(L.presets.periodic_model(),
                                 wiener=L.WienerSpec((1.0,), drift_a=(2.0,))),
        # empty pointwise sums, and a vector-mark jump declared without
        # pointwise: its intensity integrals and its state part read node maps
        heat_empty=replace(heat, coefficients=replace(
            c, drift=L.coefficient(pointwise=True),
            small_jump=L.jump_coefficient(mark_mode="pointwise_product", pointwise=True),
            large_jump=replace(c.large_jump, pointwise=False))))
    return models


def test_zero_bounds_match_the_per_row_oracle_bit_for_bit():
    def hexed(result):
        return [{k: float.hex(float(v)) for k, v in d.items()} for d in result]

    for name, m in _growth_models().items():
        for n in (401, 21, 1):
            t = np.linspace(-40.0, 40.0, n)
            assert hexed(m.zero_bounds(t)) == hexed(_zero_bounds_oracle(m, t)), (name, n)


@pytest.mark.xfail(strict=True, reason="a grid maximum under-states the sup over the line; "
                                       "ROADMAP item 19 bounds it from the registry")
@pytest.mark.parametrize("profile, A0", [
    (L.periodic_profile(1.0, 5.0 * np.pi), 0.5),   # zero at every grid time
    (L.clipped_ramp_profile(60.0, 1.0 / 60.0), 0.8)],   # its sup 1 only where |t| >= 60
    ids=["zero_on_the_grid", "sup_beyond_the_grid"])
def test_growth_check_fails_a_forcing_above_A0(profile, A0):
    m = L.presets.linear_decay_model()
    m = replace(m, coefficients=replace(m.coefficients, A0=A0,
                                        drift=L.coefficient((profile, L.ones_map(1.0)))))
    assert not L.check_conditions(m).e1 > 0


def test_one_mode_heat_model_takes_its_squeezed_marks():
    # one-mode finite-rank marks are scalars; the checker's quadrature and
    # value() with the sampler's mean ended in numpy's matmul ValueError
    m = L.presets.example62_model(n_modes=1)
    assert L.check_conditions(m).all_passed
    c, gal, sampler = m.coefficients.small_jump, m.galerkin, m.jumps.small_sampler
    y = np.array([[0.3], [-0.2]])
    marks = sampler.sample(np.random.default_rng(0), 2)   # one scalar per state
    want = np.stack([c.value(0.0, y[k], marks[k:k + 1], gal) for k in range(2)])
    assert np.array_equal(c.value(0.0, y, marks, gal), want)
    assert np.array_equal(c.value(0.0, y[0], sampler.mean(), gal),
                          c.value(0.0, y[0], [sampler.mean()], gal))


@pytest.mark.parametrize("make, name", [
    (lambda m: replace(m.coefficients, A0=np.nan), "A0"),
    (lambda m: replace(m.coefficients, A0=-1.0), "A0"),
    (lambda m: replace(m.coefficients, lipschitz_L=np.nan), "lipschitz_L"),
    (lambda m: replace(m.coefficients, lipschitz_L=np.inf), "lipschitz_L"),
    (lambda m: replace(m.coefficients, moment_p=np.nan), "moment_p"),
    (lambda m: replace(m.coefficients, moment_p=2.0), "moment_p")])
def test_nan_and_invalid_constants_are_rejected(make, name):
    # each comparison is false for NaN, so a `< 0` test let NaN through
    m = L.presets.example61_model()
    with pytest.raises(InputError, match=name):
        make(m)
