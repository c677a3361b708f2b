"""Acceptance suite: the headline criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; the oracles
(stationary moments from the generator, the one-sided convolution, the
point-mass law distance) are stated and verified inside the tests that
use them.
"""

import math

import numpy as np
import pytest

import levylab as L
from levylab.ensemble import simulate_ensemble


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _bisect_root(f, lo, hi, iters=80):
    """Root of a decreasing function bracketed by f(lo) > 0 > f(hi)."""
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- 1. constant reproduction ---------------------------------------------------

def test_criterion_1_constant_reproduction():
    ok = L.compute_cp(2.0) == 1.0
    d2, alpha2 = L.compute_dp(2.0)
    ok = ok and d2 == 2.0 and alpha2 == 1.0
    rel_errs = []
    for K, w, Lc, b in [(1.0, 4.0, 0.25, 1.0), (1.5, 2.0, 0.1, 0.3),
                        (1.0, math.pi**2, 0.4, 0.5)]:
        want = 4.0 * K**2 * Lc**2 / w**2 * (1.0 + 10.0 * w + 2.0 * b)
        got = L.compute_theta(2.0 + 1e-6, K, w, Lc, b)
        rel_errs.append(abs(got - want) / want)
    ok = ok and max(rel_errs) < 1e-3
    _verdict("criterion 1: c_2 = 1, d_2 = 2, theta limit at p -> 2+", ok,
             f"max rel err {max(rel_errs):.2e}")


# -- 2. threshold reproduction ----------------------------------------------------

def test_criterion_2_threshold_reproduction():
    def l11_slack(b):
        rep = L.check_conditions(L.presets.example61_model(b=b, A0=1.0))
        return rep.cond_L11

    def lmin_slack(b):
        rep = L.check_conditions(L.presets.example61_model(b=b, A0=1.0))
        return rep.cond_lmin

    def moment_slack(rate):
        rep = L.check_conditions(L.presets.example61_model(small_rate=rate))
        return rep.e2

    b_l11 = _bisect_root(l11_slack, 1.0, 20.0)
    b_lmin = _bisect_root(lmin_slack, 1.0, 30.0)
    nu_gate = _bisect_root(moment_slack, 1.0, 2.0)
    e1 = abs(b_l11 - 15.0 / 2.0)
    e2 = abs(b_lmin - 171.0 / 10.0)
    e3 = abs(nu_gate - 25.0 / 16.0)
    ok = e1 < 1e-10 and e2 < 1e-10 and e3 < 1e-10
    _verdict("criterion 2: checker boundaries b = 15/2, 171/10 and the "
             "small-measure gate 25/16", ok,
             f"errors {e1:.1e}, {e2:.1e}, {e3:.1e}")


# -- 3. integrator oracle ----------------------------------------------------------

def test_criterion_3_ou_with_jumps_oracle():
    # dY = -lam Y dt + sigma dW + dJ, J compound Poisson(rate b) with marks
    # uniform on [1, 2).  Generator gives the stationary moments:
    #   mean  : lam m1 = b mu_J            -> m1 = b mu_J / lam
    #   second: 2 lam m2 = sigma^2 q + b (2 m1 mu_J + m2_J)
    lam, sigma, b_rate = 1.0, 1.0, 1.0
    mu_j, m2_j = 1.5, 7.0 / 3.0          # uniform [1,2): mean, second moment
    mean_star = b_rate * mu_j / lam
    m2_star = (sigma**2 * 1.0 + b_rate * (2 * mean_star * mu_j + m2_j)) / (2 * lam)

    m = L.presets.ou_jump_model(decay=lam, sigma=sigma, jump_rate=b_rate)
    obs = np.linspace(10.0, 20.0, 21)     # tail of horizon 20
    res = simulate_ensemble(m, (0.0, 20.0), mean_star, 10_000, 0.005, 17, obs)
    x = res.states[:, :, 0]
    per_path_mean = x.mean(axis=0)        # average over time first: paths iid
    per_path_m2 = (x**2).mean(axis=0)
    n = x.shape[1]
    z_mean = abs(per_path_mean.mean() - mean_star) / (per_path_mean.std(ddof=1) / math.sqrt(n))
    z_m2 = abs(per_path_m2.mean() - m2_star) / (per_path_m2.std(ddof=1) / math.sqrt(n))
    ok = z_mean < 5.0 and z_m2 < 5.0
    _verdict("criterion 3: jump-diffusion stationary moments vs generator "
             "closed form", ok, f"z-scores {z_mean:.2f}, {z_m2:.2f}")


# -- 4. pullback correctness --------------------------------------------------------

def test_criterion_4_pullback_convolution_and_boundedness():
    # oracle: integral_{-inf}^t e^{-lam(t-s)} sin s ds = (lam sin t - cos t)/(lam^2+1),
    # verified by differentiation before use
    lam = 10.0
    conv = lambda t: (lam * np.sin(t) - np.cos(t)) / (lam**2 + 1.0)
    h = 1e-6
    tt = np.linspace(0.2, 12.0, 23)
    defect = np.max(np.abs((conv(tt + h) - conv(tt - h)) / (2 * h)
                           - (-lam * conv(tt) + np.sin(tt))))
    assert defect < 1e-7, "oracle failed its own differentiation check"

    m = L.presets.forced_linear_model(decay=lam)
    path = L.bounded_solution(m, (0.0, 4 * np.pi), tol=1e-5, seed=1, max_step=1e-3)
    sup_err = float(np.max(np.abs(path.values[:, 0] - conv(path.times))))
    ok_conv = sup_err < 1e-4

    # boundedness of the scalar example's bounded solution (literal model and
    # the forced variant): second moment within r^2 + 3 SE on the whole grid
    ok_ball = True
    for forcing in (0.0, 1.0):
        m61 = L.presets.example61_model(b=1.0, forcing=forcing)
        plan = L.pullback_plan(m61, 0.05)
        obs = np.linspace(0.0, 6.0, 13)
        res = L.bounded_ensemble(m61, (0.0, 6.0), 0.05, 500, 23, obs,
                                 max_step=0.005)
        msq, se = res.mean_sq_norm()
        ok_ball = ok_ball and bool(np.all(msq <= plan.radius**2 + 3 * se))
    ok = ok_conv and ok_ball
    _verdict("criterion 4: pullback matches the explicit convolution and "
             "stays in the invariant ball", ok,
             f"sup err {sup_err:.2e}, ball ok {ok_ball}")


# -- 5. stability bound ---------------------------------------------------------------

def test_criterion_5_stability_bound():
    m = L.presets.example61_model(b=1.0)
    margin = L.stability_margin(1.0, 4.0, 0.25, 1.0)
    curve = L.gap_experiment(m, 1.0, 3.0, horizon=10.0, n_paths=1000, seed=31,
                             max_step=0.005)
    bound = 5.0 * curve.gap[0] * np.exp(-margin * curve.times)
    ok_bound = bool(np.all(curve.gap <= bound + 3.0 * curve.se))
    rate, _ = L.fit_decay_rate(curve)
    se_rate = L.fit_rate_stderr(curve)
    ok_rate = rate >= margin - 2.0 * se_rate
    ok = ok_bound and ok_rate
    _verdict("criterion 5: same-noise gap under 5 gap(0) exp(-margin t) and "
             "fitted rate above the margin", ok,
             f"rate {rate:.2f} vs margin {margin:.4f}")


# -- 6. distributional periodicity ------------------------------------------------------

def test_criterion_6_distributional_periodicity():
    m = L.presets.periodic_model()
    t_grid = np.linspace(0.0, 2 * np.pi, 5)
    rep = L.distributional_almost_period_test(m, 2 * np.pi, t_grid,
                                              n_paths=2000, seed=41,
                                              n_boot=30, max_step=0.005)
    ok_equal = rep.passed
    rep_pi = L.distributional_almost_period_test(m, np.pi, t_grid,
                                                 n_paths=2000, seed=41,
                                                 n_boot=30, max_step=0.005)
    ok_power = rep_pi.positive
    ok = ok_equal and ok_power
    _verdict("criterion 6: law at t + 2 pi matches law at t; tau = pi control "
             "is statistically positive", ok,
             f"max beta {rep.max_beta:.4f} vs err {rep.err.max():.4f}; "
             f"power beta {rep_pi.max_beta:.3f}")


# -- 7. shift-coupling compatibility ------------------------------------------------------

def test_criterion_7_shift_coupling_bound():
    profs = [p for p, _ in L.presets.example61_model().coefficients.drift.terms]
    scan = L.almost_periods(profs, epsilon=0.05, scan_window=200.0,
                            tau_step=0.05, sup_horizon=30.0)
    nontrivial = [t for t in scan.taus if t > 1.0]
    assert nontrivial, "no accepted almost period found in the scan window"
    tau = max(nontrivial)

    ok = True
    detail = []
    for forcing in (0.0, 1.0):
        m = L.presets.example61_model(b=1.0, forcing=forcing)
        res = L.shift_coupling_gap(m, tau, (0.0, 10.0), n_paths=400, seed=53,
                                   tol=0.05, max_step=0.005, n_obs=21)
        ok = ok and res.measured_sup_gap <= res.theoretical_bound + 3 * res.se_at_sup
        detail.append(f"{res.measured_sup_gap:.2e} <= {res.theoretical_bound:.2e}")
    _verdict("criterion 7: same-noise shifted-coefficient gap below its "
             "explicit bound", ok, f"tau {tau:.2f}; " + "; ".join(detail))


# -- 8. metric suites ------------------------------------------------------------------

def test_criterion_8_metric_suites():
    rng = np.random.default_rng(8)
    ok = True
    # compact-open path metric on 100 random harmonic triples
    for _ in range(100):
        profs = [L.harmonic_profile(rng.uniform(0.1, 0.5, 2),
                                    rng.uniform(0.5, 2.0, 2),
                                    rng.uniform(0, 2 * np.pi, 2))
                 for _ in range(3)]
        lip = max(p.lipschitz_t() for p in profs)
        tol = 2 * 0.01 * lip + 1e-9
        d01 = L.bebutov_distance(profs[0], profs[1])
        d10 = L.bebutov_distance(profs[1], profs[0])
        d12 = L.bebutov_distance(profs[1], profs[2])
        d02 = L.bebutov_distance(profs[0], profs[2])
        ok = ok and d01 == d10 and d02 <= d01 + d12 + tol and d01 >= 0
    # law metric on 100 random triples (exact transport peel: tolerance 1e-8)
    for _ in range(100):
        laws = [L.EmpiricalLaw(rng.normal(rng.uniform(-2, 2),
                                          rng.uniform(0.5, 2), size=12))
                for _ in range(3)]
        d01 = L.bl_distance(laws[0], laws[1])
        d12 = L.bl_distance(laws[1], laws[2])
        d02 = L.bl_distance(laws[0], laws[2])
        ok = ok and abs(d01 - L.bl_distance(laws[1], laws[0])) < 1e-10
        ok = ok and d02 <= d01 + d12 + 1e-8
    # point-mass law distance against the closed form 2a/(2+a)
    worst = 0.0
    for a in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        got = L.bl_distance(L.EmpiricalLaw(np.array([0.0])),
                            L.EmpiricalLaw(np.array([float(a)])))
        worst = max(worst, abs(got - 2 * a / (2 + a)))
    ok = ok and worst < 1e-8
    _verdict("criterion 8: metric axioms for both metrics; point-mass law "
             "distance exact", ok, f"point-mass err {worst:.1e}")


# -- 9. heat-equation spectrum -------------------------------------------------------------

def test_criterion_9_heat_spectrum():
    p = 2.05
    m = L.presets.example62_model(n_modes=8, b=0.5, small_rate=1.0,
                                  q_base=0.09, moment_p=p)
    ok_omega = m.omega == pytest.approx(np.pi**2, rel=1e-15)

    m1 = L.presets.example62_model(n_modes=1, b=0.0, small_rate=0.0,
                                   q_base=0.0, drift_scale=0.0)
    path = L.integrate(m1, (0.0, 1.0), [1.0], 1e-4, 0)
    rel = abs(path.values[-1, 0] - np.exp(-np.pi**2)) / np.exp(-np.pi**2)
    ok_decay = rel < 1e-6

    hand = max(2.0 / 5.0, math.sqrt(0.09), 1.0 ** (1 / p) / 3.0,
               0.5 ** (1 / p) / 3.0)
    ok_gate = m.coefficients.lipschitz_L == pytest.approx(hand, rel=1e-14)
    ok_cond = L.check_conditions(m).all_passed
    ok = ok_omega and ok_decay and ok_gate and ok_cond
    _verdict("criterion 9: spectral heat build reports omega = pi^2, exact "
             "single-mode decay, gate formula matches", ok,
             f"decay rel err {rel:.1e}, gate {hand:.4f}")
