"""Path metric, almost-period scanning, law metric, and the experiments."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab.errors import InputError
from levylab import recurrence
from levylab.recurrence import _bl_peel, _stratified_subsample, distributional_report


# -- compact-open path metric -------------------------------------------------

def test_bebutov_identity():
    p = L.periodic_profile(1.0, 1.0)
    assert L.bebutov_distance(p, p) == 0.0


def test_bebutov_exact_period_shift():
    p = L.periodic_profile(1.0, 1.0)
    assert L.bebutov_distance(p, p.shifted(2 * np.pi)) < 1e-12


def test_bebutov_constants():
    # sup_k min(0.3, 1/k) = 0.3: the fixed point of the defining equation
    d = L.bebutov_distance(L.constant_profile(0.0), L.constant_profile(0.3))
    assert d == pytest.approx(0.3, abs=1e-10)


def test_bebutov_needs_horizon_for_tiny_distances():
    with pytest.raises(InputError, match="widen the horizon"):
        L.bebutov_distance(L.constant_profile(0.0), L.constant_profile(1e-3),
                           horizon=50.0)
    d = L.bebutov_distance(L.constant_profile(0.0), L.constant_profile(1e-3),
                           horizon=2000.0)
    assert d == pytest.approx(1e-3, abs=1e-9)


def test_bebutov_metric_axioms_on_random_profiles():
    rng = np.random.default_rng(0)
    for _ in range(25):
        profs = []
        for _ in range(3):
            amps = rng.uniform(0.1, 0.5, size=2)
            freqs = rng.uniform(0.5, 2.0, size=2)
            phases = rng.uniform(0, 2 * np.pi, size=2)
            profs.append(L.harmonic_profile(amps, freqs, phases))
        lip = max(p.lipschitz_t() for p in profs)
        grid_step = 0.01
        tol = 2 * grid_step * lip + 1e-9
        dab = L.bebutov_distance(profs[0], profs[1], grid_step=grid_step)
        dba = L.bebutov_distance(profs[1], profs[0], grid_step=grid_step)
        dbc = L.bebutov_distance(profs[1], profs[2], grid_step=grid_step)
        dac = L.bebutov_distance(profs[0], profs[2], grid_step=grid_step)
        assert dab == dba
        assert dac <= dab + dbc + tol


# -- almost periods -------------------------------------------------------------

def test_periodic_profile_accepts_exactly_grid_multiples():
    # tau grid commensurate with the period: accepted set = multiples of 2 pi
    p = L.periodic_profile(1.0, 1.0)
    rep = L.almost_periods(p, epsilon=0.1, scan_window=8 * np.pi,
                           tau_step=np.pi / 8, sup_horizon=20.0)
    want = [2 * np.pi * k for k in range(5)]
    assert np.allclose(rep.taus, want, atol=1e-12)
    assert all(d < 1e-10 for d in rep.distances)
    assert rep.max_gap == pytest.approx(2 * np.pi)
    assert rep.verdict


def test_quasi_periodic_sum_has_almost_periods():
    # sin t + sin(sqrt 2 t), eps = 0.1, window 200: nonempty with finite gap
    p = L.harmonic_profile((1.0, 1.0), (1.0, np.sqrt(2.0)))
    rep = L.almost_periods(p, epsilon=0.1, scan_window=200.0, tau_step=0.05,
                           sup_horizon=30.0)
    nontrivial = [t for t in rep.taus if t > 1.0]
    assert nontrivial, "expected genuine almost periods in the scan window"
    assert rep.max_gap < rep.scan_window
    assert rep.verdict


def test_acceptance_set_monotone_in_epsilon():
    p = L.harmonic_profile((0.5, 0.5), (1.0, np.sqrt(2.0)))
    r1 = L.almost_periods(p, 0.05, 100.0, 0.1, 20.0)
    r2 = L.almost_periods(p, 0.10, 100.0, 0.1, 20.0)
    assert set(r1.taus) <= set(r2.taus)


def test_ramp_has_no_nontrivial_almost_periods():
    ramp = L.clipped_ramp_profile(bound=50.0)
    rep = L.almost_periods(ramp, epsilon=0.04, scan_window=20.0, tau_step=0.05,
                           sup_horizon=10.0)
    assert max(rep.taus) <= 0.05
    assert not rep.verdict


@pytest.mark.parametrize("epsilon, tau_step, name", [
    (np.nan, 0.1, "epsilon"), (0.0, 0.1, "epsilon"), (0.1, 0.0, "tau_step"),
    (0.1, -0.5, "tau_step"), (0.1, np.nan, "tau_step"), (0.1, np.inf, "tau_step")])
def test_almost_periods_rejects_bad_scan(epsilon, tau_step, name):
    # a NaN epsilon returned an empty report, tau_step <= 0 a ZeroDivisionError
    with pytest.raises(InputError, match=name):
        L.almost_periods(L.periodic_profile(1.0, 1.0), epsilon, 10.0, tau_step, 5.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"scan_window": np.nan}, "scan_window"), ({"scan_window": np.inf}, "scan_window"),
    ({"scan_window": -5.0}, "scan_window"), ({"scan_window": 0.0}, "scan_window"),
    ({"sup_horizon": np.nan}, "sup_horizon"), ({"sup_horizon": np.inf}, "sup_horizon"),
    ({"sup_horizon": -1.0}, "sup_horizon")])
def test_almost_periods_rejects_bad_windows(kwargs, name):
    # NaN or inf ended in a bare ValueError or OverflowError, sup_horizon = -1 in
    # numpy's broadcast error, and scan_window = -5 gave a report with max_gap -5
    scan = {"epsilon": 0.1, "scan_window": 10.0, "tau_step": 0.1, "sup_horizon": 5.0}
    with pytest.raises(InputError, match=name):
        L.almost_periods(L.periodic_profile(1.0, 1.0), **{**scan, **kwargs})


@pytest.mark.parametrize("kwargs, name", [({"horizon": 0.0}, "horizon"),
                                          ({"horizon": np.nan}, "horizon"),
                                          ({"grid_step": 0.0}, "grid_step"),
                                          ({"grid_step": -0.01}, "grid_step"),
                                          ({"psi": lambda t: np.log(t)}, "phi - psi"),
                                          ({"psi": lambda t: 1.0 / t}, "phi - psi")])
def test_bebutov_rejects_bad_grid(kwargs, name):
    # horizon = 0 ended in a ZeroDivisionError, a NaN difference in a bare ValueError
    pair = {"phi": L.constant_profile(0.0), "psi": L.constant_profile(0.3)}
    with np.errstate(all="ignore"), pytest.raises(InputError, match=name):
        L.bebutov_distance(**{**pair, **kwargs})


def test_every_accepted_tau_is_below_epsilon():
    profs = [p for p, _ in L.presets.example61_model().coefficients.drift.terms]
    rep = L.almost_periods(profs, epsilon=0.05, scan_window=120.0,
                           tau_step=0.05, sup_horizon=25.0)
    assert all(d < 0.05 for d in rep.distances)


def _scan_oracle(profs, epsilon, scan_window, tau_step, sup_horizon, t_step):
    """The accepted shifts and their distances from one full-window max per
    shift, on the scan grid of step ``t_step``."""
    m = int(round(tau_step / t_step))
    n_half, n_tau = int(round(sup_horizon / t_step)), int(round(scan_window / tau_step))
    t = np.arange(-n_half, n_half + 1 + n_tau * m) * t_step
    vals = np.stack([np.asarray(p(t), dtype=float) for p in profs])
    base = vals[:, : 2 * n_half + 1]
    taus, dists = [], []
    for j in range(n_tau + 1):
        d = float(np.max(np.abs(vals[:, j * m: j * m + 2 * n_half + 1] - base)))
        if d < epsilon:
            taus.append(j * tau_step)
            dists.append(d)
    return tuple(taus), tuple(dists)


def _nan_after_three(t):
    return np.where(t > 3.0, np.nan, np.sin(t))


def _nan_off_the_subgrid(t):   # at one grid point that no sub-grid of the scan below holds
    return np.where(np.abs(t - 0.55) < 1e-9, np.nan, np.sin(t))


@pytest.mark.parametrize("profs, scan", [
    ([p for p, _ in L.presets.periodic_model().coefficients.drift.terms],
     (0.05, 50.0, 0.05, 30.0, None)),
    ([p for p, _ in L.presets.example61_model(forcing=1.0).coefficients.drift.terms],
     (0.05, 120.0, 0.05, 25.0, None)),                        # joint almost periods
    ([L.clipped_ramp_profile(bound=50.0)], (0.04, 20.0, 0.05, 10.0, None)),
    ([L.periodic_profile(1.0, 1.0)], (0.1, 20.0, 0.5, 0.2, 0.01)),   # window < stride
    ([L.periodic_profile(1.0, 1.0)], (0.1, 20.0, 0.4, 5.0, 0.1)),    # 4 points a shift
    ([L.periodic_profile(1.0, 1.0)], (0.1, 0.01, 0.05, 5.0, None)),  # n_tau = 0
    ([_nan_after_three], (0.5, 20.0, 0.1, 1.0, 0.01)),
    ([_nan_off_the_subgrid], (0.5, 20.0, 0.1, 1.0, 0.01))],
    ids=["periodic", "example61", "ramp", "short_window", "coarse", "no_shift", "nan",
         "nan_off_the_subgrid"])
def test_subgrid_scan_keeps_every_full_window_verdict(profs, scan):
    epsilon, scan_window, tau_step, sup_horizon, t_step = scan
    rep = L.almost_periods(profs, epsilon, scan_window, tau_step, sup_horizon, t_step)
    want = _scan_oracle(profs, epsilon, scan_window, tau_step, sup_horizon, rep.t_step)
    assert (rep.taus, rep.distances) == want


# -- bounded-Lipschitz metric ----------------------------------------------------

def test_bl_identical_laws():
    x = np.random.default_rng(0).normal(size=40)
    assert L.bl_distance(L.EmpiricalLaw(x), L.EmpiricalLaw(x)) == 0.0


@pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 7.0, 1e-6, 1e3, 1e12])
def test_bl_point_masses_closed_form(a):
    # optimal ramp: f = +-a/(2+a) with slope 2/(2+a) gives 2a/(2+a)
    mu = L.EmpiricalLaw(np.array([0.0]))
    nu = L.EmpiricalLaw(np.array([a]))
    assert L.bl_distance(mu, nu) == pytest.approx(2 * a / (2 + a), abs=1e-8)


def test_bl_bounded_by_two():
    mu = L.EmpiricalLaw(np.array([-1e12]))
    nu = L.EmpiricalLaw(np.array([1e12]))
    assert L.bl_distance(mu, nu) <= 2.0 + 1e-12


def test_bl_metric_axioms_on_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(100):
        laws = [L.EmpiricalLaw(rng.normal(loc=rng.uniform(-2, 2),
                                          scale=rng.uniform(0.5, 2.0), size=15))
                for _ in range(3)]
        dab = L.bl_distance(laws[0], laws[1])
        dbc = L.bl_distance(laws[1], laws[2])
        dac = L.bl_distance(laws[0], laws[2])
        assert abs(dab - L.bl_distance(laws[1], laws[0])) < 1e-10
        assert dac <= dab + dbc + 1e-8
        assert dab >= 0.0


def test_bl_converges_for_growing_samples():
    rng = np.random.default_rng(3)
    ref = L.EmpiricalLaw(rng.normal(size=40_000))
    ds = [L.bl_distance(L.EmpiricalLaw(rng.normal(size=n)), ref)
          for n in (100, 1000, 10_000)]
    assert ds[0] > ds[1] > ds[2]


def test_bl_multidimensional_max_aggregation():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(200, 2))
    b = a.copy()
    b[:, 1] += 1.0   # shift only the second coordinate
    d_joint = L.bl_distance(L.EmpiricalLaw(a), L.EmpiricalLaw(b))
    d_coord = L.bl_distance(L.EmpiricalLaw(a[:, 1]), L.EmpiricalLaw(b[:, 1]))
    assert d_joint == pytest.approx(d_coord, abs=1e-12)


def _bl_lp(x_mu, x_nu):
    """Independent oracle: the bounded-Lipschitz distance as an LP over the
    test-function values f_i on the pooled support.  Maximize
    sum (mu - nu)-weights * f subject to the adjacent Lipschitz constraints
    |f_{i+1} - f_i| <= s (x_{i+1} - x_i) (on a line they imply all
    pairwise ones), |f_i| <= m and s + m <= 1."""
    from scipy import sparse
    from scipy.optimize import linprog

    xs, inv = np.unique(np.concatenate([x_mu, x_nu]), return_inverse=True)
    c = np.zeros(xs.size)
    np.add.at(c, inv, np.concatenate([np.full(x_mu.size, 1.0 / x_mu.size),
                                      np.full(x_nu.size, -1.0 / x_nu.size)]))
    if float(np.max(np.abs(c))) < 1e-15:
        return 0.0
    m = xs.size
    d = np.diff(xs)
    rows, cols, data = [], [], []
    r = 0
    for i in range(m - 1):             # variables: f_0 .. f_{m-1}, s, cap
        rows += [r, r, r, r + 1, r + 1, r + 1]
        cols += [i + 1, i, m, i, i + 1, m]
        data += [1.0, -1.0, -d[i], 1.0, -1.0, -d[i]]
        r += 2
    for i in range(m):
        rows += [r, r, r + 1, r + 1]
        cols += [i, m + 1, i, m + 1]
        data += [1.0, -1.0, -1.0, -1.0]
        r += 2
    rows += [r, r]
    cols += [m, m + 1]
    data += [1.0, 1.0]
    a_ub = sparse.coo_matrix((data, (rows, cols)), shape=(r + 1, m + 2)).tocsr()
    b_ub = np.zeros(r + 1)
    b_ub[-1] = 1.0                     # the norm budget s + cap <= 1
    res = linprog(np.concatenate([-c, [0.0, 0.0]]), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * m + [(0.0, 1.0), (0.0, 1.0)], method="highs")
    assert res.success, res.message
    return float(-res.fun)


def _bl_pairs():
    """Seeded 1-D pairs of every shape the transport peel has to handle."""
    rng = np.random.default_rng(2024)
    for k in range(320):
        n_mu, n_nu = (int(n) for n in rng.integers(1, 80, size=2))
        kind = k % 8
        if kind == 0:                  # unequal sizes, shifted and rescaled
            yield rng.normal(size=n_mu), rng.normal(rng.uniform(-2, 2),
                                                    rng.uniform(0.3, 3), n_nu)
        elif kind == 1:                # rounded samples: ties within and across
            dec = int(rng.integers(1, 4))
            yield (np.round(rng.normal(size=n_mu), dec),
                   np.round(rng.normal(rng.uniform(-1, 1), size=n_nu), dec))
        elif kind == 2:                # pooled resamples, as in bl_two_sample
            pooled = np.concatenate([rng.normal(size=n_mu), rng.normal(0.5, size=n_nu)])
            yield (pooled[rng.integers(0, pooled.size, n_mu)],
                   pooled[rng.integers(0, pooled.size, n_nu)])
        elif kind == 3:                # shared atoms across the two laws
            atoms = rng.normal(size=int(rng.integers(2, 8)))
            yield rng.choice(atoms, n_mu), rng.choice(atoms, n_nu)
        elif kind == 4:                # a single atom on one side (both: kind 7)
            one = rng.normal(size=1)
            yield (one, rng.normal(size=n_nu)) if k % 16 == 4 else \
                (rng.normal(size=n_mu), rng.normal(size=1))
        elif kind == 5:                # disjoint supports, far apart
            yield rng.uniform(0, 1, n_mu), rng.uniform(0, 1, n_nu) + rng.uniform(1.5, 50)
        elif kind == 6:                # skewed; every tenth one is thinned to 400 + 400
            if k % 80 == 6:
                yield rng.normal(size=900), rng.normal(rng.uniform(0, 0.5), size=700)
            else:
                yield rng.exponential(size=n_mu), rng.exponential(size=n_nu)
        else:                          # point masses
            yield np.array([0.0]), np.array([rng.uniform(0.01, 100.0)])


def test_bl_matches_lp_oracle_on_random_pairs():
    for a, b in _bl_pairs():
        got = L.bl_distance(L.EmpiricalLaw(a), L.EmpiricalLaw(b))
        want = _bl_lp(_stratified_subsample(a), _stratified_subsample(b))
        assert abs(got - want) <= 1e-12, (a.size, b.size, got, want)


def _bl_distance_1d(x_mu, x_nu):
    """Oracle: the transport peel of one pair of 1-D laws, as the package ran
    it before it peeled many pairs at once.  Every row of the batch must give
    this function's bits."""
    xs, inv = np.unique(np.concatenate([x_mu, x_nu]), return_inverse=True)
    net = np.zeros(xs.size, dtype=np.int64)
    np.add.at(net, inv[:x_mu.size], x_nu.size)
    np.add.at(net, inv[x_mu.size:], -x_mu.size)
    if not net.any():
        return 0.0
    d = np.diff(xs)
    k_max = k = int(net[net > 0].sum())
    best = 0.0
    while k:
        flow = np.cumsum(net)[:-1]        # mass crossing each edge rightwards
        step = (-np.inf,)
        for sgn in (1, -1):               # mu-atom left of a nu-atom, then right
            prefix = np.concatenate([[0.0], np.cumsum(np.where(sgn * flow > 0, d, -d))])
            src, dst = (net > 0, net < 0) if sgn == 1 else (net < 0, net > 0)
            left = np.where(src, -prefix, -np.inf)
            total = np.where(dst, prefix + np.maximum.accumulate(left), -np.inf)
            hi = int(np.argmax(total))
            if total[hi] > step[0]:
                step = (total[hi], sgn, int(np.argmax(left[:hi])), hi)
        slope, sgn, lo, hi = step
        ratio = 2.0 * ((k_max - k) * slope + float(d @ np.abs(flow))) / (slope + 2.0)
        if ratio < best * (1.0 - 1e-9):   # equal slopes may differ by rounding
            break
        best = max(best, ratio)
        path = sgn * flow[lo:hi]          # the move shrinks the positive ones
        moved = min(abs(int(net[lo])), abs(int(net[hi])), int(path[path > 0].min(initial=k)))
        net[lo] -= sgn * moved
        net[hi] += sgn * moved
        k -= moved
    return best / (x_mu.size * x_nu.size)


def _bl_oracle(a, b):
    """bl_distance through the one-pair peel: each coordinate thinned to the
    quantiles at MAX_SUPPORT mid-levels, the max taken in coordinate order."""
    def thin(x):
        if x.size <= recurrence.MAX_SUPPORT:
            return np.sort(x)
        levels = (np.arange(recurrence.MAX_SUPPORT) + 0.5) / recurrence.MAX_SUPPORT
        return np.quantile(x, levels, method="linear")

    a, b = np.atleast_2d(a.T).T, np.atleast_2d(b.T).T
    best = 0.0
    for k in range(a.shape[1]):
        best = max(best, _bl_distance_1d(thin(a[:, k]), thin(b[:, k])))
    return best


def _bl_batch_pairs():
    """The LP pairs plus the shapes a batch of the peel has to keep apart."""
    yield from _bl_pairs()
    rng = np.random.default_rng(77)
    x = rng.normal(size=150)
    yield x, x.copy()                                             # identical laws
    yield np.round(rng.normal(size=120), 1), np.round(rng.normal(0.2, size=90), 1)   # ties
    yield np.array([0.3]), rng.normal(size=60)                    # a one-point law
    yield rng.normal(size=37), rng.normal(size=211)               # unequal sizes
    yield rng.normal(size=200), rng.normal(3.0, size=200)         # clouds 3 sigma apart
    yield rng.choice([-0.0, 0.0, 1.0], 50), rng.choice([0.0, -0.0, 2.0], 70)   # signed zeros
    yield rng.normal(size=(80, 3)), rng.normal([0.0, 0.5, -1.0], size=(95, 3))  # 3 coordinates
    yield rng.normal(size=(60, 3)), np.round(rng.normal(size=(60, 3)), 1)
    yield rng.normal(size=(500, 2)), rng.normal(0.1, size=(450, 2))   # thinned, 2 coordinates


def test_bl_distance_matches_the_one_pair_peel_bit_for_bit():
    for a, b in _bl_batch_pairs():
        got = L.bl_distance(L.EmpiricalLaw(a), L.EmpiricalLaw(b))
        assert float(got).hex() == float(_bl_oracle(a, b)).hex(), (a.shape, b.shape)


def test_bl_peel_rows_do_not_depend_on_their_batch():
    # resampled rows of one batch, with one row far apart, one of identical
    # laws and one that holds a single value: each row keeps its own bits
    rng = np.random.default_rng(5)
    pooled = rng.normal(size=300)
    x_mu = pooled[rng.integers(0, 300, (30, 120))]
    x_nu = pooled[rng.integers(0, 300, (30, 120))]
    x_nu[3] += 3.0
    x_nu[7] = x_mu[7, ::-1]
    x_mu[11] = x_nu[11] = 0.5
    got = _bl_peel(x_mu, x_nu)
    want = [_bl_distance_1d(np.sort(m), np.sort(n)) for m, n in zip(x_mu, x_nu)]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert got[7] == got[11] == 0.0 and got[3] == max(got)


def test_import_leaves_scipy_optimize_and_sparse_unloaded():
    code = ("import sys, levylab.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(L.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_bl_rejects_empty_and_mismatched():
    with pytest.raises(InputError):
        L.EmpiricalLaw(np.zeros((0, 1)))
    with pytest.raises(InputError):
        L.bl_distance(L.EmpiricalLaw(np.zeros((3, 1))),
                      L.EmpiricalLaw(np.zeros((3, 2))))


# -- distributional experiments ---------------------------------------------------

def test_stationary_model_distribution_is_shift_invariant():
    m = L.presets.stationary_model()
    t_grid = np.linspace(0.0, 2.0, 3)
    rep = L.distributional_almost_period_test(m, 1.7, t_grid, n_paths=300,
                                              seed=2, n_boot=10, max_step=0.01)
    assert rep.passed


def test_periodic_model_distribution_periodic_and_power():
    m = L.presets.periodic_model()
    t_grid = np.linspace(0.0, 2 * np.pi, 4)
    rep = L.distributional_almost_period_test(m, 2 * np.pi, t_grid, n_paths=400,
                                              seed=3, n_boot=10, max_step=0.01)
    assert rep.passed
    rep_pi = L.distributional_almost_period_test(m, np.pi, t_grid, n_paths=400,
                                                 seed=3, n_boot=10, max_step=0.01)
    assert rep_pi.positive and not rep_pi.passed
    # five periods on: the grid and its shift lie more than t_pull apart, so
    # the laws at t and t + tau come from two independent pullbacks
    assert L.pullback_plan(m, 0.02).t_pull < 10 * np.pi - 2 * np.pi
    rep_5 = L.distributional_almost_period_test(m, 10 * np.pi, t_grid, n_paths=400,
                                                seed=3, n_boot=10, max_step=0.01)
    assert rep_5.passed


def test_law_test_is_its_ensemble_then_its_statistic():
    # on a law that is not a point mass, the test is bounded_ensemble on its
    # times followed by distributional_report, bit for bit
    m, tau = L.presets.periodic_model(), np.pi
    t_grid = np.linspace(0.0, 2.0, 3)
    rep = L.distributional_almost_period_test(m, tau, t_grid, n_paths=60, seed=4, tol=0.05,
                                              max_step=0.02, n_boot=5)
    res = L.bounded_ensemble(m, (0.0, 2.0 + tau), 0.05, 60, 4,
                             np.concatenate([t_grid, t_grid + tau]), 0.02)
    again = distributional_report(res, tau, t_grid, 4, 5)
    assert np.all(rep.beta > 0.0)
    for field in ("times", "beta", "err"):
        assert np.array_equal(getattr(rep, field), getattr(again, field))
    assert (rep.max_beta, rep.passed, rep.positive) == (again.max_beta, again.passed,
                                                        again.positive)


@pytest.mark.parametrize("tau, t_grid, name", [
    (np.nan, [0.0, 1.0], "tau"), (np.inf, [0.0, 1.0], "tau"), (-np.inf, [0.0, 1.0], "tau"),
    (-1.0, [0.0, 1.0], "tau"), (1.0, [], "t_grid"), (1.0, [0.0, np.nan], "t_grid")])
def test_law_test_rejects_bad_input(tau, t_grid, name):
    # a NaN tau was blamed on the observation times, a negative one on the
    # window, and an empty grid ended in an IndexError
    with pytest.raises(InputError, match=name):
        L.distributional_almost_period_test(L.presets.periodic_model(), tau, t_grid,
                                            n_paths=4, seed=0)


@pytest.mark.parametrize("n_boot", [0, -3, 2.0, True])
def test_bl_two_sample_needs_resamples(n_boot):
    # n_boot = 0 ended in a ZeroDivisionError
    with pytest.raises(InputError, match="n_boot"):
        L.bl_two_sample(np.zeros(5), np.ones(5), n_boot=n_boot)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run", [
    lambda m, tau: L.coefficient_shift_bounds(m, tau, radius=1.0),
    lambda m, tau: L.shift_coupling_gap(m, tau, (0.0, 1.0), n_paths=4, seed=0)],
    ids=["shift_bounds", "shift_coupling_gap"])
def test_non_finite_shift_is_rejected(run, tau):
    # a NaN tau gave shift bounds i1 = nan beside finite i2, i4, and a
    # coupling "blowup" naming path 0
    with pytest.raises(InputError, match="tau"):
        run(L.presets.example61_model(), tau)


@pytest.mark.parametrize("build", [
    L.presets.example61_model, lambda: L.presets.example62_model(n_modes=4),
    L.presets.periodic_model, L.presets.stationary_model, L.presets.ou_jump_model,
    L.presets.linear_decay_model, L.presets.forced_linear_model],
    ids=["example61", "example62-4", "periodic", "stationary", "ou_jump", "linear_decay",
         "forced_linear"])
def test_shift_bounds_are_floats(build):
    # a coefficient without terms summed to the int 0, so i1 was 0 for ou_jump
    bounds = L.coefficient_shift_bounds(build(), 0.7, radius=1.0)
    assert [type(v) for v in bounds.values()] == [float] * 4


@pytest.mark.parametrize("state_map, y_star", [
    (L.cosine_map(1.0), 0.0), (L.sine_map(1.0), np.pi / 2)], ids=["cosine", "sine"])
def test_shift_bounds_bound_a_coordinate_map_of_a_galerkin_model_by_its_own_norm(
        state_map, y_star):
    # a map on coordinates is 1 on each of the 4 coordinates at y_star (a state
    # of norm at most pi), where the bound once took the Galerkin quadrature
    # norm 0.943 of the constant one at the nodes in place of sqrt(dim) = 2
    m = L.presets.example62_model(n_modes=4)
    prof, tau, radius = L.periodic_profile(1.0, 1.0), 0.7, np.pi
    m = replace(m, coefficients=replace(m.coefficients,
                                        drift=L.coefficient((prof, state_map))))
    bound = math.sqrt(L.coefficient_shift_bounds(m, tau, radius)["i1"])
    t = np.linspace(-60.0, 60.0, 24001)
    assert bound >= math.sqrt(m.dim) * np.max(np.abs(prof(t + tau) - prof(t)))
    y = np.full((t.size, m.dim), y_star)
    drift = m.coefficients.drift
    gap = drift.value(t + tau, y, m.galerkin) - drift.value(t, y, m.galerkin)
    assert bound >= np.max(np.linalg.norm(gap, axis=1))


def test_shift_coupling_zero_shift():
    m = L.presets.example61_model(forcing=1.0)
    res = L.shift_coupling_gap(m, 0.0, (0.0, 4.0), n_paths=64, seed=5,
                               tol=0.05, max_step=0.01, n_obs=9)
    assert res.measured_sup_gap == 0.0
    assert res.theoretical_bound == 0.0


def test_shift_coupling_exact_period_of_periodic_model():
    m = L.presets.periodic_model()
    # the shift keeps the jump coefficient's type and mark mode
    shifted = m.shifted(2 * np.pi).coefficients.large_jump
    assert isinstance(shifted, L.JumpCoefficient)
    assert shifted.mark_mode == m.coefficients.large_jump.mark_mode == "scalar"
    res = L.shift_coupling_gap(m, 2 * np.pi, (0.0, 4.0), n_paths=128, seed=6,
                               tol=0.05, max_step=0.01, n_obs=9)
    # the coefficient shift is an exact identity: only discretization + MC noise
    assert res.theoretical_bound < 1e-20
    assert res.measured_sup_gap < 1e-4


def test_shift_coupling_gap_below_bound_at_almost_period():
    profs = [p for p, _ in L.presets.example61_model().coefficients.drift.terms]
    scan = L.almost_periods(profs, 0.05, 200.0, 0.05, 30.0)
    tau = max(scan.taus)
    m = L.presets.example61_model(b=1.0, forcing=1.0)
    res = L.shift_coupling_gap(m, tau, (0.0, 6.0), n_paths=200, seed=7,
                               tol=0.05, max_step=0.01, n_obs=13)
    assert res.measured_sup_gap <= res.theoretical_bound + 3.0 * res.se_at_sup
    assert res.measured_sup_gap > 0.0


def test_bl_two_sample_deterministic():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=300), rng.normal(loc=0.3, size=300)
    r1 = L.bl_two_sample(a, b, n_boot=8, seed=5)
    r2 = L.bl_two_sample(a, b, n_boot=8, seed=5)
    assert r1 == r2


def _bl_two_sample_inputs():
    rng = np.random.default_rng(9)
    yield "deterministic", rng.normal(size=300), rng.normal(loc=0.3, size=300), 8, 5
    rng = np.random.default_rng(31)   # 41 pairs of 3 rows: two batches of the peel
    yield ("three_coordinates", rng.normal(size=(120, 3)),
           rng.normal(loc=[0.0, 0.4, -0.2], scale=[1.0, 1.5, 0.7], size=(90, 3)), 40, 3)
    rng = np.random.default_rng(17)   # 71 pairs of 1 row: two batches of the peel
    yield "many_resamples", rng.normal(size=150), rng.standard_t(5, size=170), 70, 11
    # a point mass at 0, as example61's laws are, with both signed zeros
    yield "point_mass", np.zeros(100), np.full(80, -0.0), 20, 3
    yield ("point_mass_two_coordinates", np.tile([0.0, 1.5], (60, 1)),
           np.tile([-0.0, 1.5], (40, 1)), 7, 4)


# float.hex of (beta, err) of bl_two_sample on _bl_two_sample_inputs(), as
# the one-pair peel computed them (the point masses as the peel of every
# resample did); the batches must keep every bit
GOLDEN_BL_TWO_SAMPLE = {
    "deterministic": ("0x1.aba8f9825f23cp-4", "0x1.aefea2e786606p-5"),
    "three_coordinates": ("0x1.0cbec85e9ce9fp-2", "0x1.cf32c082daf39p-4"),
    "many_resamples": ("0x1.01d9fd55d8a5bp-4", "0x1.4ce1d0ec115f5p-4"),
    "point_mass": ("0x0.0p+0", "0x0.0p+0"),
    "point_mass_two_coordinates": ("0x0.0p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("rows", [None, 1, 5])
def test_bl_two_sample_keeps_the_one_pair_bits_in_any_batch(rows, monkeypatch):
    if rows is not None:   # smaller batches than BL_ROWS, down to one pair each
        monkeypatch.setattr(recurrence, "BL_ROWS", rows)
    for name, a, b, n_boot, seed in _bl_two_sample_inputs():
        got = L.bl_two_sample(a, b, n_boot=n_boot, seed=seed)
        assert tuple(float(v).hex() for v in got) == GOLDEN_BL_TWO_SAMPLE[name], name


def test_bl_two_sample_of_one_point_mass_draws_and_peels_nothing(monkeypatch):
    monkeypatch.setattr(recurrence, "_bl_laws", None)   # a call would raise
    monkeypatch.setattr(np.random, "default_rng", None)
    assert L.bl_two_sample(np.full((30, 2), 0.5), np.full((20, 2), 0.5)) == (0.0, 0.0)
    # the input checks come first
    with pytest.raises(InputError, match="n_boot"):
        L.bl_two_sample(np.zeros(5), np.zeros(5), n_boot=0)
    with pytest.raises(InputError, match="finite"):
        L.bl_two_sample(np.full(5, np.inf), np.full(5, np.inf))
    with pytest.raises(InputError, match="observation dimension"):
        L.bl_two_sample(np.zeros((5, 1)), np.zeros((5, 2)))


def test_bl_two_sample_checks_its_samples_once(monkeypatch):
    # the resamples are rows of the checked samples: no law is built for them
    built, post_init = [], recurrence.EmpiricalLaw.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(recurrence.EmpiricalLaw, "__post_init__", counted)
    rng = np.random.default_rng(3)
    L.bl_two_sample(rng.normal(size=(40, 2)), rng.normal(size=(30, 2)), n_boot=25, seed=1)
    assert len(built) == 2


def test_bl_two_sample_rejects_mismatched_dimensions():
    with pytest.raises(InputError, match="observation dimension"):
        L.bl_two_sample(np.zeros((5, 1)), np.zeros((5, 2)))


def test_distributional_test_on_multimode_model():
    # smoke: coordinate-wise max aggregation over the first modes of the
    # spectral model; finite outputs and a sane scale
    m = L.presets.example62_model(n_modes=4, b=0.5)
    rep = L.distributional_almost_period_test(m, 0.5, np.array([0.0, 0.5]),
                                              n_paths=150, seed=1, n_boot=6,
                                              max_step=0.01)
    assert np.all(np.isfinite(rep.beta)) and np.all(rep.err > 0)
    assert rep.max_beta < 2.0
