"""The exponential-Euler step kernel shared by both path drivers: pinned
outputs, profiles tabulated once per grid, and the one coefficient
evaluation body against the generic body it replaced."""

from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab.ensemble import _path_seed, simulate_ensemble
from levylab.integrator import refined_grid, step_kernel
from levylab.noise import sample_jumps
from levylab.profiles import TimeProfile

# Terminal states (float.hex) recorded while each driver still evaluated
# every profile on every step with its own copy of the step.  Tabulating
# the profiles and sharing the step change no arithmetic, so every bit
# must stay the same.
GOLDEN = {
    ("integrate", "example61"): ["0x1.052deeba2a93cp-8"],
    ("integrate", "heat8"): [
        "-0x1.bc5e33e783980p-9", "-0x1.70d75a038c1e1p-11", "-0x1.84b3a0443d66cp-31",
        "-0x1.ac2fac20a9aa4p-31", "-0x1.53d959bc7f566p-33", "-0x1.5b76aabbd91f8p-37",
        "-0x1.f581b36afdd8cp-53", "-0x1.ab1f49954ea37p-55"],
    ("ensemble", "example61"): [
        "0x1.f98cace48114bp-8", "0x1.4352b3356f8b7p-8", "0x1.3ffd7e27754a9p-8",
        "0x1.7a096c0561c71p-8"],
    ("ensemble", "heat8"): [
        "-0x1.232bac02813f1p-9", "-0x1.7c4dc4e587a68p-11", "-0x1.a19f98afb2f93p-34",
        "-0x1.6b12902acf16fp-32", "-0x1.b74ec32a3b841p-34", "-0x1.63b13dd6988bap-37",
        "-0x1.e5384f35b7d36p-55", "-0x1.54d8ef5a58b5ap-56",
        "0x1.ba4c5a3aea19ep-4", "-0x1.77c50a0746357p-11", "-0x1.4f661c492e749p-20",
        "-0x1.4c4da5aeebde0p-21", "0x1.3c50c5dda2e0dp-28", "-0x1.6d746a1c68528p-33",
        "0x1.564a0587498c8p-38", "-0x1.0272de1828ce5p-44",
        "-0x1.25da1947b7934p-9", "-0x1.7b47cbd85928fp-11", "-0x1.f78370edee052p-34",
        "-0x1.8276af0dbd374p-32", "-0x1.c5cecb32ab8efp-34", "-0x1.63851fb2fc817p-37",
        "-0x1.0969a7f668213p-54", "-0x1.68ca9761ea1e8p-56",
        "-0x1.ad35fbf3941b9p-9", "-0x1.7a0b659a5f1afp-11", "-0x1.54162304a5ad6p-31",
        "-0x1.92cee4b18d451p-31", "-0x1.5001ad61e1376p-33", "-0x1.6aaa1bf5ab67ep-37",
        "-0x1.c9e55b0518e29p-53", "-0x1.9b1050f8574ecp-55"],
    # Recorded while the ensemble still selected each step's jumps by
    # path rank and kind mask, before it regrouped them into (step, round,
    # kind) slices.  The case crosses t = 0 (the mirror side), its steps
    # of 0.25 hold two or more jumps of one path, and the three models
    # cover the mark modes ignore, pointwise_product and scalar.
    ("stressed", "example61"): [
        "0x1.c58436d16fc6dp-7", "0x1.93c99e1c98b7bp-7", "0x1.6731cc874fa40p-7",
        "0x1.7330c38488587p-7", "0x1.b2651be4634a7p-7", "0x1.807ac20bd284dp-7",
        "0x1.05ef6fe9a6e8ap-6", "0x1.4bfb60dfc232fp-7", "0x1.9db9df19bc67bp-7",
        "0x1.f9311696c3e44p-7", "0x1.e27f254e468f1p-7", "0x1.625d345b14ad4p-7",
        "0x1.6f519200b61d3p-7", "0x1.73ea29f968c20p-7", "0x1.b51ef5eddd1b5p-7",
        "0x1.bf42e23917736p-7"],
    ("stressed", "heat8"): [
        "-0x1.09e5cc6912ee2p-9", "-0x1.52cbfa0295d8cp-11", "-0x1.64c22103be4b4p-27",
        "-0x1.ff57009cd1947p-29", "0x1.4cb35193d0502p-32", "-0x1.b0d4eec3530dbp-38",
        "0x1.f0ad173f15b94p-48", "-0x1.3c2b2f548e614p-51", "0x1.b26ecd4e84163p-4",
        "-0x1.53edd3ee16ff9p-11", "0x1.5045e70095835p-24", "0x1.7bea465146aecp-25",
        "0x1.97915f1c3b99dp-30", "-0x1.be3b355bf6ee7p-38", "-0x1.a54cfe11d750cp-55",
        "-0x1.8c04a97bebcfdp-56", "-0x1.02d9e71615a07p-9", "-0x1.52ce01db8f25bp-11",
        "-0x1.8cafffc5390b0p-27", "-0x1.200682173a2f7p-28", "0x1.656043ba50639p-32",
        "-0x1.bec481b5f9376p-38", "0x1.e645a43a77fa2p-50", "-0x1.9649332c94e51p-54",
        "-0x1.a54d8611c0f7ep-9", "-0x1.52d1f38896d01p-11", "-0x1.0ca882468a8ddp-31",
        "-0x1.1eeb0c99cd282p-31", "-0x1.bdccced50149fp-34", "-0x1.be47f981d2d07p-38",
        "-0x1.7c4e27c90121cp-54", "-0x1.4dc1bb2bebb64p-56", "-0x1.a3d78e096a5bbp-9",
        "-0x1.52d23f18133dap-11", "-0x1.d7c9c78bdc7abp-32", "-0x1.08b3e06bd40e0p-31",
        "-0x1.ab075072af6f1p-34", "-0x1.be4683a9dc0ecp-38", "-0x1.b72f53a86264bp-55",
        "-0x1.abf24957cd2d1p-57", "0x1.0afd920834396p-8", "-0x1.51a08573da83dp-11",
        "-0x1.3e15e791a7f88p-21", "-0x1.2e20be0873c04p-22", "0x1.5255913004abcp-29",
        "-0x1.75fee321316eep-35", "0x1.a2dea9b6ccf6cp-41", "-0x1.2d31278586451p-47",
        "0x1.d92b95cf036cdp-12", "0x1.99b8e707d7f0dp-9", "-0x1.1189d2cbfc3fcp-23",
        "-0x1.e0503078ee645p-25", "0x1.3c62baf824f2bp-30", "-0x1.118035cabcbc2p-37",
        "0x1.399d3dda41967p-44", "-0x1.6589a8d292081p-50", "-0x1.a23bae7f8d511p-9",
        "-0x1.52d1a51d6c38fp-11", "-0x1.1bb41ac9859e9p-32", "-0x1.8a9350c147be5p-32",
        "-0x1.6ca78e17dff88p-34", "-0x1.be4803e25fbc7p-38", "-0x1.3944e06bd451ap-54",
        "-0x1.9208a3cd39f5ap-58", "-0x1.d2efd55fd8055p-11", "-0x1.52addfbf9116fp-11",
        "-0x1.700b73de9b059p-25", "-0x1.31934c1f46163p-26", "0x1.4411275901d2fp-31",
        "-0x1.9c7275e52fd02p-38", "0x1.8ba4469c076bep-47", "0x1.2b9213e51497bp-49",
        "-0x1.a20e3c59359b2p-9", "-0x1.52d1d782b0999p-11", "-0x1.1f99ce97f60cap-31",
        "-0x1.2b876d09e7ea5p-31", "-0x1.c81c4dd90ab15p-34", "-0x1.be3d4ccfc99cbp-38",
        "-0x1.f3bd625d9bd91p-54", "-0x1.94fcc79e11cfcp-56", "-0x1.a5a2bfeb2f505p-9",
        "-0x1.52d189b616af5p-11", "-0x1.7b82f5f457d23p-32", "-0x1.d0cb8a2074087p-32",
        "-0x1.8e3893f200f18p-34", "-0x1.be2b066f093e2p-38", "-0x1.63c43a3398830p-55",
        "-0x1.e9ca876c072bep-58", "-0x1.a4f0a3ff7765ap-9", "0x1.de4abf4c241fep-6",
        "-0x1.4a4c13bfcf970p-22", "0x1.11c8b03cf1befp-24", "0x1.84693d7e379f2p-26",
        "0x1.8c6bd3982e321p-30", "0x1.b2a2ee5a80013p-49", "0x1.962cb45095750p-52",
        "-0x1.67ed458b88f8bp-9", "-0x1.52d215b4797fap-11", "-0x1.17172541955efp-30",
        "-0x1.8629f3e47e154p-33", "0x1.3752fff6cc2fep-34", "-0x1.bb96f17110a31p-38",
        "0x1.af75c2877a4e5p-50", "-0x1.4b8d9603f13b1p-50", "-0x1.a1bbe5a0bebb1p-9",
        "-0x1.52d236bfecb99p-11", "-0x1.928c25c1be7d6p-32", "-0x1.e1215214a2382p-32",
        "-0x1.95a8651c204c8p-34", "-0x1.be235c87d9959p-38", "-0x1.550eac44598e5p-55",
        "-0x1.0decf844c3d43p-57", "-0x1.a84b0af02b5a8p-9", "-0x1.4aaa0a2d80951p-11",
        "0x1.0cd95e4b1281ap-39", "0x1.a312b7f00e478p-30", "-0x1.442e077556af4p-32",
        "-0x1.7a14d5285b647p-31", "-0x1.683c7214d967ep-53", "0x1.8c262143bfdc6p-51",
        "-0x1.0d1ce659d6495p-9", "-0x1.52cc95270528ap-11", "-0x1.064208da7dae2p-26",
        "-0x1.892e4865305d0p-28", "0x1.9f1944e9e055ep-32", "-0x1.bdbba1493d8b1p-38",
        "0x1.94ba1b161b2f7p-48", "-0x1.d26b8b6c91674p-52"],
    ("stressed", "periodic"): [
        "0x1.f365b1c70ce9ap-2", "0x1.60b862481831ep-1", "0x1.42ed80ff443fap-1",
        "0x1.50f1089ea5f8dp-1", "0x1.9a0aba4648443p-1", "0x1.26e87848c3260p-1",
        "0x1.119e3c547ffa9p-1", "0x1.13d70a763fa3cp-1", "0x1.4c642c40aaa34p-1",
        "0x1.d33dc17ab3ecap-1", "0x1.7f15a869e6ef0p-1", "0x1.bb0d4f9d5e24fp-2",
        "0x1.ba2e41fb4af6dp-2", "0x1.429f69a6fd9bdp-1", "0x1.2e38c0bc1a638p-1",
        "0x1.efefb2dd6b433p-2"],
    # Recorded while every coefficient call still summed its terms into a
    # zeros accumulator and evaluated its own state maps.  The model uses
    # all five state map kinds, shares one map between drift, diffusion
    # and small jump, gives two coefficients two terms, has scalar small
    # marks and starts at -0.0.
    ("integrate", "every_map"): ["0x1.6a274678d77e6p-3"],
    ("ensemble", "every_map"): [
        "0x1.75cd78627c25ep-2", "0x1.87ee2f71e4d14p-2", "0x1.cac65e1b91134p-4",
        "0x1.99405aa08a736p-3"],
    ("stressed", "every_map"): [
        "0x1.6e84fb726b7d2p-2", "0x1.8e26c5472c0ecp-2", "0x1.cd61e7c608bb9p-4",
        "0x1.914e59c3432dcp-3", "0x1.777d68875143ep-3", "0x1.77d31a90c2170p-3",
        "0x1.b84ee7faeda41p-2", "0x1.a0358875d2c68p-5", "0x1.2a0e83ed1fec2p-4",
        "0x1.c149d0220f2c4p-3", "0x1.eae7e5f389ecdp-5", "0x1.c317813715a2ap-5",
        "0x1.147bc65c0ed94p-4", "0x1.473ec865dfbc2p-4", "0x1.c129daf204fa6p-3",
        "0x1.c2e0641292703p-5"],
}

# simulate_ensemble arguments after the model: window, y0, n_paths,
# max_step, seed, obs_times
ENSEMBLE_CASES = {"ensemble": ((0.0, 2.0), 0.5, 4, 0.01, 3, [2.0]),
                  "stressed": ((-2.0, 2.0), 0.5, 16, 0.25, 3, [2.0])}


def every_map_model():
    """A scalar model whose coefficients use every state map kind, with
    ``linear_map(0.5)`` shared by drift, diffusion and small jump."""
    shared = L.linear_map(0.5)
    coeffs = L.CoefficientSet(
        drift=L.coefficient((L.periodic_profile(0.4, 1.0), shared),
                            (L.constant_profile(0.1), L.ones_map(1.0))),
        diffusion=L.coefficient((L.constant_profile(0.3), shared),
                                (L.periodic_profile(0.2, 2.0, 0.5), L.sine_map(0.5))),
        small_jump=L.jump_coefficient((L.constant_profile(0.2), shared), mark_mode="scalar"),
        large_jump=L.jump_coefficient((L.constant_profile(0.3), L.clipped_map(1.0, 0.5)),
                                      (L.periodic_profile(0.2, 1.0), L.cosine_map(1.0))),
        A0=1.0, lipschitz_L=0.4, moment_p=2.05)
    jumps = L.JumpMeasureSpec(small_rate=2.0, small_sampler=L.uniform_shell_marks(0.1, 1.0),
                              truncation_delta=0.1, large_rate=1.0,
                              large_sampler=L.uniform_shell_marks(1.0, 2.0, signed=True),
                              moment_p=2.05)
    return L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(2.0,), K=1.0, omega=2.0),
                      coefficients=coeffs, wiener=L.WienerSpec(mode_variances=(0.5,)),
                      jumps=jumps)


def _model(name):
    if name == "every_map":
        return every_map_model()
    if name == "example61":
        return L.presets.example61_model(forcing=1.0)   # two drift terms
    if name == "periodic":
        return L.presets.periodic_model()               # scalar marks
    return L.presets.example62_model(n_modes=8)         # pointwise (collocated) maps


def _integrate(m, max_step=0.01):
    noise = L.sample_noise(m.wiener, m.jumps, (0.0, 2.0), 7)
    return L.integrate(m, noise, 0.0, 2.0, np.full(m.dim, 0.5), max_step)


def _golden(driver, name):
    return np.array([float.fromhex(h) for h in GOLDEN[(driver, name)]])


def _most_jumps_of_one_path_in_one_step(m, window, y0, n_paths, max_step, seed, obs):
    grid = refined_grid(window[0], window[1], max_step, obs)
    most = 0
    for p in range(n_paths):
        st, _, lt, _ = sample_jumps(m.jumps, window, _path_seed(seed, p))
        most = max(most, np.bincount(np.searchsorted(grid, np.concatenate([st, lt])),
                                     minlength=1).max())
    return most


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_integrate_terminal_state_is_pinned(name):
    path = _integrate(_model(name))
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", name))


@pytest.mark.parametrize("case, name", [
    ("ensemble", "example61"), ("ensemble", "heat8"), ("stressed", "example61"),
    ("stressed", "heat8"), ("stressed", "periodic")],
    ids=["example61", "heat8", "stressed-example61", "stressed-heat8", "stressed-periodic"])
def test_ensemble_terminal_states_are_pinned(case, name):
    m = _model(name)
    args = ENSEMBLE_CASES[case]
    if case == "stressed":
        assert _most_jumps_of_one_path_in_one_step(m, *args) >= 2
    res = simulate_ensemble(m, *args)
    assert np.array_equal(res.states[-1].ravel(), _golden(case, name))


def test_every_state_map_kind_is_pinned():
    m = _model("every_map")
    noise = L.sample_noise(m.wiener, m.jumps, (0.0, 2.0), 7)
    path = L.integrate(m, noise, 0.0, 2.0, np.array([-0.0]), 0.01)
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", "every_map"))
    for case in ("ensemble", "stressed"):
        window, _, *rest = ENSEMBLE_CASES[case]
        res = simulate_ensemble(m, window, -0.0, *rest)
        assert np.array_equal(res.states[-1].ravel(), _golden(case, "every_map")), case


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_profiles_are_evaluated_per_grid_not_per_step(name, monkeypatch):
    calls = []
    direct = TimeProfile.__call__

    def counted(self, t):
        calls.append(np.size(t))
        return direct(self, t)

    monkeypatch.setattr(TimeProfile, "__call__", counted)
    m = _model(name)
    counts = []
    for max_step in (0.01, 0.001):
        calls.clear()
        _integrate(m, max_step)
        counts.append(len(calls))
        calls.clear()
        simulate_ensemble(m, (0.0, 2.0), 0.5, 4, max_step, 3, [2.0])
        counts.append(len(calls))
    # ten times the steps, the same number of (vectorized) profile calls
    assert counts[:2] == counts[2:]


def test_to_phys_of_the_state_runs_once_per_step(monkeypatch):
    m = _model("heat8")
    calls = []
    direct = L.GalerkinSpec.to_phys

    def counted(self, u):
        calls.append(np.shape(u))
        return direct(self, u)

    monkeypatch.setattr(L.GalerkinSpec, "to_phys", counted)
    path = _integrate(m)
    # one per step, one for the compensator's mark mean, and at each jump
    # one for the state and one for the mark
    jumps = np.count_nonzero(path.jump_flags)
    assert jumps >= 2
    assert len(calls) == (path.times.size - 1) + 1 + 2 * jumps


# -- coefficient evaluation against the generic body it replaced ----------------
#
# Before the drivers shared their state maps, every coefficient call ran
# this body: evaluate each term's map, then sum the products into a zeros
# accumulator.  It stays here as the oracle of the one evaluation body,
# which must give the same bits, signed zeros included.

def _map_oracle(smap, y):
    y = np.asarray(y, dtype=float)
    if smap.kind == "linear":
        return smap.scale * y
    if smap.kind == "sine":
        return smap.scale * np.sin(y)
    if smap.kind == "cosine":
        return smap.scale * np.cos(y)
    if smap.kind == "clipped":
        return smap.scale * np.clip(y, -smap.bound, smap.bound)
    return np.full_like(y, smap.scale)


def _combine_oracle(coef, pvals, u):
    pvals = np.asarray(pvals, dtype=float)
    if pvals.ndim > 1:
        pvals = pvals.reshape(pvals.shape[:-1] + (1,) * (u.ndim - pvals.ndim + 1)
                              + pvals.shape[-1:])
    acc = np.zeros(u.shape)
    for k, (_, smap) in enumerate(coef.terms):
        acc += pvals[..., k] * _map_oracle(smap, u)
    return acc


def _apply_oracle(coef, pvals, y, gal):
    y = np.asarray(y, dtype=float)
    if coef.pointwise and gal is not None:
        return gal.to_modes(_combine_oracle(coef, pvals, gal.to_phys(y)))
    return _combine_oracle(coef, pvals, y)


def _apply_mark_oracle(coef, pvals, y, mark, gal):
    if coef.mark_mode == "pointwise_product":
        base = _combine_oracle(coef, pvals, gal.to_phys(np.asarray(y, dtype=float)))
        return gal.to_modes(base * gal.to_phys(np.asarray(mark, dtype=float)))
    base = _apply_oracle(coef, pvals, y, gal)
    if coef.mark_mode == "ignore":
        return base
    m = np.asarray(mark, dtype=float)
    return base * (m.reshape(m.shape + (1,) * (base.ndim - m.ndim)) if m.ndim else m)


def _apply_mean_oracle(coef, pvals, y, sampler, gal):
    if coef.mark_mode == "ignore":
        return _apply_oracle(coef, pvals, y, gal)
    mean = sampler.mean()
    if coef.mark_mode == "scalar":
        return _apply_oracle(coef, pvals, y, gal) * mean
    return _apply_mark_oracle(coef, pvals, y, np.asarray(mean, dtype=float), gal)


def _sq_moment_oracle(coef, t, y, rate, sampler, gal):
    pvals = coef.profile_table(t)
    nodes, weights = sampler.quadrature()
    base = _combine_oracle(coef, pvals, gal.to_phys(np.asarray(y, dtype=float)))
    acc = 0.0
    for xn, w in zip(gal.to_phys(np.asarray(nodes, dtype=float)), weights):
        acc += w * float(np.sum(np.square(gal.to_modes(base * xn))))
    return rate * acc


def _reading(coef, pvals):
    """``coef`` with profiles that read ``pvals``: one row at time 0, or the
    row of each leading state at the times 0, 1, ..., so that ``value``
    sees exactly these profile values, signed zeros included."""
    rows = np.atleast_2d(pvals)
    return replace(coef, terms=tuple(
        (lambda t, col=rows[:, k]: col[np.asarray(t, dtype=int)], smap)
        for k, (_, smap) in enumerate(coef.terms)))


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


_SHARED = L.linear_map(0.5)
# every map kind, one map twice and one map shared across coefficients
_EVERY_MAP_TERMS = (
    (L.periodic_profile(0.4, 1.0), _SHARED),
    (L.constant_profile(0.1), L.ones_map(1.0)),
    (L.constant_profile(-0.3), L.sine_map(0.5)),
    (L.periodic_profile(0.2, 2.0, 0.5), L.cosine_map(-1.5)),
    (L.constant_profile(0.7), L.clipped_map(1.0, 0.25)),
    (L.constant_profile(0.2), _SHARED),
)
_GAL = L.GalerkinSpec(n_modes=4)
_POINTWISE_MARKS = L.finite_rank_marks([[1.0, -0.5, 0.0, 0.25], [-0.0, 0.5, 1.0, 0.0]],
                                       [0.25, 0.75])


def _evaluation_cases():
    """(coefficient, galerkin, mark sampler) for every mark mode, with
    and without a Galerkin spec and pointwise node maps."""
    cases = []
    for gal in (None, _GAL):
        for pointwise in (False, True):
            cases.append((L.coefficient(*_EVERY_MAP_TERMS, pointwise=pointwise), gal, None))
            for mode, sampler in (("ignore", L.uniform_shell_marks(0.1, 1.0)),
                                  ("scalar", L.uniform_shell_marks(0.1, 1.0)),
                                  ("pointwise_product", _POINTWISE_MARKS)):
                if mode == "pointwise_product" and gal is None:
                    continue
                cases.append((L.jump_coefficient(*_EVERY_MAP_TERMS, mark_mode=mode,
                                                 pointwise=pointwise), gal, sampler))
    # one term, so that a zero state or profile value leaves a signed zero
    single = ((L.constant_profile(0.5), L.sine_map(-2.0)),)
    for gal in (None, _GAL):
        cases.append((L.coefficient(*single, pointwise=True), gal, None))
        cases.append((L.jump_coefficient(*single, mark_mode="scalar"), gal,
                      L.uniform_shell_marks(0.1, 1.0)))
    cases.append((L.coefficient(), _GAL, None))                      # empty sums
    cases.append((L.jump_coefficient(mark_mode="scalar", pointwise=True), _GAL,
                  L.uniform_shell_marks(0.1, 1.0)))
    return cases


def _signed_zero_states(rng, dim, n_rows):
    """States holding +0.0 and -0.0 entries, as (dim,) or (n_rows, dim)."""
    y = rng.normal(size=(n_rows, dim))
    y[0, 0], y[-1, -1] = -0.0, 0.0
    if n_rows > 1:
        y[1] = -0.0
    return y


@pytest.mark.parametrize("case", range(len(_evaluation_cases())))
def test_evaluation_body_matches_the_generic_oracle_bit_for_bit(case):
    coef, gal, sampler = _evaluation_cases()[case]
    dim = 3 if gal is None else gal.n_modes
    rng = np.random.default_rng(case)
    n_terms = len(coef.terms)
    for n_rows in (1, 5):
        for y in (_signed_zero_states(rng, dim, n_rows)[0],
                  _signed_zero_states(rng, dim, n_rows)):
            rows = y.shape[:-1]
            # one profile row for all states, and one row per state with
            # signed zeros among the profile values
            per_state = rng.normal(size=rows + (n_terms,))
            if per_state.size:
                per_state.flat[0], per_state.flat[-1] = -0.0, 0.0
            for pvals in (rng.normal(size=n_terms), per_state):
                at = _reading(coef, pvals)
                t = np.arange(len(pvals)) if pvals.ndim > 1 else 0
                assert _same_bits(L.Coefficient.value(at, t, y, gal),
                                  _apply_oracle(coef, pvals, y, gal))
                if sampler is None:
                    continue
                if coef.mark_mode == "pointwise_product":
                    mark = _POINTWISE_MARKS.sample(rng, rows[0] if rows else 1)
                    mark = mark if rows else mark[0]
                    mark.flat[0] = -0.0
                else:
                    mark = -sampler.sample(rng, rows[0]) if rows else np.float64(-0.0)
                assert _same_bits(at.value(t, y, mark, gal),
                                  _apply_mark_oracle(coef, pvals, y, mark, gal))
                # the mark mean, as the step kernel forms the compensator
                assert _same_bits(at.value(t, y, sampler.mean(), gal),
                                  _apply_mean_oracle(coef, pvals, y, sampler, gal))
        # value tabulates the profiles at one time, or at one time per state
        t = rng.uniform(-3.0, 3.0, size=n_rows)
        y = _signed_zero_states(rng, dim, n_rows)
        for tt, yy in ((t[0], y[0]), (t, y)):
            table = coef.profile_table(tt)
            if sampler is None:
                assert _same_bits(coef.value(tt, yy, gal), _apply_oracle(coef, table, yy, gal))
            else:
                mark = sampler.mean()
                assert _same_bits(coef.value(tt, yy, mark, gal),
                                  _apply_mark_oracle(coef, table, yy, mark, gal))
                assert _same_bits(L.Coefficient.value(coef, tt, yy, gal),
                                  _apply_oracle(coef, table, yy, gal))
    if coef.mark_mode == "pointwise_product":
        y = _signed_zero_states(rng, dim, 1)[0]
        assert (coef.sq_moment(0.3, y, 1.5, sampler, gal)[0]
                == _sq_moment_oracle(coef, 0.3, y, 1.5, sampler, gal))


@pytest.mark.parametrize("name", ["every_map", "heat8", "ou_jump"])
def test_compiled_step_matches_the_generic_oracle_bit_for_bit(name):
    # ou_jump has no small jumps and an empty drift
    m = L.presets.ou_jump_model() if name == "ou_jump" else _model(name)
    c, gal, a = m.coefficients, m.galerkin, m.wiener.drift
    grid = np.linspace(-1.0, 1.0, 9)
    step = step_kernel(m, grid)
    rng = np.random.default_rng(3)
    for y in (_signed_zero_states(rng, m.dim, 1)[0], _signed_zero_states(rng, m.dim, 1),
              _signed_zero_states(rng, m.dim, 6)):
        dw = rng.normal(size=y.shape)
        for i in range(grid.size - 1):
            t = grid[i]
            gdiag = _apply_oracle(c.diffusion, c.diffusion.profile_table(t), y, gal)
            # the compensator as SdeModel.compensator_apply formed it
            comp = (-m.jumps.small_rate * _apply_mean_oracle(
                c.small_jump, c.small_jump.profile_table(t), y, m.jumps.small_sampler, gal)
                if m.jumps.small_rate else np.zeros_like(y))
            drift = _apply_oracle(c.drift, c.drift.profile_table(t), y, gal) + gdiag * a + comp
            lam_dt = -(grid[i + 1] - t) * m.semigroup.rates
            d, phi1 = np.exp(lam_dt), -np.expm1(lam_dt) / m.semigroup.rates
            got_y, got_drift = step(i, y, dw)
            assert _same_bits(got_drift, drift)
            assert _same_bits(got_y, d * y + phi1 * drift + d * (gdiag * dw))
