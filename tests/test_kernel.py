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

# Terminal states (float.hex).  The integrate values were recorded while
# each driver still evaluated every profile on every step with its own
# copy of the step; tabulating the profiles and sharing the step change no
# arithmetic, so every bit must stay the same.  The ensemble and stressed
# values of example61, heat8 and every_map were re-pinned when the
# ensemble took the jump rule of integrate (a jump inside a step acts on
# the kernel's own step to the jump time); stressed periodic, whose jump
# maps do not depend on the state, kept its bits.
GOLDEN = {
    ("integrate", "example61"): ["0x1.052deeba2a93cp-8"],
    ("integrate", "heat8"): [
        "-0x1.bc5e33e783980p-9", "-0x1.70d75a038c1e1p-11", "-0x1.84b3a0443d66cp-31",
        "-0x1.ac2fac20a9aa4p-31", "-0x1.53d959bc7f566p-33", "-0x1.5b76aabbd91f8p-37",
        "-0x1.f581b36afdd8cp-53", "-0x1.ab1f49954ea37p-55"],
    ("ensemble", "example61"): [
        "0x1.f838b967e74bbp-8", "0x1.433600ba38713p-8", "0x1.40037cd35884bp-8",
        "0x1.7a07ce83a8ffbp-8"],
    ("ensemble", "heat8"): [
        "-0x1.232be491baf0ep-9", "-0x1.7c4dc4e515796p-11", "-0x1.a1a1c758f2506p-34",
        "-0x1.6b13151a404c4p-32", "-0x1.b74f1716e38dfp-34", "-0x1.63b13dd508c71p-37",
        "-0x1.e53e6869f36c8p-55", "-0x1.54c8ce855ea91p-56", "0x1.ba4c62add433bp-4",
        "-0x1.77c49d1ca4c96p-11", "-0x1.4fb9662d723f9p-20", "-0x1.4c56e57cbf802p-21",
        "0x1.3c47ed2d06e80p-28", "-0x1.6d6b17633967bp-33", "0x1.565eaf04959fep-38",
        "-0x1.025a8df87dc68p-44", "-0x1.25da1b602801ap-9", "-0x1.7b47cbd857ebbp-11",
        "-0x1.f7838766514bbp-34", "-0x1.8276b44385f27p-32", "-0x1.c5cece650b800p-34",
        "-0x1.63851fb1e6a82p-37", "-0x1.0964e64a1751ep-54", "-0x1.68ca1de87afdep-56",
        "-0x1.ad35fbf2a9f5fp-9", "-0x1.7a0b659a5f1bep-11", "-0x1.5416230274271p-31",
        "-0x1.92cee4afebd8bp-31", "-0x1.5001ad6125334p-33", "-0x1.6aaa1bf3c3ffap-37",
        "-0x1.c9e6cdee2f6ccp-53", "-0x1.9b1157da24db8p-55"],
    # The stressed case crosses t = 0 (the mirror side), its steps
    # of 0.25 hold two or more jumps of one path, and the three models
    # cover the mark modes ignore, pointwise_product and scalar.
    ("stressed", "example61"): [
        "0x1.c400dc7417396p-7", "0x1.9391a3d7fcce3p-7", "0x1.651897a97c2eep-7",
        "0x1.6dee08eebc436p-7", "0x1.b0a52e2f826dbp-7", "0x1.7bfa23ed7f9e8p-7",
        "0x1.fb29532aa3451p-7", "0x1.456047dc5f762p-7", "0x1.96f6e016682d8p-7",
        "0x1.f2d475c461701p-7", "0x1.de05ef0064c74p-7", "0x1.5983f20b6b211p-7",
        "0x1.6359adf2d9d1cp-7", "0x1.6dced3cfd5f9bp-7", "0x1.abe203a0be877p-7",
        "0x1.b762e432de428p-7"],
    ("stressed", "heat8"): [
        "-0x1.09e62614c1c72p-9", "-0x1.52cbfa0d52f0fp-11", "-0x1.64c02d7499c18p-27",
        "-0x1.ff53d02f671b1p-29", "0x1.4cb259efc02dep-32", "-0x1.b0d500f242a3bp-38",
        "0x1.f0ad261e81691p-48", "-0x1.3c2bf365b2c7cp-51", "0x1.b27498514fb48p-4",
        "-0x1.52df6b672f967p-11", "0x1.112ee64920ad7p-25", "0x1.bb4c2848e3c56p-30",
        "-0x1.6f518c609528dp-34", "-0x1.be47c3255147ep-38", "-0x1.f110e43ad3db5p-54",
        "-0x1.9561694e3bf23p-56", "-0x1.02d9dc466212ep-9", "-0x1.52ce01da2f61bp-11",
        "-0x1.8cb03fd6bf55cp-27", "-0x1.2006b6af4aa21p-28", "0x1.656061eca250fp-32",
        "-0x1.bec47f27bdf71p-38", "0x1.e64680c366e25p-50", "-0x1.964ae435a9fe9p-54",
        "-0x1.a54d861347b5bp-9", "-0x1.52d1f38896c58p-11", "-0x1.0ca8826652266p-31",
        "-0x1.1eeb0caed8943p-31", "-0x1.bdcccee623dc9p-34", "-0x1.be47f986ccc6ap-38",
        "-0x1.7c4ca4ca4f698p-54", "-0x1.4dbd14c4a893ep-56", "-0x1.a3d78c58a13e6p-9",
        "-0x1.52d23f181d973p-11", "-0x1.d7c9862bf2ce7p-32", "-0x1.08b3c9fbb3d59p-31",
        "-0x1.ab073d17f0a17p-34", "-0x1.be4683acb6643p-38", "-0x1.b72533baabab3p-55",
        "-0x1.abcff6356c4c5p-57", "0x1.0b00cdec9f64ap-8", "-0x1.51a04e081d06bp-11",
        "-0x1.3e1a784766624p-21", "-0x1.2e26fb5f7cc9ap-22", "0x1.51f7609a101efp-29",
        "-0x1.758cafa4b0967p-35", "0x1.a78568f2d5c00p-41", "-0x1.2a6f43315bebcp-47",
        "0x1.d8e81197e8fc1p-12", "0x1.99ba188035ebfp-9", "-0x1.11e8bfeb63e7ep-23",
        "-0x1.e03a2f3127320p-25", "0x1.3c749636d99dfp-30", "-0x1.11aa773a592c3p-37",
        "0x1.39b57f1269eabp-44", "-0x1.65b5a9dfbf029p-50", "-0x1.a23b8e4f5cdebp-9",
        "-0x1.52d1a51ca3103p-11", "-0x1.1bb11f7e377a6p-32", "-0x1.8a911c0c44f0bp-32",
        "-0x1.6ca669af5e995p-34", "-0x1.be47fd0386e67p-38", "-0x1.3993a0073bd48p-54",
        "-0x1.947d842b884e0p-58", "-0x1.d2ece9fca90d9p-11", "-0x1.52addf6914f25p-11",
        "-0x1.700d37f28fd0bp-25", "-0x1.319509142bbcfp-26", "0x1.44118af62b602p-31",
        "-0x1.9c7323830c411p-38", "0x1.8bb3b2527a503p-47", "0x1.2ba33d9ab6514p-49",
        "-0x1.a20e3bb930ba6p-9", "-0x1.52d1d782b5809p-11", "-0x1.1f99bf6a8f865p-31",
        "-0x1.2b8762fcfb2cfp-31", "-0x1.c81c45b320889p-34", "-0x1.be3d4ccc250e4p-38",
        "-0x1.f3bc7f8ebae7bp-54", "-0x1.950bee655f163p-56", "-0x1.a5a2da460243cp-9",
        "-0x1.52d189b5b0d13p-11", "-0x1.7b861a64a8d12p-32", "-0x1.d0cdc88d00c83p-32",
        "-0x1.8e399c8ac97cep-34", "-0x1.be2b073545b9ap-38", "-0x1.63bee3ab1e3c0p-55",
        "-0x1.e9e8d11c10edep-58", "-0x1.a4a83d954edfcp-9", "0x1.de513347398b4p-6",
        "-0x1.e8a2cd132aab6p-27", "0x1.622f093c854e8p-27", "0x1.f34bc0d4faf0ap-31",
        "0x1.789695ab0fc93p-37", "-0x1.5085598dc0aa9p-54", "-0x1.87736b58104fbp-56",
        "-0x1.67ec99afbb5ebp-9", "-0x1.52d215255b83bp-11", "-0x1.172d4ef1e12acp-30",
        "-0x1.869c40f7811d1p-33", "0x1.374dd257bfb67p-34", "-0x1.bb91380711b71p-38",
        "0x1.c51eb79396c6cp-50", "-0x1.4ad3ebad83977p-50", "-0x1.a1bbec3e8798cp-9",
        "-0x1.52d236bfccb7ap-11", "-0x1.928d145d8f6dbp-32", "-0x1.e121faeba0d02p-32",
        "-0x1.95a8b17f6144bp-34", "-0x1.be235cc215011p-38", "-0x1.551b946093a91p-55",
        "-0x1.0e1d9ebc4a708p-57", "-0x1.a8485596a20edp-9", "-0x1.4aa9f90dfa6dfp-11",
        "0x1.866ad24a1a76bp-37", "0x1.a2fb01b8052d1p-30", "-0x1.4488c0bf7d7ddp-32",
        "-0x1.7a1bc0b0e88d4p-31", "-0x1.987ca73778bdap-50", "0x1.961601870c533p-51",
        "-0x1.0d1d036172556p-9", "-0x1.52cc953ee25b2p-11", "-0x1.06418f5379251p-26",
        "-0x1.892d75271ce55p-28", "0x1.9f1908d993af7p-32", "-0x1.bdbc02c8bbd2ap-38",
        "0x1.94bb7e56b6686p-48", "-0x1.d26c8d477ad64p-52"],
    ("stressed", "periodic"): [
        "0x1.f365b1c70ce9ap-2", "0x1.60b862481831ep-1", "0x1.42ed80ff443fap-1",
        "0x1.50f1089ea5f8dp-1", "0x1.9a0aba4648443p-1", "0x1.26e87848c3260p-1",
        "0x1.119e3c547ffa9p-1", "0x1.13d70a763fa3cp-1", "0x1.4c642c40aaa34p-1",
        "0x1.d33dc17ab3ecap-1", "0x1.7f15a869e6ef0p-1", "0x1.bb0d4f9d5e24fp-2",
        "0x1.ba2e41fb4af6dp-2", "0x1.429f69a6fd9bdp-1", "0x1.2e38c0bc1a638p-1",
        "0x1.efefb2dd6b433p-2"],
    # The integrate value was recorded while every coefficient call still
    # summed its terms into a zeros accumulator and evaluated its own state
    # maps.  The model uses
    # all five state map kinds, shares one map between drift, diffusion
    # and small jump, gives two coefficients two terms, has scalar small
    # marks and starts at -0.0.
    ("integrate", "every_map"): ["0x1.6a274678d77e6p-3"],
    ("ensemble", "every_map"): [
        "0x1.75b14290ae46bp-2", "0x1.87e499fee8dcbp-2", "0x1.cb00f8e6c3727p-4",
        "0x1.99602684b7051p-3"],
    ("stressed", "every_map"): [
        "0x1.6de678425c5b2p-2", "0x1.8c98d6cdeeea4p-2", "0x1.cb9a9136b2180p-4",
        "0x1.8e7da49ddffa5p-3", "0x1.7767990bbdc7ep-3", "0x1.7564311eb02adp-3",
        "0x1.b506a671cdc50p-2", "0x1.a030dd99dcf55p-5", "0x1.281e40f71a6a2p-4",
        "0x1.c018e5a311ea9p-3", "0x1.ea02a6549eebcp-5", "0x1.bd356851a12c1p-5",
        "0x1.124a04f1f422fp-4", "0x1.46548e41154b2p-4", "0x1.c09f212b69562p-3",
        "0x1.c19647dd99a35p-5"],
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
            got_y, got_drift, _ = step(i, y, dw)
            assert _same_bits(got_drift, drift)
            assert _same_bits(got_y, d * y + phi1 * drift + d * (gdiag * dw))
