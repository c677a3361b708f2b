"""The exponential-Euler step kernel shared by both path drivers: pinned
outputs, profiles tabulated once per grid, and the one coefficient
evaluation body against the generic body it replaced."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import levylab as L
from levylab import ensemble, integrator
from levylab.ensemble import simulate_ensemble
from levylab.integrator import initial_states, refined_grid, step_kernel
from levylab.model import _MAP_KINDS
from levylab.noise import jump_table, wiener_slabs
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
    # The same-noise gap of example61 and its 0.7-shift, recorded while
    # coupled_gap still stepped each model of the pair on its own.
    ("coupled", "example61"): [
        "0x1.3199ddd00d600p-7", "0x1.db379cfa6c449p-12", "0x1.19e03680e1974p-7",
        "0x1.428fdf9841b5bp-8", "0x1.296c51b431879p-16"],
    # Recorded while every jump still ran through a per-slice evaluation at
    # its pre-jump state.  periodic and ou_jump have state-free jumps (every
    # jump map is ``ones``, or the coefficient has no terms; ou_jump has no
    # small jumps); mixed keeps periodic's small jump but makes the large
    # one linear in the state.
    ("integrate", "periodic"): ["0x1.7a7b518b2f334p-1"],
    ("stressed", "ou_jump"): [
        "0x1.4d90c46d99328p+1", "0x1.4bac77279e5e0p+1", "0x1.82482d4c87736p-1",
        "0x1.7d2c5efc72e82p+0", "0x1.a1300c11113a6p+0", "0x1.b6d87c639d6e2p-2",
        "0x1.17ddbee33e9c0p+1", "-0x1.a71de8965c770p-1", "0x1.a2f11bded6790p-1",
        "0x1.17e6e65774d6ap+1", "0x1.5453fdb5c1f18p-1", "-0x1.1bebdabdaba5fp+0",
        "-0x1.147a322131202p-2", "-0x1.6053efc82a1b2p-3", "0x1.32ba56de962b8p+0",
        "-0x1.38613c3a067e8p-2"],
    ("stressed", "mixed"): [
        "0x1.02d1b6eb0b8dep-1", "0x1.7836db6971a97p-1", "0x1.3bc74b58b9070p-1",
        "0x1.1e124cbecfad8p-1", "0x1.82e9c66e57a21p-1", "0x1.217fd17aafc47p-1",
        "0x1.209942bbc2501p-1", "0x1.1392e9b13644ap-1", "0x1.581c81391edd0p-1",
        "0x1.d38578d74bf9cp-1", "0x1.7f15a869e6ef0p-1", "0x1.a521d84ef14b9p-2",
        "0x1.ba2e41fb4af6dp-2", "0x1.2864e68455303p-1", "0x1.2e38c0bc1a638p-1",
        "0x1.07eb6406a09ddp-1"],
    ("coupled", "periodic"): [
        "0x1.40c9da72a4340p-2", "0x1.3ed0d5ddbd536p-2", "0x1.a7af3f50763a6p-3",
        "0x1.6ec71cdf289d0p-4", "0x1.5520d2d22bfa4p-7"],
    # Recorded while every step still built each ``ones`` term's array and
    # multiplied it by its profile value.  stationary's drift and diffusion
    # hold ``ones`` terms only.
    ("integrate", "stationary"): ["0x1.4a1a76fb7469fp-1"],
    ("stressed", "stationary"): [
        "0x1.adbb74e0c01fbp-2", "0x1.63b6b41a6cbd0p-3", "0x1.675d8daac0d7ap-1",
        "0x1.1b7ced1ef5260p-1", "0x1.59b561b965871p-1", "0x1.e114557c663c6p-4",
        "0x1.c2c7dfc72e7f5p-3", "0x1.7ebcf2f467c96p-2", "0x1.37aee7a748f14p-2",
        "0x1.7927e0f5ec5f9p-1", "0x1.64b118e2514a4p-1", "0x1.e864223af1a93p-3",
        "0x1.47049e352784fp-2", "0x1.9f5da1f3cd31ep-2", "0x1.cbdf0385ff366p-2",
        "0x1.ad9a502827a3fp-2"],
}

# simulate_ensemble arguments after the model: window, y0, n_paths,
# max_step, seed, obs_times
ENSEMBLE_CASES = {"ensemble": ((0.0, 2.0), 0.5, 4, 0.01, 3, [2.0]),
                  "stressed": ((-2.0, 2.0), 0.5, 16, 0.25, 3, [2.0])}
# coupled_gap arguments after the two models, on the stressed grid: y0a,
# y0b, window, n_paths, max_step, seed, obs_times
COUPLED_CASE = (0.5, 1.5, (-2.0, 2.0), 16, 0.25, 3, np.linspace(0.0, 2.0, 5))
# integrate arguments after the model on the stressed grid: window, y0,
# max_step, seed; the path crosses t = 0 and jumps five times, both kinds
INTEGRATE_STRESSED = ((-2.0, 2.0), 0.5, 0.25, 5)


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
                              large_sampler=L.uniform_shell_marks(1.0, 2.0, signed=True))
    return L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(2.0,), K=1.0, omega=2.0),
                      coefficients=coeffs, wiener=L.WienerSpec(mode_variances=(0.5,)),
                      jumps=jumps)


def mixed_model():
    """periodic with a large jump linear in the state: one state-free jump
    kind and one state-dependent kind."""
    m = L.presets.periodic_model()
    large = L.jump_coefficient((L.periodic_profile(0.2, 1.0, np.pi / 2.0), L.linear_map(1.0)),
                               mark_mode="scalar")
    return replace(m, coefficients=replace(m.coefficients, large_jump=large))


def _model(name):
    if name == "every_map":
        return every_map_model()
    if name == "mixed":
        return mixed_model()
    if name == "ou_jump":
        return L.presets.ou_jump_model()             # no small jumps
    if name == "example61":
        return L.presets.example61_model(forcing=1.0)   # two drift terms
    if name == "periodic":
        return L.presets.periodic_model()               # scalar marks
    if name == "stationary":
        return L.presets.stationary_model()             # all-ones drift and diffusion
    return L.presets.example62_model(n_modes=8)         # pointwise (collocated) maps


def _integrate(m, max_step=0.01):
    return L.integrate(m, (0.0, 2.0), np.full(m.dim, 0.5), max_step, 7)


def _golden(driver, name):
    return np.array([float.fromhex(h) for h in GOLDEN[(driver, name)]])


def _most_jumps_of_one_path_in_one_step(m, window, y0, n_paths, max_step, seed, obs):
    """The most jumps of one path in one step of the uniform grid; ``n_paths``
    None reads the one path of ``integrate``, whose grid then splits the step
    at each jump time."""
    grid = refined_grid(window[0], window[1], max_step, obs)
    times, paths, _, _ = jump_table(m.jumps, window, seed,
                                    None if n_paths is None else range(n_paths))
    return np.bincount(paths * grid.size + np.searchsorted(grid, times), minlength=1).max()


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_integrate_terminal_state_is_pinned(name):
    path = _integrate(_model(name))
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", name))


def test_integrate_with_state_free_jumps_is_pinned():
    m = _model("periodic")
    window, y0, max_step, seed = INTEGRATE_STRESSED
    assert _most_jumps_of_one_path_in_one_step(m, window, y0, None, max_step, seed, []) >= 2
    path = L.integrate(m, *INTEGRATE_STRESSED)
    assert set(path.jump_flags.tolist()) == {0, 1, 2}
    assert np.array_equal(path.values[-1], _golden("integrate", "periodic"))


@pytest.mark.parametrize("case, name", [
    ("ensemble", "example61"), ("ensemble", "heat8"), ("stressed", "example61"),
    ("stressed", "heat8"), ("stressed", "periodic"), ("stressed", "ou_jump"),
    ("stressed", "mixed")],
    ids=["example61", "heat8", "stressed-example61", "stressed-heat8", "stressed-periodic",
         "stressed-ou_jump", "stressed-mixed"])
def test_ensemble_terminal_states_are_pinned(case, name):
    m = _model(name)
    args = ENSEMBLE_CASES[case]
    if case == "stressed":
        assert _most_jumps_of_one_path_in_one_step(m, *args) >= 2
    res = simulate_ensemble(m, *args)
    assert np.array_equal(res.states[-1].ravel(), _golden(case, name))


def _assert_coupled_gap_is_pinned(name):
    # the shifted model reads other profile values on the same noise; steps
    # hold several jumps of one path
    m = _model(name)
    y0a, _, window, *rest = COUPLED_CASE
    assert _most_jumps_of_one_path_in_one_step(m, window, y0a, *rest) >= 2
    curve = L.coupled_gap(m, m.shifted(0.7), *COUPLED_CASE)
    assert np.array_equal(curve.gap, _golden("coupled", name))


def test_coupled_gap_is_pinned():
    _assert_coupled_gap_is_pinned("example61")


def test_coupled_gap_of_state_free_jumps_is_pinned():
    _assert_coupled_gap_is_pinned("periodic")   # stacked blocks of stored increments


def test_every_state_map_kind_is_pinned():
    m = _model("every_map")
    path = L.integrate(m, (0.0, 2.0), np.array([-0.0]), 0.01, 7)
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", "every_map"))
    for case in ("ensemble", "stressed"):
        window, _, *rest = ENSEMBLE_CASES[case]
        res = simulate_ensemble(m, window, -0.0, *rest)
        assert np.array_equal(res.states[-1].ravel(), _golden(case, "every_map")), case


def test_all_ones_coefficients_are_pinned():
    m = _model("stationary")
    path = L.integrate(m, *INTEGRATE_STRESSED)
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", "stationary"))
    res = simulate_ensemble(m, *ENSEMBLE_CASES["stressed"])
    assert np.array_equal(res.states[-1].ravel(), _golden("stressed", "stationary"))


def _jump_slices(m, window, n_paths, max_step, seed, obs):
    """The (step, round) and the (step, round, kind) groups of the jumps of an
    ensemble run, round r holding each path's (r+1)-th jump in the step."""
    grid = refined_grid(window[0], window[1], max_step, obs)
    times, paths, kinds, _ = jump_table(m.jumps, window, seed, range(n_paths))
    steps = np.clip(np.searchsorted(grid, times) - 1, 0, grid.size - 2)
    order = np.lexsort((times, steps, paths))
    ranks, groups = Counter(), set()
    for p, i, k in zip(*(a[order].tolist() for a in (paths, steps, kinds))):
        groups.add((i, ranks[p, i], k))
        ranks[p, i] += 1
    return len({g[:2] for g in groups}), len(groups)


@pytest.mark.parametrize("name, shared", [("example61", True), ("periodic", True),
                                          ("every_map", False), ("heat8", False),
                                          ("mixed", False)])
def test_kinds_that_share_a_kernel_make_one_jump_call_per_step_and_round(
        name, shared, monkeypatch):
    # heat8 is a Galerkin model, whose transforms keep the batch sizes of one
    # slice per (step, round, kind).  Without a Galerkin spec, small and large
    # jumps of example61 and periodic differ only in their profiles (they
    # shared one slice per step and round once), and every_map's and mixed's
    # do not; now each event of a kind that reads the state evaluates its
    # state maps once at its own float, and a kind of ``ones`` terms
    # (periodic's, mixed's small one) is tabulated on all events, once per chunk
    calls, floats = [], []
    direct, maps = L.JumpCoefficient.event_kernel, L.model.StateMaps.__call__

    def counted(self, *args):
        jump = direct(self, *args)
        return lambda j, y: calls.append(j) or jump(j, y)

    monkeypatch.setattr(L.JumpCoefficient, "event_kernel", counted)
    monkeypatch.setattr(L.model.StateMaps, "__call__",
                        lambda self, y: floats.append(isinstance(y, float)) or maps(self, y))
    m = _model(name)
    shape = integrator._structure(m).coefficients
    assert shared == (m.galerkin is None and shape.small_jump == shape.large_jump)
    window, _, *rest = args = ENSEMBLE_CASES["stressed"]
    per_round, per_kind = _jump_slices(m, window, *rest)
    assert per_round < per_kind   # some round holds jumps of both kinds
    simulate_ensemble(m, *args)
    if name == "heat8":
        assert len(calls) == per_kind
        return
    n_paths, _, seed, _ = rest   # the stressed case is one chunk
    _, _, kinds, _ = jump_table(m.jumps, window, seed, range(n_paths))
    # (tabulated kinds, events evaluated one by one)
    large = np.count_nonzero(kinds == L.noise.JUMP_LARGE)
    tabulated, per_event = {"periodic": (2, 0), "mixed": (1, large)}.get(name, (0, kinds.size))
    assert calls == [slice(None)] * tabulated
    assert sum(floats) == per_event


# -- the per-event jump route against the per-slice route it replaced ----------
#
# Until the per-event route, every model applied its jumps in (step, round,
# kind) slices, as Galerkin models still do; the state-free and merged-kind
# shortcuts of that time gave its bits too.  It stays here as the oracle of
# the per-event route, which must give the same bits, signed zeros included.

def _jump_kernel_oracle(models, grid, events):
    times, paths, kinds, marks = events
    interval = np.clip(np.searchsorted(grid, times, side="left") - 1, 0, grid.size - 2)
    order = np.lexsort((times, paths, interval))
    times, paths, kinds, marks, interval = (a[order] for a in
                                            (times, paths, kinds, marks, interval))
    pos = np.arange(times.size)
    first = np.ones(times.size, dtype=bool)
    first[1:] = (paths[1:] != paths[:-1]) | (interval[1:] != interval[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    lead = times - np.where(first, grid[interval], np.roll(times, 1))
    frac = lead / (grid[interval + 1] - grid[interval])
    model, blocks = models[0], (slice(None),) * (len(models) > 1)
    lam, c = model.semigroup.rates, model.coefficients
    neg_ldt = -np.outer(lead, lam)
    dec_in, phi1 = np.exp(neg_ldt), -np.expm1(neg_ldt) / lam
    dec_out = np.exp(-np.outer(grid[interval + 1] - times, lam))
    regroup = np.lexsort((paths, kinds, rank, interval))
    back = np.argsort(regroup)[regroup - 1]
    paths, kinds, marks, interval, rank, frac, dec_in, phi1, dec_out = (
        a[regroup] for a in (paths, kinds, marks, interval, rank, frac, dec_in, phi1, dec_out))

    def per_block(rows):
        return np.stack(rows) if blocks else rows[0]

    small, large = ([getattr(m.coefficients, name).profile_table(times)[regroup][:, None]
                     for m in models] for name in ("small_jump", "large_jump"))
    kernels = {key: coef.event_kernel(
        per_block(rows), per_block([marks[:, :1] if coef.mark_mode == "scalar" else marks]),
        model.galerkin) for key, rows, coef in ((1, small, c.small_jump),
                                                (2, large, c.large_jump))}
    starts = np.flatnonzero(np.r_[times.size > 0, np.any(np.diff([interval, rank, kinds]), 0)])
    schedule = {}
    for a, b, i, key, r in zip(*(x.tolist() for x in (
            starts, np.append(starts[1:], times.size), interval[starts], kinds[starts],
            rank[starts]))):
        sl = slice(a, b)
        schedule.setdefault(i, []).append((sl, blocks + (sl,) if blocks else sl,
                                           kernels[key], r > 0))
    post = per_block([np.empty((times.size, model.dim))] * len(models))
    wiener = np.empty((times.size, model.wiener.dim))

    def read_slab(lo, dw):
        a, b = np.searchsorted(interval, (lo, lo + dw.shape[1])).tolist()
        wiener[a:b] = frac[a:b, None] * dw[paths[a:b], interval[a:b] - lo]

    def add_jumps(i, y, y_new, drift, gdiag):
        new = y_new
        if y.ndim < 2:
            y, new, drift, gdiag = (np.reshape(x, (1, -1)) for x in (y, y_new, drift, gdiag))
        gdiag = gdiag if gdiag.shape == y.shape else np.broadcast_to(gdiag, y.shape)
        for sl, j, jump, later in schedule.get(i, ()):
            p, d = blocks + (paths[sl],), dec_in[sl]
            pre = (d * (post[blocks + (back[sl],)] if later else y[p]) + phi1[sl] * drift[p]
                   + d * (gdiag[p] * wiener[sl]))
            raw = jump(j, pre)
            new[p] += dec_out[sl] * raw
            post[j] = pre + raw
        return y_new if y_new.ndim else new[0, 0]

    return read_slab, add_jumps, frozenset(schedule)


def plane_model(empty_large=False):
    """Two coordinates, no Galerkin spec: a diffusion of one ``ones`` term,
    which a step tabulates, whose profile a shift changes; a small jump of a
    leading ``ones`` term, ``y`` itself and a -0.0 profile, on signed scalar
    marks; a large jump of the other maps that ignores its vector marks or,
    ``empty_large``, one without terms on signed scalar marks (each jump a
    signed zero)."""
    y = L.linear_map(1.0)
    large = (L.jump_coefficient(mark_mode="scalar") if empty_large else L.jump_coefficient(
        (L.constant_profile(0.3), L.clipped_map(1.0, 0.5)),
        (L.periodic_profile(0.2, 1.0), L.cosine_map(0.5)),
        (L.constant_profile(0.1), L.ones_map(2.0))))
    coeffs = L.CoefficientSet(
        drift=L.coefficient((L.periodic_profile(0.4, 1.0), L.sine_map(0.5)),
                            (L.constant_profile(-0.2), y)),
        diffusion=L.coefficient((L.periodic_profile(0.3, 1.0, 0.4), L.ones_map(0.5))),
        small_jump=L.jump_coefficient((L.constant_profile(0.7), L.ones_map(-1.5)),
                                      (L.periodic_profile(0.3, 2.0), y),
                                      (L.constant_profile(-0.0), L.sine_map(1.0)),
                                      mark_mode="scalar"),
        large_jump=large, A0=1.0, lipschitz_L=0.6)
    jumps = L.JumpMeasureSpec(
        small_rate=3.0, small_sampler=L.uniform_shell_marks(0.1, 1.0, signed=True),
        truncation_delta=0.1, large_rate=2.0,
        large_sampler=(L.uniform_shell_marks(1.0, 2.0, signed=True) if empty_large
                       else L.finite_rank_marks([[1.0, 0.0], [0.0, -2.0]], [0.5, 0.5])))
    return L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(2.0, 3.0), K=1.0, omega=2.0),
                      coefficients=coeffs, wiener=L.WienerSpec((0.5, 0.2)), jumps=jumps)


def _oracle_models(name):
    # linear: example61 without forcing, every term linear, so a path from
    # -0.0 stays a signed zero
    m = (plane_model(name.startswith("plane-empty")) if name.startswith("plane")
         else L.presets.example61_model() if name.startswith("linear")
         else _model(name.split("-")[0]))
    return (m, m.shifted(0.7)) if name.endswith("stacked") else (m,)


# window, max_step and seed of the oracle's chunk loops: the steps hold
# several jumps of a path, on both sides of t = 0
ORACLE_CASE = ((-3.0, 2.0), 0.5, 2)


def _chunk_states(models, y, kernel, monkeypatch, paths):
    """Every state of the chunk loop of ``models`` from ``y`` on the uniform
    grid of ``ORACLE_CASE``, with the jump rule ``kernel``."""
    monkeypatch.setattr(L.ensemble, "jump_kernel", kernel)
    window, max_step, seed = ORACLE_CASE
    grid = refined_grid(*window, max_step, [])
    out = np.empty((grid.size,) + np.shape(y))
    advance = L.ensemble._run_chunk(models, step_kernel(models, grid), grid,
                                    np.arange(grid.size), y,
                                    jump_table(models[0].jumps, window, seed, paths), out)
    for slab in wiener_slabs(models[0].wiener, grid, seed, paths):
        advance(*slab)
    return out


@pytest.mark.parametrize("name, state", [
    (name, state) for name in ("example61", "linear", "every_map", "mixed", "periodic",
                               "stationary", "ou_jump", "plane", "plane-empty",
                               "example61-stacked", "linear-stacked", "mixed-stacked",
                               "periodic-stacked", "plane-stacked")
    for state in ("batch", "broadcast", "one_path")[:2 if name.endswith("stacked") else 3]])
def test_per_event_jumps_match_the_per_slice_oracle_bit_for_bit(name, state, monkeypatch):
    # every state of the driver loop, with rounds of 2 and more jumps in a
    # step, the mirror side, -0.0 states, each map kind, ignored, scalar and
    # vector marks, stacked blocks and tabulated (ones) diffusions; a one-path
    # state is integrate's 0-d or (dim,) one, and a broadcast batch is the
    # view initial_states returns, which a first step reads
    models = _oracle_models(name)
    m, k = models[0], len(models)
    paths = None if state == "one_path" else range(7)
    window, max_step, seed = ORACLE_CASE
    assert _most_jumps_of_one_path_in_one_step(m, window, 0.0, paths and 7, max_step, seed,
                                               []) >= 2
    if state == "one_path":   # stacked models step batches only
        y = ensemble.path_state(m, np.array([-0.0, 0.4])[:m.dim])
    elif state == "broadcast":
        y = initial_states(np.array([-0.0, 0.4])[:m.dim], 7, m.dim)
        y = np.broadcast_to(y, (k,) + y.shape) if k > 1 else y
    else:
        y = np.random.default_rng(5).normal(size=(k, 7, m.dim))
        y[:, 0] = -0.0
        y = y if k > 1 else y[0]
    got = _chunk_states(models, y, integrator.jump_kernel, monkeypatch, paths)
    want = _chunk_states(models, y, _jump_kernel_oracle, monkeypatch, paths)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["linear", "every_map", "mixed", "periodic", "plane",
                                  "plane-empty"])
def test_each_event_jump_is_the_per_slice_kernel_of_that_event(name):
    # the jump values themselves, whose signed zeros the states may not show
    m = _oracle_models(name)[0]
    window, _, seed = ORACLE_CASE
    times, _, _, marks = jump_table(m.jumps, window, seed, range(7))
    states = np.random.default_rng(1).normal(size=times.size) * np.tile([0.0, -0.0, 1.0], 99)[
        :times.size]
    for coef in (m.coefficients.small_jump, m.coefficients.large_jump):
        jump = integrator._event_jump(coef, times, marks)
        kernel = coef.event_kernel(coef.profile_table(times)[:, None],
                                   marks[:, :1] if coef.mark_mode == "scalar" else marks)
        for e, y in enumerate(states.tolist()):
            want = kernel(slice(e, e + 1), np.full((1, 1), y))[0, 0]
            assert float(jump(e, y)).hex() == want.hex()


def test_per_event_maps_of_a_float_state_return_floats(monkeypatch):
    # a numpy scalar from one map would run the rest of the path's chain in
    # the step as numpy scalar arithmetic
    outs, call = [], L.model.StateMaps.__call__

    def recorded(self, y):
        vals = call(self, y)
        if type(y) is float:
            outs.extend(vals[2:])
        return vals

    monkeypatch.setattr(L.model.StateMaps, "__call__", recorded)
    window, _, *rest = ENSEMBLE_CASES["stressed"]
    simulate_ensemble(_model("every_map"), window, -0.0, *rest)
    assert len(outs) > 100
    assert {type(v) for v in outs} == {float}


@pytest.mark.parametrize("name", ["example61", "linear", "every_map", "mixed", "periodic",
                                  "plane", "plane-empty"])
def test_integrate_per_event_jumps_match_the_per_slice_oracle_bit_for_bit(name, monkeypatch):
    # integrate's path of a one-component model steps a 0-d state
    (m,) = _oracle_models(name)
    paths = [L.integrate(m, *INTEGRATE_STRESSED) for kernel in (integrator.jump_kernel,
                                                               _jump_kernel_oracle)
             if not monkeypatch.setattr(L.ensemble, "jump_kernel", kernel)]
    assert np.count_nonzero(paths[0].jump_flags) >= 2
    assert paths[0].values.tobytes() == paths[1].values.tobytes()


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


def test_ones_maps_are_tabulated_per_grid_not_per_step(monkeypatch):
    calls = []
    direct = _MAP_KINDS["ones"]
    monkeypatch.setitem(_MAP_KINDS, "ones", lambda m, y: calls.append(m) or direct(m, y))
    m = _model("periodic")   # ones terms in every coefficient
    counts = []
    for max_step in (0.01, 0.001):
        calls.clear()
        _integrate(m, max_step)
        counts.append(len(calls))
        calls.clear()
        simulate_ensemble(m, (0.0, 2.0), 0.5, 4, max_step, 3, [2.0])
        counts.append(len(calls))
    # ten times the steps, the same number of ones arrays: none from the step
    assert counts[:2] == counts[2:]
    calls.clear()
    step = step_kernel((m,), np.linspace(0.0, 1.0, 11))
    for i in range(10):
        step(i, np.full((4, 1), 0.5), np.ones((4, 1)))
    assert calls == []


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
    if (coef.pointwise or coef.mark_mode == "pointwise_product") and gal is not None:
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


def _step_models(name):
    if name == "drift_a":
        return (replace(every_map_model(), wiener=L.WienerSpec((0.5,), drift_a=(-0.7,))),)
    if name == "periodic_pair":   # stacked blocks, with other profile values each
        m = _model("periodic")
        return m, m.shifted(0.7)
    if name == "ones_runs":   # a leading run of scaled ones terms that sums to -0.0 at t = 0
        m = _model("stationary")
        drift = L.coefficient((L.constant_profile(-0.0), L.ones_map(1.0)),
                              (L.periodic_profile(0.4, 1.0), L.ones_map(-1.5)),
                              (L.constant_profile(-0.1), L.linear_map(1.0)))
        diffusion = L.coefficient((L.constant_profile(0.3), L.ones_map(2.0)))
        return (replace(m, coefficients=replace(m.coefficients, drift=drift,
                                                diffusion=diffusion)),)
    if name == "shared_y_pair":   # stacked blocks on a slot of several columns
        m = _step_models("shared_y")[0]
        return m, m.shifted(0.7)
    if name == "shared_y":   # drift, diffusion and compensator all read the slot of y
        zero, y = L.constant_profile(-0.0), L.linear_map(1.0)
        coeffs = L.CoefficientSet(
            drift=L.coefficient((zero, y), (L.periodic_profile(0.4, 1.0), y)),
            diffusion=L.coefficient((zero, y)),
            small_jump=L.jump_coefficient(   # a ones term first: a base after one product
                (L.constant_profile(0.7), L.ones_map(-1.5)), (L.constant_profile(0.2), y),
                (L.periodic_profile(0.3, 2.0), y), mark_mode="scalar"),
            large_jump=L.jump_coefficient(), A0=1.0, lipschitz_L=0.6)
        jumps = L.JumpMeasureSpec(small_rate=2.0, small_sampler=L.uniform_shell_marks(0.1, 1.0),
                                  truncation_delta=0.1)
        wiener = L.WienerSpec((0.5, 0.2), drift_a=(0.3, -0.2))
        return (L.SdeModel(semigroup=L.SemigroupSpec(eigenvalues=(2.0, 3.0), K=1.0, omega=2.0),
                           coefficients=coeffs, wiener=wiener, jumps=jumps),)
    return (_model(name),)


def _step_oracle(m, i, grid, y, dw):
    """The drift D, the end state and the diffusion of step ``i`` of one
    model, from its generic evaluations."""
    c, gal, a, t = m.coefficients, m.galerkin, m.wiener.drift, grid[i]
    gdiag = _apply_oracle(c.diffusion, c.diffusion.profile_table(t), y, gal)
    # the compensator as SdeModel.compensator_apply formed it
    comp = (-m.jumps.small_rate * _apply_mean_oracle(
        c.small_jump, c.small_jump.profile_table(t), y, m.jumps.small_sampler, gal)
        if m.jumps.small_rate else np.zeros_like(y))
    drift = _apply_oracle(c.drift, c.drift.profile_table(t), y, gal) + gdiag * a + comp
    lam_dt = -(grid[i + 1] - t) * m.semigroup.rates
    d, phi1 = np.exp(lam_dt), -np.expm1(lam_dt) / m.semigroup.rates
    return drift, d * y + phi1 * drift + d * (gdiag * dw), gdiag


@pytest.mark.parametrize("name", ["every_map", "heat8", "ou_jump", "periodic", "drift_a",
                                  "stationary", "periodic_pair", "ones_runs", "shared_y",
                                  "shared_y_pair"])
def test_compiled_step_matches_the_generic_oracle_bit_for_bit(name):
    # ou_jump has no small jumps and an empty drift; the step skips the zero
    # Wiener drift term of all but drift_a and the compensator of periodic,
    # whose signed small marks have mean zero.  stationary's drift and
    # diffusion hold ``ones`` terms only; periodic_pair steps two blocks
    # whose ``ones`` terms read different profile values; ones_runs holds
    # scales other than 1 and the signed zeros of a tabulated sum; shared_y
    # makes its five products with one multiply, rows of -0.0 profiles among
    # them.  Each product shape has its cases: a slot of one column (the
    # zero column of ou_jump and stationary, the y of periodic and
    # ones_runs) on 0-d states and batches, stacked in periodic_pair; a slot
    # of several columns (every_map, drift_a) on 0-d states and batches, and
    # (shared_y) on batches, stacked in shared_y_pair; heat8's Galerkin node
    # slots, one column each.  A one-component model without Galerkin spec
    # steps the 0-d states of integrate's one path, which stay numpy scalars.
    models = _step_models(name)
    m = models[0]
    grid = np.linspace(-1.0, 1.0, 9)
    step = step_kernel(models, grid)
    rng = np.random.default_rng(3)
    if len(models) == 1:
        states = (_signed_zero_states(rng, m.dim, 1)[0], _signed_zero_states(rng, m.dim, 1),
                  _signed_zero_states(rng, m.dim, 6))
        if m.dim == 1 and m.galerkin is None:
            states += (np.float64(-0.0), np.float64(rng.normal()))
    else:   # (k, n_paths, dim) states; each block reads the one (n_paths, dim) dw
        states = [np.stack([_signed_zero_states(rng, m.dim, n) for _ in models])
                  for n in (1, 6)]
    for y in states:
        dw = rng.normal(size=y.shape[len(models) > 1:])[()]   # a 0-d state reads a scalar
        for i in range(grid.size - 1):
            want = [_step_oracle(mb, i, grid, np.atleast_1d(yb), dw)
                    for mb, yb in (zip(models, y) if len(models) > 1 else [(m, y)])]
            drift, y_new, gdiag = (np.stack(w) if len(models) > 1 else np.reshape(w[0], y.shape)
                                   for w in zip(*want))
            got_y, got_drift, got_gdiag = step(i, y, dw)
            assert type(got_y) is type(y)
            assert _same_bits(got_drift, drift)
            assert _same_bits(got_y, y_new)
            # a tabulated diffusion is its base, 0-d or (k, 1, 1)
            assert _same_bits(np.broadcast_to(got_gdiag, gdiag.shape), gdiag)
