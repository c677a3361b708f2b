"""The exponential-Euler step kernel shared by both path drivers: pinned
outputs and profiles tabulated once per grid."""

import numpy as np
import pytest

import levylab as L
from levylab.ensemble import simulate_ensemble
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
}


def _model(name):
    if name == "example61":
        return L.presets.example61_model(forcing=1.0)   # two drift terms
    return L.presets.example62_model(n_modes=8)         # pointwise (collocated) maps


def _integrate(m, max_step=0.01):
    noise = L.sample_noise(m.wiener, m.jumps, (0.0, 2.0), 7)
    return L.integrate(m, noise, 0.0, 2.0, np.full(m.dim, 0.5), max_step)


def _golden(driver, name):
    return np.array([float.fromhex(h) for h in GOLDEN[(driver, name)]])


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_integrate_terminal_state_is_pinned(name):
    path = _integrate(_model(name))
    assert np.count_nonzero(path.jump_flags) >= 2
    assert np.array_equal(path.values[-1], _golden("integrate", name))


@pytest.mark.parametrize("name", ["example61", "heat8"])
def test_ensemble_terminal_states_are_pinned(name):
    m = _model(name)
    res = simulate_ensemble(m, (0.0, 2.0), 0.5, 4, 0.01, 3, [2.0])
    assert np.array_equal(res.states[-1].ravel(), _golden("ensemble", name))


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
