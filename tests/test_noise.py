"""Noise synthesis: Wiener increments, jump point sets, compensator."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import levylab as L
from levylab import ensemble, noise
from levylab.errors import InputError
from levylab.noise import JUMP_LARGE, JUMP_SMALL, jump_table, wiener_slabs

WIENER1 = L.WienerSpec(mode_variances=(1.0,))
SLAB_BYTES = noise.SLAB_BYTES


def _concat(slabs):
    """Wiener slabs (lo, dw), each (n_paths, rows, dim), as one (n_steps,
    n_paths, dim) block; each slab is copied before the next overwrites it."""
    slabs = [(lo, dw.copy()) for lo, dw in slabs]
    assert [lo for lo, _ in slabs] == [sum(dw.shape[1] for _, dw in slabs[:k])
                                       for k in range(len(slabs))]
    return np.concatenate([dw for _, dw in slabs], axis=1).transpose(1, 0, 2)


def _block(spec, grid, seed, paths=None):
    return _concat(wiener_slabs(spec, grid, seed, paths))


def _jump_spec(small_rate=1.0, large_rate=1.0):
    return L.JumpMeasureSpec(
        small_rate=small_rate,
        small_sampler=L.uniform_shell_marks(0.1, 1.0, signed=True) if small_rate else None,
        truncation_delta=0.1,
        large_rate=large_rate,
        large_sampler=L.uniform_shell_marks(1.0, 2.0) if large_rate else None)


# -- Wiener part -----------------------------------------------------------

def test_zero_length_interval_gives_zero_increment():
    grid = np.array([0.0, 0.5, 0.5, 1.0])
    incr = _block(WIENER1, grid, seed=1)
    assert incr[1, 0, 0] == 0.0


def test_degenerate_covariance_gives_zero_increments():
    spec = L.WienerSpec(mode_variances=(0.0, 0.0))
    incr = _block(spec, np.linspace(0, 1, 50), seed=2)
    assert np.all(incr == 0.0)


def test_increment_variance_matches_covariance_eigenvalue():
    # q = 1, dt = 0.5: sample variance of 1e5 draws within 5 SE of 0.5
    n = 100_000
    grid = np.arange(n + 1) * 0.5
    incr = _block(WIENER1, grid, seed=3)[:, 0, 0]
    var = incr.var(ddof=1)
    se = 0.5 * np.sqrt(2.0 / (n - 1))  # SE of a Gaussian sample variance
    assert abs(var - 0.5) < 5 * se


def test_nonmonotone_grid_rejected():
    with pytest.raises(InputError):   # at the call, before any slab is read
        wiener_slabs(WIENER1, np.array([0.0, 1.0, 0.5]), seed=0)


def test_stationarity_of_increments():
    # law over [s, s+dt] does not depend on s: compare moments at two offsets
    n = 60_000
    g1 = 5.0 + np.arange(n + 1) * 0.2
    g2 = -40.0 + np.arange(n + 1) * 0.2
    v1 = _block(WIENER1, g1, seed=4)[:, 0, 0]
    v2 = _block(WIENER1, g2, seed=5)[:, 0, 0]
    se = 0.2 * np.sqrt(2.0 / n)
    assert abs(v1.var() - v2.var()) < 5 * np.sqrt(2) * se
    assert abs(v1.mean() - v2.mean()) < 5 * np.sqrt(2) * np.sqrt(0.2 / n)


# -- jumps ------------------------------------------------------------------

def test_zero_rate_gives_empty_jump_list():
    spec = _jump_spec(small_rate=1.0, large_rate=0.0)
    times, paths, kinds, marks = jump_table(spec, (0.0, 10.0), seed=1)
    assert times.size > 0 and np.all(kinds == JUMP_SMALL) and np.all(paths == 0)


def test_poisson_mean_count():
    # b = 1, |window| = 10, 1e4 realizations: mean count within 5 SE of 10
    spec = _jump_spec(small_rate=0.0, large_rate=1.0)
    counts = [jump_table(spec, (0.0, 10.0), seed=s)[0].size for s in range(10_000)]
    counts = np.asarray(counts, dtype=float)
    se = np.sqrt(10.0 / counts.size)
    assert abs(counts.mean() - 10.0) < 5 * se


def test_small_marks_respect_truncation_shell():
    spec = _jump_spec()
    _, _, kinds, marks = jump_table(spec, (0.0, 200.0), seed=7)
    sm, lm = marks[kinds == JUMP_SMALL, 0], marks[kinds == JUMP_LARGE, 0]
    assert sm.size and lm.size
    assert np.all((np.abs(sm) >= 0.1) & (np.abs(sm) < 1.0))
    assert np.all(np.abs(lm) >= 1.0)


def test_jump_times_inside_window_and_sorted():
    spec = _jump_spec()
    times, _, kinds, _ = jump_table(spec, (-30.0, 30.0), seed=9)
    for kind in (JUMP_SMALL, JUMP_LARGE):
        assert np.all(np.diff(times[kinds == kind]) > 0)
    assert np.all((times > -30.0) & (times < 30.0))
    # the mirror stream populates the negative side too
    small = times[kinds == JUMP_SMALL]
    assert np.any(small < 0) and np.any(small > 0)


def test_realization_bit_reproducible():
    spec = _jump_spec()
    _assert_same(jump_table(spec, (-5.0, 5.0), seed=123), jump_table(spec, (-5.0, 5.0), seed=123))
    grid = np.linspace(-5, 5, 333)
    _assert_same([_block(WIENER1, grid, 123)], [_block(WIENER1, grid, 123)])


def test_distinct_path_indices_are_uncorrelated():
    # increment sums across realizations seeded from one master
    n = 4000
    sums = np.empty((n, 2))
    for p in range(n):
        seed = np.random.SeedSequence(entropy=99, spawn_key=(p,))
        incr = _block(WIENER1, np.linspace(0, 1, 9), seed)[:, 0]
        sums[p, 0] = incr[:4].sum()
        sums[p, 1] = incr[4:].sum()
    corr = np.corrcoef(sums[:-1, 0], sums[1:, 0])[0, 1]
    assert abs(corr) < 5.0 / np.sqrt(n)
    # within one realization, disjoint intervals are independent too
    corr2 = np.corrcoef(sums[:, 0], sums[:, 1])[0, 1]
    assert abs(corr2) < 5.0 / np.sqrt(n)


# -- streams ----------------------------------------------------------------

@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**70 + 5])
@pytest.mark.parametrize("prefix", [(), (3,)], ids=["int", "SeedSequence"])
def test_stream_words_are_numpys_seed_sequence_words(entropy, prefix):
    # the (n, 4) words of a bulk derivation are generate_state(4, np.uint64)
    # of numpy's SeedSequence per stream, for keys of length 1, 2 and 4
    seed = np.random.SeedSequence(entropy, spawn_key=prefix) if prefix else entropy
    for keys in ([(0,), (1,), (2**32 - 1,)], [(0, 0), (0, 3), (9, 1)],
                 [(0, 1, 0, 0), (0, 2, 1, 1), (4, 2, 1, 0)]):
        got = noise._stream_words(seed, None, keys)
        assert got.dtype == np.uint64 and got.shape == (len(keys), 4)
        for row, key in zip(got, keys):
            ss = np.random.SeedSequence(entropy, spawn_key=prefix + key)
            half = ss.generate_state(8, np.uint32).astype(np.uint64)
            assert np.array_equal(row, half[0::2] | half[1::2] << np.uint64(32))
            assert np.array_equal(row, ss.generate_state(4, np.uint64))


def _ref_rng(seed, *key):
    """One stream of the per-path sampler: a SeedSequence of its own."""
    entropy, prefix = ((seed.entropy, tuple(seed.spawn_key))
                       if isinstance(seed, np.random.SeedSequence) else (seed, ()))
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=prefix + key))


def _ref_wiener(spec, grid, seed):
    dt = np.diff(grid)
    return _ref_rng(seed, 0).standard_normal((dt.size, spec.dim)) * np.sqrt(np.outer(dt, spec.q))


def _ref_jumps(spec, window, seed):
    """The per-path jump sampler: per side of 0 and kind, a count and its
    sorted times from one stream, the marks from another; the negative side
    mirrored; each kind merged by a stable sort."""
    t0, t1 = window
    parts = {1: [], 2: []}
    for side, (a, b) in enumerate(((max(t0, 0.0), max(t1, 0.0)), (max(-t1, 0.0), max(-t0, 0.0)))):
        for kind, rate, sampler in ((1, spec.small_rate, spec.small_sampler),
                                    (2, spec.large_rate, spec.large_sampler)):
            if b <= a or rate <= 0:
                continue
            rng = _ref_rng(seed, 1 + side, kind - 1, 0)
            n = rng.poisson(rate * (b - a))
            times = a + np.sort(rng.uniform(0.0, b - a, size=n))
            marks = (sampler.sample(_ref_rng(seed, 1 + side, kind - 1, 1), n) if n else
                     np.zeros((0,) if sampler.dim == 1 else (0, sampler.dim)))
            if side == 1:
                times, marks = -times[::-1], -(marks[::-1] if marks.size else marks)
            keep = (times > t0) & (times < t1)
            parts[kind].append((times[keep], marks[keep]))
    out = []
    for kind, sampler in ((1, spec.small_sampler), (2, spec.large_sampler)):
        dim = sampler.dim if sampler is not None else 1
        if parts[kind]:
            times = np.concatenate([t for t, _ in parts[kind]])
            order = np.argsort(times, kind="stable")
            out += [times[order], np.concatenate([m for _, m in parts[kind]])[order]]
        else:
            out += [np.zeros(0), np.zeros((0,) if dim == 1 else (0, dim))]
    return tuple(out)


def _ref_events(paths_jumps):
    """The chunk's jump table of the per-path sampler: per path in order,
    its small then its large events; marks as rows, zero-padded."""
    times, paths, kinds, marks = [], [], [], []
    for p, (st, sm, lt, lm) in enumerate(paths_jumps):
        for t_arr, m_arr, kind in ((st, sm, JUMP_SMALL), (lt, lm, JUMP_LARGE)):
            times.append(t_arr)
            paths.append(np.full(t_arr.size, p))
            kinds.append(np.full(t_arr.size, kind, dtype=np.int8))
            marks.append(m_arr[:, None] if m_arr.ndim == 1 else m_arr)
    mark_dim = max(m.shape[1] for m in marks)
    marks = np.concatenate([m if m.shape[1] == mark_dim else
                            np.pad(m, ((0, 0), (0, mark_dim - m.shape[1]))) for m in marks])
    return tuple(np.concatenate(a) for a in (times, paths, kinds)) + (marks,)


def _ref_chunk(model, grid, window, seed, paths):
    seeds = [np.random.SeedSequence(seed, spawn_key=(p,)) for p in paths]
    return (np.stack([_ref_wiener(model.wiener, grid, s) for s in seeds], axis=1),
            _ref_events([_ref_jumps(model.jumps, window, s) for s in seeds]))


def _assert_same(got, want):
    """Equal arrays, dtypes and shapes; a chunk draw is (block, events)."""
    flat = lambda x: [a for part in x for a in (part if isinstance(part, tuple) else [part])]
    for a, b in zip(flat(got), flat(want), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _draw_model(name):
    if name == "tails":   # scalar point-mass small marks, 2-d vector large marks
        return SimpleNamespace(wiener=L.WienerSpec((1.0, 0.25)), jumps=L.JumpMeasureSpec(
            small_rate=1.5, small_sampler=L.point_mass_marks(0.5), large_rate=0.8,
            large_sampler=L.finite_rank_marks([[1.0, 0.5], [0.0, 2.0]], [0.4, 0.6])))
    if name == "exp_tail":
        return SimpleNamespace(wiener=WIENER1, jumps=L.JumpMeasureSpec(
            large_rate=1.2, large_sampler=L.exp_tail_marks(0.5, signed=True)))
    return {"example61": L.presets.example61_model,
            "zero_small": lambda: L.presets.example61_model(small_rate=0.0),
            "periodic": L.presets.periodic_model,
            "heat8": lambda: L.presets.example62_model(n_modes=8)}[name]()


def _slab_rows(monkeypatch, rows, n_paths, dim):
    """Draw ``n_paths`` paths of ``dim`` modes in slabs of ``rows`` steps
    (``None``: the default slab size)."""
    monkeypatch.setattr(noise, "SLAB_BYTES",
                        SLAB_BYTES if rows is None else 8 * n_paths * dim * rows)


@pytest.mark.parametrize("window", [(0.5, 3.0), (-3.0, -0.25), (-2.0, 1.5), (-1.0, 0.0)],
                         ids=["positive", "negative", "straddling", "up-to-0"])
@pytest.mark.parametrize("name", ["example61", "zero_small", "periodic", "heat8", "tails",
                                  "exp_tail"])
def test_bulk_draw_is_the_per_path_draw_bit_for_bit(name, window, monkeypatch):
    # a chunk's concatenated Wiener slabs and its jump table, and the one-path
    # draws of integrate, equal those of the per-path sampler with one
    # SeedSequence per stream, for slabs of 1 and 7 steps (7 does not divide
    # the 40 steps) and of the default size
    m = _draw_model(name)
    grid = np.linspace(window[0], window[1], 41)
    for rows, seed in itertools.product((None, 1, 7), (11, 2**70)):
        _slab_rows(monkeypatch, rows, 13, m.wiener.dim)
        events, slabs = ensemble._draw_chunk(m, grid, window, seed, range(3, 16))
        _assert_same((_concat(slabs), events), _ref_chunk(m, grid, window, seed, range(3, 16)))
        for one in (seed, np.random.SeedSequence(seed, spawn_key=(5,))):
            _assert_same(jump_table(m.jumps, window, one),
                         _ref_events([_ref_jumps(m.jumps, window, one)]))
            _assert_same([_block(m.wiener, grid, one)],
                         [_ref_wiener(m.wiener, grid, one)[:, None]])


def test_uneven_chunks_draw_the_per_path_noise(monkeypatch):
    # 12 paths in chunks of 5: each chunk's draw is the per-path draw of its
    # own paths, keyed by their indices in the ensemble; the slabs that the
    # run reads (of the default size, and of 7 steps for 5 paths) concatenate
    # to the per-path Wiener block
    draw = ensemble._draw_chunk
    monkeypatch.setattr(ensemble, "CHUNK", 5)

    def tap(*args):
        events, slabs = draw(*args)
        draws.append((args, events, []))
        return events, (draws[-1][2].append((lo, dw.copy())) or (lo, dw) for lo, dw in slabs)

    monkeypatch.setattr(ensemble, "_draw_chunk", tap)
    for rows in (None, 7):
        draws = []
        _slab_rows(monkeypatch, rows, 5, 1)
        L.simulate_ensemble(L.presets.periodic_model(), (-1.0, 2.0), 0.5, 12, 0.05, 7, [2.0])
        assert [list(args[-1]) for args, _, _ in draws] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9],
                                                            [10, 11]]
        for args, events, slabs in draws:
            _assert_same((_concat(slabs), events), _ref_chunk(*args))


@pytest.mark.parametrize("seed", [True, 1.5, 2.0, "3", -1, None,
                                  np.random.SeedSequence([1, 2])],
                         ids=["bool", "float", "integral-float", "str", "negative", "none",
                              "entropy-list"])
def test_bad_seeds_are_rejected_at_the_draw(seed):
    spec = _jump_spec()
    m = L.presets.example61_model()
    for draw in (lambda: jump_table(spec, (0.0, 1.0), seed),
                 lambda: wiener_slabs(WIENER1, [0.0, 1.0], seed),
                 lambda: L.integrate(m, (0, 1), 0.0, 0.1, seed),
                 lambda: L.simulate_ensemble(m, (0, 1), 0.0, 3, 0.1, seed, [1.0])):
        with pytest.raises(InputError, match="seed"):
            draw()


@pytest.mark.parametrize("window", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_nonfinite_windows_are_rejected_at_the_draw(window):
    # by the draw, and by both drivers before they build a grid on the window
    m = L.presets.example61_model()
    for draw in (lambda: jump_table(_jump_spec(), window, 1),
                 lambda: L.integrate(m, window, 0.0, 0.1, 1),
                 lambda: L.simulate_ensemble(m, window, 0.0, 3, 0.1, 1, [])):
        with pytest.raises(InputError, match="window"):
            draw()
    with pytest.raises(InputError, match="grid"):
        wiener_slabs(WIENER1, window, 1)


# -- mark samplers ----------------------------------------------------------

def test_sampler_moments_match_samples():
    rng = np.random.default_rng(0)
    for sampler in (L.uniform_shell_marks(0.1, 1.0, signed=True),
                    L.uniform_shell_marks(1.0, 2.0),
                    L.exp_tail_marks(0.5, cut=1.0),
                    L.finite_rank_marks([[1.0, 0.0], [0.0, 2.0]], [0.3, 0.7])):
        x = sampler.sample(rng, 200_000)
        norms = np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=1)
        m2 = sampler.abs_moment(2)
        se = norms.var(ddof=1) / np.sqrt(x.shape[0])  # loose scale
        assert abs((norms**2).mean() - m2) < 5 * np.sqrt((norms**4).mean() / x.shape[0]) + 1e-12


def test_exp_tail_moments_vs_quadrature_closed_forms():
    s = L.exp_tail_marks(0.5, cut=1.0)
    # E(1+E)^1 = 1 + scale;  E(1+E)^2 = 1 + 2 scale + 2 scale^2
    assert s.abs_moment(1) == pytest.approx(1.5, abs=1e-10)
    assert s.abs_moment(2) == pytest.approx(1 + 1 + 0.5, abs=1e-10)


@pytest.mark.parametrize("n", [*range(51), 1000])
def test_signed_marks_draw_their_signs_as_generator_choice(n):
    # the sampler reads each sign from raw words as the draw that
    # Generator.choice([-1.0, 1.0]) makes, integers(0, 2); the marks and the
    # stream's 64-bit state after them must match that oracle bit for bit,
    # at odd and even sizes and over several seeds
    for seed in (21, 22, 23, 2**40 + 5, 987654321):
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = oracle.uniform(0.1, 1.0, n) * oracle.choice([-1.0, 1.0], size=n)
        got = L.uniform_shell_marks(0.1, 1.0, signed=True).sample(rng, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, n)
        assert rng.random() == oracle.random()


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_draws_are_numpys_own_calls_bit_for_bit():
    # the sampler and the jump times use the expressions inside numpy's
    # uniform and choice; over 306 seeds, every size 0-50 six times, the draws
    # and a following integers draw must match numpy's own calls
    atoms, probs = [[1.0, 0.0], [0.5, -0.5], [-0.0, 2.0]], [0.2, 0.3, 0.5]
    rank, shell = L.finite_rank_marks(atoms, probs), L.uniform_shell_marks(0.1, 1.0)
    for seed in range(306):
        n, span = seed % 51, 10.0 ** (seed % 7 - 3) * (1.0 + seed / 7.0)
        for got, want in (
                (lambda r: rank.sample(r, n),
                 lambda r: np.asarray(atoms)[r.choice(3, size=n, p=probs)]),
                (lambda r: shell.sample(r, n), lambda r: r.uniform(0.1, 1.0, size=n)),
                (lambda r: span * r.random(n), lambda r: r.uniform(0.0, span, size=n))):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _same_bits(got(rng), want(oracle)), (seed, n)
            assert np.array_equal(rng.integers(0, 2**62, 4), oracle.integers(0, 2**62, 4))


def test_point_mass_sampler():
    s = L.point_mass_marks(1.5)
    x = s.sample(np.random.default_rng(1), 5)
    assert np.all(x == 1.5)
    assert s.mean() == 1.5 and s.abs_moment(3) == 1.5**3


# -- compensator -----------------------------------------------------------

def small_jump_compensator(spec: L.JumpMeasureSpec, F, t: float, y: np.ndarray) -> np.ndarray:
    """Oracle: ``-small_rate * E_mark[ F(t, y, mark) ]`` with the mark
    expectation taken by fixed-node quadrature over the registry law
    (exact nodes for discrete laws, Gauss rules otherwise)."""
    y = np.asarray(y, dtype=float)
    if spec.small_rate == 0.0:
        return np.zeros_like(y)
    nodes, weights = spec.small_sampler.quadrature()
    acc = np.zeros_like(y)
    for x, w in zip(nodes, weights):
        acc = acc + w * np.asarray(F(t, y, x), dtype=float)
    return -spec.small_rate * acc


def test_compensator_zero_when_no_small_activity():
    spec = _jump_spec(small_rate=0.0)
    out = small_jump_compensator(spec, lambda t, y, x: y, 0.0, np.array([2.0]))
    assert np.all(out == 0.0)


def test_compensator_collapses_for_mark_independent_coefficient():
    # F(t, y, x) = y/5 independent of the mark: drift is exactly -rate*y/5
    spec = _jump_spec(small_rate=1.3)
    y = np.array([2.0])
    out = small_jump_compensator(spec, lambda t, y_, x: y_ / 5.0, 0.0, y)
    assert out[0] == pytest.approx(-1.3 * 2.0 / 5.0, abs=1e-14)


def test_compensator_quadrature_matches_uniform_mean():
    # F = x with marks uniform on [delta, 1): E = (1 + delta)/2
    delta = 0.1
    spec = L.JumpMeasureSpec(small_rate=2.0,
                             small_sampler=L.uniform_shell_marks(delta, 1.0),
                             truncation_delta=delta)
    out = small_jump_compensator(spec, lambda t, y, x: np.array([x]), 0.0,
                                 np.array([0.0]))
    assert out[0] == pytest.approx(-2.0 * (1 + delta) / 2.0, abs=1e-10)


def test_model_compensator_matches_generic_quadrature():
    m = L.presets.example61_model()
    y = np.array([1.7])
    small = m.coefficients.small_jump
    # the compensator as the step kernel forms it, from the mark mean
    got = -m.jumps.small_rate * small.value(0.3, y, m.jumps.small_sampler.mean(), m.galerkin)
    want = small_jump_compensator(
        m.jumps, lambda t, y_, x: small.value(t, y_, x, m.galerkin), 0.3, y)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("which", ["small", "large"])
def test_positive_rate_needs_a_sampler(which):
    with pytest.raises(InputError, match=f"{which}_sampler"):
        L.JumpMeasureSpec(**{f"{which}_rate": 1.0})
    # rate 0 without a sampler stays legal
    assert L.JumpMeasureSpec(**{f"{which}_rate": 0.0}).mark_moment(which, 2) == 0.0


def test_invalid_specs_rejected():
    with pytest.raises(InputError):
        L.JumpMeasureSpec(small_rate=1.0,
                          small_sampler=L.uniform_shell_marks(0.0, 0.5),
                          truncation_delta=0.1)   # support below delta
    with pytest.raises(InputError):
        L.JumpMeasureSpec(large_rate=1.0,
                          large_sampler=L.uniform_shell_marks(0.5, 1.5))  # below 1
    with pytest.raises(InputError):
        L.WienerSpec(mode_variances=(-1.0,))


@pytest.mark.parametrize("make, name", [
    (lambda: L.JumpMeasureSpec(small_rate=np.nan), "small_rate"),
    (lambda: L.JumpMeasureSpec(large_rate=np.nan), "large_rate"),
    (lambda: L.JumpMeasureSpec(small_rate=np.inf), "small_rate"),
    (lambda: L.finite_rank_marks([[1.0], [2.0]], [np.nan, 1.0]), "probs"),
    (lambda: L.finite_rank_marks([[1.0], [2.0]], [-0.5, 1.5]), "probs"),
    (lambda: L.finite_rank_marks([[1.0], [np.nan]], [0.5, 0.5]), "atoms"),
    (lambda: L.finite_rank_marks([[1.0, 0.0], [2.0]], [0.5, 0.5]), "finite_rank atoms"),
    (lambda: L.finite_rank_marks([1.0, [2.0]], [0.5, 0.5]), "finite_rank atoms"),
    (lambda: L.finite_rank_marks([[[1.0, 0.0]], [[2.0, 0.0]]], [0.5, 0.5]),
     "finite_rank atoms"),
    (lambda: L.point_mass_marks([[1.0, 0.0]]), "point_mass atoms"),
    (lambda: L.point_mass_marks(np.inf), "atoms"),
    (lambda: L.exp_tail_marks(-1.0), "scale"),
    (lambda: L.exp_tail_marks(np.nan), "scale"),
    (lambda: L.exp_tail_marks(1.0, cut=np.nan), "cut"),
    (lambda: L.uniform_shell_marks(1.0, np.inf), "hi"),
    (lambda: L.WienerSpec(mode_variances=(np.nan,)), "mode variances"),
    (lambda: L.WienerSpec(mode_variances=(1.0,), drift_a=(np.nan,)), "drift_a")])
def test_nan_and_invalid_noise_parameters_are_rejected_at_construction(make, name):
    # each constructed and failed at the first step or draw: an AttributeError
    # on the missing sampler, numpy's "Probabilities contain NaN", "scale < 0"
    # or "inhomogeneous shape" (atoms of two shapes); matrix atoms gave a dim
    # of 1 and marks of 2 columns; a NaN variance passed check_conditions and
    # blew up at the first step
    with pytest.raises(InputError, match=name):
        make()


def test_mark_moments_match_sampler_moments():
    spec = _jump_spec()
    assert spec.mark_moment("small", 2) == spec.small_sampler.abs_moment(2)
    assert spec.mark_moment("large", 2) == spec.large_sampler.abs_moment(2)
    assert spec.mark_moment("large", 2.5) == spec.large_sampler.abs_moment(2.5)
    # uniform on [1, 2): second moment (1 + 2 + 4)/3
    assert spec.mark_moment("large", 2) == pytest.approx(7.0 / 3.0)
