import math

import numpy as np
import pytest

from mvstop.model import (
    InitialLaw, ModelSpec, constant_mark, discrete_marks, make_quit_model, make_sell_model,
)
from mvstop.fokker_planck import GridDensity
from mvstop.particle import (
    _KDE_CHUNK,
    _KDE_TILE,
    CommonNoisePath,
    ParticleCloud,
    SimulationError,
    _draw_jumps,
    init_cloud,
    kde_density,
    silverman_bandwidth,
    simulate_path,
    step,
)


def test_common_noise_path_grid():
    path = CommonNoisePath.sample(1.0, 0.25, np.random.default_rng(0))
    assert path.increments.shape == (4,)
    np.testing.assert_allclose(path.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    b = path.brownian()
    assert b[0] == 0.0
    assert b[-1] == pytest.approx(path.increments.sum())


def test_common_noise_variance():
    path = CommonNoisePath.sample(100.0, 0.01, np.random.default_rng(1))
    assert path.increments.var() == pytest.approx(0.01, rel=0.05)


def test_init_cloud_and_pairing():
    cloud = init_cloud(InitialLaw("point", 1.5), 100, np.random.default_rng(0))
    assert cloud.n == 100
    assert cloud.m_bar == 1.5


def test_step_moments_quit_model():
    spec = make_quit_model(0.4, 0.3)
    x, m = np.zeros((1, 200_000)), np.zeros(1)
    step(x, spec, 0.01, m, np.array([0.05]), [np.random.default_rng(2)])
    # every particle moves by b1 dB1 plus its own N(0, b2^2 dt)
    assert m[0] == x.mean()
    assert x.mean() == pytest.approx(0.4 * 0.05, abs=1e-3)
    assert x.std() == pytest.approx(0.3 * 0.1, rel=0.01)


def test_no_idiosyncratic_noise_is_rigid_translation():
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    rng = np.random.default_rng(3)
    common = CommonNoisePath.sample(0.5, 0.01, rng)
    cloud0 = init_cloud(spec.initial_law, 1000, np.random.default_rng(4))
    x, m = cloud0.states.reshape(1, -1).copy(), np.array([cloud0.m_bar])
    for k in range(common.increments.size):
        step(x, spec, 0.01, m, common.increments[k:k + 1], [np.random.default_rng(5)])
    np.testing.assert_allclose(
        x[0], cloud0.states + 0.4 * common.brownian()[-1], atol=1e-12
    )


def test_compensated_jumps_keep_conditional_mean():
    spec = make_sell_model(0.0, 0.2, 0.0, constant_mark(2.0, -0.3))
    common = CommonNoisePath(0.01, np.zeros(50))   # freeze the common noise
    result = simulate_path(spec, 0.5, 0.01, 100_000, common, np.random.default_rng(6))
    # with B1 = 0 and alpha0 = 0 the conditional mean must stay at 1
    assert abs(result.m_bar[-1] - 1.0) < 0.01


# the jump draw of one step: a Poisson total split over uniform owners, and
# one uniform per mark of a multi-atom law; every band is at least 5 SE wide

def test_jump_counts_are_poisson_per_particle():
    n, lam_dt = 200_000, 0.5
    owners, _ = _draw_jumps(constant_mark(5.0, -0.2), n, 0.1, np.random.default_rng(21))
    counts = np.bincount(owners, minlength=n)
    assert abs(counts.mean() - lam_dt) < 0.01            # SE 0.0016
    assert abs(counts.var() - lam_dt) < 0.015            # SE 0.0022
    assert abs((counts == 0).mean() - math.exp(-lam_dt)) < 0.006   # SE 0.0011


def test_two_atom_mark_frequencies():
    levy = discrete_marks(5.0, [-0.1, -0.3], [0.25, 0.75])
    _, marks = _draw_jumps(levy, 200_000, 0.1, np.random.default_rng(22))
    assert set(np.unique(marks)) == {-0.3, -0.1}
    assert abs((marks == -0.1).mean() - 0.25) < 0.007     # SE 0.0014 over ~1e5 marks


def test_compensated_two_atom_increment():
    # E[mark^2] = 0.25 * 0.01 + 0.75 * 0.09 = 0.07, so the variance is 0.1 * 5 * 0.07
    spec = ModelSpec("quit", discrete_marks(5.0, [-0.1, -0.3], [0.25, 0.75]),
                     InitialLaw("point", 0.0), j0=1.0)
    # one step of a zero cloud with no diffusion and no common noise
    x = np.zeros((1, 200_000))
    step(x, spec, 0.1, np.zeros(1), np.zeros(1), [np.random.default_rng(23)])
    draws = x[0]
    assert abs(draws.mean()) < 0.0025                     # SE 0.0004
    assert abs(draws.var() - 0.035) < 0.001               # SE 0.00017


def test_rigid_model_without_jumps_draws_nothing():
    # no idiosyncratic noise and no jumps: a step has nothing to draw
    spec = make_quit_model(0.4, 0.0)
    rng = np.random.default_rng(24)
    before = rng.bit_generator.state
    common = CommonNoisePath.sample(0.1, 0.01, np.random.default_rng(25))
    simulate_path(spec, 0.1, 0.01, 100, common, rng)
    assert rng.bit_generator.state == before


def test_batched_rows_match_single_rows():
    # each generator fills only its own row, whatever the other rows are
    spec = make_sell_model(0.1, 0.3, 0.2, discrete_marks(3.0, [-0.1, -0.3], [0.5, 0.5]))
    x0 = np.random.default_rng(26).lognormal(0.0, 0.2, (3, 400))
    x, m = x0.copy(), x0.mean(axis=1)
    dB1 = np.array([0.05, -0.02, 0.1])
    seeds = (27, 28, 29)
    step(x, spec, 0.01, m, dB1, [np.random.default_rng(s) for s in seeds], floor=1e-12)
    for j, seed in enumerate(seeds):
        row, m_row = x0[j:j + 1].copy(), x0[j:j + 1].mean(axis=1)
        step(row, spec, 0.01, m_row, dB1[j:j + 1], [np.random.default_rng(seed)], 1e-12)
        assert np.array_equal(row[0], x[j]) and m_row[0] == m[j]


def test_floor_counts_events():
    spec = make_quit_model(0.4, 2.0, initial_law=InitialLaw("normal", 0.0, 0.1))
    common = CommonNoisePath.sample(0.2, 0.01, np.random.default_rng(7))
    result = simulate_path(
        spec, 0.2, 0.01, 500, common, np.random.default_rng(8), floor=0.0
    )
    assert result.floor_events > 0
    assert np.all(result.m_bar >= 0)


def test_path_requires_matching_grid():
    spec = make_quit_model(0.4, 0.3)
    common = CommonNoisePath.sample(0.5, 0.02, np.random.default_rng(9))
    with pytest.raises(ValueError):
        simulate_path(spec, 1.0, 0.02, 10, common, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_path(spec, 0.5, 0.01, 10, common, np.random.default_rng(0))


def test_off_grid_horizon_and_snapshot_rejected():
    spec = make_quit_model(0.4, 0.3)
    with pytest.raises(ValueError, match="horizon must be a whole multiple of dt"):
        CommonNoisePath.sample(0.2049, 0.01, np.random.default_rng(12))
    common = CommonNoisePath.sample(0.3, 0.01, np.random.default_rng(12))
    with pytest.raises(ValueError, match="horizon must be a whole multiple of dt"):
        simulate_path(spec, 0.2049, 0.01, 10, common, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"snapshot_times\[1\] must be a whole multiple"):
        simulate_path(spec, 0.2, 0.01, 10, common, np.random.default_rng(0),
                      snapshot_times=(0.1, 0.047))


def test_snapshots_recorded():
    spec = make_quit_model(0.4, 0.3)
    common = CommonNoisePath.sample(0.5, 0.01, np.random.default_rng(10))
    result = simulate_path(
        spec, 0.5, 0.01, 50, common, np.random.default_rng(11),
        snapshot_times=(0.0, 0.25, 0.5),
    )
    assert set(result.snapshots) == {0.0, 0.25, 0.5}
    assert result.snapshots[0.5].time == pytest.approx(0.5)
    # each snapshot keeps the states of its own time, not those of later steps
    for t_snap, k in ((0.0, 0), (0.25, 25), (0.5, 50)):
        assert result.snapshots[t_snap].states.mean() == result.m_bar[k]


def test_non_finite_state_raises():
    spec = make_quit_model(0.4, 0.3)
    x = np.array([[0.0, np.inf, 1.0]])
    with pytest.raises(SimulationError):
        step(x, spec, 0.01, x.mean(axis=1), np.zeros(1), [np.random.default_rng(0)])


class TestKde:
    def test_silverman_scale(self):
        states = np.random.default_rng(12).normal(0.0, 1.0, 10_000)
        h = silverman_bandwidth(states)
        assert h == pytest.approx(0.9 * 10_000 ** (-0.2), rel=0.05)

    def test_degenerate_cloud_needs_bandwidth(self):
        with pytest.raises(ValueError):
            silverman_bandwidth(np.ones(100))

    def test_kde_recovers_gaussian(self):
        rng = np.random.default_rng(13)
        cloud = ParticleCloud(0.0, rng.normal(0.0, 0.5, 50_000))
        grid = np.linspace(-3, 3, 601)
        d = kde_density(cloud, None, grid)
        assert d.mass() == pytest.approx(1.0, abs=1e-12)
        exact = np.exp(-0.5 * (grid / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
        assert np.trapezoid(np.abs(d.values - exact), grid) < 0.05

    def test_narrow_grid_rejected(self):
        cloud = ParticleCloud(0.0, np.random.default_rng(14).normal(0.0, 1.0, 10_000))
        with pytest.raises(ValueError, match="grid too narrow"):
            kde_density(cloud, 0.1, np.linspace(-0.5, 0.5, 101))


# ---------------------------------------------------------------------------
# the tiled kernel sum against the one-expression sum it replaced

def _reference_kde(cloud, bandwidth, x):
    states = cloud.states
    h = silverman_bandwidth(states) if bandwidth is None else bandwidth
    norm = 1.0 / (h * math.sqrt(2 * math.pi))
    values = np.zeros_like(x)
    chunk = max(1, int(2e6 / x.size))
    for lo in range(0, states.size, chunk):
        part = states[lo : lo + chunk, None]
        values += norm * np.exp(-0.5 * ((x[None, :] - part) / h) ** 2).sum(axis=0)
    values /= states.size
    return GridDensity(x, values, cloud.time).normalized().values


_KDE_GRID = np.linspace(-3.0, 3.0, 601)
_CHUNK_ROWS = int(_KDE_CHUNK / _KDE_GRID.size)
_TILE_ROWS = _KDE_TILE // _KDE_GRID.size


@pytest.mark.parametrize("n,bandwidth", [
    (1, 0.05),
    (_CHUNK_ROWS - 1, None),
    (_CHUNK_ROWS + 1, None),
    (_CHUNK_ROWS + 1, 0.2),
    (_TILE_ROWS + 1, None),
    (100_000, None),
    (5000, 0.002),   # most kernels underflow to exactly 0
    (2000, 0.045),   # kernel values in the subnormal band at the grid ends
], ids=["one", "chunk-1", "chunk+1", "chunk+1_explicit", "tile+1", "100k",
        "underflow", "subnormal"])
def test_kde_matches_reference_sum(n, bandwidth):
    states = np.random.default_rng(n).normal(0.0, 0.4, n)
    cloud = ParticleCloud(0.5, states)
    got = kde_density(cloud, bandwidth, _KDE_GRID)
    want = _reference_kde(cloud, bandwidth, _KDE_GRID)
    np.testing.assert_array_equal(got.values, want)
    assert got.time == 0.5
    if bandwidth == 0.002:
        arg = -0.5 * ((_KDE_GRID - states[:1000, None]) / bandwidth) ** 2
        assert np.mean(arg < -746.0) > 0.9
    if bandwidth == 0.045:
        assert np.any((want > 0) & (want < np.finfo(float).tiny))
