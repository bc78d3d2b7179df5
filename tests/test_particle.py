import math

import numpy as np
import pytest

from mvstop.model import (
    InitialLaw, ModelSpec, constant_mark, discrete_marks, make_quit_model, make_sell_model,
)
from mvstop.fokker_planck import GridDensity, GridError
from mvstop.particle import (
    _KDE_CHUNK,
    _KDE_REACH,
    Clouds,
    CommonNoisePath,
    SimulationError,
    _draw_jumps,
    _owners,
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


def test_step_moments_quit_model():
    clouds = Clouds(make_quit_model(0.4, 0.3), 200_000, [np.random.default_rng(2)])
    step(clouds, 0.01, np.array([0.05]))
    x = clouds.x
    # every particle moves by b1 dB1 plus its own N(0, b2^2 dt); the offset stays
    assert clouds.m[0] == x.mean() and clouds.offset[0] == 0.0
    assert x.mean() == pytest.approx(0.4 * 0.05, abs=1e-3)
    assert x.std() == pytest.approx(0.3 * 0.1, rel=0.01)


def test_no_idiosyncratic_noise_is_rigid_translation():
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    rng = np.random.default_rng(3)
    common = CommonNoisePath.sample(0.5, 0.01, rng)
    states0 = spec.initial_law.sample(np.random.default_rng(4), 1000)
    clouds = Clouds(spec, 1000, [np.random.default_rng(4)])
    for k in range(common.increments.size):
        step(clouds, 0.01, common.increments[k:k + 1])
    x, offset, x_mean = clouds.x, clouds.offset, clouds.x_mean
    assert x_mean[0] == states0.mean() and clouds.m[0] == x_mean[0] + offset[0]
    assert np.array_equal(x[0], states0)  # the offset carries the whole move
    np.testing.assert_allclose(
        offset[0] + x[0], states0 + 0.4 * common.brownian()[-1], atol=1e-12
    )


def test_a_rigid_step_never_writes_the_states():
    # without idiosyncratic noise or jumps every particle moves alike: the offset takes the
    # move, and the states may be read-only
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    clouds = Clouds(spec, 1000, [np.random.default_rng(36), np.random.default_rng(37)])
    clouds.x.flags.writeable = False
    clouds.offset[1] = 0.5
    clouds.m[1] += 0.5
    before = [rng.bit_generator.state for rng in clouds.gens]
    step(clouds, 0.01, np.array([0.1, -0.2]))
    assert clouds.offset.tolist() == [0.4 * 0.1, 0.5 + 0.4 * -0.2]
    assert clouds.m.tolist() == (clouds.x.mean(axis=1) + clouds.offset).tolist()
    assert [rng.bit_generator.state for rng in clouds.gens] == before


def _two_add_reference(spec, path, n, rng):
    """A rigid cloud stepped as it was before clouds carried an offset: every
    particle moves by the shift, then by the common noise, then by its jumps.

    Returns the final states, the means, each particle's largest jump count
    and ``S``: the largest ``|state|`` on the path plus the largest ``|move|``,
    the sum of shifts and common noise so far, which bounds every value
    that either arithmetic adds."""
    lam, dt = spec.levy.intensity, path.dt
    x = spec.initial_law.sample(rng, n)
    means, jumps = [x.mean()], np.zeros(n, dtype=int)
    move = largest_move = 0.0
    largest_state = np.abs(x).max()
    for dB1 in path.increments:
        m = means[-1]
        shift = spec.drift(m) * dt
        if lam > 0:
            shift = shift - dt * lam * spec.expected_jump_amp(m)
        common = spec.diffusion_common(m) * dB1
        x += shift
        x += common
        if lam > 0:
            owners, marks = _draw_jumps(spec.levy, n, dt, [rng])
            np.add.at(x, owners, spec.jump_amp(m, marks))
            jumps += np.bincount(owners, minlength=n)
        means.append(x.mean())
        move += shift + common
        largest_move = max(largest_move, abs(move))
        largest_state = max(largest_state, np.abs(x).max())
    return x, np.array(means), int(jumps.max()), 1.01 * (largest_state + largest_move)


@pytest.mark.parametrize("intensity", [0.0, 3.0], ids=["no_jumps", "jumps"])
def test_rigid_cloud_is_the_two_add_cloud_to_rounding(intensity):
    # A particle takes 2 K adds for K steps in the reference and 2 K + 1 here (the
    # offset's and the final one), plus its J jumps on each side; each add rounds by at
    # most eps / 2 of a value below S.  A mean adds the rounding of numpy's pairwise sum
    # on each side, at most (16 + log2 n) eps S: 8 lanes of up to 16 adds, then one level
    # per halving.  The 1% in S covers the reference's own rounding of the move.
    spec = make_quit_model(0.4, 0.0, gamma0=-0.1, intensity=intensity,
                           initial_law=InitialLaw("normal", 0.5, 0.3))
    n, path = 1000, CommonNoisePath.sample(0.5, 0.01, np.random.default_rng(38))
    got = simulate_path(spec, [path], n, [np.random.default_rng(39)])
    want, means, most, big = _two_add_reference(spec, path, n, np.random.default_rng(39))
    eps, k = np.finfo(float).eps, path.increments.size
    bound = (4 * k + 2 * most + 1) * eps / 2 * big
    assert np.abs(got.states[0] - want).max() <= bound
    assert np.abs(got.m_bar[0] - means).max() <= bound + 2 * (16 + math.log2(n)) * eps * big
    assert not np.array_equal(got.states[0], want)  # the arithmetic did change


def test_compensated_jumps_keep_conditional_mean():
    spec = make_sell_model(0.0, 0.2, 0.0, 0.2, 1.0, constant_mark(2.0, -0.3))
    common = CommonNoisePath(0.01, np.zeros(50))   # freeze the common noise
    result = simulate_path(spec, [common], 100_000, [np.random.default_rng(6)])
    # with B1 = 0 and alpha0 = 0 the conditional mean must stay at 1
    assert abs(result.m_bar[0, -1] - 1.0) < 0.01


# the jump draw of one step: a Poisson total split over uniform owners, and
# one uniform per mark of a multi-atom law; every band is at least 5 SE wide

def test_jump_counts_are_poisson_per_particle():
    n, lam_dt = 200_000, 0.5
    owners, _ = _draw_jumps(constant_mark(5.0, -0.2), n, 0.1, [np.random.default_rng(21)])
    counts = np.bincount(owners, minlength=n)
    assert abs(counts.mean() - lam_dt) < 0.01            # SE 0.0016
    assert abs(counts.var() - lam_dt) < 0.015            # SE 0.0022
    assert abs((counts == 0).mean() - math.exp(-lam_dt)) < 0.006   # SE 0.0011


def test_jump_owners_are_uniform():
    # chi-square of ~1.1e6 owners over 1000 particles, against its normal
    # approximation with 999 degrees of freedom (SD 44.7); an owner map that
    # never picks the last particle adds ~1100
    n = 1000
    owners, _ = _draw_jumps(constant_mark(1100.0, -0.2), n, 1.0, [np.random.default_rng(31)])
    assert owners.size >= 1_000_000
    counts = np.bincount(owners, minlength=n)
    assert counts.size == n
    expected = owners.size / n
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    assert abs(chi2 - (n - 1)) < 5 * math.sqrt(2 * (n - 1))


@pytest.mark.parametrize("n", [1, 2, 3, 2000, 10_000, 2**20 + 1])
def test_owner_of_the_extreme_uniforms(n):
    # 1 - 2**-53 is the largest value rng.random returns
    assert _owners(np.array([0.0, 1.0 - 2.0**-53]), n).tolist() == [0, n - 1]


def test_two_atom_mark_frequencies():
    levy = discrete_marks(5.0, [-0.1, -0.3], [0.25, 0.75])
    _, marks = _draw_jumps(levy, 200_000, 0.1, [np.random.default_rng(22)])
    assert set(np.unique(marks)) == {-0.3, -0.1}
    assert abs((marks == -0.1).mean() - 0.25) < 0.007     # SE 0.0014 over ~1e5 marks


def test_compensated_two_atom_increment():
    # E[mark^2] = 0.25 * 0.01 + 0.75 * 0.09 = 0.07, so the variance is 0.1 * 5 * 0.07
    spec = ModelSpec("quit", discrete_marks(5.0, [-0.1, -0.3], [0.25, 0.75]),
                     InitialLaw("point", 0.0), b0=0.3, j0=1.0)
    # one step of a zero cloud with no diffusion and no common noise (dB1 = 0)
    clouds = Clouds(spec, 200_000, [np.random.default_rng(23)])
    step(clouds, 0.1, np.zeros(1))
    draws = clouds.states()[0]
    assert abs(draws.mean()) < 0.0025                     # SE 0.0004
    assert abs(draws.var() - 0.035) < 0.001               # SE 0.00017


def test_rigid_model_without_jumps_draws_nothing():
    # no idiosyncratic noise and no jumps: a step has nothing to draw
    spec = make_quit_model(0.4, 0.0)
    rng = np.random.default_rng(24)
    before = rng.bit_generator.state
    common = CommonNoisePath.sample(0.1, 0.01, np.random.default_rng(25))
    simulate_path(spec, [common], 100, [rng])
    assert rng.bit_generator.state == before


def test_batched_rows_match_single_rows():
    # each generator fills only its own row, whatever the other rows are
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0,
                           discrete_marks(3.0, [-0.1, -0.3], [0.5, 0.5]),
                           InitialLaw("lognormal", 0.0, 0.2))
    dB1 = np.array([0.05, -0.02, 0.1])
    seeds = (27, 28, 29)
    clouds = Clouds(spec, 400, [np.random.default_rng(s) for s in seeds])
    step(clouds, 0.01, dB1)
    for j, seed in enumerate(seeds):
        alone = Clouds(spec, 400, [np.random.default_rng(seed)])
        step(alone, 0.01, dB1[j:j + 1])
        assert np.array_equal(alone.x[0], clouds.x[j]) and alone.m[0] == clouds.m[j]


@pytest.mark.parametrize("spec", [
    make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, discrete_marks(3.0, [-0.1, -0.3], [0.5, 0.5]),
                    InitialLaw("lognormal", 0.0, 0.2)),
    make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=3.0,
                    initial_law=InitialLaw("normal", 0.0, 0.3)),
    make_quit_model(0.3, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3)),
    make_quit_model(0.3, 0.0, gamma0=-0.1, intensity=0.1,
                    initial_law=InitialLaw("normal", 0.0, 0.3)),
    make_sell_model(0.1, 0.3, 0.0, 0.2, 1.0, discrete_marks(0.2, [-0.1, -0.3], [0.5, 0.5]),
                    InitialLaw("lognormal", 0.0, 0.2)),
], ids=["sell_two_atoms", "quit_one_atom", "rigid_quit", "rigid_quit_rare_jumps",
        "rigid_sell_two_atoms"])
def test_clouds_stepped_together_match_each_cloud_alone(spec):
    # every cloud draws from its own generator alone, so batching changes no draw; a rigid
    # cloud keeps its own offset, and a step with jumps recomputes every cloud's mean (the
    # rare jumps, 0.5 per step and cloud, leave some clouds still on some steps)
    paths = [CommonNoisePath.sample(0.2, 0.01, np.random.default_rng(s)) for s in (30, 31, 32)]
    seeds = (33, 34, 35)
    together = simulate_path(spec, paths, 500, [np.random.default_rng(s) for s in seeds])
    for j, (path, seed) in enumerate(zip(paths, seeds)):
        alone = simulate_path(spec, [path], 500, [np.random.default_rng(seed)])
        assert np.array_equal(alone.m_bar[0], together.m_bar[j])
        assert np.array_equal(alone.states[0], together.states[j])


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.01])
def test_common_noise_path_rejects_a_bad_dt(dt):
    with pytest.raises(ValueError, match="common-noise dt must be finite and > 0"):
        CommonNoisePath(dt, np.zeros(3))


def test_common_noise_path_rejects_2d_increments():
    with pytest.raises(ValueError, match="increments must be a 1-D array"):
        CommonNoisePath(0.01, np.zeros((2, 3)))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_step_rejects_a_bad_dt(dt):
    spec = make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=0.5)
    with pytest.raises(ValueError, match="step dt must be finite and > 0"):
        step(Clouds(spec, 10, [np.random.default_rng(0)]), dt, np.zeros(1))


def test_simulate_path_rejects_clouds_that_do_not_fit_together():
    spec = make_quit_model(0.4, 0.3)
    path = CommonNoisePath(0.01, np.zeros(5))
    gens = [np.random.default_rng(0), np.random.default_rng(1)]
    for other in (CommonNoisePath(0.02, np.zeros(5)), CommonNoisePath(0.01, np.zeros(4))):
        with pytest.raises(ValueError, match="share their dt and step count"):
            simulate_path(spec, [path, other], 10, gens)
    with pytest.raises(ValueError, match="one generator per path"):
        simulate_path(spec, [path, path], 10, gens[:1])
    with pytest.raises(ValueError, match="at least one common-noise path"):
        simulate_path(spec, [], 10, [])


def test_off_grid_horizon_and_snapshot_rejected():
    with pytest.raises(ValueError, match="horizon must be a whole multiple of dt"):
        CommonNoisePath.sample(0.2049, 0.01, np.random.default_rng(12))


def test_final_cloud_recorded():
    # the path runs over the whole common-noise grid and keeps its last cloud
    spec = make_quit_model(0.4, 0.3)
    common = CommonNoisePath.sample(0.5, 0.01, np.random.default_rng(10))
    result = simulate_path(spec, [common], 50, [np.random.default_rng(11)])
    assert result.m_bar.shape == (1, common.times().size)
    assert result.states.shape == (1, 50)
    assert result.states[0].mean() == result.m_bar[0, -1]


def test_particle_count_must_be_positive():
    common = CommonNoisePath.sample(0.1, 0.01, np.random.default_rng(10))
    with pytest.raises(ValueError, match="particle count must be >= 1"):
        simulate_path(make_quit_model(0.4, 0.3), [common], 0, [np.random.default_rng(11)])


def test_non_finite_state_raises():
    clouds = Clouds(make_quit_model(0.4, 0.3), 3, [np.random.default_rng(0)])
    clouds.x[0, 1] = np.inf
    with pytest.raises(SimulationError):
        step(clouds, 0.01, np.zeros(1))


def test_a_non_finite_cloud_is_named_by_its_index_at_build():
    # after survivors move up, a cloud's row is no longer its index among the clouds built
    clouds = Clouds(make_quit_model(0.4, 0.3), 3, [np.random.default_rng(s) for s in range(4)])
    clouds.keep(np.array([1, 3]))
    clouds.x[1, 2] = np.inf
    with pytest.raises(SimulationError, match="non-finite state in cloud 3, particle 2"):
        step(clouds, 0.01, np.zeros(2))


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
        states = rng.normal(0.0, 0.5, 50_000)
        grid = np.linspace(-3, 3, 601)
        d = kde_density(states, None, grid)
        assert d.mass() == pytest.approx(1.0, abs=1e-12)
        exact = np.exp(-0.5 * (grid / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
        assert np.trapezoid(np.abs(d.values - exact), grid) < 0.05

    def test_narrow_grid_rejected(self):
        states = np.random.default_rng(14).normal(0.0, 1.0, 10_000)
        with pytest.raises(ValueError, match="grid too narrow"):
            kde_density(states, 0.1, np.linspace(-0.5, 0.5, 101))


# ---------------------------------------------------------------------------
# the binned Gauss transform against the direct kernel sum in long double

def _reference_kde(states, bandwidth, x):
    """The normalised direct sum of every particle's kernel, in long double;
    a kernel value 40 bandwidths out is below 1e-347 and left out."""
    h = silverman_bandwidth(states) if bandwidth is None else bandwidth
    xs, hl = x.astype(np.longdouble), np.longdouble(h)
    values = np.zeros_like(xs)
    states = np.sort(states)
    for lo in range(0, states.size, 200):
        part = states[lo:lo + 200]
        c0, c1 = np.searchsorted(x, [part[0] - 40 * h, part[-1] + 40 * h])
        arg = (xs[c0:c1] - part[:, None].astype(np.longdouble)) / hl
        values[c0:c1] += np.exp(-0.5 * arg * arg).sum(axis=0)
    return values / (np.sum((values[1:] + values[:-1]) * np.diff(xs)) / 2)


_KDE_GRID = np.linspace(-3.0, 3.0, 601)
_KDE_DX = 0.01


def _normal(n):
    return np.random.default_rng(n).normal(0.0, 0.4, n)


def _two_clusters():
    rng = np.random.default_rng(21)
    return np.concatenate([rng.normal(-1.5, 0.05, 4000), rng.normal(1.2, 0.05, 3000)])


def _band_tail():
    # at the right end every kernel argument is in [-746, -708), so the
    # estimate there is a sum of subnormal kernel values alone
    rng = np.random.default_rng(22)
    return np.concatenate([rng.normal(-2.0, 0.05, 54), rng.uniform(1.085, 1.095, 300)])


def _off_grid():
    # 1% of the cloud off the grid, the most allowed; the last particle is
    # beyond the kernel's reach of every node
    states = _normal(1000)
    states[:5] = -3.0 - np.linspace(0.01, 0.2, 5)
    states[5:9] = 3.0 + np.linspace(0.01, 0.3, 4)
    states[9] = 3.0 + 0.05 * _KDE_REACH + 0.5
    return states


@pytest.mark.parametrize("states,bandwidth", [
    (_normal(1), 0.05),
    (_normal(_KDE_CHUNK - 1), None),
    (_normal(_KDE_CHUNK + 1), None),
    (_normal(_KDE_CHUNK + 1), 0.2),
    (_normal(100_000), None),
    (_normal(2000), 0.045),                   # kernel values in the subnormal band at the grid ends
    (_normal(300), 0.5),                      # the reach, 19.3, covers the whole grid
    (_normal(500), 10.0),                     # a bandwidth wider than the grid
    (_normal(5000), 0.5 * _KDE_DX),           # the least bandwidth: offsets up to one bandwidth
    (np.random.default_rng(5).uniform(-3.0, 3.0, 3000), 0.5 * _KDE_DX),
    (_two_clusters(), 0.01),
    (np.random.default_rng(23).permutation(_two_clusters()), 0.01),
    (_band_tail(), 0.05),
    (_off_grid(), 0.05),
], ids=["one", "chunk-1", "chunk+1", "chunk+1_explicit", "100k", "subnormal", "whole_grid",
        "wider_than_grid", "half_step", "half_step_uniform", "two_clusters", "permuted",
        "band_tail", "beyond_reach"])
def test_kde_matches_reference_sum(states, bandwidth):
    # A float64 sum of many kernels rounds by up to some 16 eps of the peak,
    # and a kernel's argument carries the rounding of its grid node, up to
    # eps max|x| / h; the stated bound is eps (32 + 4 max|x| / h) of the peak.
    got = kde_density(states, bandwidth, _KDE_GRID)
    want = _reference_kde(states, bandwidth, _KDE_GRID)
    h = silverman_bandwidth(states) if bandwidth is None else bandwidth
    bound = np.finfo(float).eps * (32 + 4 * 3.0 / h) * float(want.max())
    assert np.abs(got.values - want).max() <= bound
    assert got.values.min() >= 0


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, 1e-300, 0.0, -0.05,
                                       0.5 * _KDE_DX * (1 - 2**-52)],
                         ids=["nan", "inf", "tiny", "zero", "negative", "under_half_step"])
def test_kde_rejects_a_bandwidth_under_half_the_grid_step(bandwidth):
    with pytest.raises(ValueError, match=r"at least half the grid step dx = 0\.01"):
        kde_density(_normal(1000), bandwidth, _KDE_GRID)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("bandwidth", [0.05, None], ids=["given", "silverman"])
def test_kde_rejects_non_finite_states(bad, bandwidth):
    # the windows skip a NaN particle and the outside share counts it inside,
    # so half a cloud of NaN would give a finite density of the other half
    states = _normal(1000)
    states[::2] = bad
    with pytest.raises(ValueError, match="finite particle states"):
        kde_density(states, bandwidth, _KDE_GRID)


@pytest.mark.parametrize("states", [np.empty(0), _normal(1000).reshape(10, 100)],
                         ids=["empty", "2d"])
def test_kde_rejects_states_that_are_not_one_cloud(states):
    with pytest.raises(ValueError, match="states must be a nonempty 1-D array"):
        kde_density(states, 0.05, _KDE_GRID)


def test_kde_rejects_a_decreasing_grid():
    with pytest.raises(GridError, match="increasing"):
        kde_density(_normal(1000), 0.05, _KDE_GRID[::-1])
