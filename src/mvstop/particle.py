"""Interacting particle approximation of the state / conditional-law pair.

All particles in one replication share a single common-noise path; each
carries its own idiosyncratic Brownian increments and jumps.  The cloud's
empirical measure stands in for the conditional law, and its mean is the
``m_bar`` entering the coefficients (frozen at the step start).  The
coefficients depend on nothing else, so each step evaluates a few scalars
per cloud and applies them to the whole state array.  ``step`` advances
many clouds at once, one per row of a state array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fokker_planck import GridDensity
from .model import InitialLaw, LevyMeasureSpec, ModelSpec


_KDE_CHUNK = 2e6          # kernel-matrix elements per summed chunk of particles
_KDE_TILE = 2**15         # elements per evaluated tile, about 256 KiB of float64
_KDE_OUTSIDE = 0.01       # largest share of the cloud allowed off the grid


class SimulationError(RuntimeError):
    """Non-finite state encountered while stepping."""


def off_grid(t: float, dt: float) -> bool:
    """``t`` is not a whole number of steps ``dt``, to a relative 1e-9."""
    k = round(t / dt)
    return abs(t / dt - k) > 1e-9 * max(k, 1)


def check_on_grid(dt: float, times: dict, prefix: str = "") -> None:
    """Reject a time (name -> value or None) that would be rounded to a step ``dt``."""
    for key, t in times.items():
        if t is not None and off_grid(t, dt):
            raise ValueError(f"{prefix}{key} must be a whole multiple of dt; "
                             f"{t} is {t / dt:.6g} steps of {dt}")


@dataclass
class CommonNoisePath:
    """Shared B1 increments on a fixed time grid."""

    dt: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        self.increments = np.asarray(self.increments, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")

    @classmethod
    def sample(cls, horizon: float, dt: float, rng: np.random.Generator) -> "CommonNoisePath":
        check_on_grid(dt, {"horizon": horizon})
        n_steps = int(round(horizon / dt))
        return cls(dt, rng.normal(0.0, math.sqrt(dt), n_steps))

    @property
    def horizon(self) -> float:
        return self.increments.size * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.increments.size + 1)

    def brownian(self) -> np.ndarray:
        """B1 at the grid times, starting from 0."""
        out = np.empty(self.increments.size + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


@dataclass
class ParticleCloud:
    """Particle states at one time; ``m_bar`` is their mean, computed once."""

    time: float
    states: np.ndarray
    floor_events: int = 0
    m_bar: float = field(init=False)

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 1 or self.states.size < 1:
            raise ValueError("states must be a nonempty 1-D array")
        self.m_bar = float(self.states.mean())

    @property
    def n(self) -> int:
        return self.states.size


def init_cloud(initial_law: InitialLaw, n: int, rng: np.random.Generator) -> ParticleCloud:
    if n < 1:
        raise ValueError("particle count must be >= 1")
    return ParticleCloud(0.0, initial_law.sample(rng, n))


def _draw_jumps(levy: LevyMeasureSpec, n: int, dt: float, rng: np.random.Generator):
    """Owners and marks of one step's jumps in a cloud of ``n`` particles.

    One Poisson(``lam dt n``) total, then a uniform owner per jump: by
    Poisson splitting the per-particle counts have the joint law of ``n``
    independent Poisson(``lam dt``) counts.  A one-atom law draws no marks
    and returns its value.
    """
    total = rng.poisson(levy.intensity * dt * n)
    owners = rng.integers(0, n, total)
    if len(levy.atoms) == 1:
        return owners, levy.atoms[0][0]
    return owners, levy.sample_marks(rng, total)


def _column(value) -> np.ndarray:
    """A per-row scalar or a scalar shared by all rows, as a column."""
    return np.reshape(value, (-1, 1))


def step(
    x: np.ndarray,
    spec: ModelSpec,
    dt: float,
    m_bar: np.ndarray,
    dB1: np.ndarray,
    gens: list,
    floor: float | None = None,
) -> int:
    """Euler-Maruyama step of ``rows`` clouds, in place; returns the floor events.

    Row ``j`` of the ``(rows, n)`` array ``x`` is one cloud with mean
    ``m_bar[j]``, common-noise increment ``dB1[j]`` and generator
    ``gens[j]``, which draws that row's randomness and nothing else: the
    idiosyncratic normals (none when ``s0 == s1 == 0``), then the jumps of
    ``_draw_jumps`` (none without intensity).  On return ``x`` holds the new
    states and ``m_bar`` their row means.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rows, n = x.shape
    levy = spec.levy
    shift = spec.drift(m_bar) * dt
    if levy.intensity > 0:  # the jump compensator
        shift = shift - dt * levy.intensity * spec.expected_jump_amp(m_bar)
    x += _column(shift)
    x += _column(spec.diffusion_common(m_bar) * dB1)
    if spec.s0 or spec.s1:
        b2 = np.broadcast_to(spec.diffusion_idio(m_bar), rows)
        dB2 = np.empty(n)  # one row of idiosyncratic increments at a time
        for j, rng in enumerate(gens):
            rng.standard_normal(out=dB2)
            dB2 *= math.sqrt(dt)
            dB2 *= b2[j]
            x[j] += dB2
    if levy.intensity > 0:
        for j, rng in enumerate(gens):
            owners, marks = _draw_jumps(levy, n, dt, rng)
            np.add.at(x[j], owners, spec.jump_amp(m_bar[j], marks))
    floor_events = 0
    if floor is not None and x.min() < floor:  # one pass when nothing crosses
        below = x < floor
        floor_events = int(np.count_nonzero(below))
        np.copyto(x, floor, where=below)
    np.mean(x, axis=1, out=m_bar)
    # a non-finite particle makes its row mean non-finite
    if not np.all(np.isfinite(m_bar)):
        j = int(np.flatnonzero(~np.isfinite(m_bar))[0])
        bad = np.flatnonzero(~np.isfinite(x[j]))
        where = f"particle {int(bad[0])}" if bad.size else "mean overflow"
        raise SimulationError(f"non-finite state in row {j}, {where}")
    return floor_events


@dataclass
class PathResult:
    times: np.ndarray
    m_bar: np.ndarray
    snapshots: dict = field(default_factory=dict)   # time -> ParticleCloud
    floor_events: int = 0


def simulate_path(
    spec: ModelSpec,
    horizon: float,
    dt: float,
    n: int,
    common: CommonNoisePath,
    rng: np.random.Generator,
    snapshot_times: tuple[float, ...] = (),
    floor: float | None = None,
) -> PathResult:
    """Advance a cloud along one common-noise path, recording ``m_bar``."""
    check_on_grid(dt, {"horizon": horizon,
                       **{f"snapshot_times[{i}]": t for i, t in enumerate(snapshot_times)}})
    n_steps = int(round(horizon / dt))
    if abs(common.dt - dt) > 1e-12 * dt or common.increments.size < n_steps:
        raise ValueError("common-noise path does not cover (horizon, dt)")
    cloud = init_cloud(spec.initial_law, n, rng)
    times = dt * np.arange(n_steps + 1)
    m_bar = np.empty(n_steps + 1)
    m_bar[0] = cloud.m_bar
    wanted = sorted(snapshot_times)
    snapshots: dict[float, ParticleCloud] = {}
    if wanted and abs(wanted[0]) < dt / 2:
        snapshots[0.0] = ParticleCloud(0.0, cloud.states.copy())
    x = cloud.states.reshape(1, n)  # stepped in place
    m, floor_events = m_bar[:1].copy(), 0
    for k in range(n_steps):
        floor_events += step(x, spec, dt, m, common.increments[k:k + 1], [rng], floor)
        m_bar[k + 1] = m[0]
        for t_snap in wanted:
            if abs(times[k + 1] - t_snap) < dt / 2 and t_snap not in snapshots:
                # the final states need no copy: nothing steps them again
                states = x[0] if k + 1 == n_steps else x[0].copy()
                snapshots[t_snap] = ParticleCloud(times[k + 1], states, floor_events)
    return PathResult(times, m_bar, snapshots, floor_events)


def silverman_bandwidth(states: np.ndarray) -> float:
    states = np.asarray(states, float)
    std = float(np.std(states))
    q75, q25 = np.percentile(states, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale == 0:
        raise ValueError("degenerate cloud: bandwidth must be given explicitly")
    return 0.9 * scale * states.size ** (-1 / 5)


def kde_density(
    cloud: ParticleCloud,
    bandwidth: float | None,
    grid: np.ndarray,
) -> GridDensity:
    """Gaussian-kernel estimate on the grid, renormalized to unit mass."""
    x = np.asarray(grid, float)
    states = cloud.states
    h = silverman_bandwidth(states) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be > 0")
    outside = np.count_nonzero((states < x[0]) | (states > x[-1])) / states.size
    if outside > _KDE_OUTSIDE:
        raise ValueError(
            f"grid too narrow: {outside:.2%} of cloud mass outside [{x[0]}, {x[-1]}]"
        )
    norm = 1.0 / (h * math.sqrt(2 * math.pi))
    values = np.zeros_like(x)
    # Particles are summed in chunks of _KDE_CHUNK kernel values, and each
    # chunk is evaluated in tiles of one reused buffer whose row 0 carries
    # the chunk's running sum: rows are added in the order of one
    # ``sum(axis=0)`` over the chunk.  ``exp`` below -746 is exactly 0.0
    # (and slow), so it is not called there.
    chunk = max(1, int(_KDE_CHUNK / x.size))
    tile = max(1, _KDE_TILE // x.size)
    arg = np.empty((tile, x.size))
    live = np.empty((tile, x.size), dtype=bool)
    kernel = np.empty((tile + 1, x.size))
    for lo in range(0, states.size, chunk):
        hi = min(lo + chunk, states.size)
        kernel[0] = 0.0
        for t in range(lo, hi, tile):
            rows = min(tile, hi - t)
            a, m, k = arg[:rows], live[:rows], kernel[1:rows + 1]
            np.subtract(x, states[t:t + rows, None], out=a)  # -0.5 * ((x - s) / h) ** 2
            a /= h
            np.square(a, out=a)
            a *= -0.5
            np.greater_equal(a, -746.0, out=m)
            k[...] = 0.0
            np.exp(a, out=k, where=m)
            kernel[0] = kernel[:rows + 1].sum(axis=0)
        values += norm * kernel[0]
    values /= states.size
    return GridDensity(x, values, cloud.time).normalized()
