"""Interacting particle approximation of the state / conditional-law pair.

All particles in one replication share a single common-noise path; each
carries its own idiosyncratic Brownian increments and jumps.  The cloud's
empirical measure stands in for the conditional law, and its mean is the
``m_bar`` entering the coefficients (frozen at the step start).  The
coefficients depend on nothing else, so each step evaluates a few scalars
per cloud and applies them to the whole state array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fokker_planck import GridDensity
from .model import InitialLaw, ModelSpec


class SimulationError(RuntimeError):
    """Non-finite state encountered while stepping."""


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


def conditional_pairing(cloud: ParticleCloud, q=None) -> float:
    """Empirical pairing ``(1/n) sum q(X_i)``; ``q`` defaults to identity."""
    return cloud.m_bar if q is None else float(np.mean(np.asarray(q(cloud.states), float)))


def _jump_increments(
    states: np.ndarray, spec: ModelSpec, m_bar: float, dt: float, rng: np.random.Generator,
) -> np.ndarray:
    """Compensated compound-Poisson increment per particle."""
    levy = spec.levy
    if levy.intensity == 0:
        return np.zeros_like(states)
    counts = rng.poisson(levy.intensity * dt, states.size)
    total = int(counts.sum())
    sums = np.zeros_like(states)
    if total:
        marks = levy.sample_marks(rng, total)
        owner = np.repeat(np.arange(states.size), counts)
        amps = spec.jump_amp(m_bar, marks)
        np.add.at(sums, owner, amps)
    compensator = dt * levy.intensity * spec.expected_jump_amp(m_bar)
    return sums - compensator


def step(
    cloud: ParticleCloud,
    spec: ModelSpec,
    dt: float,
    dB1: float,
    rng: np.random.Generator,
    floor: float | None = None,
) -> ParticleCloud:
    """Euler-Maruyama step of the whole cloud under a shared B1 increment."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    x, t, m_bar = cloud.states, cloud.time, cloud.m_bar
    drift = spec.drift(m_bar)
    b1 = spec.diffusion_common(m_bar)
    b2 = spec.diffusion_idio(m_bar)
    dB2 = rng.standard_normal(x.size) * math.sqrt(dt)
    new = x + drift * dt + b1 * dB1 + b2 * dB2 + _jump_increments(x, spec, m_bar, dt, rng)
    floor_events = cloud.floor_events
    if floor is not None:
        below = new < floor
        floor_events += int(np.count_nonzero(below))
        new = np.where(below, floor, new)
    if not np.all(np.isfinite(new)):
        idx = int(np.flatnonzero(~np.isfinite(new))[0])
        raise SimulationError(f"non-finite state at t={t + dt:.6f}, particle {idx}")
    return ParticleCloud(t + dt, new, floor_events)


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
        snapshots[0.0] = cloud
    for k in range(n_steps):
        cloud = step(cloud, spec, dt, float(common.increments[k]), rng, floor=floor)
        m_bar[k + 1] = cloud.m_bar
        for t_snap in wanted:
            if abs(cloud.time - t_snap) < dt / 2 and t_snap not in snapshots:
                snapshots[t_snap] = cloud
    return PathResult(times, m_bar, snapshots, cloud.floor_events)


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
    overflow_tol: float = 0.01,
) -> GridDensity:
    """Gaussian-kernel estimate on the grid, renormalized to unit mass."""
    x = np.asarray(grid, float)
    states = cloud.states
    h = silverman_bandwidth(states) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be > 0")
    outside = np.count_nonzero((states < x[0]) | (states > x[-1])) / states.size
    if outside > overflow_tol:
        raise ValueError(
            f"grid too narrow: {outside:.2%} of cloud mass outside [{x[0]}, {x[-1]}]"
        )
    norm = 1.0 / (h * math.sqrt(2 * math.pi))
    values = np.zeros_like(x)
    # chunked over particles to bound the (chunk, grid) kernel matrix
    chunk = max(1, int(2e6 / x.size))
    for lo in range(0, states.size, chunk):
        part = states[lo : lo + chunk, None]
        values += norm * np.exp(-0.5 * ((x[None, :] - part) / h) ** 2).sum(axis=0)
    values /= states.size
    return GridDensity(x, values, cloud.time).normalized()
