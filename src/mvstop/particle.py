"""Interacting particle approximation of the state / conditional-law pair.

All particles in one replication share a single common-noise path; each
carries its own idiosyncratic Brownian increments and jumps.  The cloud's
empirical measure stands in for the conditional law, and its mean is the
``m_bar`` entering the coefficients (frozen at the step start).  The
coefficients depend on nothing else, so each step evaluates a few scalars
per cloud and applies them to the whole state array, or, when no particle
has noise of its own, to one common offset per cloud.  ``step`` advances
many clouds at once, one per row of a state array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import GridDensity, check_grid
from .model import LevyMeasureSpec, ModelSpec


_KDE_CHUNK = 4096         # particles binned per pass, so no temporary outgrows 32 KiB
_KDE_OUTSIDE = 0.01       # largest share of the cloud allowed off the grid
_KDE_REACH = math.sqrt(1492.0)  # in bandwidths: beyond it exp underflows and a kernel is 0.0
_KDE_TRUNCATION = 2.0**-60      # largest error a cut Taylor series may add to one kernel value


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
        if not 0 < self.dt < math.inf:  # NaN too
            raise ValueError(f"common-noise dt must be finite and > 0, got {self.dt!r}")
        if self.increments.ndim != 1:
            raise ValueError(f"common-noise increments must be a 1-D array, got shape "
                             f"{self.increments.shape}")

    @classmethod
    def sample(cls, horizon: float, dt: float, rng: np.random.Generator) -> "CommonNoisePath":
        check_on_grid(dt, {"horizon": horizon})
        n_steps = int(round(horizon / dt))
        return cls(dt, rng.normal(0.0, math.sqrt(dt), n_steps))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.increments.size + 1)

    def brownian(self) -> np.ndarray:
        """B1 at the grid times, starting from 0."""
        out = np.empty(self.increments.size + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


def _owners(u: np.ndarray, n: int) -> np.ndarray:
    """Particle ``floor(u n)`` of each uniform ``u`` in [0, 1).

    For ``n`` up to 2**53 even the largest uniform, ``1 - 2**-53``, gives a
    product that rounds to below ``n``, so every owner lies in ``0..n-1``.
    Each owner's probability is within ``2**-53`` of ``1 / n``.
    """
    return (u * n).astype(np.intp)


def _draw_jumps(levy: LevyMeasureSpec, n: int, dt: float, gens: list):
    """Owners and marks of one step's jumps in ``len(gens)`` clouds of ``n``
    particles, cloud ``j`` drawing from ``gens[j]`` alone.

    Each cloud draws one Poisson(``lam dt n``) total, then one uniform owner
    per jump (``_owners``): by Poisson splitting the per-particle counts have
    the joint law of ``n`` independent Poisson(``lam dt``) counts.  Then it
    draws its marks, unless the law has one atom; its value is returned in
    place of the marks.  Owners index the clouds' particles in row order, so
    particle ``i`` of cloud ``j`` is ``j n + i``.
    """
    lam = levy.intensity * dt * n
    one_atom = len(levy.atoms) == 1
    totals, uniforms, marks = [], [], []
    for rng in gens:
        total = rng.poisson(lam)
        totals.append(total)
        uniforms.append(rng.random(total))
        if not one_atom:
            marks.append(levy.sample_marks(rng, total))
    owners = _owners(np.concatenate(uniforms), n)
    owners += np.repeat(np.arange(0, len(gens) * n, n), totals)
    return owners, levy.atoms[0][0] if one_atom else np.concatenate(marks)


def _per_row(value, rows: int) -> list:
    """A per-row array or a scalar shared by all rows, as ``rows`` floats."""
    return value.tolist() if np.ndim(value) else [float(value)] * rows


def step(
    x: np.ndarray,
    offset: np.ndarray,
    spec: ModelSpec,
    dt: float,
    m_bar: np.ndarray,
    dB1: np.ndarray,
    gens: list,
    x_mean: np.ndarray,
) -> None:
    """Euler-Maruyama step of ``rows`` clouds, in place and unclamped.

    Cloud ``j`` is ``offset[j] + x[j]``, row ``j`` of the C-contiguous
    ``(rows, n)`` array ``x`` moved by its common offset.  It has mean
    ``m_bar[j]``, common-noise increment ``dB1[j]`` and generator
    ``gens[j]``, which draws that row's randomness and nothing else: the
    idiosyncratic normals (none when ``s0 == s1 == 0``), then the jumps of
    ``_draw_jumps`` (none without intensity).  With idiosyncratic noise a
    row of ``x`` moves by ``shift + scale * z`` in one update, drift,
    compensator and common noise in ``shift``, and its offset stays.
    Without it every particle moves alike, so the offset takes the shift and
    then the common noise, and ``x`` is not touched.  The jumps of all rows
    go into ``x`` in one pass.  On return ``m_bar`` holds the clouds' means,
    ``mean(x) + offset``, a zero offset left unadded, and ``x_mean`` each
    row's ``mean(x)``, which a rigid step recomputes only for the rows that
    a jump moved.
    """
    if not 0 < dt < math.inf:  # NaN too
        raise ValueError(f"step dt must be finite and > 0, got {dt!r}")
    if x.ndim != 2 or not x.flags.c_contiguous:  # the jumps go in through a flat view
        raise ValueError("step needs a C-contiguous (rows, n) state array")
    rows, n = x.shape
    levy = spec.levy
    rigid = not (spec.s0 or spec.s1)
    shift = spec.drift(m_bar) * dt
    if levy.intensity > 0:  # the jump compensator
        shift = shift - dt * levy.intensity * spec.expected_jump_amp(m_bar)
    common = spec.diffusion_common(m_bar) * dB1
    if rigid:  # a translation of the whole cloud
        offset += shift
        offset += common
    else:
        shift = _per_row(shift + common, rows)
        scale = _per_row(spec.diffusion_idio(m_bar) * math.sqrt(dt), rows)
        z = np.empty(n)  # one row of idiosyncratic normals at a time
        for j, rng in enumerate(gens):
            rng.standard_normal(out=z)
            z *= scale[j]
            z += shift[j]
            x[j] += z
    jumped = None  # the rigid rows that a jump moved
    if levy.intensity > 0:
        owners, marks = _draw_jumps(levy, n, dt, gens)
        at = owners // n
        np.add.at(x.reshape(-1), owners, spec.jump_amp(m_bar[at], marks))
        if rigid:
            jumped = np.unique(at)
    if not rigid:
        np.mean(x, axis=1, out=x_mean)
    elif jumped is not None:  # a rigid row without jumps keeps its mean
        x_mean[jumped] = np.mean(x[jumped], axis=1)
    m_bar[:] = x_mean
    np.add(m_bar, offset, out=m_bar, where=offset != 0)
    # a non-finite particle or offset makes its cloud's mean non-finite
    if not np.all(np.isfinite(m_bar)):
        j = int(np.flatnonzero(~np.isfinite(m_bar))[0])
        bad = np.flatnonzero(~np.isfinite(x[j]))
        where = (f"particle {int(bad[0])}" if bad.size
                 else "offset overflow" if not math.isfinite(offset[j]) else "mean overflow")
        raise SimulationError(f"non-finite state in row {j}, {where}")


@dataclass
class PathResult:
    m_bar: np.ndarray       # (clouds, steps + 1): each cloud's mean at each grid time
    states: np.ndarray      # (clouds, n): the particles at the last grid time
    floor_events: int = 0   # always 0, clouds are not clamped; perfbench's tracer reads it


def simulate_path(
    spec: ModelSpec,
    paths: list,
    n: int,
    gens: list,
) -> PathResult:
    """Advance one unclamped cloud of ``n`` particles along each common-noise
    path of ``paths``, recording the clouds' means at every grid time.

    Cloud ``j`` draws its initial states and all its step randomness from
    ``gens[j]`` alone, so it comes out bit for bit as when run by itself.
    The clouds are the rows of one state array, advanced by one ``step``
    call per time step, and each row's common offset is added in at the
    end; the paths must share their ``dt`` and length.
    """
    if n < 1:
        raise ValueError("particle count must be >= 1")
    if not paths:
        raise ValueError("simulate_path needs at least one common-noise path")
    if len(gens) != len(paths):
        raise ValueError(f"simulate_path needs one generator per path, got {len(gens)} "
                         f"generators for {len(paths)} paths")
    dt = paths[0].dt
    if any(p.dt != dt or p.increments.size != paths[0].increments.size for p in paths):
        raise ValueError("the common-noise paths of one simulate_path call must share "
                         "their dt and step count")
    dB1 = np.stack([p.increments for p in paths], axis=1)  # row k: the clouds' increments
    x = np.empty((len(paths), n))  # stepped in place
    for row, rng in zip(x, gens):
        row[:] = spec.initial_law.sample(rng, n)
    offset = np.zeros(len(paths))  # cloud j is offset[j] + x[j]
    x_mean = x.mean(axis=1)
    m_bar = np.empty((len(paths), dB1.shape[0] + 1))
    m = x_mean.copy()
    m_bar[:, 0] = m
    for k, increments in enumerate(dB1, start=1):
        step(x, offset, spec, dt, m, increments, gens, x_mean)
        m_bar[:, k] = m
    np.add(x, offset[:, None], out=x, where=offset[:, None] != 0)
    return PathResult(m_bar, x)


def silverman_bandwidth(states: np.ndarray) -> float:
    states = np.asarray(states, float)
    std = float(np.std(states))
    q75, q25 = np.percentile(states, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale == 0:
        raise ValueError("degenerate cloud: bandwidth must be given explicitly")
    return 0.9 * scale * states.size ** (-1 / 5)


def check_bandwidth(h: float, x: np.ndarray, prefix: str = "") -> None:
    """Reject a KDE bandwidth ``h`` that is not finite or is below half the
    step of the uniform grid ``x``; ``kde_density`` bins each particle to its
    nearest node and needs its offset to be at most one bandwidth."""
    dx = (x[-1] - x[0]) / (x.size - 1)
    if not 0.5 * dx <= h < math.inf:  # NaN too
        raise ValueError(f"{prefix}bandwidth must be finite and at least half the grid step "
                         f"dx = {dx:.6g}, got {h!r}")


def _taylor_order(delta: float) -> int:
    """The least ``P`` such that cutting ``e^(u d)`` after its ``u^(P-1)`` term
    changes ``e^(-(u - d)^2 / 2)`` by less than ``_KDE_TRUNCATION`` for every
    ``u`` and every offset ``|d| <= delta``.

    The cut's error is at most ``|u d|^P / P! e^(|u d|)``, so the kernel's is
    at most ``|u d|^P / P! e^(-(|u| - |d|)^2 / 2)``, which is largest at
    ``|u| = (delta + sqrt(delta^2 + 4 P)) / 2``.
    """
    limit = math.log(_KDE_TRUNCATION)
    p = 1
    while delta > 0:
        u = 0.5 * (delta + math.sqrt(delta * delta + 4 * p))
        if p * math.log(u * delta) - math.lgamma(p + 1) - 0.5 * (u - delta) ** 2 < limit:
            break
        p += 1
    return p


def kde_density(
    states: np.ndarray,
    bandwidth: float | None,
    grid: np.ndarray,
) -> GridDensity:
    """Gaussian-kernel estimate of the particles ``states`` on the grid,
    renormalized to unit mass.

    A binned Gauss transform (Greengard & Strain 1991).  A particle ``s``
    on the grid goes to its nearest node ``c``, at the offset
    ``d = (s - x[c]) / h``, at most half a step and so at most one
    bandwidth.  Its kernel at node ``c + m``, ``u = m dx / h``, factors as
    ``e^(-d^2/2) e^(u d) e^(-u^2/2)``; with ``e^(u d)`` cut after the
    ``_taylor_order`` terms that keep each kernel value within
    ``_KDE_TRUNCATION`` of exact, the estimate is a sum over ``p`` of the
    moments ``sum e^(-d^2/2) d^p`` of each node's particles convolved with
    ``e^(-u^2/2) u^p / p!``, for ``|u|`` up to ``_KDE_REACH``.  The few
    particles off the grid are summed directly.
    """
    x = np.asarray(grid, float)
    check_grid(x)
    states = np.asarray(states, float)
    if states.ndim != 1 or states.size < 1:
        raise ValueError("states must be a nonempty 1-D array")
    if not np.isfinite(states).all():  # the outside share would count a NaN inside
        raise ValueError("kde_density needs finite particle states")
    h = silverman_bandwidth(states) if bandwidth is None else float(bandwidth)
    check_bandwidth(h, x)
    off = (states < x[0]) | (states > x[-1])
    outside = np.count_nonzero(off) / states.size
    if outside > _KDE_OUTSIDE:
        raise ValueError(
            f"grid too narrow: {outside:.2%} of cloud mass outside [{x[0]}, {x[-1]}]"
        )
    g = x.size
    dx = (x[-1] - x[0]) / (g - 1)
    order = _taylor_order(0.5 * dx / h)
    moments = np.zeros((order, g))
    for lo in range(0, states.size, _KDE_CHUNK):
        part = states[lo:lo + _KDE_CHUNK]
        part = part[(part >= x[0]) & (part <= x[-1])]
        node = np.rint((part - x[0]) / dx).astype(np.intp)
        d = part - x[node]
        d /= h
        w = np.square(d)
        w *= -0.5
        np.exp(w, out=w)
        for p in range(order):
            if p:
                w *= d
            moments[p] += np.bincount(node, w, minlength=g)
    reach = min(math.ceil(_KDE_REACH * h / dx), g - 1)
    u = np.arange(-reach, reach + 1) * (dx / h)
    weights = np.exp(-0.5 * u * u)
    values = np.zeros(g)
    for p in range(order):
        if p:
            weights *= u
            weights /= p
        values += np.convolve(moments[p], weights)[reach:reach + g]
    rows = max(1, _KDE_CHUNK // g)
    far = states[off]
    for lo in range(0, far.size, rows):
        values += np.exp(-0.5 * ((x - far[lo:lo + rows, None]) / h) ** 2).sum(axis=0)
    np.maximum(values, 0.0, out=values)  # the alternating moment sums may round below 0
    values *= 1.0 / (h * math.sqrt(2 * math.pi) * states.size)
    return GridDensity(x, values).normalized()
