"""Stochastic Fokker-Planck integrator for the conditional law.

The conditional density evolves by ``d rho = A0* rho dt + A1* rho dB1``
on a uniform 1-D grid.  Both operators are discretized in divergence form
with central differences, so their grid integrals vanish for densities
supported away from the boundary; the jump shift is realized by linear
interpolation of the density at the shifted positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelSpec

CFL_SAFETY = 0.25      # fraction of the explicit diffusion limit dx^2 / (b1^2 + b2^2)
BOUNDARY_TOL = 1e-6    # density mass allowed on the two end nodes before a step
VALUE_CAP = 1e12       # largest density value a step may produce
GRID_ULPS = 4          # largest spread of a uniform grid's steps, in ulps of max|x|


class GridError(ValueError):
    """Density support incompatible with the grid."""


class CFLError(RuntimeError):
    """Explicit step size violates the stability bound."""


def check_grid(x: np.ndarray) -> None:
    """Raise ``GridError`` unless ``x`` is a uniform, increasing 1-D grid of at
    least 4 nodes, the one-sided end stencils' width.  Uniform means every step
    is within ``GRID_ULPS`` ulps of ``max|x|`` of the first, as the steps of
    ``np.linspace`` are (2 ulps at most): the KDE bins on ``dx`` and the
    stencils take every step to be it."""
    dx = np.diff(x)
    if (x.ndim != 1 or x.size < 4 or not dx[0] > 0
            or not np.abs(dx - dx[0]).max() <= GRID_ULPS * np.spacing(np.abs(x).max())):
        raise GridError("grid must be uniform and increasing with at least 4 nodes")


@dataclass
class GridDensity:
    """Density values on uniform grid nodes ``x`` at time ``time``; the grid
    is validated on construction."""

    x: np.ndarray
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise GridError("grid and values must be 1-D arrays of equal length")
        check_grid(self.x)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))

    def first_moment(self) -> float:
        return float(np.trapezoid(self.x * self.values, self.x))

    def normalized(self) -> "GridDensity":
        return replace(self, values=self.values / self.mass())


def make_grid(x_min: float, x_max: float, n_points: int) -> np.ndarray:
    x = np.linspace(x_min, x_max, n_points)
    check_grid(x)
    return x


def gaussian_density(x: np.ndarray, mean: float, std: float) -> GridDensity:
    values = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))
    return GridDensity(x, values).normalized()


@dataclass
class StepDiagnostics:
    mass_defect: float        # |mass - 1| after the raw Euler update
    clipped_mass: float       # negative mass removed by limiting
    cfl_bound: float


def _cfl_bound(dx: float, spec: ModelSpec, m_bar: float) -> float:
    b1 = spec.diffusion_common(m_bar)
    b2 = spec.diffusion_idio(m_bar)
    peak = b1 * b1 + b2 * b2
    if peak == 0:
        return np.inf
    return CFL_SAFETY * dx**2 / peak


def cfl_bound(density: GridDensity, spec: ModelSpec, m_bar: float) -> float:
    return _cfl_bound(density.dx, spec, m_bar)


class _Kernel:
    """Explicit steps of one density on its grid, in buffers allocated once.

    ``rho`` holds a copy of the start density's values, which ``step``
    replaces by the next step's.  Every coefficient is a number fixed by
    ``m_bar``, so ``D[c rho] = c D[rho]``, and each operator, or a whole
    step's linear update, is one three-point stencil of central differences
    inside (``_linear``), in divergence form, so it conserves mass; its four
    one-sided end stencils run on Python floats from ``_ends``, the four
    first and four last values of ``rho``.  When no coefficient reads the
    mean they are computed once, here.
    """

    def __init__(self, density: GridDensity, spec: ModelSpec):
        n = density.x.size
        self.x, self.spec, self.time = density.x, spec, density.time
        self.rho = density.values.copy()
        self.dx = density.dx
        self._d = np.diff(self.x)           # trapezoid weights, as np.trapezoid takes them
        # a coefficient without an m term never reads m_bar (ModelSpec
        # evaluates only nonzero terms), so constant coefficients skip it
        self._reads_mean = any((spec.a1, spec.b1, spec.s1, spec.j1))
        self._fixed = None
        if not self._reads_mean:
            self._fixed = self._coefficients(math.nan)
        self._w = np.empty(3)               # the stencil weights
        self._end_nodes = np.r_[0:4, n - 4:n]
        self._stack = np.empty((3, n))     # the update, its negative part, its positive part
        self._pairs = np.empty((3, n - 1))
        self._read_ends()

    def _read_ends(self) -> None:
        self._ends = self.rho[self._end_nodes].tolist()

    def _coefficients(self, m_bar: float) -> tuple:
        """At mean ``m_bar``: ``b1``, the diffusion ``(b1^2 + b2^2) / 2``, the
        drift less the jumps' transport, the jump rate, the jumps as
        ``(rate, shift)`` pairs and the CFL bound; computed once if fixed."""
        if self._fixed is not None:
            return self._fixed
        spec = self.spec
        b1, b2 = spec.diffusion_common(m_bar), spec.diffusion_idio(m_bar)
        lam = spec.levy.intensity
        jumps = [(lam * prob, spec.jump_amp(m_bar, value))
                 for value, prob in spec.levy.atoms] if lam > 0 else []
        rate = sum(r for r, _ in jumps)
        transport = sum(r * gamma for r, gamma in jumps)
        return (b1, 0.5 * (b1 * b1 + b2 * b2), spec.drift(m_bar) - transport, rate, jumps,
                _cfl_bound(self.dx, spec, m_bar))

    def _linear(self, diag: float, diff: float, drift: float, out: np.ndarray) -> None:
        """``diag rho + diff D^2[rho] - drift D[rho]`` into ``out``: second
        order, central inside, one-sided at the ends."""
        a, b = diff / self.dx**2, drift / (2 * self.dx)
        w = self._w  # the stencil reversed, so a correlation applies it
        w[0], w[1], w[2] = a + b, diag - 2 * a, a - b
        out[1:-1] = np.correlate(self.rho, w, "valid")
        r0, r1, r2, r3, s3, s2, s1, s0 = self._ends
        out[0] = (diag * r0 + a * (2 * r0 - 5 * r1 + 4 * r2 - r3)
                  - b * (-3 * r0 + 4 * r1 - r2))
        out[-1] = (diag * s0 + a * (2 * s0 - 5 * s1 + 4 * s2 - s3)
                   - b * (3 * s0 - 4 * s1 + s2))

    def _update(self, coefficients: tuple, dt: float, dB1: float, keep: float,
                out: np.ndarray) -> np.ndarray:
        """``keep rho + dt A0* rho + dB1 A1* rho`` on the ``_coefficients`` at
        a mean into ``out``.

        With ``r = sum_k lam p_k`` and the compensator's transport
        ``g = sum_k lam p_k gamma_k``, ``A0* rho = (b1^2 + b2^2) / 2 D^2[rho]
        - (alpha - g) D[rho] - r rho + sum_k lam p_k rho(x - gamma_k)``, each
        shift by linear interpolation, and ``A1* rho = -b1 D[rho]``.
        """
        b1, diff, drift, rate, jumps, _ = coefficients
        self._linear(keep - dt * rate, diff * dt, drift * dt + b1 * dB1, out)
        for r, gamma in jumps:
            shifted = np.interp(self.x - gamma, self.x, self.rho, left=0.0, right=0.0)
            shifted *= dt * r
            out += shifted
        return out

    def check(self, dt: float) -> tuple:
        """The ``_coefficients`` at the density's mean, once a step of ``dt``
        is known to keep within the CFL bound and off the grid's ends."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        m_bar = float(np.trapezoid(self.x * self.rho, self.x)) if self._reads_mean else math.nan
        coefficients = self._coefficients(m_bar)
        bound = coefficients[-1]
        if dt > bound * (1 + 1e-9):
            raise CFLError(
                f"dt={dt:.3e} exceeds stability bound {bound:.3e} "
                f"(dx={self.dx:.3e}, t={self.time:.4f})"
            )
        edge = (abs(self._ends[0]) + abs(self._ends[-1])) * self.dx
        if edge > BOUNDARY_TOL:
            raise GridError(f"density mass at grid boundary {edge:.3e} exceeds {BOUNDARY_TOL:.1e}")
        return coefficients

    def step(self, dt: float, dB1: float) -> StepDiagnostics:
        coefficients = self.check(dt)
        bound = coefficients[-1]
        stack = self._stack
        new, neg, pos = stack
        self._update(coefficients, dt, dB1, 1.0, new)
        # |new| <= VALUE_CAP; NaN fails both comparisons
        low = np.minimum.reduce(new)
        if not (np.maximum.reduce(new) <= VALUE_CAP and -low <= VALUE_CAP):
            raise CFLError(
                f"density blow-up at t={self.time:.4f}; "
                f"CFL bound was {bound:.3e} for dt={dt:.3e}"
            )
        if low < 0:
            np.maximum(new, 0.0, out=pos)   # np.clip(new, 0.0, None), without its wrapper
            np.subtract(pos, new, out=neg)
            rows, kept = stack, pos
        else:                               # nothing to clip
            rows, kept = stack[:1], new
        pairs = self._pairs[:len(rows)]     # the trapezoid rules in one pass
        np.add(rows[:, 1:], rows[:, :-1], out=pairs)
        pairs *= self._d
        pairs /= 2.0
        sums = np.add.reduce(pairs, axis=1).tolist()
        mass, clipped_mass, total = sums if low < 0 else (sums[0], 0.0, sums[0])
        np.divide(kept, total, out=self.rho)
        self._read_ends()
        self.time += dt
        return StepDiagnostics(abs(mass - 1.0), clipped_mass, bound)


def apply_A0_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Drift, diffusion and compensated jump parts of the adjoint generator at mean ``m_bar``."""
    kernel = _Kernel(density, spec)
    return kernel._update(kernel._coefficients(m_bar), 1.0, 0.0, 0.0, np.empty_like(kernel.rho))


def apply_A1_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Common-noise transport term ``-D[beta1 rho]``; ``m_bar`` as in ``apply_A0_star``."""
    kernel = _Kernel(density, spec)
    return kernel._update(kernel._coefficients(m_bar), 0.0, 1.0, 0.0, np.empty_like(kernel.rho))


def check_first_step(density: GridDensity, spec: ModelSpec, dt: float) -> None:
    """Raise the ``CFLError`` or ``GridError`` that a step of ``dt`` from
    ``density`` would raise before it updates anything."""
    _Kernel(density, spec).check(dt)


def step_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1: float,
) -> tuple[GridDensity, StepDiagnostics]:
    """One Euler-Maruyama step of the density, with clipping and renormalization."""
    kernel = _Kernel(density, spec)
    diag = kernel.step(dt, dB1)
    return GridDensity(density.x, kernel.rho, kernel.time), diag


def evolve_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1_increments: np.ndarray,
) -> tuple[GridDensity, list[StepDiagnostics]]:
    """``step_spide`` once per common-noise increment, all in one kernel's buffers."""
    kernel = _Kernel(density, spec)
    diags = [kernel.step(dt, float(dB1)) for dB1 in np.asarray(dB1_increments, float)]
    return GridDensity(density.x, kernel.rho, kernel.time), diags


def compare_to_particles(density: GridDensity, kde: GridDensity) -> float:
    """Trapezoid-rule L1 distance between two densities on the same grid."""
    if density.x.shape != kde.x.shape or not np.allclose(density.x, kde.x):
        raise GridError("densities live on different grids")
    return float(np.trapezoid(np.abs(density.values - kde.values), density.x))
