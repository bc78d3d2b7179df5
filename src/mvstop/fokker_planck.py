"""Stochastic Fokker-Planck integrator for the conditional law.

The conditional density evolves by ``d rho = A0* rho dt + A1* rho dB1``
on a uniform 1-D grid.  Both operators are discretized in divergence form
with central differences, so their grid integrals vanish for densities
supported away from the boundary; the jump shift is realized by linear
interpolation of the density at the shifted positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelSpec

CFL_SAFETY = 0.25      # fraction of the explicit diffusion limit dx^2 / (b1^2 + b2^2)
BOUNDARY_TOL = 1e-6    # density mass allowed on the two end nodes before a step
VALUE_CAP = 1e12       # largest density value a step may produce


class GridError(ValueError):
    """Density support incompatible with the grid."""


class CFLError(RuntimeError):
    """Explicit step size violates the stability bound."""


@dataclass
class GridDensity:
    """Density values on uniform grid nodes ``x`` at time ``time``.

    The grid is validated once, on construction, and keeps its trapezoid
    weights ``diff(x)``; a step's successor shares both without a re-check.
    """

    x: np.ndarray
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise GridError("grid and values must be 1-D arrays of equal length")
        dx = np.diff(self.x)
        if self.x.size < 3 or not np.allclose(dx, dx[0], rtol=1e-10):
            raise GridError("grid must be uniform with at least 3 nodes")
        self._d = dx

    def _on_grid(self, values: np.ndarray, time: float) -> "GridDensity":
        """``values`` at ``time`` on this density's grid, which is not checked again."""
        out = object.__new__(GridDensity)
        out.x, out.values, out.time, out._d = self.x, values, time, self._d
        return out

    def _trapezoid(self, y: np.ndarray) -> float:
        """``np.trapezoid(y, x)``: numpy's own expression, on the kept weights."""
        return float((self._d * (y[1:] + y[:-1]) / 2.0).sum())

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return self._trapezoid(self.values)

    def first_moment(self) -> float:
        return self._trapezoid(self.x * self.values)

    def normalized(self) -> "GridDensity":
        return replace(self, values=self.values / self.mass())


def make_grid(x_min: float, x_max: float, n_points: int) -> np.ndarray:
    if n_points < 3 or x_max <= x_min:
        raise GridError("need x_max > x_min and n_points >= 3")
    return np.linspace(x_min, x_max, n_points)


def gaussian_density(x: np.ndarray, mean: float, std: float) -> GridDensity:
    values = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))
    return GridDensity(x, values).normalized()


def _d1(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative, central interior, one-sided ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
    return out


def _d2(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx**2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / dx**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / dx**2
    return out


def boundary_mass(density: GridDensity) -> float:
    rho, dx = density.values, density.dx
    return float((abs(rho[0]) + abs(rho[-1])) * dx)


def apply_A0_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Drift, diffusion and compensated jump parts of the adjoint generator at mean ``m_bar``."""
    x, rho, dx = density.x, density.values, density.dx
    alpha = spec.drift(m_bar)
    b1 = spec.diffusion_common(m_bar)
    b2 = spec.diffusion_idio(m_bar)
    rate = -_d1(alpha * rho, dx) + 0.5 * _d2((b1 * b1 + b2 * b2) * rho, dx)
    if spec.levy.intensity > 0:
        for value, prob in spec.levy.atoms:
            gamma = spec.jump_amp(m_bar, value)
            shifted = np.interp(x - gamma, x, rho, left=0.0, right=0.0)
            rate = rate + spec.levy.intensity * prob * (
                shifted - rho + _d1(gamma * rho, dx)
            )
    return rate


def apply_A1_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Common-noise transport term ``-D[beta1 rho]``; ``m_bar`` as in ``apply_A0_star``."""
    b1 = spec.diffusion_common(m_bar)
    return -_d1(b1 * density.values, density.dx)


@dataclass
class StepDiagnostics:
    mass_defect: float        # |mass - 1| after the raw Euler update
    clipped_mass: float       # negative mass removed by limiting
    cfl_bound: float


def cfl_bound(density: GridDensity, spec: ModelSpec, m_bar: float) -> float:
    b1 = spec.diffusion_common(m_bar)
    b2 = spec.diffusion_idio(m_bar)
    peak = b1 * b1 + b2 * b2
    if peak == 0:
        return np.inf
    return CFL_SAFETY * density.dx**2 / peak


def step_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1: float,
) -> tuple[GridDensity, StepDiagnostics]:
    """One Euler-Maruyama step of the density, with clipping and renormalization."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    m_bar = density.first_moment()
    bound = cfl_bound(density, spec, m_bar)
    if dt > bound * (1 + 1e-9):
        raise CFLError(
            f"dt={dt:.3e} exceeds stability bound {bound:.3e} "
            f"(dx={density.dx:.3e}, t={density.time:.4f})"
        )
    edge = boundary_mass(density)
    if edge > BOUNDARY_TOL:
        raise GridError(f"density mass at grid boundary {edge:.3e} exceeds {BOUNDARY_TOL:.1e}")
    rho = density.values
    new = (rho + apply_A0_star(density, spec, m_bar) * dt
           + apply_A1_star(density, spec, m_bar) * dB1)
    if not np.abs(new).max() <= VALUE_CAP:  # NaN and inf fail the comparison too
        raise CFLError(
            f"density blow-up at t={density.time:.4f}; "
            f"CFL bound was {bound:.3e} for dt={dt:.3e}"
        )
    defect = abs(density._trapezoid(new) - 1.0)
    clipped = np.clip(new, 0.0, None)
    clipped_mass = density._trapezoid(clipped - new)  # the negative part of new
    clipped /= density._trapezoid(clipped)
    out = density._on_grid(clipped, density.time + dt)
    return out, StepDiagnostics(defect, clipped_mass, bound)


def evolve_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1_increments: np.ndarray,
) -> tuple[GridDensity, list[StepDiagnostics]]:
    diags = []
    for dB1 in np.asarray(dB1_increments, float):
        density, d = step_spide(density, spec, dt, float(dB1))
        diags.append(d)
    return density, diags


def compare_to_particles(density: GridDensity, kde: GridDensity) -> float:
    """Trapezoid-rule L1 distance between two densities on the same grid."""
    if density.x.shape != kde.x.shape or not np.allclose(density.x, kde.x):
        raise GridError("densities live on different grids")
    return float(np.trapezoid(np.abs(density.values - kde.values), density.x))
