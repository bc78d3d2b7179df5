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


class GridError(ValueError):
    """Density support incompatible with the grid."""


class CFLError(RuntimeError):
    """Explicit step size violates the stability bound."""


def check_grid(x: np.ndarray) -> np.ndarray:
    """The trapezoid weights ``diff(x)`` of a uniform, increasing 1-D grid
    of at least 3 nodes; any other ``x`` raises ``GridError``."""
    dx = np.diff(x)
    if x.ndim != 1 or x.size < 3 or not dx[0] > 0 or not np.allclose(dx, dx[0], rtol=1e-10):
        raise GridError("grid must be uniform and increasing with at least 3 nodes")
    return dx


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
        self._d = check_grid(self.x)

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
    replaces by the next step's.  The operators are central differences
    in divergence form whose four end-point stencils run on Python floats
    from ``_head`` and ``_tail``, the end values of ``rho``; every
    elementwise operation is the one the plain numpy expression would do,
    in its order, so the results match it bit for bit.
    """

    def __init__(self, density: GridDensity, spec: ModelSpec):
        n = density.x.size
        self.x, self.spec, self.time = density.x, spec, density.time
        self.rho = density.values.copy()
        self.dx = density.dx
        self._2dx, self._dx2 = 2 * self.dx, self.dx**2
        self._d = density._d
        # D[0 rho] is +0.0 everywhere unless rho carries a sign bit, and
        # adding its negation -0.0 changes no value; a step's values never
        # carry one, so only the start density needs the check
        self._unsigned = not np.signbit(self.rho).any()
        # a coefficient without an m term never reads m_bar (ModelSpec
        # evaluates only nonzero terms), so constant coefficients skip it
        self._reads_mean = any((spec.a1, spec.b1, spec.s1, spec.j1))
        self._f = np.empty(n)              # one operand c * rho
        self._rate = np.empty(n)           # A0* rho
        self._grad = np.empty(n)           # D[c rho]
        self._stack = np.empty((3, n))     # the update, its negative part, its positive part
        self._pairs = np.empty((3, n - 1))
        self._read_ends()

    def _read_ends(self) -> None:
        self._head, self._tail = self.rho[:4].tolist(), self.rho[-4:].tolist()

    def d1(self, c: float, out: np.ndarray) -> np.ndarray:
        """``D[c rho]`` into ``out``: second order, central inside, one-sided at the ends."""
        f = np.multiply(self.rho, c, out=self._f)
        np.subtract(f[2:], f[:-2], out=out[1:-1])
        out[1:-1] /= self._2dx
        r0, r1, r2, _ = self._head
        _, s2, s1, s0 = self._tail
        out[0] = (-3 * (c * r0) + 4 * (c * r1) - c * r2) / self._2dx
        out[-1] = (3 * (c * s0) - 4 * (c * s1) + c * s2) / self._2dx
        return out

    def d2(self, c: float, out: np.ndarray) -> np.ndarray:
        """``D^2[c rho]`` into ``out``, with the same stencil rules as ``d1``."""
        f = np.multiply(self.rho, c, out=self._f)
        mid = out[1:-1]
        np.multiply(f[1:-1], 2.0, out=mid)
        np.subtract(f[2:], mid, out=mid)
        mid += f[:-2]
        mid /= self._dx2
        r0, r1, r2, r3 = self._head
        s3, s2, s1, s0 = self._tail
        out[0] = (2 * (c * r0) - 5 * (c * r1) + 4 * (c * r2) - c * r3) / self._dx2
        out[-1] = (2 * (c * s0) - 5 * (c * s1) + 4 * (c * s2) - c * s3) / self._dx2
        return out

    def a0_star(self, m_bar: float) -> np.ndarray:
        """``A0* rho`` at mean ``m_bar`` into the rate buffer."""
        spec = self.spec
        b1, b2 = spec.diffusion_common(m_bar), spec.diffusion_idio(m_bar)
        rate = self.d2(b1 * b1 + b2 * b2, self._rate)
        rate *= 0.5
        alpha = spec.drift(m_bar)
        if alpha != 0 or not self._unsigned:
            rate -= self.d1(alpha, self._grad)
        if spec.levy.intensity > 0:
            for value, prob in spec.levy.atoms:
                gamma = spec.jump_amp(m_bar, value)
                shifted = np.interp(self.x - gamma, self.x, self.rho, left=0.0, right=0.0)
                shifted -= self.rho
                shifted += self.d1(gamma, self._grad)
                shifted *= spec.levy.intensity * prob
                rate += shifted
        return rate

    def first_moment(self) -> float:
        f, pair = self._f, self._pairs[0]
        np.multiply(self.x, self.rho, out=f)
        np.add(f[1:], f[:-1], out=pair)
        pair *= self._d
        pair /= 2.0
        return float(np.add.reduce(pair))

    def step(self, dt: float, dB1: float) -> StepDiagnostics:
        if dt <= 0:
            raise ValueError("dt must be > 0")
        spec = self.spec
        m_bar = self.first_moment() if self._reads_mean else math.nan
        bound = _cfl_bound(self.dx, spec, m_bar)
        if dt > bound * (1 + 1e-9):
            raise CFLError(
                f"dt={dt:.3e} exceeds stability bound {bound:.3e} "
                f"(dx={self.dx:.3e}, t={self.time:.4f})"
            )
        edge = (abs(self._head[0]) + abs(self._tail[-1])) * self.dx
        if edge > BOUNDARY_TOL:
            raise GridError(f"density mass at grid boundary {edge:.3e} exceeds {BOUNDARY_TOL:.1e}")
        rho, stack = self.rho, self._stack
        new, neg, pos = stack
        np.multiply(self.a0_star(m_bar), dt, out=new)
        new += rho
        a1_db = self.d1(spec.diffusion_common(m_bar), self._grad)
        a1_db *= -dB1                  # A1* rho = -D[b1 rho]
        new += a1_db
        # |new| <= VALUE_CAP; NaN fails both comparisons
        if not (np.maximum.reduce(new) <= VALUE_CAP and -np.minimum.reduce(new) <= VALUE_CAP):
            raise CFLError(
                f"density blow-up at t={self.time:.4f}; "
                f"CFL bound was {bound:.3e} for dt={dt:.3e}"
            )
        np.maximum(new, 0.0, out=pos)   # np.clip(new, 0.0, None), without its wrapper
        np.subtract(pos, new, out=neg)
        pairs = self._pairs             # the three trapezoid rules in one pass
        np.add(stack[:, 1:], stack[:, :-1], out=pairs)
        pairs *= self._d
        pairs /= 2.0
        mass, clipped_mass, total = pairs.sum(axis=1).tolist()
        np.divide(pos, total, out=rho)
        self._read_ends()
        self._unsigned = True
        self.time += dt
        return StepDiagnostics(abs(mass - 1.0), clipped_mass, bound)


def apply_A0_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Drift, diffusion and compensated jump parts of the adjoint generator at mean ``m_bar``."""
    return _Kernel(density, spec).a0_star(m_bar)


def apply_A1_star(density: GridDensity, spec: ModelSpec, m_bar: float) -> np.ndarray:
    """Common-noise transport term ``-D[beta1 rho]``; ``m_bar`` as in ``apply_A0_star``."""
    kernel = _Kernel(density, spec)
    grad = kernel.d1(spec.diffusion_common(m_bar), kernel._grad)
    return np.negative(grad, out=grad)


def step_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1: float,
) -> tuple[GridDensity, StepDiagnostics]:
    """One Euler-Maruyama step of the density, with clipping and renormalization."""
    kernel = _Kernel(density, spec)
    diag = kernel.step(dt, dB1)
    return density._on_grid(kernel.rho, kernel.time), diag


def evolve_spide(
    density: GridDensity,
    spec: ModelSpec,
    dt: float,
    dB1_increments: np.ndarray,
) -> tuple[GridDensity, list[StepDiagnostics]]:
    """``step_spide`` once per common-noise increment, all in one kernel's buffers."""
    kernel = _Kernel(density, spec)
    diags = [kernel.step(dt, float(dB1)) for dB1 in np.asarray(dB1_increments, float)]
    return density._on_grid(kernel.rho, kernel.time), diags


def compare_to_particles(density: GridDensity, kde: GridDensity) -> float:
    """Trapezoid-rule L1 distance between two densities on the same grid."""
    if density.x.shape != kde.x.shape or not np.allclose(density.x, kde.x):
        raise GridError("densities live on different grids")
    return float(np.trapezoid(np.abs(density.values - kde.values), density.x))
