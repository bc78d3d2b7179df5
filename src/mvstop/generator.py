"""Generator calculus on cylinder functions and variational-inequality checks.

Candidate value functions have the form ``phi(s, x, mu) = psi(s) F(<mu, q>)``.
For such functions the measure derivatives collapse to ordinary calculus:
the gradient pairs as ``F'(z) <h, q>`` and the Hessian as
``F''(z) <h, q> <k, q>``, and the generator applied along the conditional
law reduces to ``psi' F + psi (F' a(z) + 1/2 F'' b(z)^2)`` with the model's
drift ``a`` and common diffusion ``b`` at ``m_bar = z`` (sell: ``a = alpha0 z``,
``b = sigma1 z``; quit: ``a = 0``, ``b = sigma1``).  Pure cylinder functions
kill the x- and jump-terms, which is what makes the closed forms exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import ModelSpec


@dataclass(frozen=True)
class CylinderFunction:
    psi: Callable[[float], float]
    psi_prime: Callable[[float], float]
    F: Callable[[float], float]
    F_prime: Callable[[float], float]
    F_double_prime: Callable[[float], float]

    def value(self, s: float, z: float) -> float:
        return self.psi(s) * self.F(z)

    def dz(self, s: float, z: float) -> float:
        return self.psi(s) * self.F_prime(z)

    def check_derivatives(self, probe_s, probe_z, tol: float = 1e-6) -> None:
        """Finite-difference sanity check of the supplied derivatives."""
        eps = 1e-6
        for s in np.atleast_1d(probe_s):
            fd = (self.psi(s + eps) - self.psi(s - eps)) / (2 * eps)
            ref = max(1.0, abs(self.psi_prime(s)))
            if abs(fd - self.psi_prime(s)) > tol * ref:
                raise ValueError(f"psi_prime inconsistent at s={s}")
        for z in np.atleast_1d(probe_z):
            fd = (self.F(z + eps) - self.F(z - eps)) / (2 * eps)
            ref = max(1.0, abs(self.F_prime(z)))
            if abs(fd - self.F_prime(z)) > tol * ref:
                raise ValueError(f"F_prime inconsistent at z={z}")
            fd2 = (self.F_prime(z + eps) - self.F_prime(z - eps)) / (2 * eps)
            ref2 = max(1.0, abs(self.F_double_prime(z)))
            if abs(fd2 - self.F_double_prime(z)) > tol * ref2:
                raise ValueError(f"F_double_prime inconsistent at z={z}")


def frechet_gradient_cylinder(F_prime: Callable, z: float, h_pairing: float) -> float:
    """Gradient of ``mu -> F(<mu,q>)`` applied to a direction with pairing ``<h,q>``."""
    return F_prime(z) * h_pairing


def frechet_hessian_cylinder(
    F_double_prime: Callable, z: float, h_pairing: float, k_pairing: float
) -> float:
    """Second derivative of ``mu -> F(<mu,q>)``; symmetric bilinear in (h, k)."""
    return F_double_prime(z) * h_pairing * k_pairing


def apply_generator_cylinder(phi: CylinderFunction, s, z, spec: ModelSpec):
    """The generator of ``phi`` at ``(s, z)``, elementwise on arrays.  The flow's
    ``(a(z), b(z))`` are the spec's drift and common diffusion at ``m_bar = z``,
    exact because neither depends on ``x``; they enter as the pairings of the
    measure gradient and Hessian."""
    a, b = spec.drift(z), spec.diffusion_common(z)
    return phi.psi_prime(s) * phi.F(z) + phi.psi(s) * (
        frechet_gradient_cylinder(phi.F_prime, z, a)
        + 0.5 * frechet_hessian_cylinder(phi.F_double_prime, z, b, b)
    )


# ---------------------------------------------------------------------------
# candidates and variational-inequality checking

OBSTACLE_TOL = 1e-9  # how far a candidate may sit below the obstacle


@dataclass(frozen=True)
class StoppingCandidate:
    """Piecewise cylinder candidate with obstacle, running profit and region."""

    continuation: CylinderFunction
    stopping: CylinderFunction
    threshold: float
    direction: str                       # "up": continuation is z < threshold
    g: Callable[[float, float], float]   # obstacle (s, z)
    f: Callable[[float, float], float] | None = None
    z_floor: float | None = None         # open lower edge of the state domain

    def in_continuation(self, z):
        return z < self.threshold if self.direction == "up" else z > self.threshold

    def value(self, s, z):
        """The continuation branch inside its region, the stopping branch elsewhere."""
        s = np.asarray(s, float)
        z = np.asarray(z, float)
        out = np.where(self.in_continuation(z), self.continuation.value(s, z),
                       self.stopping.value(s, z))
        return float(out) if out.ndim == 0 else out


@dataclass
class RegionCheck:
    region: str
    n_probes: int
    max_residual: float       # -inf without probes
    max_abs_residual: float   # 0 without probes


@dataclass
class VarIneqReport:
    continuation: RegionCheck
    stopping: RegionCheck
    obstacle_violations: int
    continuity_gap: float
    smooth_fit_gap: float
    tol: float
    gap_tol: float
    worst_probes: list = field(default_factory=list)

    def passed(self) -> bool:
        return bool(
            self.continuation.max_abs_residual <= self.tol
            and self.stopping.max_residual <= self.tol
            and self.obstacle_violations == 0
            and self.continuity_gap <= self.gap_tol
            and self.smooth_fit_gap <= self.gap_tol
        )

    def to_dict(self) -> dict:
        """The report as strict JSON: a non-finite number, such as the maximum
        over a region without probes, is null."""
        fields = {
            "passed": self.passed(),
            "continuation_max_abs_residual": float(self.continuation.max_abs_residual),
            "stopping_max_residual": float(self.stopping.max_residual),
            "obstacle_violations": int(self.obstacle_violations),
            "continuity_gap": float(self.continuity_gap),
            "smooth_fit_gap": float(self.smooth_fit_gap),
            "tol": self.tol,
            "gap_tol": self.gap_tol,
            "n_continuation_probes": self.continuation.n_probes,
            "n_stopping_probes": self.stopping.n_probes,
            "worst_probes": self.worst_probes,
        }
        return {key: None if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in fields.items()}


def default_probe_grid(
    z_min: float, z_max: float, n_z: int = 200, s_max: float = 2.0, n_s: int = 20,
    log_z: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    if log_z:
        z = np.geomspace(z_min, z_max, n_z)
    else:
        z = np.linspace(z_min, z_max, n_z)
    return np.linspace(0.0, s_max, n_s), z


def check_variational_inequalities(
    candidate: StoppingCandidate,
    spec: ModelSpec,
    probe_s: np.ndarray,
    probe_z: np.ndarray,
    tol: float = 1e-10,
    gap_tol: float = 1e-8,
) -> VarIneqReport:
    """Probe the candidate against the optimal-stopping variational system.

    On the continuation region the generator residual (plus running profit)
    must vanish; outside it must be nonpositive; the candidate must dominate
    the obstacle everywhere and paste continuously and differentiably at the
    free boundary.  The probes are every ``(s, z)`` pair, ``s``-major, each
    region evaluated as one array; a NaN residual or gap fails.  Findings are
    data, never exceptions.
    """
    s, z = (grid.ravel() for grid in np.meshgrid(probe_s, probe_z, indexing="ij"))
    if candidate.z_floor is not None:
        keep = z > candidate.z_floor
        s, z = s[keep], z[keep]
    inside = candidate.in_continuation(z)
    regions = []
    for region, mask, branch in (("continuation", inside, candidate.continuation),
                                 ("stopping", ~inside, candidate.stopping)):
        s_in, z_in = s[mask], z[mask]
        res = apply_generator_cylinder(branch, s_in, z_in, spec)
        if candidate.f is not None:
            res = res + candidate.f(s_in, z_in)
        res = np.broadcast_to(res, z_in.shape)  # a branch may be constant
        regions.append(RegionCheck(region, res.size, float(np.max(res, initial=-np.inf)),
                                   float(np.max(np.abs(res), initial=0.0))))
    value, g = candidate.value(s, z), candidate.g(s, z)
    below = np.flatnonzero(value < g - OBSTACLE_TOL)
    worst = [(float(s[i]), float(z[i]), float(value[i] - g[i])) for i in below[:10]]
    s_axis, th = np.asarray(probe_s, float), candidate.threshold
    cont, stop = candidate.continuation, candidate.stopping
    continuity_gap = np.max(np.abs(cont.value(s_axis, th) - stop.value(s_axis, th)),
                            initial=0.0)
    smooth_gap = np.max(np.abs(cont.dz(s_axis, th) - stop.dz(s_axis, th)), initial=0.0)
    return VarIneqReport(
        continuation=regions[0],
        stopping=regions[1],
        obstacle_violations=below.size,
        continuity_gap=float(continuity_gap),
        smooth_fit_gap=float(smooth_gap),
        tol=tol,
        gap_tol=gap_tol,
        worst_probes=worst,
    )
