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

from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def measure_flow_coefficients(spec: ModelSpec, z: float) -> tuple[float, float]:
    """``(a(z), b(z))`` of the conditional-mean flow: the spec's drift and common
    diffusion at ``m_bar = z``, exact because neither depends on ``x``."""
    return spec.drift(z), spec.diffusion_common(z)


def apply_generator_cylinder(
    phi: CylinderFunction, s: float, z: float, spec: ModelSpec
) -> float:
    a, b = measure_flow_coefficients(spec, z)
    return phi.psi_prime(s) * phi.F(z) + phi.psi(s) * (
        phi.F_prime(z) * a + 0.5 * phi.F_double_prime(z) * b * b
    )


# ---------------------------------------------------------------------------
# candidates and variational-inequality checking


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

    def in_continuation(self, z: float) -> bool:
        if self.direction == "up":
            return z < self.threshold
        return z > self.threshold

    def branch(self, z: float) -> CylinderFunction:
        return self.continuation if self.in_continuation(z) else self.stopping

    def value(self, s, z):
        s = np.asarray(s, float)
        z = np.asarray(z, float)
        cont = self.continuation.psi(s) * self.continuation.F(z)
        stop = self.stopping.psi(s) * self.stopping.F(z)
        mask = z < self.threshold if self.direction == "up" else z > self.threshold
        out = np.where(mask, cont, stop)
        return float(out) if out.ndim == 0 else out


@dataclass
class RegionCheck:
    region: str
    n_probes: int = 0
    max_residual: float = -np.inf
    max_abs_residual: float = 0.0
    min_residual: float = np.inf

    def record(self, residual: float) -> None:
        self.n_probes += 1
        self.max_residual = max(self.max_residual, residual)
        self.min_residual = min(self.min_residual, residual)
        self.max_abs_residual = max(self.max_abs_residual, abs(residual))


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
        return {
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
    obstacle_tol: float = 1e-9,
    gap_tol: float = 1e-8,
) -> VarIneqReport:
    """Probe the candidate against the optimal-stopping variational system.

    On the continuation region the generator residual (plus running profit)
    must vanish; outside it must be nonpositive; the candidate must dominate
    the obstacle everywhere and paste continuously and differentiably at the
    free boundary.  Findings are data, never exceptions.
    """
    cont = RegionCheck("continuation")
    stop = RegionCheck("stopping")
    violations = 0
    worst: list[tuple[float, float, float]] = []
    for s in np.atleast_1d(probe_s):
        s = float(s)
        for z in np.atleast_1d(probe_z):
            z = float(z)
            if candidate.z_floor is not None and z <= candidate.z_floor:
                continue
            branch = candidate.branch(z)
            res = apply_generator_cylinder(branch, s, z, spec)
            if candidate.f is not None:
                res += candidate.f(s, z)
            (cont if candidate.in_continuation(z) else stop).record(res)
            if candidate.value(s, z) < candidate.g(s, z) - obstacle_tol:
                violations += 1
                if len(worst) < 10:
                    worst.append(
                        (s, z, float(candidate.value(s, z) - candidate.g(s, z)))
                    )
    th = candidate.threshold
    continuity_gap = 0.0
    smooth_gap = 0.0
    for s in np.atleast_1d(probe_s):
        s = float(s)
        continuity_gap = max(
            continuity_gap,
            abs(candidate.continuation.value(s, th) - candidate.stopping.value(s, th)),
        )
        smooth_gap = max(
            smooth_gap,
            abs(candidate.continuation.dz(s, th) - candidate.stopping.dz(s, th)),
        )
    return VarIneqReport(
        continuation=cont,
        stopping=stop,
        obstacle_violations=violations,
        continuity_gap=continuity_gap,
        smooth_fit_gap=smooth_gap,
        tol=tol,
        gap_tol=gap_tol,
        worst_probes=worst,
    )
