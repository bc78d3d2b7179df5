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
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .model import ModelSpec

DERIVATIVE_TOL = 1e-6  # how far a supplied derivative may sit from its difference quotient
_FD_STEP = 1e-6


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

    def derivative_mismatches(self, probe_s, probe_z, z_floor: float | None = None) -> list[str]:
        """Names of the supplied derivatives that central differences contradict.

        ``psi_prime`` is checked at every ``probe_s``, ``F_prime`` and
        ``F_double_prime`` at every ``probe_z``, with a step of
        ``1e-6 max(|x|, 1)``, shortened so that ``z`` minus it stays above
        ``z_floor``.  A derivative is contradicted where it differs from the
        difference quotient by more than ``DERIVATIVE_TOL max(1, |derivative|)``,
        or is NaN there.
        """
        s, z = np.asarray(probe_s, float), np.asarray(probe_z, float)
        h_z = _FD_STEP * np.maximum(np.abs(z), 1.0)
        if z_floor is not None:
            h_z = np.minimum(h_z, _FD_STEP * (z - z_floor))
        mismatches = []
        for name, fn, deriv, x, h in (
                ("psi_prime", self.psi, self.psi_prime, s, _FD_STEP * np.maximum(np.abs(s), 1.0)),
                ("F_prime", self.F, self.F_prime, z, h_z),
                ("F_double_prime", self.F_prime, self.F_double_prime, z, h_z)):
            up, down = x + h, x - h
            quotient = (fn(up) - fn(down)) / (up - down)
            supplied = np.broadcast_to(deriv(x), x.shape)
            bound = DERIVATIVE_TOL * np.maximum(1.0, np.abs(supplied))
            if not np.all(np.abs(quotient - supplied) <= bound):
                mismatches.append(name)
        return mismatches


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

OBSTACLE_TOL = 1e-9  # how far a candidate may sit below the obstacle, or off it where it stops


@dataclass(frozen=True)
class StoppingCandidate:
    """Piecewise cylinder value function and its continuation region."""

    continuation: CylinderFunction
    stopping: CylinderFunction
    threshold: float
    direction: str                # "up": continuation is z < threshold
    z_floor: float | None = None  # open lower edge of the state domain

    def in_continuation(self, z):
        return z < self.threshold if self.direction == "up" else z > self.threshold

    def value(self, s, z):
        """The continuation branch inside its region, the stopping branch elsewhere."""
        s = np.asarray(s, float)
        z = np.asarray(z, float)
        if self.z_floor is not None and np.any(z <= self.z_floor):
            raise ValueError(f"the state must lie above {self.z_floor}, got {float(np.nanmin(z))}")
        out = np.where(self.in_continuation(z), self.continuation.value(s, z),
                       self.stopping.value(s, z))
        return float(out) if out.ndim == 0 else out


@dataclass
class VarIneqReport:
    """The variational-inequality findings, one field per key of
    ``var_ineq_report.json``."""

    continuation_max_abs_residual: float  # 0 without probes
    stopping_max_residual: float          # -inf without probes
    n_continuation_probes: int
    n_stopping_probes: int
    obstacle_violations: int
    continuity_gap: float
    smooth_fit_gap: float
    tol: float
    gap_tol: float
    worst_probes: list = field(default_factory=list)
    derivative_mismatches: list = field(default_factory=list)  # "<branch>.<derivative>"

    def passed(self) -> bool:
        return bool(
            self.continuation_max_abs_residual <= self.tol
            and self.stopping_max_residual <= self.tol
            and self.obstacle_violations == 0
            and self.continuity_gap <= self.gap_tol
            and self.smooth_fit_gap <= self.gap_tol
            and not self.derivative_mismatches
        )

    def to_dict(self) -> dict:
        """The report as strict JSON: a non-finite number, such as the maximum
        over a region without probes, is null."""
        return {key: None if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in {"passed": self.passed(), **asdict(self)}.items()}


def default_probe_grid(
    z_min: float, z_max: float, n_z: int = 200, s_max: float = 2.0, n_s: int = 20,
    log_z: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    if log_z:
        if not (z_min > 0 and z_max > 0):
            raise ValueError(f"a log probe window needs z_min, z_max > 0, got {z_min}, {z_max}")
        z = np.geomspace(z_min, z_max, n_z)
    else:
        z = np.linspace(z_min, z_max, n_z)
    return np.linspace(0.0, s_max, n_s), z


def check_variational_inequalities(
    candidate: StoppingCandidate,
    spec: ModelSpec,
    payoff: tuple[Callable | None, Callable | None],
    probe_s: np.ndarray,
    probe_z: np.ndarray,
    tol: float = 1e-10,
    gap_tol: float = 1e-8,
) -> VarIneqReport:
    """Probe the candidate against the variational system of the problem
    ``spec`` with ``payoff``, the ``(f, g)`` of ``Family.payoff`` (None is 0).

    On the continuation region the generator residual plus the running profit
    ``f`` must vanish; outside it must be nonpositive; the candidate must
    dominate the obstacle ``g`` everywhere, equal it on the stopping region
    (where the rule stops, the value is the payoff: Øksendal & Sulem 2019,
    Ch. 2) and paste continuously and differentiably at the free boundary.
    A probe below the obstacle, or off it on the stopping region, is an
    obstacle violation.  The residual reads each branch's own ``psi'``,
    ``F'`` and ``F''``, so a wrong ``F''`` could zero it: each must also
    match central differences on the probes of its region
    (``CylinderFunction.derivative_mismatches``).  The probes are every
    ``(s, z)`` pair, ``s``-major, each region evaluated as one array; a NaN
    residual or gap fails.  Findings are data, never exceptions.
    """
    s, z = (grid.ravel() for grid in np.meshgrid(probe_s, probe_z, indexing="ij"))
    z_axis = np.asarray(probe_z, float)
    if candidate.z_floor is not None:
        keep = z > candidate.z_floor
        s, z = s[keep], z[keep]
        z_axis = z_axis[z_axis > candidate.z_floor]
    f, g = payoff
    inside, inside_axis = candidate.in_continuation(z), candidate.in_continuation(z_axis)
    residuals, mismatches = [], []
    for region, mask, mask_axis, branch in (
            ("continuation", inside, inside_axis, candidate.continuation),
            ("stopping", ~inside, ~inside_axis, candidate.stopping)):
        s_in, z_in = s[mask], z[mask]
        res = apply_generator_cylinder(branch, s_in, z_in, spec)
        if f is not None:
            res = res + f(s_in, z_in)
        residuals.append(np.broadcast_to(res, z_in.shape))  # a branch may be constant
        if z_in.size:
            mismatches += [f"{region}.{name}" for name in branch.derivative_mismatches(
                probe_s, z_axis[mask_axis], candidate.z_floor)]
    value = candidate.value(s, z)
    obstacle = np.zeros_like(value) if g is None else g(s, z)
    off = np.flatnonzero((value < obstacle - OBSTACLE_TOL)
                         | (~inside & (np.abs(value - obstacle) > OBSTACLE_TOL)))
    worst = [(float(s[i]), float(z[i]), float(value[i] - obstacle[i])) for i in off[:10]]
    s_axis, th = np.asarray(probe_s, float), candidate.threshold
    cont, stop = candidate.continuation, candidate.stopping
    continuity_gap = np.max(np.abs(cont.value(s_axis, th) - stop.value(s_axis, th)),
                            initial=0.0)
    smooth_gap = np.max(np.abs(cont.dz(s_axis, th) - stop.dz(s_axis, th)), initial=0.0)
    cont_res, stop_res = residuals
    return VarIneqReport(
        continuation_max_abs_residual=float(np.max(np.abs(cont_res), initial=0.0)),
        stopping_max_residual=float(np.max(stop_res, initial=-np.inf)),
        n_continuation_probes=cont_res.size,
        n_stopping_probes=stop_res.size,
        obstacle_violations=off.size,
        continuity_gap=float(continuity_gap),
        smooth_fit_gap=float(smooth_gap),
        tol=tol,
        gap_tol=gap_tol,
        worst_probes=worst,
        derivative_mismatches=mismatches,
    )
