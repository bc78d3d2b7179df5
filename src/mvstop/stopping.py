"""Closed-form stopping solutions and Monte Carlo rule evaluation.

Two problems are solved in closed form: selling at a threshold on the
conditional mean (geometric conditional-mean dynamics, discounted net
proceeds at the stop) and quitting a project (additive dynamics, running
discounted conditional-mean profit).  The Monte Carlo side evaluates
arbitrary threshold rules on the conditional mean, either in *fast mode*
(the scalar conditional-mean SDE, exact in law on the time grid) or in
*particle mode* (a full interacting cloud per replication).  Fast mode walks
every step of the exact conditional-mean path when the payoff has a running
profit to integrate; without one it draws each path's stops directly, from
the first-passage law of the path's Brownian motion with drift
(``_StopSearch``), with the same discrete-monitoring law.

Replication ``r`` always draws from ``SeedSequence(master_seed,
spawn_key=(r,))``, so adding replications extends the earlier streams
unchanged and every rule evaluated in one run sees the same paths (exact
common random numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import particle
from .generator import CylinderFunction, StoppingCandidate
from .model import (
    InitialLaw, LevyMeasureSpec, ModelSpec, constant_mark, make_quit_model, make_sell_model,
)
from .particle import check_on_grid


# ---------------------------------------------------------------------------
# rules, settings and payoffs


@dataclass(frozen=True)
class StoppingRule:
    kind: str                       # threshold_up | threshold_down | fixed_time | never
    threshold: float = math.nan
    fixed_time: float = math.nan

    def __post_init__(self) -> None:
        if self.kind not in ("threshold_up", "threshold_down", "fixed_time", "never"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind.startswith("threshold") and not math.isfinite(self.threshold):
            raise ValueError("threshold rules need a finite threshold")
        if self.kind == "fixed_time" and not (self.fixed_time >= 0):
            raise ValueError("fixed_time rules need a nonnegative time")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    replications: int
    truncation_fraction: float


@dataclass(frozen=True)
class SimConfig:
    """Numerical settings for rule evaluation.

    Every run starts at the mean of the spec's initial law, and every rule
    runs until it stops or until ``t_max``.  A capped path pays the bequest
    under ``cap_payoff="stop"``; under ``"value"``, for a threshold rule in
    the family's direction only, it pays its rule's value (``rule_value``),
    which by the strong Markov property leaves no bias at any ``t_max``.

    ``batch_size`` replications are one unit of work for the worker pool,
    and per-batch results merge in batch order.  It does not size fast
    mode's buffers, which hold one tile of at most 128 rows; a
    particle-mode batch holds all its clouds at once.
    """

    dt: float
    replications: int
    seed: int
    t_max: float
    mode: str = "fast"              # fast | particle
    n_particles: int = 1000
    cap_payoff: str = "stop"
    workers: int = 1
    batch_size: int = 16384

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_max < 0 or self.replications < 1:
            raise ValueError("need dt > 0, t_max >= 0, replications >= 1")
        check_on_grid(self.dt, {"t_max": self.t_max})
        if self.mode not in ("fast", "particle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cap_payoff not in ("stop", "value"):
            raise ValueError(f"unknown cap_payoff {self.cap_payoff!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")


def _check_family(spec: ModelSpec, family: str) -> None:
    if spec.family != family:
        raise ValueError(f"the {family} problem needs a {family} spec, got {spec.family!r}")


def sell_payoff(spec: ModelSpec) -> tuple[Callable | None, Callable | None]:
    """``(f, g)``: no running profit, bequest ``e^{-rho t}(m - a)``.

    A payoff is the profit rate ``f`` and the bequest ``g``, each a callable
    ``(t_abs, m) -> value`` or None.
    """
    _check_family(spec, "sell")
    rho, a = spec.rho, spec.cost
    return None, lambda t, m: np.exp(-rho * t) * (m - a)


def quit_payoff(spec: ModelSpec) -> tuple[Callable | None, Callable | None]:
    """``(f, g)``: running profit ``e^{-rho t} m``, no bequest."""
    _check_family(spec, "quit")
    rho = spec.rho
    return (lambda t, m: np.exp(-rho * t) * m), None


# ---------------------------------------------------------------------------
# closed forms: selling at a threshold


def lambda_roots(alpha0: float, sigma1: float, rho: float) -> tuple[float, float]:
    """Roots of ``alpha0 l + sigma1^2 l (l - 1) / 2 = rho``; returns (neg, pos)."""
    if sigma1 <= 0:
        raise ValueError("sigma1 must be > 0")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    half = 0.5 * sigma1**2
    disc = math.sqrt((alpha0 - half) ** 2 + 2 * rho * sigma1**2)
    lam1 = (half - alpha0 + disc) / sigma1**2
    lam2 = (half - alpha0 - disc) / sigma1**2
    return lam2, lam1


def sell_threshold(lambda1: float, a: float) -> float:
    if lambda1 <= 1:
        raise ValueError("threshold needs lambda1 > 1 (alpha0 < rho)")
    if a <= 0:
        raise ValueError("transaction cost a must be > 0")
    return lambda1 * a / (lambda1 - 1)


def sell_value(s, z, spec: ModelSpec, xi: float | None = None):
    """Discounted value of selling optimally (or at threshold ``xi``)."""
    if np.any(np.asarray(z, float) <= 0):
        raise ValueError("conditional mean must be positive for the sell model")
    return sell_candidate(spec, xi).value(s, z)


def sell_candidate(spec: ModelSpec, xi: float | None = None) -> StoppingCandidate:
    """The value of selling at ``xi`` (optimal by default), as a piecewise candidate."""
    _, g = sell_payoff(spec)
    _, lam1 = lambda_roots(spec.a1, spec.b1, spec.rho)
    if xi is None:
        xi = sell_threshold(lam1, spec.cost)
    if not xi > 0:
        raise ValueError(f"sell threshold must be > 0, got {xi!r}")
    rho, a = spec.rho, spec.cost
    psi0 = (xi - a) / xi**lam1
    continuation = CylinderFunction(
        psi=lambda s: psi0 * np.exp(-rho * s),
        psi_prime=lambda s: -rho * psi0 * np.exp(-rho * s),
        F=lambda z: z**lam1,
        F_prime=lambda z: lam1 * z ** (lam1 - 1),
        F_double_prime=lambda z: lam1 * (lam1 - 1) * z ** (lam1 - 2),
    )
    stopping = CylinderFunction(
        psi=lambda s: np.exp(-rho * s),
        psi_prime=lambda s: -rho * np.exp(-rho * s),
        F=lambda z: z - a,
        F_prime=lambda z: np.ones_like(np.asarray(z, float)) * 1.0,
        F_double_prime=lambda z: np.zeros_like(np.asarray(z, float)) + 0.0,
    )
    return StoppingCandidate(
        continuation=continuation,
        stopping=stopping,
        threshold=xi,
        direction="up",
        g=g,
        f=None,
        z_floor=0.0,
    )


# ---------------------------------------------------------------------------
# closed forms: quitting a project


def quit_threshold(spec: ModelSpec) -> tuple[float, float, float]:
    """Decay rate, quit threshold and exponential coefficient.

    ``lam = sqrt(2 rho / sigma1^2)``; the continuity / smooth-pasting system
    at the boundary has the joint solution ``eta* = -1/lam`` with
    ``C1 = -(eta*/rho) e^{lam eta*}``.
    """
    _check_family(spec, "quit")
    lam = math.sqrt(2 * spec.rho / spec.b0**2)
    eta_star = -1.0 / lam
    c1 = -(eta_star / spec.rho) * math.exp(lam * eta_star)
    return lam, eta_star, c1


def quit_smooth_fit_residuals(
    spec: ModelSpec, eta: float, c1: float
) -> tuple[float, float]:
    """Continuity and C1 pasting residuals at the candidate boundary."""
    lam, _, _ = quit_threshold(spec)
    cont = eta / spec.rho + c1 * math.exp(-lam * eta)
    slope = 1.0 / spec.rho - lam * c1 * math.exp(-lam * eta)
    return cont, slope


def quit_value(s, z, spec: ModelSpec, eta: float | None = None):
    """Discounted value of running the project optimally (or until ``eta``)."""
    return quit_candidate(spec, eta).value(s, z)


def quit_candidate(spec: ModelSpec, eta: float | None = None) -> StoppingCandidate:
    """The value of quitting at ``eta`` (optimal by default), as a piecewise candidate."""
    lam, eta_star, _ = quit_threshold(spec)
    if eta is None:
        eta = eta_star
    rho = spec.rho
    c1 = -(eta / rho) * math.exp(lam * eta)
    continuation = CylinderFunction(
        psi=lambda s: np.exp(-rho * s),
        psi_prime=lambda s: -rho * np.exp(-rho * s),
        F=lambda z: z / rho + c1 * np.exp(-lam * z),
        F_prime=lambda z: 1.0 / rho - lam * c1 * np.exp(-lam * z),
        F_double_prime=lambda z: lam**2 * c1 * np.exp(-lam * z),
    )
    stopping = CylinderFunction(
        psi=lambda s: np.exp(-rho * s),
        psi_prime=lambda s: -rho * np.exp(-rho * s),
        F=lambda z: np.zeros_like(np.asarray(z, float)) + 0.0,
        F_prime=lambda z: np.zeros_like(np.asarray(z, float)) + 0.0,
        F_double_prime=lambda z: np.zeros_like(np.asarray(z, float)) + 0.0,
    )
    return StoppingCandidate(
        continuation=continuation,
        stopping=stopping,
        threshold=eta,
        direction="down",
        g=lambda s, z: np.zeros_like(np.asarray(z, float)) + 0.0,
        f=quit_payoff(spec)[0],
    )


# ---------------------------------------------------------------------------
# family registry: everything one shipped model family is, in one entry


@dataclass(frozen=True)
class Family:
    """One shipped model family, from its config keys to its closed forms.

    ``build`` makes the spec, the one problem object, from a model config
    block with ``defaults`` filled in and the initial law, checking every
    precondition; every closed form reads the spec.  The exact conditional
    mean is ``to_m(to_y(start) + path_drift(spec) t + path_vol(spec) B1)``,
    where ``start`` is the mean of the initial law: the oracle evaluates it
    and fast mode integrates it.
    """

    required: tuple[str, ...]   # model config keys besides family and initial
    defaults: dict
    start_key: str              # config key of the default point initial law
    build: Callable[[dict, InitialLaw], ModelSpec]
    payoff: Callable            # spec -> (f, g), the performance functional
    candidate: Callable         # (spec, threshold or None) -> StoppingCandidate
    report: Callable            # spec -> (closed_form.csv rows, worst residual)
    probe: Callable             # optimal threshold -> default VI probe window
    path_drift: Callable        # spec -> drift of y
    path_vol: Callable          # spec -> volatility of y
    to_y: Callable              # state value -> y, for thresholds and the start
    to_m: Callable              # ufunc y -> state value

    def start_y(self, spec: ModelSpec) -> float:
        """``y`` of the initial mean, where every run starts; it must lie in the state space."""
        mean = spec.initial_law.mean
        y0 = self.to_y(mean)
        if not math.isfinite(y0):
            raise ValueError(f"the initial mean ({self.start_key}) must lie in the {spec.family} "
                             f"state space, got {mean!r}: it is every run's start value")
        return y0


def _sell_spec(c: dict, law: InitialLaw) -> ModelSpec:
    intensity, mark = c["jump_intensity"], c["jump_mark"]
    if intensity > 0 and mark is None:
        raise ValueError("sell model with jump_intensity > 0 needs jump_mark")
    levy = constant_mark(intensity, mark) if intensity > 0 else LevyMeasureSpec(intensity)
    return make_sell_model(c["alpha0"], c["sigma1"], c["sigma2"], c["rho"], c["a"], levy, law)


def _sell_report(spec: ModelSpec) -> tuple[list, float]:
    lam2, lam1 = lambda_roots(spec.a1, spec.b1, spec.rho)
    res = [spec.a1 * l + 0.5 * spec.b1**2 * l * (l - 1) - spec.rho for l in (lam1, lam2)]
    rows = [("lambda1", lam1), ("lambda2", lam2), ("xi_star", sell_threshold(lam1, spec.cost)),
            ("root_residual_lambda1", res[0]), ("root_residual_lambda2", res[1])]
    return rows, max(abs(r) for r in res) / spec.rho


def _quit_report(spec: ModelSpec) -> tuple[list, float]:
    lam, eta, c1 = quit_threshold(spec)
    r_cont, r_fit = quit_smooth_fit_residuals(spec, eta, c1)
    rows = [("lambda", lam), ("eta_star", eta), ("C1", c1),
            ("continuity_residual", r_cont), ("smooth_fit_residual", r_fit)]
    return rows, max(abs(r_cont), abs(r_fit))


FAMILIES = {
    "sell": Family(
        required=("alpha0", "sigma1", "sigma2", "rho", "a"),
        defaults={"m0": 1.0, "jump_intensity": 0.0, "jump_mark": None},
        start_key="m0",
        build=_sell_spec,
        payoff=sell_payoff,
        candidate=sell_candidate,
        report=_sell_report,
        probe=lambda xi: {"z_min": 0.01, "z_max": 20.0, "log_z": True},
        path_drift=lambda spec: spec.a1 - 0.5 * spec.b1 ** 2,
        path_vol=lambda spec: spec.b1,
        to_y=lambda m: math.log(m) if m > 0 else -math.inf,
        to_m=np.exp,
    ),
    "quit": Family(
        required=("sigma1", "sigma2", "rho"),
        defaults={"gamma0": 0.0, "intensity": 0.0, "x0": 0.0},
        start_key="x0",
        build=lambda c, law: make_quit_model(c["sigma1"], c["sigma2"], c["gamma0"],
                                             c["intensity"], c["rho"], law),
        payoff=quit_payoff,
        candidate=quit_candidate,
        report=_quit_report,
        probe=lambda eta: {"z_min": eta - 2.0, "z_max": eta + 6.0, "log_z": False},
        path_drift=lambda spec: spec.a0,
        path_vol=lambda spec: spec.b0,
        to_y=float,
        to_m=np.positive,  # identity that takes out=
    ),
}


# ---------------------------------------------------------------------------
# conditional-mean reduction oracle


def conditional_mean_oracle(spec: ModelSpec, common: particle.CommonNoisePath) -> np.ndarray:
    """Exact conditional-mean path along a realized common-noise path, from
    the mean of the initial law.

    Conditioning the state equation on the common-noise filtration kills the
    idiosyncratic Brownian and compensated-jump terms, leaving a scalar SDE
    in the conditional mean driven by B1 alone.
    """
    fam = FAMILIES[spec.family]
    b1 = common.brownian()
    t = common.times()
    return fam.to_m(fam.start_y(spec) + (fam.path_drift(spec) * t + fam.path_vol(spec) * b1))


# ---------------------------------------------------------------------------
# Monte Carlo engine: a path source per mode feeding one rule accumulator

_BLOCK = 512  # fast-mode path steps drawn per row at a time
_ROWS = 128    # fast-mode rows per tile: one tile's block of path, 512 KiB, stays in L2


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


class _FastSource:
    """Exact conditional-mean path in the family's ``y``; rules compare in ``y``.

    Fast mode walks this path only when it pays a running profit.  Each
    block is drawn and integrated in place, one tile of at most ``tile``
    rows at a time, in one buffer owned by the source, so the path returned
    by ``advance`` is valid only until the next call.  The buffer holds one
    tile, whatever the batch size.
    """

    block = _BLOCK

    def __init__(self, spec: ModelSpec, cfg: SimConfig, gens: list):
        fam = FAMILIES[spec.family]
        y0 = fam.start_y(spec)
        self.mu_dt = fam.path_drift(spec) * cfg.dt
        self.to_m, self.to_y = fam.to_m, fam.to_y
        self.vol = fam.path_vol(spec) * math.sqrt(cfg.dt)
        self.gens, self.dt = gens, cfg.dt
        self.m0 = np.full(len(gens), spec.initial_law.mean, dtype=float)
        self.y = np.full(len(gens), y0, dtype=float)
        self.tile = min(cfg.batch_size, _ROWS)
        self.buf = np.empty(self.tile * self.block)

    def advance(self, act: np.ndarray, steps_done: int, K: int):
        """Rows ``act`` for ``K`` steps: left values, a view of the path block, right times."""
        z = self.buf[: act.size * K].reshape(act.size, K)
        for j, r in enumerate(act):
            self.gens[r].standard_normal(out=z[j])
        y_left = self.y[act]
        # y_left + cumsum(mu_dt + vol * z), evaluated in place
        z *= self.vol
        z += self.mu_dt
        np.cumsum(z, axis=1, out=z)
        z += y_left[:, None]
        self.y[act] = z[:, -1]
        return y_left, z, steps_done * self.dt + self.dt * np.arange(1, K + 1)


class _ParticleSource:
    """One interacting cloud per row of one state matrix; ``y`` is ``m``.

    ``x[:k]`` holds the clouds of the ``k`` rows still running, in batch
    order, and ``particle.step`` advances them together.  When rows finish,
    the survivors are moved up so the running clouds stay one contiguous
    block; the matrix is allocated once.  The compaction must see every
    running row, so one tile holds the whole batch.
    """

    block = 1

    def __init__(self, spec: ModelSpec, cfg: SimConfig, gens: list):
        self.tile = len(gens)
        self.spec, self.gens, self.dt = spec, gens, cfg.dt
        self.x = np.empty((len(gens), cfg.n_particles))
        for j, rng in enumerate(gens):
            self.x[j] = spec.initial_law.sample(rng, cfg.n_particles)
        self.m0 = self.x.mean(axis=1)
        self.m = self.m0.copy()             # row means, aligned with the rows of x
        self.rows = np.arange(len(gens))    # batch index of each row of x
        self.to_m, self.to_y = np.positive, float  # identities on paths and thresholds

    def advance(self, act: np.ndarray, steps_done: int, K: int):
        if act.size < self.rows.size:  # rows finished: compact the survivors, in order
            keep = np.searchsorted(self.rows, act)
            for dst, src in enumerate(keep):
                if dst != src:
                    self.x[dst] = self.x[src]
            self.m[:act.size] = self.m[keep]
            self.rows = act
        x, m = self.x[:act.size], self.m[:act.size]
        gens = [self.gens[r] for r in act]
        y_left = m.copy()
        dB1 = np.array([rng.standard_normal() for rng in gens]) * math.sqrt(self.dt)
        particle.step(x, self.spec, self.dt, m, dB1, gens)
        return y_left, m[:, None], np.array([(steps_done + 1) * self.dt])


def check_fixed_time(rule: StoppingRule, dt: float, t_max: float, prefix: str = "") -> None:
    """Reject a ``fixed_time`` off the grid, or past ``t_max``, where every path is capped first."""
    if rule.kind == "fixed_time":
        check_on_grid(dt, {"rule.fixed_time": rule.fixed_time}, prefix)
        if round(rule.fixed_time / dt) > round(t_max / dt):
            raise ValueError(f"{prefix}rule.fixed_time {rule.fixed_time} is past {prefix}t_max "
                             f"{t_max}: every path is capped before the rule can stop it")


def rule_value(spec: ModelSpec, rule: StoppingRule, key: str) -> StoppingCandidate:
    """The closed form of ``rule``, which must be a threshold rule in the family's direction."""
    fam = FAMILIES[spec.family]
    kind = f"threshold_{fam.candidate(spec).direction}"
    if rule.kind != kind:
        raise ValueError(f"{key} needs a {kind} rule, the kind of the {spec.family} closed "
                         f"form; got {rule.kind}")
    return fam.candidate(spec, rule.threshold)


class _RuleState:
    """Per-rule bookkeeping over one batch of replications."""

    def __init__(self, spec: ModelSpec, rule: StoppingRule, nb: int, cfg: SimConfig):
        check_fixed_time(rule, cfg.dt, cfg.t_max)
        self.rule = rule
        self.cap_value = (rule_value(spec, rule, 'cap_payoff "value"').value
                          if cfg.cap_payoff == "value" else None)
        self.alive = np.ones(nb, dtype=bool)
        self.payoff = np.zeros(nb)
        self.fint = np.zeros(nb)
        self.trunc = np.zeros(nb, dtype=bool)

    def settle(self, rows, hit, t, m, g) -> None:
        """End ``rows`` at times ``t``: a hit pays ``g``, a cap ``g`` or its rule's value."""
        self.payoff[rows] = self.fint[rows]
        for pay, ends in ((g, hit | (self.cap_value is None)), (self.cap_value, ~hit)):
            if pay is not None and ends.any():
                self.payoff[rows[ends]] += pay(t[ends], m[ends])
        self.trunc[rows[~hit]] = True
        self.alive[rows] = False


def _first_stop(rule: StoppingRule, y: np.ndarray, rows: np.ndarray, to_y,
                first_step: int, dt: float, extremes: dict):
    """``(hit, col)`` of ``rule`` on ``rows`` of the path block ``y``.

    Column 0 of ``y`` lies at grid step ``first_step``.  ``col`` is the first
    stopping column of a hit row and the last column otherwise.  A threshold
    rule searches only rows whose block extreme crosses; the row extremes are
    cached in ``extremes`` per direction and width, so rules scanning the same
    block share them.  ``fmax``/``fmin`` skip NaN, which never crosses.
    """
    width = y.shape[1]
    hit = np.zeros(rows.size, dtype=bool)
    col = np.full(rows.size, width - 1)
    if rule.kind in ("threshold_up", "threshold_down"):
        up = rule.kind == "threshold_up"
        key = (up, width)
        if key not in extremes:
            extremes[key] = (np.fmax if up else np.fmin).reduce(y, axis=1)
        thr, ext = to_y(rule.threshold), extremes[key][rows]
        hit = ext >= thr if up else ext <= thr
        found = np.flatnonzero(hit)
        cross = y[rows[found]]
        col[found] = np.argmax(cross >= thr if up else cross <= thr, axis=1)
    elif rule.kind == "fixed_time":
        k = int(round(rule.fixed_time / dt)) - first_step
        if 0 <= k < width:
            hit[:], col[:] = True, k
    return hit, col


# |mu| a / sigma^2 below this is a zero drift: the zero-drift passage law is then
# within about this of the inverse Gaussian in total variation, and ``wald``,
# whose relative rounding error is about 1e-16 times its mean-to-shape ratio
# sigma^2 / (|mu| a), is never handed a ratio above 1 / _DRIFT_TOL
_DRIFT_TOL = 1e-7


def _passage_time(rng: np.random.Generator, a: float, mu: float, var: float) -> float:
    """First time a Brownian motion with variance ``var`` per unit time and drift
    ``mu`` toward a barrier at distance ``a >= 0`` reaches it; ``inf`` if never."""
    if abs(mu) * a < _DRIFT_TOL * var:
        z = rng.standard_normal()
        return (a / z) * (a / z) / var if z else math.inf
    # drifting away, the path reaches the barrier with probability exp(-2 |mu| a / var),
    # and then at a time with the law it has when drifting toward it
    if mu < 0 and rng.random() >= math.exp(2 * mu * a / var):
        return math.inf
    return rng.wald(a / abs(mu), a * a / var)


def _killed_end(rng: np.random.Generator, z: float, b: float, t: float, mu: float,
                sigma: float) -> float:
    """The value at time ``t`` of a path from ``z < b`` with drift ``mu`` and
    volatility ``sigma`` that has not reached ``b`` by then, by rejection: a
    free end short of ``b`` is kept unless the bridge to it crosses ``b``."""
    mean, sd, var_t = z + mu * t, sigma * math.sqrt(t), sigma * sigma * t
    while True:
        end = mean + sd * rng.standard_normal()
        if end < b and rng.random() >= math.exp(-2 * (b - z) * (b - end) / var_t):
            return end


class _StopSearch:
    """Fast mode's stops drawn without the path, for a payoff with no running profit.

    In ``y`` the conditional mean is a Brownian motion with drift, so a
    threshold rule's first stopping grid step can be drawn exactly.  From
    grid step ``k`` at ``y``, draw the first time ``tau`` the continuous path
    reaches the barrier (``_passage_time``); the first grid step at or after
    it is ``j = k + ceil(tau / dt)``, and ``y_j`` is drawn from the path
    restarted at the barrier at ``tau``.  No grid point before ``tau`` lies
    past a barrier the path has not reached, so this is the stop a walk over
    every step finds.  If ``y_j`` is short of the barrier, the search goes on
    from ``(j, y_j)``.  A ``j`` past step ``N`` caps the row, with ``y_N``
    drawn from the law of a path that has not reached the barrier by then
    (``_killed_end``).  The threshold rules of a run share one path and are
    searched in order of distance from the start; ``fixed_time`` and
    ``never`` rules read one forward normal each, in order of their steps.
    A run that mixes threshold directions, or thresholds with other rules,
    is rejected.

    Replication ``r`` draws on its own stream, as in the walk, so a result
    does not depend on how replications are batched or tiled.  A stop before
    step ``N`` depends on nothing drawn after it, so a run with a smaller
    ``t_max`` makes every stop before its own cap at the same step, with the
    same value.
    """

    def __init__(self, spec: ModelSpec, cfg: SimConfig, rules, lo: int, hi: int):
        fam = FAMILIES[spec.family]
        kinds = {r.kind for r in rules}
        if not (kinds <= {"threshold_up"} or kinds <= {"threshold_down"}
                or kinds <= {"fixed_time", "never"}):
            raise ValueError("a fast-mode run without running profit takes threshold rules of "
                             f"one direction or fixed_time and never rules, not {sorted(kinds)}")
        # thresholds are searched in z = sign * y, where every barrier lies above the start
        self.sign = -1.0 if "threshold_down" in kinds else 1.0
        self.z0 = self.sign * fam.start_y(spec)
        self.mu = self.sign * fam.path_drift(spec)
        self.sigma = fam.path_vol(spec)
        self.to_y, self.to_m = fam.to_y, fam.to_m
        self.m0 = np.full(hi - lo, spec.initial_law.mean, dtype=float)
        self.seed, self.lo, self.dt = cfg.seed, lo, cfg.dt
        self.n_steps = int(round(cfg.t_max / cfg.dt))

    def run(self, states, g) -> None:
        """Settle every row that time 0 left running, one tile of rows at a time."""
        # every row starts at the initial mean, so time 0 settles a rule for all rows or none
        live = [i for i, st in enumerate(states) if st.alive.any()]
        if not live:
            return
        rules = [states[i].rule for i in live]
        if rules[0].kind.startswith("threshold"):
            key = [self.sign * self.to_y(r.threshold) for r in rules]
            fill = self._thresholds
        else:
            key = [round(r.fixed_time / self.dt) if r.kind == "fixed_time" else self.n_steps
                   for r in rules]
            fill = self._forward
        order = sorted(range(len(live)), key=key.__getitem__)
        key, nb = sorted(key), self.m0.size
        for first in range(0, nb, _ROWS):
            rows = np.arange(first, min(first + _ROWS, nb))
            step = np.empty((len(live), rows.size), dtype=np.int64)
            z = np.empty((len(live), rows.size))
            hit = np.zeros((len(live), rows.size), dtype=bool)
            for j, r in enumerate(rows):
                fill(_rep_rng(self.seed, self.lo + r), key, step[:, j], z[:, j], hit[:, j])
            for c, i in enumerate(order):  # a fixed_time rule stops at its step, never is capped
                st = states[live[i]]
                st.settle(rows, hit[c] | (st.rule.kind == "fixed_time"), step[c] * self.dt,
                          self.to_m(self.sign * z[c]), g)

    def _thresholds(self, rng, bars, step, z_out, hit) -> None:
        """One row's stops for the ascending barriers ``bars``."""
        mu, sigma, dt, n = self.mu, self.sigma, self.dt, self.n_steps
        var = sigma * sigma
        k, z, i = 0, self.z0, 0
        while i < len(bars):
            b = bars[i]
            tau = math.inf if k == n or b == math.inf else _passage_time(rng, b - z, mu, var)
            q = tau / dt
            if q > n - k:  # no stop by step N: cap this rule and every farther one
                if k < n:
                    z = _killed_end(rng, z, b, (n - k) * dt, mu, sigma)
                step[i:], z_out[i:] = n, z
                return
            steps = max(1, math.ceil(q))
            k += steps
            d = max(steps * dt - tau, 0.0)  # from the passage to the grid point
            z = b + mu * d + sigma * math.sqrt(d) * rng.standard_normal()
            while i < len(bars) and z >= bars[i]:
                step[i], z_out[i], hit[i] = k, z, True
                i += 1

    def _forward(self, rng, steps, step, z_out, hit) -> None:
        """One row's values at the ascending stopping steps ``steps``."""
        mu, sigma, dt = self.mu, self.sigma, self.dt
        k, z = 0, self.z0
        for i, s in enumerate(steps):
            h = (s - k) * dt
            z += mu * h + sigma * math.sqrt(h) * rng.standard_normal()
            k = step[i] = s
            z_out[i] = z


def _batch(spec: ModelSpec, rules, cfg: SimConfig, lo: int, hi: int):
    """Per rule, ``(payoff sum, mean, M2, count, truncated)`` over replications
    ``lo:hi``, all on the same paths.  Each path pays the spec's family payoff
    ``(f, g)``, and a capped one under ``cap_payoff="value"`` its rule's value.

    A fast-mode run with no running profit ``f`` has no path integral to
    pay, so ``_StopSearch`` draws each replication's stops without its path.
    Every other run walks its paths step by step (``_walk``), fed by the
    mode's path source.  Both settle their rows through ``_RuleState``,
    after one shared check at time 0.
    """
    nb = hi - lo
    f, g = FAMILIES[spec.family].payoff(spec)
    n_steps = int(round(cfg.t_max / cfg.dt))
    states = [_RuleState(spec, r, nb, cfg) for r in rules]
    search = cfg.mode == "fast" and f is None
    if search:
        src = _StopSearch(spec, cfg, rules, lo, hi)
    else:
        gens = [_rep_rng(cfg.seed, r) for r in range(lo, hi)]
        src = (_FastSource if cfg.mode == "fast" else _ParticleSource)(spec, cfg, gens)
    everyone, at_start = np.arange(nb), {}
    for st in states:  # time 0: a start in the stopping region or a zero t_max ends the row
        hit, _ = _first_stop(st.rule, src.m0[:, None], everyone, float, 0, cfg.dt, at_start)
        rows = np.flatnonzero(hit | (n_steps == 0))
        st.settle(rows, hit[rows], np.zeros(rows.size), src.m0[rows], g)
    if search:
        src.run(states, g)
    else:
        _walk(src, states, f, g, cfg, n_steps)
    return [(float(st.payoff.sum()), *_mean_m2(st.payoff), nb, int(st.trunc.sum()))
            for st in states]


def _walk(src, states, f, g, cfg: SimConfig, n_steps: int) -> None:
    """Settle the running rows by walking every step of their paths, paying ``f`` on the way."""
    dt = cfg.dt
    fbuf = np.empty(src.tile * src.block) if f is not None else None
    steps_done = 0
    while steps_done < n_steps:
        running = np.flatnonzero(np.logical_or.reduce([st.alive for st in states]))
        if running.size == 0:
            break
        K = min(src.block, n_steps - steps_done)
        for i in range(0, running.size, src.tile):  # rows are independent: any tiling is exact
            act = running[i:i + src.tile]
            y_left, ypath, t_right = src.advance(act, steps_done, K)
            if f is not None:  # running profit: m at left points, then f * dt, summed in place
                fcum = fbuf[: act.size * K].reshape(act.size, K)
                fcum[:, 0] = y_left
                fcum[:, 1:] = ypath[:, :-1]
                src.to_m(fcum, out=fcum)
                np.multiply(f(steps_done * dt + dt * np.arange(K), fcum), dt, out=fcum)
                np.cumsum(fcum, axis=1, out=fcum)
            extremes = {}
            for st in states:
                rows_local = np.flatnonzero(st.alive[act])
                if rows_local.size == 0:
                    continue
                hit, col = _first_stop(st.rule, ypath, rows_local, src.to_y,
                                       steps_done + 1, dt, extremes)
                if f is not None:
                    st.fint[act[rows_local]] += fcum[rows_local, col]
                end = hit | (steps_done + K >= n_steps)
                t_end = np.where(hit, t_right[col], n_steps * dt)
                ended, col = rows_local[end], col[end]
                st.settle(act[ended], hit[end], t_end[end], src.to_m(ypath[ended, col]), g)
        steps_done += K


def _mean_m2(x: np.ndarray) -> tuple[float, float]:
    """Two-pass mean and sum of squared deviations, shifted by ``x[0]``.

    The shift makes both exact for a constant sample, so a payoff paid
    identically on every path reports a standard error of exactly 0.
    """
    mean = float(x[0] + (x - x[0]).mean())
    return mean, float(((x - mean) ** 2).sum())


def _batches(reps: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, reps)) for lo in range(0, reps, batch_size)]


def _run_rules(spec: ModelSpec, rules: Sequence[StoppingRule],
               cfg: SimConfig) -> list[McEstimate]:
    parts = _batches(cfg.replications, cfg.batch_size)
    if cfg.workers > 1 and len(parts) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_batch, spec, tuple(rules), cfg, lo, hi) for lo, hi in parts]
            results = [fut.result() for fut in futures]
    else:
        results = [_batch(spec, tuple(rules), cfg, lo, hi) for lo, hi in parts]
    out = []
    for i in range(len(rules)):
        total = count = trunc = 0
        mean = m2 = 0.0
        for b_total, b_mean, b_m2, b_count, b_trunc in (r[i] for r in results):
            # Chan et al. pairwise merge of (count, mean, M2), in batch order
            delta, share = b_mean - mean, b_count / (count + b_count)
            m2 += b_m2 + delta * delta * count * share
            mean += delta * share  # exact for the first batch: share is 1
            total, count, trunc = total + b_total, count + b_count, trunc + b_trunc
        var = m2 / max(1, count - 1)
        out.append(McEstimate(total / count, math.sqrt(var / count), count, trunc / count))
    return out


def evaluate_rule_mc(spec: ModelSpec, rule: StoppingRule, cfg: SimConfig) -> McEstimate:
    """Monte Carlo estimate of the spec's performance functional under one stopping rule."""
    return _run_rules(spec, [rule], cfg)[0]


@dataclass(frozen=True)
class SweepResult:
    thresholds: tuple[float, ...]
    estimates: tuple[McEstimate, ...]
    argmax_threshold: float

    def rows(self):
        return list(zip(self.thresholds, self.estimates))


def threshold_sweep(
    spec: ModelSpec,
    thresholds: Sequence[float],
    cfg: SimConfig,
    kind: str = "threshold_up",
) -> SweepResult:
    """Evaluate one threshold rule per grid value on common random numbers."""
    rules = [StoppingRule(kind, threshold=float(t)) for t in thresholds]
    estimates = _run_rules(spec, rules, cfg)
    best = int(np.argmax([e.mean for e in estimates]))
    return SweepResult(
        tuple(float(t) for t in thresholds), tuple(estimates), float(thresholds[best])
    )


@dataclass(frozen=True)
class DynkinResult:
    residual: float          # E[phi(Y at exit-or-horizon)] + E[int f] - phi(start)
    std_error: float
    per_unit_time: float
    estimate: McEstimate


def dynkin_residual(spec: ModelSpec, cfg: SimConfig) -> DynkinResult:
    """Martingale drift diagnostic for the spec's closed-form value along the flow.

    The candidate is the family's optimal value for ``spec``.  Paths start
    inside its continuation region and run its threshold rule for the short
    horizon ``cfg.t_max``: a stop pays the payoff, which the candidate equals
    there, and a cap the candidate (``cap_payoff="value"``).  If it solves
    the continuation-region equation the residual is zero in expectation.
    A start in the stopping region, or a ``t_max`` under one step, would
    stop every path at time 0 and check nothing, so both are rejected.
    """
    candidate = FAMILIES[spec.family].candidate(spec)
    start = spec.initial_law.mean
    if not candidate.in_continuation(start):
        raise ValueError(f"the Dynkin check needs a start inside the continuation region; "
                         f"{start!r} is on the stopping side of {candidate.threshold!r}")
    if round(cfg.t_max / cfg.dt) < 1:
        raise ValueError("the Dynkin check needs a t_max of at least one step dt; with no "
                         "step, every path ends where it starts")
    rule = StoppingRule(f"threshold_{candidate.direction}", threshold=candidate.threshold)
    est = _run_rules(spec, [rule], replace(cfg, cap_payoff="value"))[0]
    residual = est.mean - candidate.value(0.0, start)
    return DynkinResult(residual, est.std_error, residual / cfg.t_max, est)
