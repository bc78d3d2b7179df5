"""Closed-form stopping solutions and Monte Carlo rule evaluation.

Two problems are solved in closed form: selling at a threshold on the
conditional mean (geometric conditional-mean dynamics, discounted net
proceeds at the stop) and quitting a project (additive dynamics, running
discounted conditional-mean profit).  The Monte Carlo side evaluates
arbitrary threshold rules on the conditional mean, either in *fast mode*
(the scalar conditional-mean SDE integrated exactly along the common-noise
path) or in *particle mode* (a full interacting cloud per replication).

Replication ``r`` always draws from ``SeedSequence(master_seed,
spawn_key=(r,))``, so adding replications extends the earlier streams
unchanged and every rule evaluated in one run sees the same paths (exact
common random numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import particle
from .generator import CylinderFunction, StoppingCandidate
from .model import (
    InitialLaw, LevyMeasureSpec, ModelSpec, constant_mark, make_quit_model, make_sell_model,
    no_jumps,
)
from .particle import check_on_grid


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass(frozen=True)
class SellParams:
    alpha0: float
    sigma1: float
    sigma2: float
    rho: float
    a: float
    levy: LevyMeasureSpec = field(default_factory=no_jumps)

    def __post_init__(self) -> None:
        if self.sigma1 <= 0:
            raise ValueError("sell model requires sigma1 > 0")
        if self.rho <= 0:
            raise ValueError("discount rate rho must be > 0")
        if self.a <= 0:
            raise ValueError("transaction cost a must be > 0")
        if self.alpha0 >= self.rho:
            raise ValueError("sell model requires alpha0 < rho")

    def spec(self, initial_law: InitialLaw | None = None) -> ModelSpec:
        return make_sell_model(self.alpha0, self.sigma1, self.sigma2, self.levy, initial_law)


@dataclass(frozen=True)
class QuitParams:
    sigma1: float
    sigma2: float
    gamma0: float = 0.0
    intensity: float = 0.0
    rho: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma1 == 0:
            raise ValueError("quit model requires sigma1 != 0")
        if self.rho <= 0:
            raise ValueError("discount rate rho must be > 0")

    def spec(self, initial_law: InitialLaw | None = None) -> ModelSpec:
        return make_quit_model(self.sigma1, self.sigma2, self.gamma0, self.intensity,
                               initial_law)


@dataclass(frozen=True)
class StoppingRule:
    kind: str                       # threshold_up | threshold_down | fixed_time | never
    threshold: float = math.nan
    fixed_time: float = math.nan
    horizon_cap: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("threshold_up", "threshold_down", "fixed_time", "never"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind.startswith("threshold") and not math.isfinite(self.threshold):
            raise ValueError("threshold rules need a finite threshold")
        if self.kind == "fixed_time" and not (self.fixed_time >= 0):
            raise ValueError("fixed_time rules need a nonnegative time")
        if self.horizon_cap is not None and self.horizon_cap <= 0:
            raise ValueError("horizon_cap must be > 0")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    replications: int
    truncation_fraction: float


@dataclass(frozen=True)
class SimConfig:
    """Numerical settings for rule evaluation.

    Every run starts at the mean of the spec's initial law.  ``cap_payoff``
    selects how horizon-capped paths contribute: ``"stop"`` pays the bequest
    at the cap, ``"zero"`` drops it (diagnostic bound on the truncation
    bias).
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
        if self.cap_payoff not in ("stop", "zero"):
            raise ValueError(f"unknown cap_payoff {self.cap_payoff!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")


@dataclass(frozen=True)
class Payoff:
    """Profit rate ``f`` and bequest ``g``, callables ``(t_abs, m) -> value`` or None.

    Shipped kinds are partials of module functions, so they pickle for worker
    pools; ``kind="custom"`` may hold any callable and runs in one process.
    """

    kind: str
    f: Callable | None = None
    g: Callable | None = None


def _discounted_net(rho: float, a: float, t, m):
    return np.exp(-rho * t) * (m - a)


def _discounted_mean(rho: float, t, m):
    return np.exp(-rho * t) * m


def sell_payoff(params: SellParams) -> Payoff:
    """No running profit, bequest ``e^{-rho t}(m - a)``."""
    return Payoff("sell", g=partial(_discounted_net, params.rho, params.a))


def quit_payoff(params: QuitParams) -> Payoff:
    """Running profit ``e^{-rho t} m``, no bequest."""
    return Payoff("quit", f=partial(_discounted_mean, params.rho))


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


def sell_value(s, z, params: SellParams, xi: float | None = None):
    """Discounted value of selling optimally (or at threshold ``xi``)."""
    if np.any(np.asarray(z, float) <= 0):
        raise ValueError("conditional mean must be positive for the sell model")
    return sell_candidate(params, xi).value(s, z)


def sell_candidate(params: SellParams, xi: float | None = None) -> StoppingCandidate:
    """The value of selling at ``xi`` (optimal by default), as a piecewise candidate."""
    _, lam1 = lambda_roots(params.alpha0, params.sigma1, params.rho)
    if xi is None:
        xi = sell_threshold(lam1, params.a)
    rho, a = params.rho, params.a
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
        g=lambda s, z: np.exp(-rho * s) * (z - a),
        f=None,
        z_floor=0.0,
    )


# ---------------------------------------------------------------------------
# closed forms: quitting a project


def quit_threshold(params: QuitParams) -> tuple[float, float, float]:
    """Decay rate, quit threshold and exponential coefficient.

    ``lam = sqrt(2 rho / sigma1^2)``; the continuity / smooth-pasting system
    at the boundary has the joint solution ``eta* = -1/lam`` with
    ``C1 = -(eta*/rho) e^{lam eta*}``.
    """
    lam = math.sqrt(2 * params.rho / params.sigma1**2)
    eta_star = -1.0 / lam
    c1 = -(eta_star / params.rho) * math.exp(lam * eta_star)
    return lam, eta_star, c1


def quit_smooth_fit_residuals(
    params: QuitParams, eta: float, c1: float
) -> tuple[float, float]:
    """Continuity and C1 pasting residuals at the candidate boundary."""
    lam, _, _ = quit_threshold(params)
    cont = eta / params.rho + c1 * math.exp(-lam * eta)
    slope = 1.0 / params.rho - lam * c1 * math.exp(-lam * eta)
    return cont, slope


def quit_value(s, z, params: QuitParams, eta: float | None = None):
    """Discounted value of running the project optimally (or until ``eta``)."""
    return quit_candidate(params, eta).value(s, z)


def quit_candidate(params: QuitParams, eta: float | None = None) -> StoppingCandidate:
    """The value of quitting at ``eta`` (optimal by default), as a piecewise candidate."""
    lam, eta_star, _ = quit_threshold(params)
    if eta is None:
        eta = eta_star
    rho = params.rho
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
        f=lambda s, z: np.exp(-rho * s) * z,
    )


# ---------------------------------------------------------------------------
# family registry: everything one shipped model family is, in one entry


@dataclass(frozen=True)
class Family:
    """One shipped model family, from its config keys to its closed forms.

    ``params`` builds the one parameter bundle from a model config block with
    ``defaults`` filled in, checking every precondition; the spec and every
    closed form derive from it.  The exact conditional mean is
    ``mean_path(start, path_drift(spec) t + path_vol(spec) B1)``, where
    ``start`` is the mean of the initial law; fast mode integrates that
    drifted Brownian motion from ``to_y(start)`` instead.
    """

    required: tuple[str, ...]   # model config keys besides family and initial
    defaults: dict
    start_key: str              # config key of the default point initial law
    params: Callable[[dict], object]
    payoff: Callable
    candidate: Callable         # (params, threshold or None) -> StoppingCandidate
    report: Callable            # params -> (closed_form.csv rows, worst residual)
    probe: Callable             # optimal threshold -> default VI probe window
    floor: float | None         # particle clouds are clamped here
    path_drift: Callable        # spec -> drift of y
    path_vol: Callable          # spec -> volatility of y
    mean_path: Callable
    to_y: Callable              # state value -> y, for thresholds and the start
    to_m: Callable              # ufunc y -> state value


def _sell_params(c: dict) -> SellParams:
    intensity = c["jump_intensity"]
    if intensity > 0 and c["jump_mark"] is None:
        raise ValueError("sell model with jump_intensity > 0 needs jump_mark")
    levy = constant_mark(intensity, c["jump_mark"]) if intensity > 0 else no_jumps()
    return SellParams(c["alpha0"], c["sigma1"], c["sigma2"], c["rho"], c["a"], levy)


def _sell_report(p: SellParams) -> tuple[list, float]:
    lam2, lam1 = lambda_roots(p.alpha0, p.sigma1, p.rho)
    res = [p.alpha0 * l + 0.5 * p.sigma1**2 * l * (l - 1) - p.rho for l in (lam1, lam2)]
    rows = [("lambda1", lam1), ("lambda2", lam2), ("xi_star", sell_threshold(lam1, p.a)),
            ("root_residual_lambda1", res[0]), ("root_residual_lambda2", res[1])]
    return rows, max(abs(r) for r in res) / p.rho


def _quit_report(p: QuitParams) -> tuple[list, float]:
    lam, eta, c1 = quit_threshold(p)
    r_cont, r_fit = quit_smooth_fit_residuals(p, eta, c1)
    rows = [("lambda", lam), ("eta_star", eta), ("C1", c1),
            ("continuity_residual", r_cont), ("smooth_fit_residual", r_fit)]
    return rows, max(abs(r_cont), abs(r_fit))


FAMILIES = {
    "sell": Family(
        required=("alpha0", "sigma1", "sigma2", "rho", "a"),
        defaults={"m0": 1.0, "jump_intensity": 0.0, "jump_mark": None},
        start_key="m0",
        params=_sell_params,
        payoff=sell_payoff,
        candidate=sell_candidate,
        report=_sell_report,
        probe=lambda xi: {"z_min": 0.01, "z_max": 20.0, "log_z": True},
        floor=1e-12,  # keeps the clouds positive
        path_drift=lambda spec: spec.a1 - 0.5 * spec.b1 ** 2,
        path_vol=lambda spec: spec.b1,
        mean_path=lambda start, y: start * np.exp(y),  # y is log(m / start)
        to_y=lambda m: math.log(m) if m > 0 else -math.inf,
        to_m=np.exp,
    ),
    "quit": Family(
        required=("sigma1", "sigma2", "rho"),
        defaults={"gamma0": 0.0, "intensity": 0.0, "x0": 0.0},
        start_key="x0",
        params=lambda c: QuitParams(c["sigma1"], c["sigma2"], c["gamma0"], c["intensity"],
                                    c["rho"]),
        payoff=quit_payoff,
        candidate=quit_candidate,
        report=_quit_report,
        probe=lambda eta: {"z_min": eta - 2.0, "z_max": eta + 6.0, "log_z": False},
        floor=None,
        path_drift=lambda spec: spec.a0,
        path_vol=lambda spec: spec.b0,
        mean_path=lambda start, y: start + y,  # y is m - start
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
    return fam.mean_path(spec.initial_law.mean,
                         fam.path_drift(spec) * t + fam.path_vol(spec) * b1)


# ---------------------------------------------------------------------------
# Monte Carlo engine: a path source per mode feeding one rule accumulator

_BLOCK = 512  # fast-mode path steps drawn per row at a time
# Rows per short-lived temporary in the rule scan and the running profit.  A
# freed array of a few MB makes the C allocator keep later ones of that size
# on its heap, where freed memory stays resident; with every temporary this
# small and every block buffer sized for a full batch, peak memory does not
# depend on how many rows cross or on which experiments ran before.
_ROWS = 128


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


class _FastSource:
    """Exact conditional-mean path in the family's ``y``; rules compare in ``y``.

    Each block is drawn and integrated in place in one buffer owned by the
    source, so the path returned by ``advance`` is valid only until the next
    call.  The buffer has room for a full batch whatever this batch's size; a
    short batch touches only the pages it uses.
    """

    block = _BLOCK

    def __init__(self, spec: ModelSpec, cfg: SimConfig, gens: list):
        fam = FAMILIES[spec.family]
        start = spec.initial_law.mean
        y0 = fam.to_y(start)
        if not math.isfinite(y0):
            raise ValueError(f"{spec.family} fast mode needs a start value in its state space")
        self.mu_dt = fam.path_drift(spec) * cfg.dt
        self.to_m, self.to_y = fam.to_m, fam.to_y
        self.vol = fam.path_vol(spec) * math.sqrt(cfg.dt)
        self.gens, self.dt = gens, cfg.dt
        self.m0 = np.full(len(gens), start, dtype=float)
        self.y = np.full(len(gens), y0, dtype=float)
        self.buf = np.empty(cfg.batch_size * self.block)

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
    block; the matrix is allocated once.
    """

    block = 1

    def __init__(self, spec: ModelSpec, cfg: SimConfig, gens: list):
        self.spec, self.gens, self.dt = spec, gens, cfg.dt
        self.floor = FAMILIES[spec.family].floor
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
        particle.step(x, self.spec, self.dt, m, dB1, gens, self.floor)
        return y_left, m[:, None], np.array([(steps_done + 1) * self.dt])


class _RuleState:
    """Per-rule bookkeeping over one batch of replications."""

    def __init__(self, rule: StoppingRule, nb: int, n_steps: int, dt: float):
        check_on_grid(dt, {"horizon_cap": rule.horizon_cap,
                           "fixed_time": rule.fixed_time if rule.kind == "fixed_time" else None})
        self.rule = rule
        cap = n_steps if rule.horizon_cap is None else int(round(rule.horizon_cap / dt))
        self.cap_step = min(n_steps, cap)
        self.alive = np.ones(nb, dtype=bool)
        self.payoff = np.zeros(nb)
        self.fint = np.zeros(nb)
        self.trunc = np.zeros(nb, dtype=bool)

    def settle(self, rows, hit, t, m, g, cap_payoff: str) -> None:
        """End ``rows`` at times ``t``: a hit pays the bequest, a cap unless it pays zero."""
        paid = hit | (cap_payoff == "stop")
        self.payoff[rows] = self.fint[rows]
        if g is not None and paid.any():
            self.payoff[rows[paid]] += g(t[paid], m[paid])
        self.trunc[rows[~hit]] = True
        self.alive[rows] = False


def _first_stop(rule: StoppingRule, y: np.ndarray, rows: np.ndarray, to_y,
                first_step: int, dt: float, extremes: dict):
    """``(hit, col)`` of ``rule`` on ``rows`` of the path block ``y``.

    Column 0 of ``y`` lies at grid step ``first_step``.  ``col`` is the first
    stopping column of a hit row and the last column otherwise.  A threshold
    rule searches only rows whose block extreme crosses, ``_ROWS`` at a time;
    the row extremes are
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
        for i in range(0, found.size, _ROWS):
            part = found[i:i + _ROWS]
            cross = y[rows[part]]
            col[part] = np.argmax(cross >= thr if up else cross <= thr, axis=1)
    elif rule.kind == "fixed_time":
        k = int(round(rule.fixed_time / dt)) - first_step
        if 0 <= k < width:
            hit[:], col[:] = True, k
    return hit, col


def _batch(spec: ModelSpec, rules, payoff: Payoff, cfg: SimConfig, lo: int, hi: int):
    """Per rule, ``(payoff sum, mean, M2, count, truncated)`` over replications
    ``lo:hi``, all on the same paths."""
    nb, dt = hi - lo, cfg.dt
    gens = [_rep_rng(cfg.seed, r) for r in range(lo, hi)]
    src = (_FastSource if cfg.mode == "fast" else _ParticleSource)(spec, cfg, gens)
    f, g = payoff.f, payoff.g
    n_steps = int(round(cfg.t_max / dt))
    states = [_RuleState(r, nb, n_steps, dt) for r in rules]
    everyone, at_start = np.arange(nb), {}
    for st in states:  # time 0: a start in the stopping region or a zero cap ends the row
        hit, _ = _first_stop(st.rule, src.m0[:, None], everyone, float, 0, dt, at_start)
        rows = np.flatnonzero(hit | (st.cap_step == 0))
        st.settle(rows, hit[rows], np.zeros(rows.size), src.m0[rows], g, cfg.cap_payoff)

    fbuf = np.empty(cfg.batch_size * src.block) if f is not None else None
    steps_done = 0
    max_steps = max((st.cap_step for st in states), default=0)
    while steps_done < max_steps:
        act = np.flatnonzero(np.logical_or.reduce([st.alive for st in states]))
        if act.size == 0:
            break
        K = min(src.block, max_steps - steps_done)
        y_left, ypath, t_right = src.advance(act, steps_done, K)
        if f is not None:  # running profit: m at left points, then f * dt, summed in place
            fcum = fbuf[: act.size * K].reshape(act.size, K)
            fcum[:, 0] = y_left
            fcum[:, 1:] = ypath[:, :-1]
            src.to_m(fcum, out=fcum)
            t_left = steps_done * dt + dt * np.arange(K)
            for i in range(0, act.size, _ROWS):
                part = fcum[i:i + _ROWS]
                np.multiply(f(t_left[None, :], part), dt, out=part)
            np.cumsum(fcum, axis=1, out=fcum)
        extremes = {}
        for st in states:
            rows_local = np.flatnonzero(st.alive[act])
            if rows_local.size == 0:
                continue
            klim = min(K, st.cap_step - steps_done)
            hit, col = _first_stop(st.rule, ypath[:, :klim], rows_local, src.to_y,
                                   steps_done + 1, dt, extremes)
            if f is not None:
                st.fint[act[rows_local]] += fcum[rows_local, col]
            end = hit | (steps_done + klim >= st.cap_step)
            t_end = np.where(hit, t_right[col], st.cap_step * dt)
            ended, col = rows_local[end], col[end]
            st.settle(act[ended], hit[end], t_end[end], src.to_m(ypath[ended, col]), g,
                      cfg.cap_payoff)
        steps_done += K
    return [(float(st.payoff.sum()), *_mean_m2(st.payoff), nb, int(st.trunc.sum()))
            for st in states]


def _mean_m2(x: np.ndarray) -> tuple[float, float]:
    """Two-pass mean and sum of squared deviations, shifted by ``x[0]``.

    The shift makes both exact for a constant sample, so a payoff paid
    identically on every path reports a standard error of exactly 0.
    """
    mean = float(x[0] + (x - x[0]).mean())
    return mean, float(((x - mean) ** 2).sum())


def _batches(reps: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, reps)) for lo in range(0, reps, batch_size)]


def _run_rules(
    spec: ModelSpec, rules: Sequence[StoppingRule], payoff: Payoff, cfg: SimConfig
) -> list[McEstimate]:
    parts = _batches(cfg.replications, cfg.batch_size)
    if cfg.workers > 1 and len(parts) > 1:
        if payoff.kind == "custom":
            raise ValueError("custom payoffs cannot run on worker pools")
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [
                pool.submit(_batch, spec, tuple(rules), payoff, cfg, lo, hi)
                for lo, hi in parts
            ]
            results = [fut.result() for fut in futures]
    else:
        results = [_batch(spec, tuple(rules), payoff, cfg, lo, hi) for lo, hi in parts]
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


def evaluate_rule_mc(
    spec: ModelSpec, rule: StoppingRule, payoff: Payoff, cfg: SimConfig
) -> McEstimate:
    """Monte Carlo estimate of the performance of one stopping rule."""
    return _run_rules(spec, [rule], payoff, cfg)[0]


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
    payoff: Payoff,
    cfg: SimConfig,
    kind: str = "threshold_up",
) -> SweepResult:
    """Evaluate one threshold rule per grid value on common random numbers."""
    rules = [StoppingRule(kind, threshold=float(t)) for t in thresholds]
    estimates = _run_rules(spec, rules, payoff, cfg)
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


def dynkin_residual(
    spec: ModelSpec,
    candidate: StoppingCandidate,
    cfg: SimConfig,
    delta: float,
) -> DynkinResult:
    """Martingale drift diagnostic for a candidate value along the flow.

    Paths start inside the candidate's continuation region and run for a
    short horizon ``delta``, stopped at the first grid time outside the
    region.  If the candidate solves the continuation-region equation the
    residual is zero in expectation.
    """
    rule = StoppingRule(f"threshold_{candidate.direction}", threshold=candidate.threshold)
    payoff = Payoff("custom", f=candidate.f, g=candidate.value)
    run_cfg = replace(cfg, t_max=delta, cap_payoff="stop", workers=1)
    est = evaluate_rule_mc(spec, rule, payoff, run_cfg)
    residual = est.mean - candidate.value(0.0, spec.initial_law.mean)
    return DynkinResult(residual, est.std_error, residual / delta, est)
