"""Closed-form stopping solutions and Monte Carlo rule evaluation.

Two problems are solved in closed form: selling at a threshold on the
conditional mean (geometric conditional-mean dynamics, discounted net
proceeds at the stop) and quitting a project (additive dynamics, running
discounted conditional-mean profit).  The Monte Carlo side evaluates
arbitrary threshold rules on the conditional mean, either in *fast mode*
(the scalar conditional-mean SDE, exact in law on the time grid) or in
*particle mode* (a full interacting cloud per replication).  Fast mode
never walks a path: it draws each path's stops from the first-passage law
of the path's Brownian motion with drift (``_StopSearch``), with the
discrete-monitoring law of a walk, a tile of rows at a time in numpy, each
row reading its draws from blocks of its own stream.  It pays quit's running
profit from the stop alone through its discrete potential
(``quit_potential``).  Particle mode walks every step and integrates the
running profit itself (``_walk``).
Either way the source reports where each rule ends each path, and
``_batch`` alone pays the performance functional there.

Replication ``r`` always draws from ``SeedSequence(master_seed,
spawn_key=(r,))``, so adding replications extends the earlier streams
unchanged and every rule evaluated in one run sees the same paths (exact
common random numbers).  That generator's state is computed for a batch's
rows in one vectorised pass (``_rep_states``), bit for bit what numpy's
seeding gives, as ``test_rep_states_match_seed_sequence`` checks.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import count, islice
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
    and per-batch results merge in batch order.  Fast mode keeps a stop of
    13 bytes per row and rule, whatever ``t_max``, and its threshold search
    the draws and generators of one tile of ``_TILE`` rows besides, 800 KiB;
    a particle-mode batch holds all its clouds at once.
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
        for name in ("dt", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.t_max < 0 or self.replications < 2:
            raise ValueError("need dt > 0, t_max >= 0, replications >= 2 (one replication has "
                             "no standard error)")
        check_on_grid(self.dt, {"t_max": self.t_max})
        if self.mode not in ("fast", "particle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cap_payoff not in ("stop", "value"):
            raise ValueError(f"unknown cap_payoff {self.cap_payoff!r}")
        for name, least in {"replications": 2, "n_particles": 1, "workers": 1,
                            "batch_size": 1}.items():
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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


def quit_potential(spec: ModelSpec, dt: float) -> Callable:
    """Quit's discrete potential ``P(t, m) = c e^{-rho t} m``, ``c = dt / (1 - e^{-rho dt})``.

    It holds because a quit spec's conditional mean has no drift (``ModelSpec``
    rejects a quit ``a0``).  Then on the grid
    ``e^{-rho t_k} m_k + (1 - e^{-rho dt}) sum_{j<k} e^{-rho t_j} m_j`` is a
    martingale, with increments ``e^{-rho t_{k+1}} (m_{k+1} - m_k)``, and
    optional stopping at a grid stop ``tau <= N`` gives
    ``E[sum_{k<tau} e^{-rho t_k} m_k dt] = E[P(0, m_0) - P(t_tau, m_tau)]``
    exactly, at every ``dt`` and at the cap.  So fast mode pays the left-point
    profit sum as ``P(0, m_0) - P(t_tau, m_tau)``, from the stop alone.
    """
    _check_family(spec, "quit")
    rho = spec.rho
    c = dt / -math.expm1(-rho * dt)
    return lambda t, m: c * np.exp(-rho * t) * m


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


def sell_candidate(spec: ModelSpec, xi: float | None = None) -> StoppingCandidate:
    """The value of selling at ``xi`` (optimal by default), as a piecewise candidate."""
    _check_family(spec, "sell")
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
    )


# ---------------------------------------------------------------------------
# family registry: everything one shipped model family is, in one entry


@dataclass(frozen=True)
class Family:
    """One shipped model family, from its config keys to its closed forms.

    ``build`` makes the spec, the one problem object, from a model config
    block with ``defaults`` filled in and the initial law; the spec checks
    every precondition, and every closed form reads it.  The exact conditional
    mean is ``to_m(to_y(start) + path_drift(spec) t + path_vol(spec) B1)``,
    where ``start`` is the mean of the initial law: the oracle evaluates it
    and fast mode searches its stops.
    """

    required: tuple[str, ...]   # model config keys besides family and initial
    defaults: dict
    start_key: str              # config key of the default point initial law
    build: Callable[[dict, InitialLaw], ModelSpec]
    payoff: Callable            # spec -> (f, g), the performance functional
    potential: Callable | None  # (spec, dt) -> P(t, m), fast mode's payment of f; None: no f
    candidate: Callable         # (spec, threshold or None) -> StoppingCandidate
    report: Callable            # spec -> (closed_form.csv rows, worst residual)
    probe: Callable             # optimal threshold -> default VI probe window
    path_drift: Callable        # spec -> drift of y
    path_vol: Callable          # spec -> volatility of y
    to_y: Callable              # state value -> y, for thresholds and the start
    to_m: Callable              # ufunc y -> state value

    def threshold_kind(self, spec: ModelSpec) -> str:
        """The kind of a threshold rule in the direction of the family's closed form:
        ``threshold_up`` for sell, ``threshold_down`` for quit."""
        return f"threshold_{self.candidate(spec).direction}"


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
        potential=None,
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
        potential=quit_potential,
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
    y0 = fam.to_y(spec.initial_law.mean)
    return fam.to_m(y0 + (fam.path_drift(spec) * t + fam.path_vol(spec) * b1))


# ---------------------------------------------------------------------------
# Monte Carlo engine: a stop search (fast) or a walk (particle) reports where
# each rule ends each row, and _batch pays the stops


# numpy's SeedSequence hashes uint32 words; PCG64 is a 128-bit LCG with this multiplier
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(h: int, mult: int):
    """SeedSequence's hash constants from ``h``: per hash, its xor and its multiplier."""
    while True:
        yield h, (h := h * mult & _M32)


def _hash(v: np.ndarray, c) -> np.ndarray:
    """SeedSequence's hash of the uint32 words ``v`` with the constants ``c``."""
    v = (v ^ c[0]) * c[1] & _M32
    return v ^ v >> 16


def _absorb(pool: list, word: np.ndarray, consts) -> list:
    """Mix ``word`` into each pool word in turn, taking one hash constant each."""
    mixed = [(p * 0xCA01F9DD - _hash(word, next(consts)) * 0x4973F715) & _M32 for p in pool]
    return [v ^ v >> 16 for v in mixed]


def _rep_states(seed: int, lo: int, hi: int):
    """The PCG64 state of each replication ``lo..hi-1``, bit for bit that of
    ``default_rng(SeedSequence(seed, spawn_key=(r,)))``.

    SeedSequence mixes the seed's words, zero-padded to four, into its pool
    (``SeedSequence(seed).pool``, once), absorbs the spawn words of ``r``
    (two from ``r = 2**32``) and hashes four 64-bit words from the pool:
    PCG64's initial state and stream.  These run in uint32 numpy arithmetic
    on 1024 rows at a time, and PCG64's seeding in Python ints.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool  # rejects a negative seed
    if not 0 <= lo <= hi <= 2**64:
        raise ValueError(f"replications {lo}..{hi - 1} lie outside 0..2**64 - 1")
    used = 4 * max(4, -(-seed.bit_length() // 32))  # the hashes that mixed the seed in
    spawn = list(islice(_hash_consts(0x43B0D7E5, 0x931E8875), used, used + 8))
    gen = list(islice(_hash_consts(0x8B51F9DD, 0x58F38DED), 8))
    for a in range(lo, hi, 1024):
        r = np.arange(a, min(a + 1024, hi), dtype=np.uint64)
        p = _absorb([np.full(r.size, v) for v in pool], (r & _M32).astype(np.uint32),
                    iter(spawn[:4]))
        if a + r.size > 2**32:
            wide = _absorb(p, (r >> 32).astype(np.uint32), iter(spawn[4:]))
            p = [np.where(r >> 32 > 0, v, u) for v, u in zip(wide, p)]
        s = [_hash(p[i % 4], c).astype(np.uint64) for i, c in enumerate(gen)]
        for st1, st0, sq1, sq0 in zip(*[(s[i] | s[i + 1] << 32).tolist() for i in (0, 2, 4, 6)]):
            inc = ((sq1 << 64 | sq0) << 1 | 1) & _M128
            state = ((inc + (st1 << 64 | st0)) * _PCG64_MULT + inc) & _M128
            yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                   "state": {"state": state, "inc": inc}}


def _rng() -> np.random.Generator:
    """A generator to load the states of ``_rep_states`` into."""
    return np.random.Generator(np.random.PCG64(0))


def check_fixed_time(rule: StoppingRule, dt: float, t_max: float, prefix: str = "") -> None:
    """Reject a ``fixed_time`` off the grid, or past ``t_max``, where every path is capped first."""
    if rule.kind == "fixed_time":
        check_on_grid(dt, {"rule.fixed_time": rule.fixed_time}, prefix)
        if round(rule.fixed_time / dt) > round(t_max / dt):
            raise ValueError(f"{prefix}rule.fixed_time {rule.fixed_time} is past {prefix}t_max "
                             f"{t_max}: every path is capped before the rule can stop it")


def check_dynkin_start(spec: ModelSpec, dt: float, t_max: float,
                       key: str = "t_max") -> StoppingCandidate:
    """The family's optimal candidate, after rejecting a Dynkin check that would
    stop every path at time 0 and so check nothing: a horizon ``t_max``, named
    ``key``, under one step ``dt``, or a start in the candidate's stopping region."""
    if round(t_max / dt) < 1:
        raise ValueError(f"the Dynkin check needs a {key} of at least one step dt; with no "
                         "step, every path ends where it starts")
    fam = FAMILIES[spec.family]
    candidate = fam.candidate(spec)
    start = spec.initial_law.mean
    if not candidate.in_continuation(start):
        raise ValueError(f"the Dynkin check needs a start inside the continuation region; the "
                         f"initial mean ({fam.start_key}) {start!r} is on the stopping side of "
                         f"{candidate.threshold!r}")
    return candidate


def rule_value(spec: ModelSpec, rule: StoppingRule, key: str) -> StoppingCandidate:
    """The closed form of ``rule``, which must be a threshold rule in the family's direction."""
    fam = FAMILIES[spec.family]
    kind = fam.threshold_kind(spec)
    if rule.kind != kind:
        raise ValueError(f"{key} needs a {kind} rule, the kind of the {spec.family} closed "
                         f"form; got {rule.kind}")
    return fam.candidate(spec, rule.threshold)


def _first_stop(rule: StoppingRule, m: np.ndarray, step: int, dt: float) -> np.ndarray:
    """Whether ``rule`` stops each conditional mean of ``m`` at grid step ``step``.

    A NaN mean never crosses a threshold.
    """
    if rule.kind == "threshold_up":
        return m >= rule.threshold
    if rule.kind == "threshold_down":
        return m <= rule.threshold
    return np.full(m.shape, rule.kind == "fixed_time" and round(rule.fixed_time / dt) == step)
# |mu| a / sigma^2 below this is a zero drift: the zero-drift passage law is then
# within about this of the inverse Gaussian in total variation, and
# ``_inverse_gaussian``, whose relative rounding error is about 1e-16 times its
# mean-to-shape ratio sigma^2 / (|mu| a), is never handed a ratio above 1 / _DRIFT_TOL
_DRIFT_TOL = 1e-7
# a capped value takes at most this many rejection proposals, then one exact draw
_PROPOSALS = 16
# the stop search advances this many rows together, and each row draws the
# randomness of this many passages at a time (``_StopSearch._tile``)
_TILE = 512
_BLOCK = 24
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _inverse_gaussian(mean: np.ndarray, shape: np.ndarray, x: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Inverse Gaussian draws of means ``mean`` and shapes ``shape`` from the
    standard normals ``x`` and the uniforms ``u`` (Michael, Schucany & Haas 1976).

    With ``Y = mean x^2`` the smaller root is
    ``X = mean - 2 mean Y / (Y + sqrt(Y^2 + 4 shape Y))``, and the draw is
    ``X`` if ``u <= mean / (mean + X)``, else ``mean^2 / X``.  The root is
    written without ``Y - sqrt(Y^2 + 4 shape Y)``, the difference of nearly
    equal terms in ``numpy``'s ``wald``; what rounding is left, in
    ``mean - ...`` when ``Y`` is far above ``shape``, is about 1e-16 times
    ``Y / shape``.  ``Y = 0`` gives ``X = mean``: the denominator, 0 only
    where ``Y`` is, is raised to the least positive float there.
    """
    y = mean * x * x
    root = y + np.sqrt(y * y + 4 * shape * y)
    small = mean - 2 * mean * y / np.maximum(root, math.ulp(0.0))
    return np.where(u <= mean / (mean + small), small, mean * mean / small)


def _killed_end(rng: np.random.Generator, z: float, b: float, t: float, mu: float,
                sigma: float) -> float:
    """The value at time ``t`` of a path from ``z < b`` with drift ``mu`` and
    volatility ``sigma`` that has not reached ``b`` by then.

    Up to ``_PROPOSALS`` proposals are drawn by rejection: a free end short
    of ``b`` is kept unless the bridge to it crosses ``b``.  Each proposal is
    kept with the survival probability, so near the barrier with a long
    horizon the loop would run thousands of times; after ``_PROPOSALS``
    rejections one uniform is inverted through the killed law instead
    (``_killed_gap``).  Both are exact draws, and so is their mixture; a
    call makes at most ``2 _PROPOSALS + 1`` generator calls.
    """
    mean, sd, var_t = z + mu * t, sigma * math.sqrt(t), sigma * sigma * t
    a, left = b - z, _PROPOSALS
    while True:  # counted after a rejection, so a kept first proposal pays no count
        end = mean + sd * rng.standard_normal()
        if end < b and rng.random() >= math.exp(-2 * a * (b - end) / var_t):
            return end
        left -= 1
        if not left:
            break
    end = b - _killed_gap(1.0 - rng.random(), a, a - mu * t, sd)
    return end if end < b else math.nextafter(b, -math.inf)


def _mills(u: float) -> float:
    """The Mills ratio ``Q(u) / phi(u)`` at ``u >= 0``, ``Q`` the normal tail."""
    if u < 4.0:  # past 4 the rounding of exp(u^2 / 2) grows, to 1e-13 at u = 25
        return math.sqrt(0.5 * math.pi) * math.erfc(u / math.sqrt(2)) * math.exp(0.5 * u * u)
    r = u  # Laplace's continued fraction, converged to rounding past 4 at this depth
    for k in range(int(120 / u) + 4, 0, -1):
        r = u + k / r
    return 1 / r


def _log_survival(d: float, a: float, c: float, s: float) -> tuple[float, float]:
    """``(log S(d), S(d) / f(d))`` for the gap ``D = b - end`` of a path that
    starts ``a`` below the barrier ``b`` and whose free end lies ``c`` below it
    in mean, with standard deviation ``s``.

    ``S(d) = P(D > d, no passage) = Q(u1) - e^{2 a (a - c) / s^2} Q(u2)``, with
    ``u1 = (d - c) / s`` and ``u2 = u1 + 2a / s``, and its density ``f = -S'``
    is ``phi(u1) (1 - e^{-2ad/s^2}) / s``.  The second term is evaluated as
    one exponent, ``phi(u1) e^{-2ad/s^2} R(u2)`` with the Mills ratio ``R``,
    which cannot overflow; past the mean (``u1 >= 0``) ``phi(u1)`` is
    factored out, so the log holds where ``S`` itself underflows.
    """
    u1 = (d - c) / s
    u2 = u1 + 2 * a / s
    lam = 2 * a * d / (s * s)
    kill = -math.expm1(-lam)  # the chance that the bridge to the end stays below b
    if u1 >= 0:
        diff = _mills(u1) - math.exp(-lam) * _mills(u2)
        log_s = -0.5 * u1 * u1 - _LOG_SQRT_2PI + math.log(diff) if diff > 0 else -math.inf
        return log_s, s * diff / kill if kill else math.inf
    if u2 < 0:  # then c > 2a, and the exponent is negative
        second = math.exp(2 * a * (a - c) / (s * s)) * 0.5 * math.erfc(u2 / math.sqrt(2))
    else:
        second = math.exp(-0.5 * u1 * u1 - lam - _LOG_SQRT_2PI) * _mills(u2)
    surv = 0.5 * math.erfc(u1 / math.sqrt(2)) - second
    density = math.exp(-0.5 * u1 * u1 - _LOG_SQRT_2PI) * kill / s
    return (math.log(surv) if surv > 0 else -math.inf), surv / density if density else math.inf


def _killed_gap(u: float, a: float, c: float, s: float) -> float:
    """The gap ``d > 0`` below the barrier where the killed law's survival
    ``S(d)`` is ``u`` times ``S(0)``, for ``0 < u <= 1`` (``_log_survival``).

    ``log S`` is decreasing and concave (the killed density is log-concave),
    so a Newton step on it lands past the root, and the steps from there
    fall onto it.  A step that leaves the bracket of the root, as rounding
    can make it, halves the bracket, or doubles the point while no point
    past the root is known.  A start closer to the barrier than ``1e-9 s``
    is moved there, which changes the law by about that fraction and keeps
    ``S(0)``, a difference of two nearly equal terms, to 7 digits.
    """
    a = max(a, 1e-9 * s)
    target = math.log(u) + _log_survival(0.0, a, c, s)[0]
    d, lo, hi = max(c, 0.0) + s, 0.0, math.inf
    for _ in range(100):
        log_s, ratio = _log_survival(d, a, c, s)
        if log_s > target:
            lo = d
        else:
            hi = d
        if abs(log_s - target) <= 1e-12:
            return d
        nd = d + (log_s - target) * ratio
        if not lo < nd < hi:
            nd = 2 * d if hi == math.inf else 0.5 * (lo + hi)
        if abs(nd - d) <= 1e-12 * nd:
            return nd
        d = nd
    return d


class _StopSearch:
    """Fast mode's stops drawn without the path.

    In ``y`` the conditional mean is a Brownian motion with drift, so a
    threshold rule's first stopping grid step can be drawn exactly.  From
    grid step ``k`` at ``y``, draw the first time ``tau`` the continuous path
    reaches the barrier (``_passage``); the first grid step at or after it
    is ``j = k + ceil(tau / dt)``, and ``y_j`` is drawn from the path
    restarted at the barrier at ``tau``.  No grid point before ``tau`` lies
    past a barrier the path has not reached, so this is the stop a walk over
    every step finds.  If ``y_j`` is short of the barrier, the search goes on
    from ``(j, y_j)``.  A ``j`` past step ``N`` caps the row, with ``y_N``
    drawn from the law of a path that has not reached the barrier by then
    (``_killed_end``): up to ``_PROPOSALS`` rejection proposals of a normal
    and a uniform each, then, if all are rejected, one uniform inverted
    through that law.  The threshold rules of a run share one path and are
    searched in order of distance from the start; ``fixed_time`` and
    ``never`` rules read one forward normal each, in order of their steps.
    A run that mixes threshold directions, or thresholds with other rules,
    is rejected.  The draws read ``|path_vol|``, so a volatility's sign,
    which leaves the law unchanged, leaves every draw unchanged too.

    The threshold search runs ``_TILE`` rows at a time and advances all the
    running rows of a tile together, one passage per pass, in numpy
    (``_tile``); no generator call runs inside a pass.  Each row draws its
    passages' randomness as blocks from its own stream, ``_BLOCK`` passages
    at a time, and a passage reads its fixed columns whether it uses them
    or not.  A tile holds its rows' blocks, ``32 _BLOCK`` bytes per row,
    and their generators, about 830 bytes each, besides the stop table.

    Every row starts at the initial mean, so time 0 ends a rule on every
    row or on none, and a rule it ends draws nothing.  The other rules'
    stops fill one table.  With a running profit, each rule's profit up to
    its stops is paid as ``P(0, m_0) - P(t, m)``, the family's discrete
    potential (``quit_potential``).

    Replication ``r`` draws on its own stream, so a result does not depend
    on how replications are batched or tiled.  A stop before step ``N``
    depends on nothing drawn after it, so a run with a smaller ``t_max``
    makes every stop before its own cap at the same step, with the same
    value.
    """

    def __init__(self, spec: ModelSpec, cfg: SimConfig, rules, lo: int, hi: int):
        fam = FAMILIES[spec.family]
        kinds = {r.kind for r in rules}
        if not (kinds <= {"threshold_up"} or kinds <= {"threshold_down"}
                or kinds <= {"fixed_time", "never"}):
            raise ValueError("a fast-mode run takes threshold rules of one direction or "
                             f"fixed_time and never rules, not {sorted(kinds)}")
        # thresholds are searched in z = sign * y, where every barrier lies above the start
        self.sign = -1.0 if "threshold_down" in kinds else 1.0
        self.z0 = self.sign * fam.to_y(spec.initial_law.mean)
        self.mu = self.sign * fam.path_drift(spec)
        self.sigma = abs(fam.path_vol(spec))
        self.to_y, self.to_m = fam.to_y, fam.to_m
        self.m0 = spec.initial_law.mean
        self.potential = fam.potential(spec, cfg.dt) if fam.potential else None
        self.rules, self.seed, self.lo, self.nb, self.dt = rules, cfg.seed, lo, hi - lo, cfg.dt
        self.n_steps = int(round(cfg.t_max / cfg.dt))

    def stops(self):
        """Per rule, in order, ``(step, m, hit, profit)`` of every row; ``profit`` is
        None without a running profit."""
        rules, dt, nb, m0 = self.rules, self.dt, self.nb, self.m0
        hit_0 = [bool(_first_stop(r, np.array([m0]), 0, dt)[0]) for r in rules]
        live = [i for i, h in enumerate(hit_0) if not h and self.n_steps > 0]
        if live and rules[live[0]].kind.startswith("threshold"):
            key = [self.sign * self.to_y(rules[i].threshold) for i in live]
            fill = self._thresholds
        else:
            key = [round(rules[i].fixed_time / dt) if rules[i].kind == "fixed_time"
                   else self.n_steps for i in live]
            fill = self._forward
        order = sorted(range(len(live)), key=key.__getitem__)
        key = sorted(key)
        step = np.zeros((len(live), nb), dtype=np.int32)
        m = np.empty((len(live), nb))  # z, then m in place
        hit = np.zeros((len(live), nb), dtype=bool)
        if live:  # a rule time 0 ended draws nothing
            fill(key, step, m, hit)
        m *= self.sign
        self.to_m(m, out=m)
        table = {live[i]: c for c, i in enumerate(order)}
        for i, rule in enumerate(rules):
            if i in table:  # a fixed_time rule stops at its step, a never rule is capped
                c = table[i]
                stop = step[c], m[c], hit[c] | (rule.kind == "fixed_time")
            else:  # time 0 ended the rule
                stop = np.zeros(nb, dtype=np.int32), np.full(nb, m0), np.full(nb, hit_0[i])
            profit = (None if self.potential is None
                      else self.potential(0.0, m0) - self.potential(stop[0] * dt, stop[1]))
            yield *stop, profit

    def _thresholds(self, bars, step, z_out, hit) -> None:
        """Every row's stops for the ascending barriers ``bars`` into ``step``,
        ``z_out`` and ``hit``, one table row per barrier and one column per
        replication row, ``_TILE`` rows at a time (``_tile``).  The tiles share one buffer of
        blocks and one generator per tile row."""
        bars = np.array(bars)
        width = min(self.nb, _TILE)
        gens = [_rng() for _ in range(width)]
        blocks = np.empty((2, width, _BLOCK, 2))  # a tile's normals, uniforms
        for lo in range(0, self.nb, _TILE):
            tile = slice(lo, lo + _TILE)
            states = _rep_states(self.seed, self.lo + lo, self.lo + min(lo + _TILE, self.nb))
            self._tile(gens, states, bars, blocks, step[:, tile], z_out[:, tile], hit[:, tile])

    def _tile(self, gens, states, bars: np.ndarray, blocks: np.ndarray, step, z_out,
              hit) -> None:
        """The stops of one tile of rows, every running row advanced one passage
        per pass.

        Row ``r`` loads the ``r``-th of ``states`` into its generator
        ``gens[r]`` and fills column ``r`` of ``step``, ``z_out`` and ``hit``.
        It draws a block of ``2 _BLOCK`` normals, then one of ``2 _BLOCK``
        uniforms, and its passage ``p`` reads pair ``p % _BLOCK`` of each: the
        passage normal and the overshoot normal, the uniform of the inverse
        Gaussian and the uniform of a drift away from the barrier, whether it
        uses them or not.
        A row that needs a passage past its blocks draws the next pair of
        blocks from its generator, and a capped row draws its capped value
        (``_killed_end``) from it, which stands past its blocks.  So a row's
        draws depend on its stream alone.
        """
        mu, sigma, dt, n, nbars = self.mu, self.sigma, self.dt, self.n_steps, bars.size
        width = step.shape[1]
        normal, uniform = blocks[:, :width]

        def draw(r: int) -> None:  # row r's next blocks, from its stream
            gens[r].standard_normal(out=normal[r])
            gens[r].random(out=uniform[r])

        def cap(on: np.ndarray) -> None:  # rows ``on`` end at step N, short of barrier i
            ends = []
            for r, kc, zc, bc in zip(rows[on].tolist(), k[on].tolist(), z[on].tolist(),
                                     b[on].tolist()):
                if kc < n:
                    zc = _killed_end(gens[r], zc, bc, (n - kc) * dt, mu, sigma)
                ends.append(zc)
            at, cols, ends = i[on], rows[on], np.array(ends)
            for j in range(int(at.min()), nbars):  # barrier i and every farther one
                past = at <= j
                step[j, cols[past]], z_out[j, cols[past]] = n, ends[past]

        for r, state in enumerate(states):
            gens[r].bit_generator.state = state
            draw(r)

        rows = np.arange(width)                 # the tile column of each running row
        k = np.zeros(width, dtype=np.int64)     # its grid step
        z = np.full(width, self.z0)             # its value there
        i = np.zeros(width, dtype=np.intp)      # its next barrier
        for p in count():
            b = bars[i]
            stuck = (k == n) | (b == math.inf)
            if stuck.any():  # no passage is left
                cap(stuck)
                on = ~stuck
                rows, k, z, i, b = rows[on], k[on], z[on], i[on], b[on]
                if not rows.size:
                    return
            col = p % _BLOCK
            if p and not col:  # every running row has read its blocks: draw the next
                for r in rows.tolist():
                    draw(r)
            tau = self._passage(b - z, normal[rows, col, 0], *uniform[rows, col].T)
            q = tau / dt
            over = q > n - k  # no stop by step N: cap this barrier and every farther one
            if over.any():
                cap(over)
                on = ~over
                rows, k, i, b, q, tau = rows[on], k[on], i[on], b[on], q[on], tau[on]
            steps = np.maximum(np.ceil(q), 1.0)
            k = k + steps.astype(np.int64)
            d = np.maximum(steps * dt - tau, 0.0)  # from the passage to the grid point
            z = b + mu * d + sigma * np.sqrt(d) * normal[rows, col, 1]
            passed = np.maximum(np.searchsorted(bars, z, side="right"), i)
            gained = passed - i
            for off in range(int(gained.max(initial=0))):  # the barriers z is past, in turn
                now = gained > off
                at, cols = i[now] + off, rows[now]
                step[at, cols], z_out[at, cols], hit[at, cols] = k[now], z[now], True
            on = passed < nbars
            rows, k, z, i = rows[on], k[on], z[on], passed[on]
            if not rows.size:
                return

    def _passage(self, a: np.ndarray, x: np.ndarray, u: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
        """The first time each path reaches its barrier at distance ``a``, ``inf``
        if never, from its passage normal ``x`` and its uniforms ``u`` and ``v``.

        A drift below the tolerance is zero, with the passage law
        ``a^2 / (var x^2)``; drifting away, the path reaches the barrier when
        ``v < exp(-2 |mu| a / var)``, and then at a time with the law it has
        when drifting toward it, the inverse Gaussian of ``x`` and ``u``
        (``_inverse_gaussian``).
        """
        mu, var = self.mu, self.sigma * self.sigma
        near = abs(mu) * a < _DRIFT_TOL * var
        tau = np.empty_like(a)
        some, every = near.any(), near.all()
        if some:  # whole-array slices where every row takes one law: mostly, all do
            on = slice(None) if every else near
            an, xn = a[on], x[on]
            ratio = np.divide(an, xn, out=np.full_like(an, math.inf), where=xn != 0)
            tau[on] = ratio * ratio / var
        if not every:
            on = ~near if some else slice(None)
            af = a[on]
            far = _inverse_gaussian(af / abs(mu), af * af / var, x[on], u[on])
            if mu < 0:
                far[v[on] >= np.exp(2 * mu * af / var)] = math.inf
            tau[on] = far
        return tau

    def _forward(self, steps, step, z_out, hit) -> None:
        """Every row's values at the ascending stopping steps ``steps``, one row
        at a time; ``hit`` stays unset, since ``stops`` makes a ``fixed_time``
        stop a hit."""
        mu, sigma, dt, rng = self.mu, self.sigma, self.dt, _rng()
        for r, state in enumerate(_rep_states(self.seed, self.lo, self.lo + self.nb)):
            rng.bit_generator.state = state
            k, z = 0, self.z0
            for i, s in enumerate(steps):
                h = (s - k) * dt
                z += mu * h + sigma * math.sqrt(h) * rng.standard_normal()
                k = step[i, r] = s
                z_out[i, r] = z


def _walk(spec: ModelSpec, cfg: SimConfig, rules, lo: int, hi: int) -> list:
    """Particle mode's stops: per rule, ``(step, m, hit, profit)`` of every row,
    found by walking one interacting cloud per replication.

    One ``particle.step`` call per time step advances the running clouds;
    when rows finish, ``Clouds.keep`` moves the survivors up.  Every rule is
    checked at every step, time 0 included, and ``t_max`` caps the rows a
    rule leaves running.  Each running row carries one left-point sum of the
    running profit ``f dt``, which a rule that ends the row records, so the
    walk checks the fast mode's potential independently.
    """
    f = FAMILIES[spec.family].payoff(spec)[0]
    dt, n_steps, nb = cfg.dt, int(round(cfg.t_max / cfg.dt)), hi - lo
    gens = [_rng() for _ in range(nb)]
    for rng, state in zip(gens, _rep_states(cfg.seed, lo, hi)):
        rng.bit_generator.state = state
    clouds = particle.Clouds(spec, cfg.n_particles, gens)
    fsum = np.zeros(nb)     # the running rows' profit sums, aligned with the clouds
    shape = (len(rules), nb)
    step = np.full(shape, -1, dtype=np.int32)  # -1 while the rule runs the row
    m_at, hit = np.empty(shape), np.zeros(shape, dtype=bool)
    profit = np.zeros(shape) if f is not None else None
    for k in range(n_steps + 1):
        if k:
            if f is not None:
                fsum += f((k - 1) * dt, clouds.m) * dt
            dB1 = np.array([rng.standard_normal() for rng in clouds.gens]) * math.sqrt(dt)
            particle.step(clouds, dt, dB1)
        rows, m = clouds.rows, clouds.m
        for i, rule in enumerate(rules):
            live = np.flatnonzero(step[i, rows] < 0)
            stopped = _first_stop(rule, m[live], k, dt)
            end = stopped | (k == n_steps)
            at, done = live[end], rows[live[end]]
            step[i, done], m_at[i, done], hit[i, done] = k, m[at], stopped[end]
            if profit is not None:
                profit[i, done] = fsum[at]
        keep = np.flatnonzero((step[:, rows] < 0).any(axis=0))
        if keep.size == 0:
            break
        if keep.size < rows.size:  # rows finished: move the survivors up, in order
            clouds.keep(keep)
            fsum = fsum[keep]
    return [(step[i], m_at[i], hit[i], None if profit is None else profit[i])
            for i in range(len(rules))]


def _batch(spec: ModelSpec, rules, cfg: SimConfig, lo: int, hi: int):
    """Per rule, ``(payoff sum, mean, M2, count, truncated)`` over replications
    ``lo:hi``, all on the same paths.

    A source reports each rule's stop ``(step, m, hit, profit)`` on each
    row: fast mode draws the stops without the path and pays a running
    profit through the family's potential (``_StopSearch``); particle mode
    walks every step of its clouds and integrates the running profit
    itself (``_walk``).  Here alone the stops are paid: the profit plus the
    bequest ``g`` at ``(t, m)``, except that a row capped at ``t_max`` under
    ``cap_payoff="value"`` pays its rule's value in place of ``g``.  Each
    rule is reduced as soon as it is paid, so one rule's payoffs are held
    at a time.
    """
    caps = []
    for rule in rules:
        check_fixed_time(rule, cfg.dt, cfg.t_max)
        caps.append(rule_value(spec, rule, 'cap_payoff "value"').value
                    if cfg.cap_payoff == "value" else None)
    g = FAMILIES[spec.family].payoff(spec)[1]
    if cfg.mode == "fast":
        stops = _StopSearch(spec, cfg, rules, lo, hi).stops()
    else:
        stops = _walk(spec, cfg, rules, lo, hi)
    out = []
    for cap, (step, m, hit, profit) in zip(caps, stops):
        t = step * cfg.dt
        payoff = np.zeros(hi - lo) if profit is None else profit
        if cap is None:  # stopped or capped, a row pays the bequest
            if g is not None:
                payoff += g(t, m)
        else:
            for pay, ends in ((g, hit), (cap, ~hit)):
                if pay is not None and ends.any():
                    payoff[ends] += pay(t[ends], m[ends])
        out.append((float(payoff.sum()), *_mean_m2(payoff), hi - lo,
                    int(np.count_nonzero(~hit))))
    return out


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
        var = m2 / (count - 1)
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


def threshold_sweep(spec: ModelSpec, thresholds: Sequence[float], cfg: SimConfig) -> SweepResult:
    """Evaluate one threshold rule per grid value on common random numbers, each
    in the direction of the family's closed form (``Family.threshold_kind``)."""
    thresholds = tuple(map(float, thresholds))
    kind = FAMILIES[spec.family].threshold_kind(spec)
    estimates = tuple(_run_rules(spec, [StoppingRule(kind, threshold=t) for t in thresholds], cfg))
    best = int(np.argmax([e.mean for e in estimates]))
    return SweepResult(thresholds, estimates, thresholds[best])


@dataclass(frozen=True)
class DynkinResult:
    residual: float          # E[phi(Y at exit-or-horizon)] + E[int f] - phi(start)
    estimate: McEstimate     # its std_error is the residual's


def dynkin_residual(spec: ModelSpec, cfg: SimConfig) -> DynkinResult:
    """Martingale drift diagnostic for the spec's closed-form value along the flow.

    The candidate is the family's optimal value for ``spec``.  Paths start
    inside its continuation region and run its threshold rule for the short
    horizon ``cfg.t_max``: a stop pays the payoff, which the candidate equals
    there, and a cap the candidate (``cap_payoff="value"``).  If it solves
    the continuation-region equation the residual is zero in expectation.
    A start in the stopping region, or a ``t_max`` under one step, would
    stop every path at time 0 and check nothing, so both are rejected
    (``check_dynkin_start``).
    """
    candidate = check_dynkin_start(spec, cfg.dt, cfg.t_max)
    rule = StoppingRule(FAMILIES[spec.family].threshold_kind(spec), threshold=candidate.threshold)
    est = _run_rules(spec, [rule], replace(cfg, cap_payoff="value"))[0]
    residual = est.mean - candidate.value(0.0, spec.initial_law.mean)
    return DynkinResult(residual, est)
