"""Model declarations for conditional mean-field jump diffusions.

The supported dynamics are one-dimensional with one common Brownian driver,
one idiosyncratic Brownian driver and a finite-activity compound Poisson
jump part with discrete marks.  Every coefficient is affine in the first
moment ``m_bar`` of the conditional law and depends on neither ``t`` nor
the state ``x``, so a model is eight numbers plus its jump and initial data.
Only the two families of the worked examples are shipped: "sell" (every
coefficient loads on ``m_bar``) and "quit" (constant coefficients).  A spec
is the whole stopping problem, discount rate and sell cost included, and
plain data, so worker pools pickle it as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ModelError(ValueError):
    """Invalid model parameters."""


# ---------------------------------------------------------------------------
# initial laws

INITIAL_KINDS = ("point", "normal", "lognormal")


@dataclass(frozen=True)
class InitialLaw:
    """Square-integrable initial distribution for the state.

    ``kind`` is one of ``point`` (Dirac at ``loc``), ``normal`` or
    ``lognormal`` (parameters of the underlying normal).
    """

    kind: str
    loc: float = 0.0
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in INITIAL_KINDS:
            raise ModelError(f"unknown initial law kind {self.kind!r}")
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ModelError(f"loc and scale must be finite, got {self.loc!r}, {self.scale!r}")
        if self.scale < 0:
            raise ModelError("scale must be >= 0")

    @property
    def mean(self) -> float:
        if self.kind == "lognormal":
            return math.exp(self.loc + 0.5 * self.scale**2)
        return self.loc

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(size, float(self.loc))
        if self.kind == "normal":
            return rng.normal(self.loc, self.scale, size)
        return rng.lognormal(self.loc, self.scale, size)


# ---------------------------------------------------------------------------
# jump part


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite-activity compound Poisson description of the jump marks.

    ``intensity`` is the event rate per unit time; ``atoms`` lists the
    ``(value, probability)`` pairs of the discrete mark distribution, which
    active jumps need.
    """

    intensity: float
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.intensity < math.inf:
            raise ModelError(f"jump intensity must be >= 0 and finite, got {self.intensity!r}")
        if self.intensity > 0 and not self.atoms:
            raise ModelError("active jumps need mark atoms")
        if not all(math.isfinite(value) for value, _ in self.atoms):
            raise ModelError("jump marks must be finite")
        probs = [p for _, p in self.atoms]
        if not all(0.0 <= p <= 1.0 for p in probs):  # NaN too
            raise ModelError(f"mark probabilities must lie in [0, 1], got {probs}")
        if probs and abs(sum(probs) - 1.0) > 1e-12:
            raise ModelError("mark probabilities must sum to 1")

    @cached_property
    def _mark_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Atom values and the cdf at each cut between neighbouring atoms."""
        values = np.array([v for v, _ in self.atoms])
        return values, np.cumsum([p for _, p in self.atoms])[:-1]

    def sample_marks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` marks, one uniform each against the cached cdf."""
        values, cuts = self._mark_table
        return values[np.searchsorted(cuts, rng.random(size), side="right")]


def no_jumps() -> LevyMeasureSpec:
    return LevyMeasureSpec(intensity=0.0)


def discrete_marks(intensity: float, values, probs) -> LevyMeasureSpec:
    values = [float(v) for v in values]
    probs = [float(p) for p in probs]
    return LevyMeasureSpec(intensity=intensity, atoms=tuple(zip(values, probs)))


def constant_mark(intensity: float, value: float) -> LevyMeasureSpec:
    return discrete_marks(intensity, [value], [1.0])


# ---------------------------------------------------------------------------
# model spec


def _affine(c0: float, c1: float, m):
    """``c0 + c1 m``, evaluating only the nonzero terms."""
    if c1 == 0:
        return c0
    return c1 * m if c0 == 0 else c0 + c1 * m


@dataclass(frozen=True)
class ModelSpec:
    """One optimal stopping problem: the state equation and its discounting.

    At ``m = m_bar`` the drift is ``a0 + a1 m``, the common diffusion
    ``b0 + b1 m``, the idiosyncratic diffusion ``s0 + s1 m`` and the jump
    amplitude ``mark (j0 + j1 m)``.  Only nonzero terms are evaluated, so a
    one-term coefficient is exactly that term (``alpha0 * m``, ``sigma1``).
    ``family`` is ``"sell"`` or ``"quit"``; it names the performance
    functional, discounted at ``rho``, and ``cost`` is the sell family's
    transaction cost (0 for quit).  The family also fixes the pattern of the
    conditional mean's drift and common diffusion, the terms its closed forms,
    fast mode and oracle read: ``a1 m`` and ``b1 m`` for sell, ``b0`` alone
    for quit, whose closed forms assume no drift.  The other terms must be 0.
    """

    family: str
    levy: LevyMeasureSpec
    initial_law: InitialLaw
    a0: float = 0.0
    a1: float = 0.0
    b0: float = 0.0
    b1: float = 0.0
    s0: float = 0.0
    s1: float = 0.0
    j0: float = 0.0
    j1: float = 0.0
    rho: float = 1.0
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("sell", "quit"):
            raise ModelError(f"model family must be 'sell' or 'quit', got {self.family!r}")
        numbers = ("a0", "a1", "b0", "b1", "s0", "s1", "j0", "j1", "rho", "cost")
        bad = {name: getattr(self, name) for name in numbers
               if not math.isfinite(getattr(self, name))}
        if bad:
            raise ModelError(f"model coefficients, rho and cost must be finite, got {bad}")
        for name in ("a0", "b0") if self.family == "sell" else ("a0", "a1", "b1"):
            if getattr(self, name) != 0:
                why = ("the quit closed forms and fast mode's potential assume a driftless "
                       "conditional mean" if (self.family, name) == ("quit", "a0")
                       else f"the {self.family} closed forms, fast mode and oracle drop it")
                raise ModelError(f"a {self.family} spec has no {name} term: {why}; got {name} = "
                                 f"{getattr(self, name)!r}")

    def drift(self, m):
        return _affine(self.a0, self.a1, m)

    def diffusion_common(self, m):
        return _affine(self.b0, self.b1, m)

    def diffusion_idio(self, m):
        return _affine(self.s0, self.s1, m)

    def jump_amp(self, m, mark):
        return mark * _affine(self.j0, self.j1, m)

    def expected_jump_amp(self, m):
        """Mark expectation of ``jump_amp``."""
        total = 0.0
        for value, prob in self.levy.atoms:
            total = total + prob * self.jump_amp(m, value)
        return total


def make_sell_model(
    alpha0: float,
    sigma1: float,
    sigma2: float,
    rho: float,
    a: float,
    levy: LevyMeasureSpec | None = None,
    initial_law: InitialLaw | None = None,
) -> ModelSpec:
    """Geometric conditional-mean dynamics, selling at the mean less the cost ``a``."""
    if sigma1 <= 0:
        raise ModelError("sell model requires sigma1 > 0")
    if not rho > 0:
        raise ModelError("discount rate rho must be > 0")
    if a <= 0:
        raise ModelError("transaction cost a must be > 0")
    if alpha0 >= rho:
        raise ModelError("sell model requires alpha0 < rho")
    if sigma2 < 0:
        raise ModelError("sell model requires sigma2 >= 0")
    levy = levy if levy is not None else no_jumps()
    bad = [v for v, _ in levy.atoms if not (-1.0 < v <= 0.0)]
    if levy.intensity > 0 and bad:
        raise ModelError(f"sell-model marks must lie in (-1, 0]; got {bad}")
    initial_law = initial_law if initial_law is not None else InitialLaw("point", 1.0)
    return ModelSpec("sell", levy, initial_law, a1=alpha0, b1=sigma1, s1=sigma2, j1=1.0,
                     rho=rho, cost=a)


def make_quit_model(
    sigma1: float,
    sigma2: float,
    gamma0: float = 0.0,
    intensity: float = 0.0,
    rho: float = 1.0,
    initial_law: InitialLaw | None = None,
) -> ModelSpec:
    """Constant-coefficient, zero-drift dynamics, earning the mean until quitting."""
    if sigma1 == 0:
        raise ModelError("quit model requires sigma1 != 0")
    if not rho > 0:
        raise ModelError("discount rate rho must be > 0")
    levy = constant_mark(intensity, gamma0) if intensity > 0 else LevyMeasureSpec(intensity)
    initial_law = initial_law if initial_law is not None else InitialLaw("point", 0.0)
    return ModelSpec("quit", levy, initial_law, b0=sigma1, s0=sigma2, j0=1.0, rho=rho)
