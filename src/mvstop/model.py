"""Model declarations for conditional mean-field jump diffusions.

The supported dynamics are one-dimensional with one common Brownian driver,
one idiosyncratic Brownian driver and a finite-activity compound Poisson
jump part.  Coefficients may depend on the conditional law only through its
first moment ``m_bar``; the two shipped families ("sell" and "quit") cover
everything the rest of the package needs, but custom coefficient callables
are accepted as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "loc": self.loc, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "InitialLaw":
        return cls(**d)


# ---------------------------------------------------------------------------
# jump part


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite-activity compound Poisson description of the jump marks.

    ``intensity`` is the event rate per unit time; ``sampler(rng, size)``
    draws i.i.d. marks.  ``atoms`` lists ``(value, probability)`` pairs when
    the mark distribution is discrete; the Fokker-Planck jump term and the
    exact compensator both require it.
    """

    intensity: float
    mark_mean: float = 0.0
    mark_second_moment: float = 0.0
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise ModelError("jump intensity must be >= 0")
        if not math.isfinite(self.mark_second_moment):
            raise ModelError("mark second moment must be finite")
        if self.intensity > 0 and self.sampler is None and self.atoms is None:
            raise ModelError("active jumps need a mark sampler or atoms")

    def sample_marks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.empty(0)
        if self.sampler is not None:
            return np.asarray(self.sampler(rng, size), dtype=float)
        values = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        return rng.choice(values, size=size, p=probs)

    def to_dict(self) -> dict:
        if self.intensity > 0 and self.atoms is None:
            raise ModelError("only atom-based jump measures are serializable")
        return {
            "intensity": self.intensity,
            "mark_mean": self.mark_mean,
            "mark_second_moment": self.mark_second_moment,
            "atoms": [list(a) for a in self.atoms] if self.atoms else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LevyMeasureSpec":
        atoms = d.get("atoms")
        if d["intensity"] == 0:
            return no_jumps()
        return discrete_marks(d["intensity"], [a[0] for a in atoms], [a[1] for a in atoms])


def no_jumps() -> LevyMeasureSpec:
    return LevyMeasureSpec(intensity=0.0)


def discrete_marks(intensity: float, values, probs) -> LevyMeasureSpec:
    values = [float(v) for v in values]
    probs = [float(p) for p in probs]
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ModelError("mark probabilities must sum to 1")
    mean = sum(v * p for v, p in zip(values, probs))
    second = sum(v * v * p for v, p in zip(values, probs))
    return LevyMeasureSpec(
        intensity=intensity,
        mark_mean=mean,
        mark_second_moment=second,
        atoms=tuple(zip(values, probs)),
    )


def constant_mark(intensity: float, value: float) -> LevyMeasureSpec:
    return discrete_marks(intensity, [value], [1.0])


# ---------------------------------------------------------------------------
# model spec


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of the state equation, plus jump and initial data.

    Coefficient callables take ``(t, x, m_bar)`` with numpy broadcasting;
    ``jump_amp`` takes ``(t, x, m_bar, mark)``.  ``family`` is ``"sell"``,
    ``"quit"`` or ``"custom"``; the first two carry their scalar parameters
    in ``params`` so simulation fast paths and serialization can use them.
    """

    drift: Callable
    diffusion_common: Callable
    diffusion_idio: Callable
    jump_amp: Callable
    levy: LevyMeasureSpec
    initial_law: InitialLaw
    label: str = "custom"
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def expected_jump_amp(self, t, x, m_bar):
        """Mark-expectation of ``jump_amp`` (needs atom-based marks)."""
        if self.levy.intensity == 0:
            return 0.0
        if self.levy.atoms is None:
            # affine-in-mark fallback, exact for both shipped families
            return self.jump_amp(t, x, m_bar, self.levy.mark_mean)
        total = 0.0
        for value, prob in self.levy.atoms:
            total = total + prob * self.jump_amp(t, x, m_bar, value)
        return total

    def to_dict(self) -> dict:
        if self.family not in ("sell", "quit"):
            raise ModelError("only shipped model families are serializable")
        return {
            "family": self.family,
            "params": dict(self.params),
            "levy": self.levy.to_dict(),
            "initial_law": self.initial_law.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        law = InitialLaw.from_dict(d["initial_law"])
        p = d["params"]
        if d["family"] == "sell":
            return make_sell_model(
                p["alpha0"], p["sigma1"], p["sigma2"],
                LevyMeasureSpec.from_dict(d["levy"]), law,
            )
        if d["family"] == "quit":
            return make_quit_model(
                p["sigma1"], p["sigma2"], p["gamma0"], p["intensity"], law,
            )
        raise ModelError(f"unknown family {d['family']!r}")


def _check_sell_marks(levy: LevyMeasureSpec) -> None:
    if levy.intensity == 0:
        return
    if levy.atoms is not None:
        bad = [v for v, _ in levy.atoms if not (-1.0 < v <= 0.0)]
        if bad:
            raise ModelError(f"sell-model marks must lie in (-1, 0]; got {bad}")
        return
    probe = levy.sample_marks(np.random.default_rng(0), 1000)
    if np.any(probe <= -1.0) or np.any(probe > 0.0):
        raise ModelError("sell-model marks must lie in (-1, 0]")


SELL_FLOOR = 1e-12  # sell-family particle clouds are clamped here to stay positive


def make_sell_model(
    alpha0: float,
    sigma1: float,
    sigma2: float,
    levy: LevyMeasureSpec | None = None,
    initial_law: InitialLaw | None = None,
) -> ModelSpec:
    """Geometric conditional-mean dynamics: every coefficient loads on m_bar."""
    if sigma1 <= 0:
        raise ModelError("sell model requires sigma1 > 0")
    if sigma2 < 0:
        raise ModelError("sell model requires sigma2 >= 0")
    levy = levy if levy is not None else no_jumps()
    _check_sell_marks(levy)
    initial_law = initial_law if initial_law is not None else InitialLaw("point", 1.0)
    return ModelSpec(
        drift=lambda t, x, m: alpha0 * m,
        diffusion_common=lambda t, x, m: sigma1 * m,
        diffusion_idio=lambda t, x, m: sigma2 * m,
        jump_amp=lambda t, x, m, z: z * m,
        levy=levy,
        initial_law=initial_law,
        label="sell",
        family="sell",
        params={"alpha0": alpha0, "sigma1": sigma1, "sigma2": sigma2},
    )


def make_quit_model(
    sigma1: float,
    sigma2: float,
    gamma0: float = 0.0,
    intensity: float = 0.0,
    initial_law: InitialLaw | None = None,
) -> ModelSpec:
    """Constant-coefficient, zero-drift dynamics."""
    if sigma1 == 0:
        raise ModelError("quit model requires sigma1 != 0")
    levy = constant_mark(intensity, gamma0) if intensity > 0 else no_jumps()
    initial_law = initial_law if initial_law is not None else InitialLaw("point", 0.0)
    return ModelSpec(
        drift=lambda t, x, m: 0.0,
        diffusion_common=lambda t, x, m: sigma1,
        diffusion_idio=lambda t, x, m: sigma2,
        jump_amp=lambda t, x, m, z: z,
        levy=levy,
        initial_law=initial_law,
        label="quit",
        family="quit",
        params={
            "sigma1": sigma1,
            "sigma2": sigma2,
            "gamma0": gamma0,
            "intensity": intensity,
        },
    )
