import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from mvstop.model import (
    InitialLaw,
    LevyMeasureSpec,
    ModelError,
    ModelSpec,
    constant_mark,
    discrete_marks,
    make_quit_model,
    make_sell_model,
    no_jumps,
)
from mvstop.particle import Clouds, step


def _jump_step(spec, n, rng):
    """Each particle's increment over one ``step`` (dt 0.1) of a quit model's
    zero cloud, with the diffusions switched off: the compensated jumps alone."""
    clouds = Clouds(replace(spec, s0=0.0, s1=0.0), n, [rng])
    step(clouds, 0.1, np.zeros(1))
    return clouds.states()[0]


class TestInitialLaw:
    def test_point_mass(self):
        law = InitialLaw("point", 2.5)
        assert law.mean == 2.5
        assert np.all(law.sample(np.random.default_rng(0), 7) == 2.5)

    def test_normal_moments(self):
        law = InitialLaw("normal", 1.0, 0.5)
        draws = law.sample(np.random.default_rng(1), 200_000)
        assert abs(draws.mean() - 1.0) < 0.01
        assert abs(draws.std() - 0.5) < 0.01

    def test_lognormal_mean(self):
        law = InitialLaw("lognormal", 0.0, 0.3)
        # E[exp(N(0, 0.3^2))] = exp(0.3^2 / 2)
        assert law.mean == pytest.approx(math.exp(0.045))
        draws = law.sample(np.random.default_rng(2), 200_000)
        assert abs(draws.mean() - law.mean) < 0.01

    def test_invalid(self):
        with pytest.raises(ModelError):
            InitialLaw("uniform", 0.0, 1.0)
        with pytest.raises(ModelError):
            InitialLaw("normal", 0.0, -1.0)

    @pytest.mark.parametrize("kind,loc,scale", [("normal", 0.0, math.nan),
                                                ("point", math.inf, 0.0),
                                                ("lognormal", math.nan, 0.1)],
                             ids=["nan_scale", "inf_loc", "nan_loc"])
    def test_non_finite_parameters(self, kind, loc, scale):
        # a NaN scale is not below 0, yet every draw from it is NaN
        with pytest.raises(ModelError, match="loc and scale must be finite"):
            InitialLaw(kind, loc, scale)


class TestLevyMeasure:
    def test_discrete_marks_moments(self):
        levy = discrete_marks(2.0, [-0.1, -0.3], [0.5, 0.5])
        assert levy.atoms == ((-0.1, 0.5), (-0.3, 0.5))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelError):
            discrete_marks(1.0, [-0.1, -0.2], [0.6, 0.6])

    @pytest.mark.parametrize("probs", [[1.5, -0.5], [math.nan, math.nan]],
                             ids=["outside", "nan"])
    def test_probabilities_must_lie_in_the_unit_interval(self, probs):
        # [1.5, -0.5] sums to 1, yet sample_marks would draw -0.1 every time while
        # expected_jump_amp compensates -0.05; a NaN sum is not off 1 by more than 1e-12
        for build in (lambda: discrete_marks(0.5, [-0.1, -0.2], probs),
                      lambda: LevyMeasureSpec(0.5, ((-0.1, probs[0]), (-0.2, probs[1])))):
            with pytest.raises(ModelError, match=r"mark probabilities must lie in \[0, 1\]"):
                build()

    def test_active_jumps_need_marks(self):
        with pytest.raises(ModelError):
            LevyMeasureSpec(intensity=1.0)
        with pytest.raises(ModelError):
            constant_mark(1.0, math.inf)

    def test_sample_marks_distribution(self):
        levy = discrete_marks(1.0, [-0.1, -0.3], [0.25, 0.75])
        marks = levy.sample_marks(np.random.default_rng(3), 100_000)
        assert set(np.unique(marks)) == {-0.3, -0.1}
        assert abs((marks == -0.1).mean() - 0.25) < 0.01

    def test_no_jumps_increment(self):
        spec = make_quit_model(0.3, 0.1)
        assert spec.levy == no_jumps()
        draws = _jump_step(spec, 5, np.random.default_rng(0))
        assert np.all(draws == 0.0)

    def test_compensated_increment_is_centred(self):
        # a zero cloud of the quit model: one compensated increment per particle
        spec = make_quit_model(0.3, 0.1, gamma0=-0.2, intensity=5.0)
        rng = np.random.default_rng(4)
        draws = _jump_step(spec, 50_000, rng)
        # mean 0, variance dt * intensity * E[mark^2] = 0.02
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 0.02) < 0.002


class TestModelFamilies:
    def test_sell_coefficients_load_on_conditional_mean(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        assert spec.drift(2.0) == pytest.approx(0.2)
        assert spec.diffusion_common(2.0) == pytest.approx(0.6)
        assert spec.diffusion_idio(2.0) == pytest.approx(0.4)
        assert spec.jump_amp(2.0, -0.1) == pytest.approx(-0.2)

    def test_sell_rejects_bad_params(self):
        with pytest.raises(ModelError):
            make_sell_model(0.1, 0.0, 0.2, 0.2, 1.0)
        with pytest.raises(ModelError):
            make_sell_model(0.1, 0.3, -0.1, 0.2, 1.0)

    def test_sell_rejects_marks_outside_range(self):
        with pytest.raises(ModelError):
            make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(1.0, 0.5))
        with pytest.raises(ModelError):
            make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(1.0, -1.0))
        # boundary value 0 is allowed, -1 is not
        make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(1.0, 0.0))

    def test_quit_coefficients_constant(self):
        spec = make_quit_model(0.3, 0.1)
        assert spec.drift(5.0) == 0.0
        assert spec.diffusion_common(5.0) == 0.3

    def test_quit_rejects_zero_common_noise(self):
        with pytest.raises(ModelError):
            make_quit_model(0.0, 0.1)

    def test_makers_check_the_problem(self):
        # the discount rate and the transaction cost live on the spec
        sell, quit_ = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0), make_quit_model(0.3, 0.1)
        assert (sell.rho, sell.cost, quit_.rho, quit_.cost) == (0.2, 1.0, 1.0, 0.0)
        for args, message in [((0.1, 0.3, 0.2, 0.0, 1.0), "rho must be > 0"),
                              ((0.1, 0.3, 0.2, 0.2, 0.0), "cost a must be > 0"),
                              ((0.2, 0.3, 0.2, 0.2, 1.0), "alpha0 < rho")]:
            with pytest.raises(ModelError, match=message):
                make_sell_model(*args)
        with pytest.raises(ModelError, match="rho must be > 0"):
            make_quit_model(0.3, 0.1, rho=-0.2)

    @pytest.mark.parametrize("family,name,value,param,message", [
        ("sell", "b1", 0.0, "sigma1", "sell model requires sigma1 > 0"),
        ("sell", "b1", -0.3, "sigma1", "sell model requires sigma1 > 0"),
        ("sell", "rho", 0.0, "rho", "discount rate rho must be > 0"),
        ("sell", "cost", 0.0, "a", "transaction cost a must be > 0"),
        ("sell", "a1", 0.2, "alpha0", "sell model requires alpha0 < rho"),
        ("sell", "a1", 0.3, "alpha0", "sell model requires alpha0 < rho"),
        ("sell", "s1", -0.2, "sigma2", "sell model requires sigma2 >= 0"),
        ("sell", "levy", constant_mark(1.0, 0.5), "levy",
         "sell-model marks must lie in (-1, 0]; got [0.5]"),
        ("sell", "levy", constant_mark(1.0, -1.0), "levy",
         "sell-model marks must lie in (-1, 0]; got [-1.0]"),
        ("sell", "initial_law", InitialLaw("point", 0.0), "initial_law",
         "the initial mean (m0) must lie in the sell state space, got 0.0"),
        ("quit", "b0", 0.0, "sigma1", "quit model requires sigma1 != 0"),
        ("quit", "rho", 0.0, "rho", "discount rate rho must be > 0"),
        ("quit", "rho", -0.2, "rho", "discount rate rho must be > 0"),
    ], ids=["sell_sigma1_0", "sell_sigma1_neg", "sell_rho_0", "sell_cost_0", "sell_alpha0_rho",
            "sell_alpha0_above_rho", "sell_sigma2_neg", "sell_mark_pos", "sell_mark_minus1",
            "sell_start_0", "quit_sigma1_0", "quit_rho_0", "quit_rho_neg"])
    def test_the_spec_rejects_what_the_makers_reject(self, family, name, value, param,
                                                     message):
        # a spec built by hand or by replace once skipped the makers' checks: a quit b0 or
        # rho of 0 reached quit_threshold as a ZeroDivisionError
        if family == "sell":
            maker, args = make_sell_model, {"alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
                                            "rho": 0.2, "a": 1.0}
        else:
            maker, args = make_quit_model, {"sigma1": 0.3, "sigma2": 0.1}
        spec = maker(**args)
        for build in (lambda: maker(**{**args, param: value}),
                      lambda: replace(spec, **{name: value}),
                      lambda: ModelSpec(**{**vars(spec), name: value})):
            with pytest.raises(ModelError, match=re.escape(message)):
                build()

    def test_negative_intensity_is_rejected(self):
        # it used to mean "no jumps"
        with pytest.raises(ModelError, match="jump intensity must be >= 0"):
            make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=-0.5)
        with pytest.raises(ModelError, match="jump intensity must be >= 0"):
            LevyMeasureSpec(intensity=math.nan)
        with pytest.raises(ModelError, match="jump intensity must be >= 0 and finite, got inf"):
            make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=math.inf)

    def test_expected_jump_amp_uses_atoms(self):
        levy = discrete_marks(1.0, [-0.1, -0.3], [0.5, 0.5])
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, levy)
        assert spec.expected_jump_amp(3.0) == pytest.approx(-0.6)

    @pytest.mark.parametrize("family", ["sell", "quit"])
    def test_spec_roundtrip(self, family):
        # worker pools send the spec to their processes by pickling it
        if family == "sell":
            spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(0.5, -0.2))
        else:
            spec = make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=0.5)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.drift(1.3) == spec.drift(1.3)

    @pytest.mark.parametrize("make,name", [
        (lambda: make_quit_model(sigma1=math.nan, sigma2=0.1), "b0"),
        (lambda: make_quit_model(0.3, 0.1, rho=math.inf), "rho"),
        (lambda: make_sell_model(math.nan, 0.3, 0.2, 0.2, 1.0), "a1"),
        (lambda: make_sell_model(0.1, 0.3, 0.2, 0.2, math.inf), "cost"),
        (lambda: ModelSpec("quit", no_jumps(), InitialLaw("point", 0.0), b0=0.3, s1=math.nan),
         "s1"),
    ], ids=["quit_sigma1", "quit_rho", "sell_alpha0", "sell_cost", "spec_s1"])
    def test_non_finite_numbers_are_rejected(self, make, name):
        # every comparison the makers reject on is False for NaN, and most are for inf
        with pytest.raises(ModelError, match=f"must be finite, got {{'{name}'"):
            make()

    @pytest.mark.parametrize("name,value", [("a0", 0.5), ("b0", 0.3)])
    def test_sell_rejects_the_terms_its_reduction_drops(self, name, value):
        # sell's conditional mean is read as a1 m and b1 m: particle mode moved m_bar by
        # an a0 that the closed form, fast mode and the oracle ignored
        with pytest.raises(ModelError, match=f"a sell spec has no {name} term"):
            ModelSpec("sell", no_jumps(), InitialLaw("point", 1.0), a1=0.1, b1=0.3, s1=0.2,
                      j1=1.0, rho=0.2, cost=1.0, **{name: value})

    @pytest.mark.parametrize("name", ["a0", "a1", "b1"])
    def test_quit_rejects_the_terms_its_reduction_drops(self, name):
        # quit's conditional mean is read as b0 alone: its closed forms and fast mode's
        # potential assume no drift
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        with pytest.raises(ModelError, match=f"a quit spec has no {name} term"):
            replace(spec, **{name: 0.05})

    def test_only_shipped_families(self):
        with pytest.raises(ModelError, match="'sell' or 'quit'"):
            ModelSpec("custom", no_jumps(), InitialLaw("point", 0.0), b0=0.3)
