import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mvstop import stopping
from mvstop.model import InitialLaw, constant_mark, make_quit_model, make_sell_model
from mvstop.particle import CommonNoisePath
from mvstop.stopping import (
    SimConfig,
    StoppingRule,
    _first_stop,
    _run_rules,
    conditional_mean_oracle,
    dynkin_residual,
    evaluate_rule_mc,
    lambda_roots,
    quit_candidate,
    quit_payoff,
    quit_potential,
    quit_smooth_fit_residuals,
    quit_threshold,
    rule_value,
    sell_candidate,
    sell_payoff,
    sell_threshold,
    threshold_sweep,
)

# frozen oracles: quadratic roots via numpy.roots, smooth-fit system solved
# by hand for (alpha0, sigma1, rho, a) = (0.1, 0.3, 0.2, 1) and
# (sigma1, rho) = (0.3, 0.2)
LAM1 = 1.58386069612649
LAM2 = -2.8060829183487126
XI_STAR = 2.7127373132569206
SELL_VALUE_0_1 = 0.35256019098655206
SELL_VALUE_HALF_2 = 0.9562983425532656
QUIT_LAM = 2.1081851067789197
QUIT_ETA = -0.4743416490252569
QUIT_C1 = 0.8725027038387596
QUIT_VALUE_1_HALF = 2.295782142205067


class TestSellClosedForm:
    def test_lambda_roots_frozen(self):
        lam2, lam1 = lambda_roots(0.1, 0.3, 0.2)
        assert lam1 == pytest.approx(LAM1, rel=1e-12)
        assert lam2 == pytest.approx(LAM2, rel=1e-12)

    def test_root_ordering(self):
        lam2, lam1 = lambda_roots(0.05, 0.5, 0.3)
        assert lam2 < 0 < 1 < lam1

    def test_threshold_frozen(self):
        assert sell_threshold(LAM1, 1.0) == pytest.approx(XI_STAR, rel=1e-12)

    def test_threshold_needs_supercritical_root(self):
        with pytest.raises(ValueError):
            sell_threshold(0.9, 1.0)

    def test_value_frozen(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        value = sell_candidate(spec).value
        assert value(0.0, 1.0) == pytest.approx(SELL_VALUE_0_1, rel=1e-12)
        assert value(0.5, 2.0) == pytest.approx(SELL_VALUE_HALF_2, rel=1e-12)
        assert value(0.0, 5.0) == pytest.approx(4.0, rel=1e-12)

    def test_value_continuous_at_threshold(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        eps = 1e-9
        below = sell_candidate(spec).value(0.3, XI_STAR - eps)
        above = sell_candidate(spec).value(0.3, XI_STAR + eps)
        assert abs(below - above) < 1e-8

    def test_value_needs_positive_mean(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        with pytest.raises(ValueError):
            sell_candidate(spec).value(0.0, -1.0)

    def test_every_value_guards_its_domain(self):
        # z = 0 is outside the sell domain; a capped row, the Dynkin start and the CLI's
        # reference all read the candidate, as rule_value returns it
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        cap = rule_value(spec, StoppingRule("threshold_up", threshold=2.7), "cap_payoff")
        for value in (sell_candidate(spec).value, cap.value):
            with pytest.raises(ValueError, match="the state must lie above 0.0"):
                value(0.0, 0.0)

    def test_params_preconditions(self):
        with pytest.raises(ValueError):
            make_sell_model(0.3, 0.3, 0.2, 0.2, 1.0)   # alpha0 >= rho
        with pytest.raises(ValueError):
            make_sell_model(0.1, 0.3, 0.2, 0.2, -1.0)

    @pytest.mark.parametrize("xi", [0.0, -1.0])
    def test_threshold_must_be_positive(self, xi):
        # 0 divided by zero in the candidate and -1 made its power complex
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        with pytest.raises(ValueError, match="sell threshold must be > 0"):
            sell_candidate(spec, xi)


class TestQuitClosedForm:
    def test_threshold_frozen(self):
        lam, eta, c1 = quit_threshold(make_quit_model(0.3, 0.1, rho=0.2))
        assert lam == pytest.approx(QUIT_LAM, rel=1e-12)
        assert eta == pytest.approx(QUIT_ETA, rel=1e-12)
        assert c1 == pytest.approx(QUIT_C1, rel=1e-12)

    def test_unit_decay_case(self):
        # sigma1 = sqrt(2), rho = 1 gives lam = 1, eta = -1, C1 = 1/e
        lam, eta, c1 = quit_threshold(make_quit_model(math.sqrt(2.0), 0.0, rho=1.0))
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert eta == pytest.approx(-1.0, rel=1e-12)
        assert c1 == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_smooth_fit_residuals_vanish(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        _, eta, c1 = quit_threshold(spec)
        cont, slope = quit_smooth_fit_residuals(spec, eta, c1)
        assert abs(cont) < 1e-14
        assert abs(slope) < 1e-14

    def test_value_frozen(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        value = quit_candidate(spec).value
        assert value(0.0, 0.0) == pytest.approx(QUIT_C1, rel=1e-12)
        assert value(1.0, 0.5) == pytest.approx(QUIT_VALUE_1_HALF, rel=1e-12)
        assert value(0.0, QUIT_ETA - 0.5) == 0.0


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_closed_forms_need_their_own_family(family):
    other = (make_quit_model(0.3, 0.1, rho=0.2) if family == "sell"
             else make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0))
    forms = ([sell_payoff, sell_candidate] if family == "sell" else
             [quit_payoff, quit_candidate, quit_threshold,
              lambda spec: quit_smooth_fit_residuals(spec, QUIT_ETA, QUIT_C1)])
    for form in forms:
        with pytest.raises(ValueError, match=f"the {family} problem needs a {family} spec"):
            form(other)


def test_conditional_mean_oracle_matches_formula():
    common = CommonNoisePath.sample(1.0, 0.01, np.random.default_rng(0))
    sell = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 2.0))
    t = common.times()
    expect = 2.0 * np.exp((0.1 - 0.045) * t + 0.3 * common.brownian())
    np.testing.assert_allclose(conditional_mean_oracle(sell, common), expect)
    quit_ = make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.5))
    np.testing.assert_allclose(
        conditional_mean_oracle(quit_, common), 0.5 + 0.3 * common.brownian()
    )


def test_conditional_mean_oracle_needs_a_start_in_its_state_space():
    # the sell path is m0 e^{y}: a start m0 <= 0 has no y, and once read as an all-zero path
    common = CommonNoisePath.sample(0.05, 0.01, np.random.default_rng(0))
    sell = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", -1.0))
    with pytest.raises(ValueError, match=r"the initial mean \(m0\) must lie in the sell state "
                                         r"space, got -1.0"):
        conditional_mean_oracle(sell, common)


class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StoppingRule("whenever")

    def test_threshold_required(self):
        with pytest.raises(ValueError):
            StoppingRule("threshold_up")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=-1e-3, replications=10, seed=0, t_max=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, replications=10, seed=0, t_max=1.0, mode="magic")
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(dt=1e-3, replications=10, seed=0, t_max=1.0, batch_size=0)
        with pytest.raises(ValueError, match="n_particles"):
            SimConfig(dt=1e-3, replications=10, seed=0, t_max=1.0, mode="particle",
                      n_particles=0)
        with pytest.raises(ValueError, match="unknown cap_payoff 'zero'"):
            SimConfig(dt=1e-3, replications=10, seed=0, t_max=1.0, cap_payoff="zero")
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SimConfig(dt=1e-3, replications=10, seed=-1, t_max=1.0)

    def test_one_replication_has_no_standard_error(self):
        # it was reported as 0, an exact estimate, and a Dynkin check's 3-SE limit of 0
        with pytest.raises(ValueError, match=r"replications >= 2 \(one replication has no "
                                             r"standard error\)"):
            SimConfig(dt=1e-3, replications=1, seed=0, t_max=1.0)
        assert evaluate_rule_mc(make_quit_model(0.3, 0.1), StoppingRule("never"),
                                SimConfig(dt=0.1, replications=2, seed=0, t_max=1.0)
                                ).std_error > 0

    @pytest.mark.parametrize("rule", [StoppingRule("never"),
                                      StoppingRule("fixed_time", fixed_time=0.5),
                                      StoppingRule("threshold_down", threshold=0.5)],
                             ids=["never", "fixed_time", "against_the_direction"])
    def test_value_cap_needs_a_rule_with_a_closed_form(self, rule):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=10, seed=0, t_max=1.0, cap_payoff="value")
        with pytest.raises(ValueError, match=f'cap_payoff "value" needs a threshold_up rule, '
                                             f'the kind of the sell closed form; got {rule.kind}'):
            evaluate_rule_mc(spec, rule, cfg)


class TestOffGridTimes:
    """A time the engine would round to the nearest step ``dt`` is rejected."""

    def test_fixed_time(self):
        spec = make_quit_model(0.3, 0.1)
        cfg = SimConfig(dt=0.1, replications=10, seed=0, t_max=1.0)
        with pytest.raises(ValueError, match="fixed_time must be a whole multiple of dt; "
                                             "0.25 is 2.5 steps of 0.1"):
            _run_rules(spec, [StoppingRule("fixed_time", fixed_time=0.25)], cfg)

    def test_fixed_time_past_t_max(self):
        # every path is capped at t_max before the rule could fire
        spec = make_quit_model(0.3, 0.1)
        cfg = SimConfig(dt=0.01, replications=50, seed=0, t_max=2.0)
        with pytest.raises(ValueError, match="rule.fixed_time 5.0 is past t_max 2.0"):
            evaluate_rule_mc(spec, StoppingRule("fixed_time", fixed_time=5.0), cfg)

    def test_t_max(self):
        with pytest.raises(ValueError, match="t_max must be a whole multiple of dt; "
                                             "0.5 is 1.66667 steps of 0.3"):
            SimConfig(dt=0.3, replications=10, seed=0, t_max=0.5)

    def test_dynkin_delta(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2, initial_law=InitialLaw("point", 0.3))
        cfg = SimConfig(dt=0.3, replications=10, seed=0, t_max=0.6)
        with pytest.raises(ValueError, match="t_max must be a whole multiple of dt"):
            dynkin_residual(spec, replace(cfg, t_max=0.5))

    def test_on_grid_up_to_rounding(self):
        # 0.3 / 0.1 is 2.9999999999999996 in binary floating point; a nearly still
        # quit mean at 1 earns e^{-t} dt at each of the three left points, not two
        cfg = SimConfig(dt=0.1, replications=10, seed=0, t_max=0.3)
        spec = make_quit_model(1e-9, 0.1, initial_law=InitialLaw("point", 1.0))
        [est] = _run_rules(spec, [StoppingRule("fixed_time", fixed_time=0.3)], cfg)
        assert est.mean == pytest.approx(0.1 * sum(math.exp(-0.1 * k) for k in range(3)))


class TestMonteCarlo:
    def test_fixed_time_sell_matches_expectation(self):
        # exact log-normal scheme: E[m_t] = m0 e^{alpha0 t} at any dt
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=40_000, seed=21, t_max=1.0)
        est = evaluate_rule_mc(spec, StoppingRule("fixed_time", fixed_time=0.5), cfg)
        expect = math.exp(-0.2 * 0.5) * (math.exp(0.1 * 0.5) - 1.0)
        assert abs(est.mean - expect) < 4 * est.std_error
        assert est.truncation_fraction == 0.0

    def test_fixed_time_quit_running_profit_centred(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        cfg = SimConfig(dt=0.01, replications=40_000, seed=22, t_max=1.0)
        est = evaluate_rule_mc(spec, StoppingRule("fixed_time", fixed_time=1.0), cfg)
        # running profit has conditional mean 0 along every path
        assert abs(est.mean) < 4 * est.std_error

    def test_immediate_trigger(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 3.0))
        cfg = SimConfig(dt=0.01, replications=64, seed=0, t_max=1.0)
        est = evaluate_rule_mc(spec, StoppingRule("threshold_up", threshold=2.0), cfg)
        assert est.mean == pytest.approx(2.0)   # g(0, 3.0) = 3 - 1 = 2
        assert est.std_error == 0.0

    def test_constant_payoff_over_uneven_batches(self):
        # g(0, 1.2) is not a short binary fraction; ten batches, the last of one row
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 1.2))
        cfg = SimConfig(dt=0.01, replications=64, seed=0, t_max=1.0, batch_size=7)
        est = evaluate_rule_mc(spec, StoppingRule("threshold_up", threshold=1.1), cfg)
        assert est.mean == pytest.approx(0.2)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("start,t_max", [(1.0, 0.5), (2.0, 0.0)],
                             ids=["capped", "cap_at_0"])
    @pytest.mark.parametrize("mode", ["fast", "particle"])
    def test_never_rule_with_zero_cap_payoff(self, mode, start, t_max):
        # a never rule caps every row, also at t_max 0, and each pays the bequest
        # e^{-rho t_max} (m - a) there, whose mean is the closed form below
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", start))
        cfg = SimConfig(dt=0.01, replications=64, seed=0, t_max=t_max, mode=mode,
                        n_particles=100)
        est = evaluate_rule_mc(spec, StoppingRule("never"), cfg)
        assert est.truncation_fraction == 1.0
        expect = math.exp(-0.2 * t_max) * (start * math.exp(0.1 * t_max) - 1.0)
        assert abs(est.mean - expect) <= 4 * est.std_error  # exact at t_max 0

    @pytest.mark.parametrize("mode", ["fast", "particle"])
    def test_standard_error_does_not_depend_on_batching(self, mode):
        # the pairwise merge of per-batch (count, mean, M2) is exact up to rounding;
        # in particle mode rows stop at different steps, so the source compacts
        # its state matrix at different times in each batching
        if mode == "fast":
            spec = make_quit_model(0.3, 0.1, rho=0.2)
            rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
            cfg = SimConfig(dt=0.01, replications=400, seed=4, t_max=5.0)
        else:
            spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(0.5, -0.2))
            rule = StoppingRule("threshold_up", threshold=1.3)
            cfg = SimConfig(dt=0.05, replications=40, seed=4, t_max=3.0, mode="particle",
                            n_particles=50)
        one, many = (
            evaluate_rule_mc(spec, rule, replace(cfg, batch_size=size))
            for size in (cfg.replications, 7)
        )
        assert 0 < one.truncation_fraction < 1
        assert many.std_error == pytest.approx(one.std_error, rel=1e-12)
        assert (many.mean, many.truncation_fraction) == pytest.approx(
            (one.mean, one.truncation_fraction), rel=1e-12)

    def test_same_seed_reproduces_exactly(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        cfg = SimConfig(dt=0.01, replications=2000, seed=5, t_max=5.0)
        rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
        a = evaluate_rule_mc(spec, rule, cfg)
        b = evaluate_rule_mc(spec, rule, cfg)
        assert a == b

    def test_common_random_numbers_across_thresholds(self):
        # duplicated threshold in one sweep must give identical estimates
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=2000, seed=6, t_max=20.0)
        sweep = threshold_sweep(spec, [2.5, 3.0, 2.5], cfg)
        assert sweep.estimates[0] == sweep.estimates[2]

    def test_a_quit_sweep_quits_when_the_mean_falls(self):
        # a sweep's direction is the family's: swept upward, every quit path stopped at
        # time 0 and each row read 0.0 +- 0.0, with the argmax at the lowest threshold
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        cfg = SimConfig(dt=0.01, replications=2000, seed=5, t_max=60.0)
        sweep = threshold_sweep(spec, [QUIT_ETA - 0.1, QUIT_ETA, QUIT_ETA + 0.1], cfg)
        assert sweep.argmax_threshold == QUIT_ETA
        for est in sweep.estimates:
            assert est.mean > 0.7 and est.std_error > 0

    def test_worker_pool_matches_serial(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
        base = dict(dt=0.01, replications=3000, seed=7, t_max=5.0, batch_size=700)
        serial = evaluate_rule_mc(spec, rule, SimConfig(**base, workers=1))
        pooled = evaluate_rule_mc(spec, rule, SimConfig(**base, workers=3))
        assert serial == pooled

    def test_particle_mode_small_run(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.02, replications=50, seed=9, t_max=2.0, mode="particle",
                        n_particles=200)
        est = evaluate_rule_mc(spec, StoppingRule("fixed_time", fixed_time=1.0), cfg)
        expect = math.exp(-0.2) * (math.exp(0.1) - 1.0)
        assert abs(est.mean - expect) < max(4 * est.std_error, 0.02)


def test_dynkin_residual_needs_a_continuation_start():
    # a start on or past the threshold stops every path at time 0: residual 0, nothing checked
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    candidate = sell_candidate(spec)
    cfg = SimConfig(dt=0.01, replications=10, seed=0, t_max=0.5)
    for start in (candidate.threshold, 5.0):
        at = replace(spec, initial_law=InitialLaw("point", start))
        with pytest.raises(ValueError, match="start inside the continuation region"):
            dynkin_residual(at, replace(cfg, t_max=0.5))


def test_dynkin_residual_needs_a_step(monkeypatch):
    # with no step every path ends where it starts, so nothing would be checked
    monkeypatch.setattr(stopping, "_batch", lambda *a, **k: pytest.fail("a batch ran"))
    spec = make_quit_model(0.3, 0.1, rho=0.2, initial_law=InitialLaw("point", 0.3))
    for t_max, dt in [(0.0, 0.01), (1e-12, 1.0)]:  # 1e-12 is step 0 of dt 1, to 1e-9
        with pytest.raises(ValueError, match="needs a t_max of at least one step dt"):
            dynkin_residual(spec, SimConfig(dt=dt, replications=10, seed=0, t_max=t_max))


def test_dynkin_residual_small_run():
    spec = make_quit_model(0.3, 0.1, rho=0.2, initial_law=InitialLaw("point", 0.3))
    cfg = SimConfig(dt=0.005, replications=4000, seed=10, t_max=1.0)
    result = dynkin_residual(spec, replace(cfg, t_max=0.3))
    assert abs(result.residual) < 4 * result.std_error + 1e-3


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_dynkin_residual_pool_matches_serial(family):
    # the run is plain data, so the pool runs its batches as one process would
    if family == "sell":
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 1.5))
    else:
        spec = make_quit_model(0.3, 0.1, rho=0.2, initial_law=InitialLaw("point", 0.3))
    cfg = SimConfig(dt=0.01, replications=600, seed=8, t_max=0.5, batch_size=250)
    assert dynkin_residual(spec, replace(cfg, workers=2)) == dynkin_residual(spec, cfg)


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_value_cap_is_unbiased_at_a_short_horizon(family):
    # most rows are capped at t_max 2: paying the bequest there reads -81 SE (sell) and
    # -388 SE (quit) from the rule's closed-form value, paying that value reads within 1
    if family == "sell":
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        rule = StoppingRule("threshold_up", threshold=2.7)
        ref = sell_candidate(spec, 2.7).value(0.0, 1.0)
    else:
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        rule = StoppingRule("threshold_down", threshold=-0.47)
        ref = quit_candidate(spec, -0.47).value(0.0, 0.0)
    cfg = SimConfig(dt=0.01, replications=20_000, seed=7, t_max=2.0, cap_payoff="value")
    est = evaluate_rule_mc(spec, rule, cfg)
    assert est.truncation_fraction > 0.7
    assert abs(est.mean - ref) <= 3 * est.std_error


# ---------------------------------------------------------------------------
# the one-step rule scan of the time-0 check and the particle walk, against
# the full stop-flag matrix of a path

def _reference_flags(rule, y, first_step, dt):
    """Per row and column of ``y``, whether ``rule`` stops there; column 0 is ``first_step``."""
    if rule.kind == "threshold_up":
        return y >= rule.threshold
    if rule.kind == "threshold_down":
        return y <= rule.threshold
    if rule.kind == "fixed_time":
        at = first_step + np.arange(y.shape[1]) == int(round(rule.fixed_time / dt))
        return np.broadcast_to(at, y.shape)
    return np.zeros(y.shape, dtype=bool)


@pytest.mark.parametrize("seed", range(4))
def test_first_stop_matches_full_matrix_scan(seed):
    rng = np.random.default_rng(seed)
    n = 391
    y = np.round(rng.standard_normal((n, 23)).cumsum(axis=1), 1)  # ties at thresholds
    y[3, 5] = y[7, :] = np.nan
    y[11, ::2] = np.nan
    y[13, 4], y[17, 9] = np.inf, -np.inf
    dt = 0.01
    rules = [StoppingRule(kind, threshold=t) for kind in ("threshold_up", "threshold_down")
             for t in (-2.0, -0.3, 0.0, 0.5, 1.0, 2.5, 40.0)]
    rules += [StoppingRule("fixed_time", fixed_time=x) for x in (0.0, 0.05, 0.1, 0.27, 0.4)]
    rules += [StoppingRule("never")]
    subsets = [np.arange(n), np.sort(rng.choice(n, 259, replace=False)),
               np.array([7, 11, 13, 17]), np.array([], dtype=int)]
    for first_step in (0, 5):  # step 0 is the time-0 check
        for rule in rules:
            want = _reference_flags(rule, y, first_step, dt)
            for col in range(y.shape[1]):
                for rows in subsets:
                    got = _first_stop(rule, y[rows, col], first_step + col, dt)
                    np.testing.assert_array_equal(got, want[rows, col])


def _tiling_runs(sweep_batch=200, caps_batch=16384):
    sell_12 = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 1.2))
    quit_spec = make_quit_model(0.3, 0.1, rho=0.2)
    quit_rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
    # quit's running profit: 0.1 stops at time 0, lower thresholds cap rows at t_max; two batches
    sweep = threshold_sweep(quit_spec, [0.1, QUIT_ETA, -0.7, -1.0],
                            SimConfig(dt=0.01, replications=300, seed=21, t_max=6.0,
                                      batch_size=sweep_batch)).estimates
    # a capped row pays the potential and the bequest, or the potential and the rule's value
    quit_caps = tuple(
        evaluate_rule_mc(quit_spec, quit_rule,
                         SimConfig(dt=0.01, replications=300, seed=22, t_max=7.0,
                                   cap_payoff=cap, batch_size=caps_batch))
        for cap in ("stop", "value"))
    sell_sweep = threshold_sweep(sell_12, [1.1, 1.5, 2.7, 3.5],
                                 SimConfig(dt=0.01, replications=300, seed=23, t_max=6.0,
                                           batch_size=sweep_batch)).estimates
    return sweep, quit_caps, sell_sweep


@pytest.mark.parametrize("rows", [1, 5, 4096])
def test_tiling_only_reorders_rows(rows):
    # replications are tiled into batches of batch_size rows, and a row's stops and payoff
    # do not depend on its batch: only the order of the merged sums, so their rounding, moves
    default = _tiling_runs()
    sweep, quit_caps, sell_sweep = default
    for time_0 in (sweep[0], sell_sweep[0]):
        assert time_0.std_error == 0.0 and time_0.truncation_fraction == 0.0
    assert all(0 < e.truncation_fraction < 1 for e in sweep[1:] + quit_caps + sell_sweep[2:])
    for got, want in zip(sum(_tiling_runs(rows, rows), ()), sum(default, ())):
        assert (got.replications, got.truncation_fraction) == (
            want.replications, want.truncation_fraction)
        assert (got.mean, got.std_error) == pytest.approx((want.mean, want.std_error), rel=1e-12)


def test_a_particle_sweep_pays_each_rule_as_its_own_run():
    # a row runs while any rule runs it and carries one running-profit sum, which each
    # rule records where it ends the row: the sum a run of that rule alone pays there
    spec = make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=0.5, rho=0.2,
                           initial_law=InitialLaw("normal", 0.0, 0.3))
    cfg = SimConfig(dt=0.05, replications=12, seed=17, t_max=3.0, mode="particle",
                    n_particles=100, batch_size=5)
    thresholds = [-0.1, QUIT_ETA, -0.8]
    sweep = threshold_sweep(spec, thresholds, cfg).estimates
    alone = tuple(evaluate_rule_mc(spec, StoppingRule("threshold_down", threshold=t), cfg)
                  for t in thresholds)
    assert sweep == alone
    assert len({e.truncation_fraction for e in sweep}) == 3


def test_fast_mode_peak_memory_does_not_grow_with_the_batch():
    # one 4096-row batch over 512 steps: a path block and a profit block of the whole
    # batch would each be 16 MiB, and a batch-sized buffer 64 MiB each; the stop table
    # holds 13 bytes per row, and the payment one rule's arrays of one value per row
    spec = make_quit_model(0.3, 0.1, rho=0.2)
    cfg = SimConfig(dt=0.01, replications=4096, seed=0, t_max=5.12)
    tracemalloc.start()
    try:
        evaluate_rule_mc(spec, StoppingRule("threshold_down", threshold=QUIT_ETA), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fast_mode_needs_a_start_in_its_state_space():
    sell = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", -1.0))
    rule = StoppingRule("threshold_up", threshold=2.7)
    cfg = SimConfig(dt=0.01, replications=10, seed=1, t_max=1.0)
    with pytest.raises(ValueError, match="start value"):
        evaluate_rule_mc(sell, rule, cfg)


# ---------------------------------------------------------------------------
# the stop search of a fast run without running profit

def _settled(monkeypatch, run):
    """Per rule, every row's ``(hit, step, log m)`` at its end, as the stop search reports
    them to ``run()``.

    ``run`` must use one batch, so that batch rows are replications.
    """
    seen = {}
    stops = stopping._StopSearch.stops

    def record(self):
        for rule, stop in zip(self.rules, stops(self)):
            assert rule not in seen  # one batch reports each rule once
            seen[rule] = stop[2], stop[0], np.log(stop[1])
            yield stop

    with monkeypatch.context() as patch:
        patch.setattr(stopping._StopSearch, "stops", record)
        run()
    return seen


def _sell_run(spec, thresholds, monkeypatch, **cfg):
    """Per threshold of a sell ``threshold_up`` sweep, ``(hit, step, log m)`` of every row."""
    cfg = SimConfig(**cfg, batch_size=cfg["replications"])
    got = _settled(monkeypatch, lambda: threshold_sweep(spec, thresholds, cfg))
    return [got[StoppingRule("threshold_up", threshold=t)] for t in thresholds]


def _agree(a, b):
    """The means of two independent samples differ by at most 4 standard errors."""
    se = math.sqrt(a.var() / a.size + b.var() / b.size)
    return abs(a.mean() - b.mean()) <= 4 * se


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


@pytest.mark.parametrize("alpha0,seed,inverted", [(0.1, 31, 0.2), (0.045, 32, 0.05),
                                                  (0.015, 33, 0.02), (0.15, 34, 0.4)],
                         ids=["toward", "zero", "away", "strongly_toward"])
def test_stop_search_has_the_law_of_a_discrete_walk(monkeypatch, alpha0, seed, inverted):
    # log m drifts at alpha0 - sigma1^2 / 2: +0.055, 0 (to rounding), -0.03 and +0.105;
    # a coarse grid of 40 steps of 0.5 keeps discrete and continuous monitoring apart.
    # A row capped near a barrier keeps a proposal of its capped value rarely, and more
    # than the share ``inverted`` of the capped rows draw it by inversion (_killed_gap)
    n, dt, steps, sigma = 50_000, 0.5, 40, 0.3
    levels = (0.3, 0.6, 1.0)
    mu = alpha0 - 0.5 * sigma**2
    spec = make_sell_model(alpha0, sigma, 0.2, 0.2, 1.0)
    inversions = []
    gap = stopping._killed_gap

    def counted(*args):
        inversions.append(args)
        return gap(*args)

    monkeypatch.setattr(stopping, "_killed_gap", counted)
    got = _sell_run(spec, [math.exp(b) for b in levels], monkeypatch,
                    dt=dt, replications=n, seed=seed, t_max=dt * steps)
    assert len(inversions) > inverted * np.count_nonzero(~got[-1][0])
    z = np.random.default_rng(seed).standard_normal((n, steps))
    y = np.cumsum(mu * dt + sigma * math.sqrt(dt) * z, axis=1)
    t = dt * steps
    for b, (hit, step, end) in zip(levels, got):
        cross = y >= b
        ref_hit = cross.any(axis=1)
        ref_step = cross.argmax(axis=1) + 1
        ref_end = y[np.arange(n), np.where(ref_hit, ref_step - 1, steps - 1)]
        assert _agree(1.0 * ~hit, 1.0 * ~ref_hit)                   # truncation
        assert _agree(1.0 * step[hit], 1.0 * ref_step[ref_hit])     # hit step
        assert _agree(end[hit] - b, ref_end[ref_hit] - b)           # overshoot
        assert _agree(end[~hit], ref_end[~ref_hit])                 # capped value
        assert np.all(step[~hit] == steps) and np.all(end[~hit] < b)
        # a continuously monitored path misses the barrier less often
        s = sigma * math.sqrt(t)
        never = (_normal_cdf((b - mu * t) / s)
                 - math.exp(2 * mu * b / sigma**2) * _normal_cdf((-b - mu * t) / s))
        trunc = np.mean(~hit)
        assert trunc - never > 10 * math.sqrt(trunc * (1 - trunc) / n)


def test_a_shorter_t_max_keeps_every_earlier_stop(monkeypatch):
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    thresholds = [1.5, 2.2, 2.7]
    runs = [_sell_run(spec, thresholds, monkeypatch, dt=0.01, replications=500, seed=41,
                      t_max=t_max) for t_max in (5.0, 20.0)]
    for (short_hit, short_step, short_end), (hit, step, end) in zip(*runs):
        before = step <= 500
        assert 0 < before.sum() < hit.sum()
        np.testing.assert_array_equal(short_hit, hit & before)
        np.testing.assert_array_equal(short_step[short_hit], step[short_hit])
        np.testing.assert_array_equal(short_end[short_hit], end[short_hit])
        assert np.all(short_step[~short_hit] == 500)


@pytest.mark.parametrize("steps", [1, 2])
def test_stops_at_the_last_step_are_hits(monkeypatch, steps):
    # at step N a path past the threshold is stopped by the rule, not capped
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    n, dt, b = 20_000, 0.1, 0.1
    [(hit, step, end)] = _sell_run(spec, [math.exp(b)], monkeypatch,
                                   dt=dt, replications=n, seed=42, t_max=steps * dt)
    assert np.all(end[hit] >= b) and np.all(end[~hit] < b)
    assert np.all(step[~hit] == steps) and np.any(step[hit] == steps)
    if steps == 1:  # one step: P(hit) = P(mu dt + sigma sqrt(dt) Z >= b)
        p = 1 - _normal_cdf((b - 0.055 * dt) / (0.3 * math.sqrt(dt)))
        assert abs(hit.mean() - p) <= 4 * math.sqrt(p * (1 - p) / n)


class _WaldLog:
    """A generator that logs the mean-to-shape ratio of every ``wald`` draw."""

    def __init__(self, rng, ratios):
        self.rng, self.ratios = rng, ratios

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def wald(self, mean, scale):
        self.ratios.append(mean / scale)
        return self.rng.wald(mean, scale)


def test_a_drift_below_the_tolerance_is_zero(monkeypatch):
    # wald's mean a / |mu| is unresolvable at |mu| = 1e-12; such a drift takes the
    # zero-drift passage law, whose draws are the same as at a drift of exactly 0
    ratios = []
    rng = stopping._rng
    monkeypatch.setattr(stopping, "_rng", lambda: _WaldLog(rng(), ratios))
    base = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    runs = {}
    for drift in (0.0, 1e-12, -1e-12, 0.055):
        spec = replace(base, a1=0.5 * base.b1 ** 2 + drift)
        runs[drift] = _sell_run(spec, [1.5, 2.7], monkeypatch, dt=0.01, replications=300,
                                seed=43, t_max=20.0)
        if drift != 0.055:
            assert ratios == []
    assert 0 < max(ratios) <= 1 / stopping._DRIFT_TOL
    for drift in (1e-12, -1e-12):
        for (hit, step, end), (hit0, step0, end0) in zip(runs[drift], runs[0.0]):
            np.testing.assert_array_equal(hit, hit0)
            np.testing.assert_array_equal(step, step0)
            # a passage from just short of a barrier turns the drift's 2e-11 into more
            np.testing.assert_allclose(end, end0, rtol=0, atol=1e-4)
            assert 0 < hit.mean() < 1


@pytest.mark.parametrize("threshold", [0.0, -1.0])
def test_an_unreachable_threshold_caps_every_row(threshold):
    # sell's y is log m, so m <= 0 is -inf: a threshold_down there is never reached,
    # and each row pays the bequest at the free end of its path
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    cfg = SimConfig(dt=0.01, replications=4000, seed=44, t_max=2.0)
    est = evaluate_rule_mc(spec, StoppingRule("threshold_down", threshold=threshold), cfg)
    assert est.truncation_fraction == 1.0
    expect = math.exp(-0.2 * 2.0) * (math.exp(0.1 * 2.0) - 1.0)
    assert abs(est.mean - expect) < 4 * est.std_error


# ---------------------------------------------------------------------------
# a capped row's value: up to _PROPOSALS rejection proposals, then one inversion

# (z, b, t, mu, sigma) by the drift toward, zero or away from the barrier and the
# survival probability, from 0.8 down to 1e-4
KILLED_CASES = {
    "zero_0.8": (0.0, 0.64, 1.0, 0.0, 0.5),
    "toward_0.18": (0.0, 0.3, 2.0, 0.2, 0.5),
    "away_0.022": (0.0, 0.008, 4.0, -0.1, 0.3),
    "zero_0.012": (0.0, 0.009, 1.0, 0.0, 0.6),
    "toward_9e-5": (0.0, 1.0, 2.0, 2.9, 1.0),
    "away_1e-4": (0.0, 2e-4, 9.0, -0.001, 0.5),
}


def _killed_survival(d, z, b, t, mu, sigma):
    """``P(b - X_t > d, no passage of b by t)`` for the path ``X`` from ``z``, in closed form."""
    a, c, s = b - z, b - z - mu * t, sigma * math.sqrt(t)
    return (_normal_cdf((c - d) / s)
            - math.exp(2 * a * mu / sigma**2) * _normal_cdf((c - d - 2 * a) / s))


def _uncapped_killed_end(rng, z, b, t, mu, sigma):
    """The rejection loop without a cap: the capped value and its number of proposals."""
    mean, sd, var_t = z + mu * t, sigma * math.sqrt(t), sigma * sigma * t
    proposals = 0
    while True:
        proposals += 1
        end = mean + sd * rng.standard_normal()
        if end < b and rng.random() >= math.exp(-2 * (b - z) * (b - end) / var_t):
            return end, proposals


class _Calls:
    """A generator that counts the draws made through it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)

        return counted


@pytest.mark.parametrize("case", list(KILLED_CASES))
def test_the_capped_value_has_the_killed_law(case):
    # one-sample Kolmogorov-Smirnov distance to P(end <= x | no passage), under the
    # 0.1% critical value 1.95 / sqrt(n); the generator calls stay within 2 * 16 + 1
    args = KILLED_CASES[case]
    b = args[1]
    alive = _killed_survival(0.0, *args)
    assert alive == pytest.approx(float(case.split("_")[1]), rel=0.1)
    n = 3000
    rng = _Calls(np.random.default_rng(61))
    ends = []
    for _ in range(n):
        rng.calls = 0
        ends.append(stopping._killed_end(rng, *args))
        assert rng.calls <= 2 * stopping._PROPOSALS + 1
    ends = np.sort(ends)
    assert ends[-1] < b
    cdf = np.array([_killed_survival(b - end, *args) for end in ends]) / alive
    ranks = np.arange(1, n + 1)
    distance = max(np.max(ranks / n - cdf), np.max(cdf - (ranks - 1) / n))
    assert distance < 1.95 / math.sqrt(n)


def test_the_capped_value_is_the_rejection_draw_up_to_its_cap():
    # a call whose rejection loop keeps one of its first 16 proposals draws exactly what
    # the uncapped loop draws, and leaves the stream where that loop leaves it
    args = KILLED_CASES["away_0.022"]
    within = beyond = 0
    for seed in range(400):
        want, proposals = _uncapped_killed_end(np.random.default_rng(seed), *args)
        rng = np.random.default_rng(seed)
        got = stopping._killed_end(rng, *args)
        if proposals <= stopping._PROPOSALS:
            within += 1
            assert got == want
            ref = np.random.default_rng(seed)
            _uncapped_killed_end(ref, *args)
            assert rng.random() == ref.random()
        else:
            beyond += 1
    assert within > 50 and beyond > 50


def test_the_capped_value_draws_a_bounded_number_of_times():
    # at survival 1e-4 the uncapped loop makes thousands of generator calls per value
    for case in ("toward_9e-5", "away_1e-4"):
        for seed in range(100):
            rng = _Calls(np.random.default_rng(seed))
            stopping._killed_end(rng, *KILLED_CASES[case])
            assert rng.calls <= 2 * stopping._PROPOSALS + 1


@pytest.mark.parametrize("args", [
    (0.0, 0.5, 5.5, 0.1, 0.01),                # 2 a mu / sigma^2 = 1000: e^1000 overflows
    (0.0, 1.0, 100.0, 10.0, 0.1),              # a survival probability of e^-500000
    (math.nextafter(1.0, 0.0), 1.0, 100.0, 0.0, 1.0),  # one ulp below the barrier
    (0.999999, 1.0, 1e6, 1.0, 1e-4),                   # 1e-6 below it for a long time
], ids=["exp_overflow", "underflow", "one_ulp", "long_horizon"])
def test_the_capped_value_stays_below_the_barrier(args):
    b = args[1]
    rng = np.random.default_rng(62)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = [stopping._killed_end(rng, *args) for _ in range(300)]
    assert max(ends) < b and all(math.isfinite(end) for end in ends)


def test_a_run_whose_capped_values_need_a_large_exponent(monkeypatch):
    # sell with sigma1 0.01 drifts at 0.1 toward log xi = 0.5: the killed law of a row
    # capped at t_max 5.5 from the start has e^{2 a mu / sigma^2} = e^1000, past the
    # largest float, as the factor of its second term
    exponents = []
    gap = stopping._killed_gap

    def logged(u, a, c, s):
        exponents.append(2 * a * (a - c) / s**2)
        return gap(u, a, c, s)

    monkeypatch.setattr(stopping, "_killed_gap", logged)
    spec = make_sell_model(0.10005, 0.01, 0.2, 0.2, 1.0)
    cfg = SimConfig(dt=0.5, replications=2000, seed=63, t_max=5.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = evaluate_rule_mc(spec, StoppingRule("threshold_up", threshold=math.exp(0.5)), cfg)
    assert 0 < est.truncation_fraction < 1
    assert max(exponents) > math.log(np.finfo(float).max)


def test_an_unreachable_barrier_keeps_the_first_proposal():
    rng = _Calls(np.random.default_rng(64))
    z, t, mu, sigma = 0.3, 2.0, 0.05, 0.3
    end = stopping._killed_end(rng, z, math.inf, t, mu, sigma)
    assert rng.calls == 2
    assert end == z + mu * t + sigma * math.sqrt(t) * np.random.default_rng(64).standard_normal()


@pytest.mark.parametrize("kinds", [("threshold_up", "threshold_down"),
                                   ("threshold_up", "fixed_time"), ("never", "threshold_down")])
def test_the_stop_search_rejects_a_mixed_rule_list(kinds):
    rules = [StoppingRule(k, threshold=2.0, fixed_time=0.5) for k in kinds]
    for spec in (make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0), make_quit_model(0.3, 0.1, rho=0.2)):
        with pytest.raises(ValueError, match=r"a fast-mode run takes threshold rules of one "
                                             r"direction or fixed_time and never rules, not \["):
            _run_rules(spec, rules, SimConfig(dt=0.01, replications=10, seed=0, t_max=1.0))


def test_fixed_times_share_one_path():
    # a fixed_time rule at t_max and a never rule end at the same value; only one is capped
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    cfg = SimConfig(dt=0.01, replications=200, seed=45, t_max=1.0)
    at_end, early, never, again = _run_rules(
        spec, [StoppingRule("fixed_time", fixed_time=1.0), StoppingRule("fixed_time",
               fixed_time=0.5), StoppingRule("never"), StoppingRule("fixed_time", fixed_time=1.0)],
        cfg)
    assert (at_end.mean, at_end.std_error) == (never.mean, never.std_error)
    assert at_end.truncation_fraction == 0.0 and never.truncation_fraction == 1.0
    assert at_end == again and early != at_end


def test_stop_search_peak_memory_does_not_grow_with_the_batch():
    # one 16384-row batch: its arrays of one value per row (128 KiB each for floats)
    # peak at about 1.8 MiB, and a Python tuple of results per row would add 2.5 MiB;
    # the stop table holds 13 bytes per row and rule, and quit's running profit is paid
    # through the potential for one rule at a time, where a walk held blocks of paths
    cfg = SimConfig(dt=0.01, replications=16384, seed=0, t_max=0.5)
    for spec, rule in [
            (make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0), StoppingRule("threshold_up", threshold=1.2)),
            (make_quit_model(0.3, 0.1, rho=0.2), StoppingRule("threshold_down",
                                                               threshold=QUIT_ETA))]:
        tracemalloc.start()
        try:
            evaluate_rule_mc(spec, rule, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, spec.family


def _seed_sequence_state(seed, r):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,))).bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7,
                                  2**200 + 3])
def test_rep_states_match_seed_sequence(seed):
    # rows 0-3; rows 16000-17099, which hold the batch edge 16383 | 16384 and a seeding
    # chunk edge; rows across 2**32, where the spawn key gains a second word, in one
    # chunk; and the last rows below 2**64.  2**200 + 3 has more words than the pool.
    for lo, hi in [(0, 4), (16000, 17100), (2**32 - 3, 2**32 + 3), (2**64 - 2, 2**64)]:
        got = list(stopping._rep_states(seed, lo, hi))
        assert got == [_seed_sequence_state(seed, r) for r in range(lo, hi)], (lo, hi)


def test_rep_states_refuse_what_seed_sequence_refuses():
    assert list(stopping._rep_states(np.int64(5), 7, 9)) == [
        _seed_sequence_state(5, r) for r in (7, 8)]
    with pytest.raises(ValueError, match="non-negative"):
        next(stopping._rep_states(-1, 0, 2))
    with pytest.raises(TypeError):
        next(stopping._rep_states(1.5, 0, 2))
    with pytest.raises(ValueError, match="outside 0..2"):  # the spawn key would need a third word
        next(stopping._rep_states(0, 2**64 - 1, 2**64 + 1))


# ---------------------------------------------------------------------------
# quit's running profit paid from the stop through its discrete potential

@pytest.mark.parametrize("shift", [-0.2, 0.0, 0.2])
def test_potential_pays_the_left_point_profit_sum(shift):
    # on shared walk paths, the payment P(0, m_0) - P(t_tau, m_tau) and the left-point
    # sum of e^{-rho t_k} m_k dt before the grid stop tau (or the cap) agree in mean
    spec = make_quit_model(0.3, 0.1, rho=0.2)
    eta, dt, steps, n = QUIT_ETA + shift, 0.05, 400, 100_000
    potential = quit_potential(spec, dt)
    rng = np.random.default_rng(71)
    m, t = np.zeros(n), np.zeros(n)
    profit, alive = np.zeros(n), np.ones(n, dtype=bool)
    for k in range(steps):
        profit[alive] += np.exp(-0.2 * k * dt) * m[alive] * dt
        m[alive] += 0.3 * math.sqrt(dt) * rng.standard_normal(alive.sum())
        t[alive] = (k + 1) * dt
        alive &= m > eta
    assert 0 < alive.mean() < 1  # the identity holds at the cap too
    diff = potential(0.0, 0.0) - potential(t, m) - profit
    assert abs(diff.mean()) <= 4 * diff.std() / math.sqrt(n)


def test_the_sign_of_sigma1_leaves_every_draw_unchanged():
    runs = []
    for sigma1 in (0.3, -0.3):
        spec = make_quit_model(sigma1, 0.1, rho=0.2, initial_law=InitialLaw("point", 0.3))
        cfg = SimConfig(dt=0.01, replications=300, seed=46, t_max=5.0)
        runs.append((
            threshold_sweep(spec, [QUIT_ETA - 0.1, QUIT_ETA, 0.1], cfg),
            evaluate_rule_mc(spec, StoppingRule("never"), cfg),
            dynkin_residual(spec, replace(cfg, t_max=0.5)),
        ))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# frozen engine outputs: exact estimates on small runs that cover every
# branch of the payment in _batch and both stop sources

def _frozen_runs():
    sell_spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    sell_12 = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, initial_law=InitialLaw("point", 1.2))
    quit_spec = make_quit_model(0.3, 0.1, rho=0.2)
    jump_sell = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(0.5, -0.2),
                                InitialLaw("point", 1.1))
    jump_quit = make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=0.5, rho=0.2,
                                initial_law=InitialLaw("normal", 0.0, 0.3))
    fast = dict(dt=0.01, seed=11)
    particle = dict(dt=0.05, replications=12, t_max=3.0, mode="particle",
                    n_particles=200, batch_size=5)
    runs = {}
    # the stop search: two batches, 1.1 stops at time 0, higher thresholds cap rows
    runs["fast_sell_sweep"] = threshold_sweep(
        sell_12, [1.1, 1.5, 2.2, 2.7, 3.5],
        SimConfig(replications=400, t_max=20.0, batch_size=300, **fast),
    ).estimates
    # running profit paid through the potential, at stops and at caps of several horizons
    quit_caps = SimConfig(dt=0.01, replications=300, seed=12, t_max=10.0)
    runs["fast_quit_caps"] = [
        evaluate_rule_mc(quit_spec, rule, replace(quit_caps, t_max=t_max))
        for rule, t_max in [(StoppingRule("threshold_down", threshold=QUIT_ETA), 10.0),
                            (StoppingRule("threshold_down", threshold=QUIT_ETA), 3.0),
                            (StoppingRule("never"), 5.12),
                            (StoppingRule("threshold_down", threshold=-0.2), 7.77),
                            (StoppingRule("threshold_up", threshold=0.5), 10.0)]
    ]
    runs["fixed_time"] = (
        evaluate_rule_mc(sell_spec, StoppingRule("fixed_time", fixed_time=0.5),
                         SimConfig(replications=300, t_max=1.0, **fast)),
        evaluate_rule_mc(make_quit_model(0.3, 0.1, rho=0.2,
                                         initial_law=InitialLaw("point", 0.1)),
                         StoppingRule("fixed_time", fixed_time=7.0),
                         SimConfig(dt=0.01, replications=200, seed=13, t_max=10.0)),
        evaluate_rule_mc(sell_12, StoppingRule("fixed_time", fixed_time=0.0),
                         SimConfig(replications=50, t_max=1.0, **fast)),
    )
    runs["cap_value"] = (
        evaluate_rule_mc(sell_spec, StoppingRule("threshold_up", threshold=2.7),
                         SimConfig(replications=300, t_max=4.0, cap_payoff="value", **fast)),
    )
    runs["fast_quit_dynkin"] = (
        dynkin_residual(make_quit_model(0.3, 0.1, rho=0.2,
                                        initial_law=InitialLaw("point", 0.3)),
                        SimConfig(dt=0.005, replications=300, seed=14, t_max=3.0)).estimate,
    )
    runs["particle_sell_jumps"] = threshold_sweep(
        jump_sell, [1.05, 1.3, 1.6], SimConfig(seed=15, **particle)).estimates
    quit_particle = SimConfig(seed=16, **particle)
    runs["particle_quit"] = [
        evaluate_rule_mc(jump_quit, rule, replace(quit_particle, t_max=t_max))
        for rule, t_max in [(StoppingRule("threshold_down", threshold=QUIT_ETA), 3.0),
                            (StoppingRule("threshold_down", threshold=QUIT_ETA), 1.0),
                            (StoppingRule("fixed_time", fixed_time=0.5), 3.0)]
    ]
    return {name: tuple(tuple(vars(e).values()) for e in ests)
            for name, ests in runs.items()}


FROZEN = {
    'fast_sell_sweep': (
        (0.19999999999999993, 0.0, 400, 0.0),
        (0.36262135890724356, 0.007686756808445783, 400, 0.0375),
        (0.4795476253542241, 0.01785834649363744, 400, 0.1225),
        (0.4686729910175822, 0.021266412786594822, 400, 0.195),
        (0.4329084788282965, 0.024374063074851696, 400, 0.3075),
    ),
    'fast_quit_caps': (
        (0.6173836757736058, 0.06187808206736233, 300, 0.4033333333333333),
        (0.14810555286262483, 0.08599712824619665, 300, 0.6533333333333333),
        (0.09648353156102688, 0.06753527141411797, 300, 1.0),
        (0.4725712646393047, 0.04579441340714256, 300, 0.21),
        (-0.5959079167689774, 0.06358745484999696, 300, 0.42333333333333334),
    ),
    'fixed_time': (
        (0.045078862912302536, 0.011459197035151995, 300, 0.0),
        (0.33562050587883574, 0.0693966640200407, 200, 0.0),
        (0.19999999999999993, 0.0, 50, 0.0),
    ),
    'cap_value': (
        (0.3219003811766207, 0.018348411834810844, 300, 0.8666666666666667),
    ),
    'fast_quit_dynkin': (
        (1.9289518667491101, 0.028594252873450732, 300, 0.89),
    ),
    'particle_sell_jumps': (
        (0.09999999999999964, 0.0, 12, 0.0),
        (0.1285549318157374, 0.06997211638115293, 12, 0.4166666666666667),
        (0.1853432803290742, 0.09769369251577227, 12, 0.5),
    ),
    'particle_quit': (
        (0.25583358011103413, 0.1563914870182123, 12, 0.6666666666666666),
        (-0.00021085957315309287, 0.04327253755788116, 12, 0.9166666666666666),
        (-0.019598552996498177, 0.01761789190096245, 12, 0.0),
    ),
}


def test_frozen_engine_outputs():
    assert _frozen_runs() == FROZEN
