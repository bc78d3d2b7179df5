import math
from dataclasses import replace

import numpy as np
import pytest

from mvstop.model import InitialLaw, constant_mark, make_quit_model, make_sell_model
from mvstop.particle import CommonNoisePath
from mvstop.stopping import (
    Payoff,
    QuitParams,
    SellParams,
    SimConfig,
    StoppingRule,
    _ROWS,
    _first_stop,
    _run_rules,
    conditional_mean_oracle,
    dynkin_residual,
    evaluate_rule_mc,
    lambda_roots,
    quit_candidate,
    quit_payoff,
    quit_smooth_fit_residuals,
    quit_threshold,
    quit_value,
    sell_candidate,
    sell_payoff,
    sell_threshold,
    sell_value,
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
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        assert sell_value(0.0, 1.0, params) == pytest.approx(SELL_VALUE_0_1, rel=1e-12)
        assert sell_value(0.5, 2.0, params) == pytest.approx(SELL_VALUE_HALF_2, rel=1e-12)
        assert sell_value(0.0, 5.0, params) == pytest.approx(4.0, rel=1e-12)

    def test_value_continuous_at_threshold(self):
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        eps = 1e-9
        below = sell_value(0.3, XI_STAR - eps, params)
        above = sell_value(0.3, XI_STAR + eps, params)
        assert abs(below - above) < 1e-8

    def test_value_needs_positive_mean(self):
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        with pytest.raises(ValueError):
            sell_value(0.0, -1.0, params)

    def test_params_preconditions(self):
        with pytest.raises(ValueError):
            SellParams(0.3, 0.3, 0.2, 0.2, 1.0)   # alpha0 >= rho
        with pytest.raises(ValueError):
            SellParams(0.1, 0.3, 0.2, 0.2, -1.0)


class TestQuitClosedForm:
    def test_threshold_frozen(self):
        lam, eta, c1 = quit_threshold(QuitParams(0.3, 0.1, rho=0.2))
        assert lam == pytest.approx(QUIT_LAM, rel=1e-12)
        assert eta == pytest.approx(QUIT_ETA, rel=1e-12)
        assert c1 == pytest.approx(QUIT_C1, rel=1e-12)

    def test_unit_decay_case(self):
        # sigma1 = sqrt(2), rho = 1 gives lam = 1, eta = -1, C1 = 1/e
        lam, eta, c1 = quit_threshold(QuitParams(math.sqrt(2.0), 0.0, rho=1.0))
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert eta == pytest.approx(-1.0, rel=1e-12)
        assert c1 == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_smooth_fit_residuals_vanish(self):
        params = QuitParams(0.3, 0.1, rho=0.2)
        _, eta, c1 = quit_threshold(params)
        cont, slope = quit_smooth_fit_residuals(params, eta, c1)
        assert abs(cont) < 1e-14
        assert abs(slope) < 1e-14

    def test_value_frozen(self):
        params = QuitParams(0.3, 0.1, rho=0.2)
        assert quit_value(0.0, 0.0, params) == pytest.approx(QUIT_C1, rel=1e-12)
        assert quit_value(1.0, 0.5, params) == pytest.approx(QUIT_VALUE_1_HALF, rel=1e-12)
        assert quit_value(0.0, QUIT_ETA - 0.5, params) == 0.0


def test_conditional_mean_oracle_matches_formula():
    common = CommonNoisePath.sample(1.0, 0.01, np.random.default_rng(0))
    sell = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", 2.0))
    t = common.times()
    expect = 2.0 * np.exp((0.1 - 0.045) * t + 0.3 * common.brownian())
    np.testing.assert_allclose(conditional_mean_oracle(sell, common), expect)
    quit_ = make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.5))
    np.testing.assert_allclose(
        conditional_mean_oracle(quit_, common), 0.5 + 0.3 * common.brownian()
    )


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


class TestOffGridTimes:
    """A time the engine would round to the nearest step ``dt`` is rejected."""

    def test_fixed_time(self):
        spec = make_quit_model(0.3, 0.1)
        unit = Payoff("custom", f=lambda t, m: np.ones_like(m), g=None)
        cfg = SimConfig(dt=0.1, replications=10, seed=0, t_max=1.0)
        with pytest.raises(ValueError, match="fixed_time must be a whole multiple of dt; "
                                             "0.25 is 2.5 steps of 0.1"):
            evaluate_rule_mc(spec, StoppingRule("fixed_time", fixed_time=0.25), unit, cfg)

    def test_horizon_cap(self):
        spec = make_quit_model(0.3, 0.1)
        rule = StoppingRule("threshold_down", threshold=QUIT_ETA, horizon_cap=0.125)
        cfg = SimConfig(dt=0.01, replications=10, seed=0, t_max=1.0)
        with pytest.raises(ValueError, match="horizon_cap must be a whole multiple of dt"):
            evaluate_rule_mc(spec, rule, quit_payoff(QuitParams(0.3, 0.1, rho=0.2)), cfg)

    def test_t_max(self):
        with pytest.raises(ValueError, match="t_max must be a whole multiple of dt; "
                                             "0.5 is 1.66667 steps of 0.3"):
            SimConfig(dt=0.3, replications=10, seed=0, t_max=0.5)

    def test_dynkin_delta(self):
        params = QuitParams(0.3, 0.1, rho=0.2)
        spec = make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.3))
        cfg = SimConfig(dt=0.3, replications=10, seed=0, t_max=0.6)
        with pytest.raises(ValueError, match="t_max must be a whole multiple of dt"):
            dynkin_residual(spec, quit_candidate(params), cfg, delta=0.5)

    def test_on_grid_up_to_rounding(self):
        # 0.3 / 0.1 is 2.9999999999999996 in binary floating point
        cfg = SimConfig(dt=0.1, replications=10, seed=0, t_max=0.3)
        unit = Payoff("custom", f=lambda t, m: np.ones_like(m), g=None)
        est = evaluate_rule_mc(make_quit_model(0.3, 0.1),
                               StoppingRule("fixed_time", fixed_time=0.3), unit, cfg)
        assert est.mean == pytest.approx(0.3)


class TestMonteCarlo:
    def test_fixed_time_sell_matches_expectation(self):
        # exact log-normal scheme: E[m_t] = m0 e^{alpha0 t} at any dt
        spec = make_sell_model(0.1, 0.3, 0.2)
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=40_000, seed=21, t_max=1.0)
        est = evaluate_rule_mc(
            spec, StoppingRule("fixed_time", fixed_time=0.5), sell_payoff(params), cfg
        )
        expect = math.exp(-0.2 * 0.5) * (math.exp(0.1 * 0.5) - 1.0)
        assert abs(est.mean - expect) < 4 * est.std_error
        assert est.truncation_fraction == 0.0

    def test_fixed_time_quit_running_profit_centred(self):
        spec = make_quit_model(0.3, 0.1)
        params = QuitParams(0.3, 0.1, rho=0.2)
        cfg = SimConfig(dt=0.01, replications=40_000, seed=22, t_max=1.0)
        est = evaluate_rule_mc(
            spec, StoppingRule("fixed_time", fixed_time=1.0), quit_payoff(params), cfg
        )
        # running profit has conditional mean 0 along every path
        assert abs(est.mean) < 4 * est.std_error

    def test_immediate_trigger(self):
        spec = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", 3.0))
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=64, seed=0, t_max=1.0)
        est = evaluate_rule_mc(
            spec, StoppingRule("threshold_up", threshold=2.0), sell_payoff(params), cfg
        )
        assert est.mean == pytest.approx(2.0)   # g(0, 3.0) = 3 - 1 = 2
        assert est.std_error == 0.0

    def test_constant_payoff_over_uneven_batches(self):
        # g(0, 1.2) is not a short binary fraction; ten batches, the last of one row
        spec = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", 1.2))
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=64, seed=0, t_max=1.0, batch_size=7)
        est = evaluate_rule_mc(
            spec, StoppingRule("threshold_up", threshold=1.1), sell_payoff(params), cfg
        )
        assert est.mean == pytest.approx(0.2)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("start,t_max", [(1.0, 0.5), (2.0, 0.0)],
                             ids=["capped", "cap_at_0"])
    @pytest.mark.parametrize("mode", ["fast", "particle"])
    def test_never_rule_with_zero_cap_payoff(self, mode, start, t_max):
        spec = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", start))
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(
            dt=0.01, replications=64, seed=0, t_max=t_max,
            cap_payoff="zero", mode=mode, n_particles=100,
        )
        est = evaluate_rule_mc(spec, StoppingRule("never"), sell_payoff(params), cfg)
        assert est.mean == 0.0
        assert est.truncation_fraction == 1.0

    @pytest.mark.parametrize("mode", ["fast", "particle"])
    def test_standard_error_does_not_depend_on_batching(self, mode):
        # the pairwise merge of per-batch (count, mean, M2) is exact up to rounding;
        # in particle mode rows stop at different steps, so the source compacts
        # its state matrix at different times in each batching
        if mode == "fast":
            spec = make_quit_model(0.3, 0.1)
            payoff = quit_payoff(QuitParams(0.3, 0.1, rho=0.2))
            rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
            cfg = SimConfig(dt=0.01, replications=400, seed=4, t_max=5.0)
        else:
            params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0, constant_mark(0.5, -0.2))
            spec, payoff = params.spec(), sell_payoff(params)
            rule = StoppingRule("threshold_up", threshold=1.3)
            cfg = SimConfig(dt=0.05, replications=40, seed=4, t_max=3.0, mode="particle",
                            n_particles=50)
        one, many = (
            evaluate_rule_mc(spec, rule, payoff, replace(cfg, batch_size=size))
            for size in (cfg.replications, 7)
        )
        assert 0 < one.truncation_fraction < 1
        assert many.std_error == pytest.approx(one.std_error, rel=1e-12)
        assert (many.mean, many.truncation_fraction) == pytest.approx(
            (one.mean, one.truncation_fraction), rel=1e-12)

    def test_same_seed_reproduces_exactly(self):
        spec = make_quit_model(0.3, 0.1)
        params = QuitParams(0.3, 0.1, rho=0.2)
        cfg = SimConfig(dt=0.01, replications=2000, seed=5, t_max=5.0)
        rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
        a = evaluate_rule_mc(spec, rule, quit_payoff(params), cfg)
        b = evaluate_rule_mc(spec, rule, quit_payoff(params), cfg)
        assert a == b

    def test_common_random_numbers_across_thresholds(self):
        # duplicated threshold in one sweep must give identical estimates
        spec = make_sell_model(0.1, 0.3, 0.2)
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.01, replications=2000, seed=6, t_max=20.0)
        sweep = threshold_sweep(spec, [2.5, 3.0, 2.5], sell_payoff(params), cfg)
        assert sweep.estimates[0] == sweep.estimates[2]

    def test_worker_pool_matches_serial(self):
        spec = make_quit_model(0.3, 0.1)
        params = QuitParams(0.3, 0.1, rho=0.2)
        rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
        base = dict(dt=0.01, replications=3000, seed=7, t_max=5.0, batch_size=700)
        serial = evaluate_rule_mc(
            spec, rule, quit_payoff(params), SimConfig(**base, workers=1)
        )
        pooled = evaluate_rule_mc(
            spec, rule, quit_payoff(params), SimConfig(**base, workers=3)
        )
        assert serial == pooled

    def test_custom_payoff_rejected_on_pool(self):
        spec = make_quit_model(0.3, 0.1)
        payoff = Payoff("custom", f=None, g=lambda t, m: m)
        cfg = SimConfig(dt=0.01, replications=3000, seed=8, t_max=1.0, batch_size=700,
                        workers=2)
        with pytest.raises(ValueError, match="custom payoffs"):
            evaluate_rule_mc(spec, StoppingRule("never"), payoff, cfg)

    def test_particle_mode_small_run(self):
        spec = make_sell_model(0.1, 0.3, 0.2)
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        cfg = SimConfig(dt=0.02, replications=50, seed=9, t_max=2.0, mode="particle",
                        n_particles=200)
        est = evaluate_rule_mc(
            spec, StoppingRule("fixed_time", fixed_time=1.0), sell_payoff(params), cfg
        )
        expect = math.exp(-0.2) * (math.exp(0.1) - 1.0)
        assert abs(est.mean - expect) < max(4 * est.std_error, 0.02)


def test_dynkin_residual_small_run():
    params = QuitParams(0.3, 0.1, rho=0.2)
    spec = make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.3))
    cfg = SimConfig(dt=0.005, replications=4000, seed=10, t_max=1.0)
    result = dynkin_residual(spec, quit_candidate(params), cfg, delta=0.3)
    assert abs(result.residual) < 4 * result.std_error + 1e-3


# ---------------------------------------------------------------------------
# the extreme-first rule scan against the full stop-flag matrix it replaced

def _reference_scan(rule, y, rows, to_y, first_step, dt):
    if rule.kind == "threshold_up":
        cond = y >= to_y(rule.threshold)
    elif rule.kind == "threshold_down":
        cond = y <= to_y(rule.threshold)
    elif rule.kind == "fixed_time":
        at = first_step + np.arange(y.shape[1]) == int(round(rule.fixed_time / dt))
        cond = np.broadcast_to(at, y.shape)
    else:
        cond = np.zeros(y.shape, dtype=bool)
    hit = cond.any(axis=1)[rows]
    return hit, np.where(hit, cond.argmax(axis=1)[rows], y.shape[1] - 1)


def _sell_to_y(threshold):
    return math.log(threshold) if threshold > 0 else -math.inf


@pytest.mark.parametrize("seed", range(4))
def test_first_stop_matches_full_matrix_scan(seed):
    rng = np.random.default_rng(seed)
    n = 3 * _ROWS + 7  # more crossing rows than one search chunk holds
    y = np.round(rng.standard_normal((n, 23)).cumsum(axis=1), 1)  # ties at thresholds
    y[3, 5] = y[7, :] = np.nan
    y[11, ::2] = np.nan
    y[13, 4], y[17, 9] = np.inf, -np.inf
    dt = 0.01
    rules = [StoppingRule(kind, threshold=t) for kind in ("threshold_up", "threshold_down")
             for t in (-2.0, -0.3, 0.0, 0.5, 1.0, 2.5, 40.0)]
    rules += [StoppingRule("fixed_time", fixed_time=x) for x in (0.0, 0.05, 0.1, 0.27, 0.4)]
    rules += [StoppingRule("never")]
    subsets = [np.arange(n), np.sort(rng.choice(n, 2 * _ROWS + 3, replace=False)),
               np.array([7, 11, 13, 17]), np.array([], dtype=int)]
    for to_y in (float, _sell_to_y, lambda t: math.copysign(math.inf, t)):
        for klim in (23, 9, 1):
            block, extremes = y[:, :klim], {}
            for rows in subsets:
                for rule in rules:
                    got = _first_stop(rule, block, rows, to_y, 5, dt, extremes)
                    want = _reference_scan(rule, block, rows, to_y, 5, dt)
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])


def test_fast_mode_needs_a_start_in_its_state_space():
    sell = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", -1.0))
    rule = StoppingRule("threshold_up", threshold=2.7)
    payoff = sell_payoff(SellParams(0.1, 0.3, 0.2, 0.2, 1.0))
    cfg = SimConfig(dt=0.01, replications=10, seed=1, t_max=1.0)
    with pytest.raises(ValueError, match="start value"):
        evaluate_rule_mc(sell, rule, payoff, cfg)


def test_custom_running_profit_may_broadcast():
    # a profit rate of time only gives the same integral as its full-shape copy
    spec = make_quit_model(0.3, 0.1)
    cfg = SimConfig(dt=0.01, replications=50, seed=3, t_max=6.0)
    rule = StoppingRule("threshold_down", threshold=QUIT_ETA)
    narrow = Payoff("custom", f=lambda t, m: np.exp(-0.2 * t), g=None)
    full = Payoff("custom", f=lambda t, m: np.exp(-0.2 * t) + 0.0 * m, g=None)
    assert evaluate_rule_mc(spec, rule, narrow, cfg) == evaluate_rule_mc(spec, rule, full, cfg)


# ---------------------------------------------------------------------------
# frozen engine outputs: exact estimates on small runs that cover every
# branch of the rule accumulator and both path sources

def _frozen_runs():
    sell = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
    quit_ = QuitParams(0.3, 0.1, rho=0.2)
    sell_spec = make_sell_model(0.1, 0.3, 0.2)
    sell_12 = make_sell_model(0.1, 0.3, 0.2, initial_law=InitialLaw("point", 1.2))
    quit_spec = make_quit_model(0.3, 0.1)
    jump_sell = make_sell_model(0.1, 0.3, 0.2, constant_mark(0.5, -0.2),
                                InitialLaw("point", 1.1))
    jump_quit = make_quit_model(0.3, 0.1, gamma0=-0.1, intensity=0.5,
                                initial_law=InitialLaw("normal", 0.0, 0.3))
    fast = dict(dt=0.01, seed=11)
    particle = dict(dt=0.05, replications=12, t_max=3.0, mode="particle",
                    n_particles=200, batch_size=5)
    runs = {}
    # 2000 steps: four blocks of at most 512, two batches, 1.1 stops at time 0
    runs["fast_sell_sweep"] = threshold_sweep(
        sell_12, [1.1, 1.5, 2.2, 2.7, 3.5], sell_payoff(sell),
        SimConfig(replications=400, t_max=20.0, batch_size=300, **fast),
    ).estimates
    # running profit; caps inside a block, at a block edge and past the horizon
    runs["fast_quit_caps"] = _run_rules(
        quit_spec,
        [StoppingRule("threshold_down", threshold=QUIT_ETA),
         StoppingRule("threshold_down", threshold=QUIT_ETA, horizon_cap=3.0),
         StoppingRule("never", horizon_cap=5.12),
         StoppingRule("threshold_down", threshold=-0.2, horizon_cap=7.77),
         StoppingRule("threshold_up", threshold=0.5, horizon_cap=50.0)],
        quit_payoff(quit_), SimConfig(dt=0.01, replications=300, seed=12, t_max=10.0),
    )
    runs["fixed_time"] = (
        evaluate_rule_mc(sell_spec, StoppingRule("fixed_time", fixed_time=0.5),
                         sell_payoff(sell), SimConfig(replications=300, t_max=1.0, **fast)),
        evaluate_rule_mc(make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.1)),
                         StoppingRule("fixed_time", fixed_time=7.0), quit_payoff(quit_),
                         SimConfig(dt=0.01, replications=200, seed=13, t_max=10.0)),
        evaluate_rule_mc(sell_12, StoppingRule("fixed_time", fixed_time=0.0),
                         sell_payoff(sell), SimConfig(replications=50, t_max=1.0, **fast)),
    )
    runs["cap_zero"] = (
        evaluate_rule_mc(sell_spec, StoppingRule("threshold_up", threshold=2.7,
                                                 horizon_cap=4.0),
                         sell_payoff(sell),
                         SimConfig(replications=300, t_max=20.0, cap_payoff="zero", **fast)),
    )
    runs["fast_dynkin_custom"] = (
        dynkin_residual(make_quit_model(0.3, 0.1, initial_law=InitialLaw("point", 0.3)),
                        quit_candidate(quit_),
                        SimConfig(dt=0.005, replications=300, seed=14, t_max=1.0),
                        delta=3.0).estimate,
    )
    runs["particle_sell_jumps"] = threshold_sweep(
        jump_sell, [1.05, 1.3, 1.6], sell_payoff(sell),
        SimConfig(seed=15, **particle),
    ).estimates
    runs["particle_quit"] = _run_rules(
        jump_quit,
        [StoppingRule("threshold_down", threshold=QUIT_ETA),
         StoppingRule("threshold_down", threshold=QUIT_ETA, horizon_cap=1.0),
         StoppingRule("fixed_time", fixed_time=0.5)],
        quit_payoff(quit_), SimConfig(seed=16, **particle),
    )
    return {name: tuple(tuple(vars(e).values()) for e in ests)
            for name, ests in runs.items()}


FROZEN = {
    'fast_sell_sweep': (
        (0.19999999999999993, 0.0, 400, 0.0),
        (0.35988071592615095, 0.00772057168419561, 400, 0.055),
        (0.4878301910067826, 0.017373262106417365, 400, 0.1375),
        (0.5058461889691737, 0.022301950825116556, 400, 0.2175),
        (0.48425119931997307, 0.026176037429346915, 400, 0.305),
    ),
    'fast_quit_caps': (
        (0.6536239330843308, 0.06478962250426433, 300, 0.4066666666666667),
        (0.1508156542009942, 0.023687552358759217, 300, 0.6733333333333333),
        (-0.03686608531717933, 0.06378625384462566, 300, 1.0),
        (0.44288297845273417, 0.04796339363814417, 300, 0.19),
        (-0.6397603248118506, 0.0678560554682407, 300, 0.38333333333333336),
    ),
    'fixed_time': (
        (0.044883133917889, 0.012122437738601367, 300, 0.0),
        (0.48094497919526974, 0.11471156908413808, 200, 0.0),
        (0.19999999999999993, 0.0, 50, 0.0),
    ),
    'cap_zero': (
        (0.1717042348002486, 0.02281073845681103, 300, 0.8366666666666667),
    ),
    'fast_dynkin_custom': (
        (1.9883381994821439, 0.0909703644876413, 300, 0.8633333333333333),
    ),
    'particle_sell_jumps': (
        (0.09999999999999964, 0.0, 12, 0.0),
        (0.13072348349855856, 0.06893822517530838, 12, 0.4166666666666667),
        (0.18878844476476997, 0.09672141573733205, 12, 0.5),
    ),
    'particle_quit': (
        (0.25583358011103413, 0.1563914870182123, 12, 0.6666666666666666),
        (-0.00021085957315309287, 0.04327253755788116, 12, 0.9166666666666666),
        (-0.019598552996498177, 0.01761789190096245, 12, 0.0),
    ),
}


def test_frozen_engine_outputs():
    assert _frozen_runs() == FROZEN
