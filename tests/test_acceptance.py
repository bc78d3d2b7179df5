"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run) and then asserts.
"""

import json
import math

import numpy as np
import pytest

from mvstop.cli import load_config, run_experiment
from mvstop.fokker_planck import compare_to_particles, evolve_spide, gaussian_density, make_grid
from mvstop.generator import (
    check_variational_inequalities,
    default_probe_grid,
    frechet_gradient_cylinder,
    frechet_hessian_cylinder,
)
from mvstop.model import InitialLaw, constant_mark, make_quit_model, make_sell_model
from mvstop.particle import CommonNoisePath, kde_density, simulate_path
from mvstop.stopping import (
    SimConfig,
    StoppingRule,
    conditional_mean_oracle,
    dynkin_residual,
    evaluate_rule_mc,
    lambda_roots,
    quit_candidate,
    quit_smooth_fit_residuals,
    quit_payoff,
    quit_threshold,
    sell_candidate,
    sell_payoff,
    sell_threshold,
    threshold_sweep,
)

SELL = make_sell_model(alpha0=0.1, sigma1=0.3, sigma2=0.2, rho=0.2, a=1.0)
QUIT = make_quit_model(sigma1=0.3, sigma2=0.1, rho=0.2)


def report(number, name, passed, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number}: {name} ({detail})"


def test_criterion_01_root_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    ordered = True
    for _ in range(100):
        rho = float(rng.uniform(0.05, 1.0))
        sigma1 = float(rng.uniform(0.05, 1.5))
        alpha0 = rho - float(rng.uniform(1e-3, 1.5))
        lam2, lam1 = lambda_roots(alpha0, sigma1, rho)
        for lam in (lam1, lam2):
            res = alpha0 * lam + 0.5 * sigma1**2 * lam * (lam - 1) - rho
            scale = max(abs(rho), abs(alpha0 * lam), 0.5 * sigma1**2 * lam * lam)
            worst = max(worst, abs(res) / scale)
        ordered = ordered and (lam2 < 0 < 1 < lam1)
    report(1, "root identity", worst < 1e-12 and ordered,
           f"max relative residual {worst:.2e}, ordering {ordered}")


def test_criterion_02_sell_smooth_fit():
    _, lam1 = lambda_roots(SELL.a1, SELL.b1, SELL.rho)
    xi = sell_threshold(lam1, SELL.cost)
    cand = sell_candidate(SELL)
    cont_gap = abs(cand.continuation.value(0.3, xi) - cand.stopping.value(0.3, xi))
    slope_gap = abs(cand.continuation.dz(0.3, xi) - cand.stopping.dz(0.3, xi))
    z = np.geomspace(0.01, 20.0, 1000)
    obstacle_ok = bool(np.all(cand.value(0.0, z) >= z - SELL.cost - 1e-12))
    passed = cont_gap < 1e-8 and slope_gap < 1e-8 and obstacle_ok
    report(2, "sell smooth fit", passed,
           f"gaps ({cont_gap:.2e}, {slope_gap:.2e}), obstacle {obstacle_ok}")


def test_criterion_03_sell_variational_inequalities():
    spec = SELL
    probe_s, probe_z = default_probe_grid(0.01, 20.0, 400, 2.0, 15, log_z=True)
    good = check_variational_inequalities(sell_candidate(SELL), spec, sell_payoff(SELL),
                                          probe_s, probe_z)
    d = good.to_dict()
    _, lam1 = lambda_roots(SELL.a1, SELL.b1, SELL.rho)
    xi = sell_threshold(lam1, SELL.cost)
    bad = check_variational_inequalities(
        sell_candidate(SELL, xi=xi + 0.5), spec, sell_payoff(SELL), probe_s, probe_z
    )
    passed = (
        d["continuation_max_abs_residual"] < 1e-10
        and d["stopping_max_residual"] <= 1e-10
        and good.passed()
        and not bad.passed()
    )
    report(3, "sell variational inequalities", passed,
           f"cont {d['continuation_max_abs_residual']:.2e}, "
           f"stop {d['stopping_max_residual']:.2e}, perturbed flagged {not bad.passed()}")


def test_criterion_04_quit_variational_inequalities():
    spec = QUIT
    lam, eta, c1 = quit_threshold(QUIT)
    assert eta == pytest.approx(-1.0 / lam, rel=1e-14)
    cont_res, slope_res = quit_smooth_fit_residuals(QUIT, eta, c1)
    probe_s, probe_z = default_probe_grid(eta - 2.0, eta + 6.0, 400, 2.0, 15, log_z=False)
    rep = check_variational_inequalities(quit_candidate(QUIT), spec, quit_payoff(QUIT),
                                         probe_s, probe_z)
    d = rep.to_dict()
    passed = (
        rep.passed()
        and d["continuation_max_abs_residual"] < 1e-10
        and d["stopping_max_residual"] <= 1e-10
        and abs(cont_res) < 1e-12
        and abs(slope_res) < 1e-12
    )
    report(4, "quit variational inequalities", passed,
           f"cont {d['continuation_max_abs_residual']:.2e}, "
           f"pasting residuals ({cont_res:.2e}, {slope_res:.2e})")


@pytest.mark.slow
def test_criterion_05_sell_mc_matches_closed_form():
    spec = SELL
    _, lam1 = lambda_roots(SELL.a1, SELL.b1, SELL.rho)
    xi = sell_threshold(lam1, SELL.cost)
    cfg = SimConfig(dt=1e-3, replications=100_000, seed=501, t_max=100.0)
    est = evaluate_rule_mc(spec, StoppingRule("threshold_up", threshold=xi), cfg)
    ref = sell_candidate(SELL).value(0.0, 1.0)
    band = max(3 * est.std_error, 0.02 * abs(ref))
    report(5, "sell MC vs closed form", abs(est.mean - ref) <= band,
           f"est {est.mean:.5f} +- {est.std_error:.5f}, ref {ref:.5f}, "
           f"trunc {est.truncation_fraction:.3f}")


@pytest.mark.slow
def test_criterion_06_quit_mc_matches_closed_form():
    spec = QUIT
    _, eta, _ = quit_threshold(QUIT)
    cfg = SimConfig(dt=1e-3, replications=100_000, seed=601, t_max=100.0)
    est = evaluate_rule_mc(spec, StoppingRule("threshold_down", threshold=eta), cfg)
    ref = quit_candidate(QUIT).value(0.0, 0.0)
    band = max(3 * est.std_error, 0.02 * abs(ref))
    report(6, "quit MC vs closed form", abs(est.mean - ref) <= band,
           f"est {est.mean:.5f} +- {est.std_error:.5f}, ref {ref:.5f}, "
           f"trunc {est.truncation_fraction:.3f}")


@pytest.mark.slow
def test_criterion_07_threshold_optimality():
    sell_spec = SELL
    _, lam1 = lambda_roots(SELL.a1, SELL.b1, SELL.rho)
    xi = sell_threshold(lam1, SELL.cost)
    quit_spec = QUIT
    _, eta, _ = quit_threshold(QUIT)
    sell_grid = [xi + 0.25 * k for k in range(-3, 4)]
    quit_grid = [eta + 0.1 * k for k in range(-3, 4)]
    failures = []
    for seed in (1, 2, 3, 4, 5):
        sw = threshold_sweep(
            sell_spec, sell_grid,
            SimConfig(dt=1e-3, replications=20_000, seed=700 + seed, t_max=100.0),
        )
        if abs(sw.argmax_threshold - xi) > 0.25 + 1e-12:
            failures.append(("sell", seed, sw.argmax_threshold))
        sw = threshold_sweep(
            quit_spec, quit_grid,
            SimConfig(dt=1e-3, replications=20_000, seed=750 + seed, t_max=60.0),
        )
        if abs(sw.argmax_threshold - eta) > 0.1 + 1e-12:
            failures.append(("quit", seed, sw.argmax_threshold))
    report(7, "threshold optimality under CRN", not failures,
           f"argmax off by more than one cell: {failures or 'none'}")


@pytest.mark.slow
def test_criterion_08_particle_reduction():
    spec = make_sell_model(
        SELL.a1, SELL.b1, SELL.s1, SELL.rho, SELL.cost, constant_mark(0.5, -0.2)
    )
    worst = 0.0
    for rep in range(100):
        ss = np.random.SeedSequence(801, spawn_key=(rep,))
        rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
        common = CommonNoisePath.sample(1.0, 1e-3, rng_common)
        result = simulate_path(spec, common, 10_000, rng_cloud)
        ref = conditional_mean_oracle(spec, common)[-1]
        worst = max(worst, abs(result.m_bar[-1] - ref) / abs(ref))
    oracle_ok = worst < 0.05

    _, lam1 = lambda_roots(SELL.a1, SELL.b1, SELL.rho)
    rule = StoppingRule("threshold_up", threshold=sell_threshold(lam1, SELL.cost))
    fast = evaluate_rule_mc(
        spec, rule,
        SimConfig(dt=1e-2, replications=20_000, seed=802, t_max=60.0),
    )
    part = evaluate_rule_mc(
        spec, rule,
        SimConfig(dt=1e-2, replications=300, seed=803, t_max=60.0, mode="particle",
                  n_particles=2000),
    )
    combined = 3 * math.hypot(fast.std_error, part.std_error)
    values_ok = abs(fast.mean - part.mean) <= combined
    report(8, "particle reduction", oracle_ok and values_ok,
           f"max rel error {worst:.4f}, fast {fast.mean:.4f} vs particle "
           f"{part.mean:.4f} (band {combined:.4f})")


def test_criterion_09_fokker_planck_cross_check():
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    x = make_grid(-3.0, 3.0, 601)
    ss = np.random.SeedSequence(901)
    rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
    common = CommonNoisePath.sample(0.5, 1e-4, rng_common)
    density, diags = evolve_spide(
        gaussian_density(x, 0.0, 0.3), spec, 1e-4, common.increments
    )
    coarse = CommonNoisePath(1e-3, common.increments.reshape(-1, 10).sum(axis=1))
    result = simulate_path(spec, coarse, 100_000, rng_cloud)
    kde = kde_density(result.cloud, None, x)
    l1 = compare_to_particles(density, kde)
    defect = max(d.mass_defect for d in diags)
    report(9, "Fokker-Planck vs particle KDE", l1 < 0.1 and defect < 1e-6,
           f"L1 {l1:.4f}, max per-step mass defect {defect:.2e}")


def test_criterion_10_measure_calculus():
    # worked cases: F(z) = z^2 and F(z) = z reduce to explicit pairings
    z, hq, kq = 1.7, 0.3, -0.8
    exact = (
        frechet_gradient_cylinder(lambda v: 2 * v, z, hq) == 2 * z * hq
        and frechet_hessian_cylinder(lambda v: 2.0, z, hq, kq) == 2 * hq * kq
        and frechet_gradient_cylinder(lambda v: 1.0, z, hq) == hq
        and frechet_hessian_cylinder(lambda v: 0.0, z, hq, kq) == 0.0
    )
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        poly = np.polynomial.Polynomial(rng.uniform(-1, 1, 5))
        z = float(rng.uniform(0.2, 2.0))
        hq = float(rng.uniform(-1, 1))
        kq = float(rng.uniform(-1, 1))
        eps = 1e-6
        fd_grad = (poly(z + eps * hq) - poly(z - eps * hq)) / (2 * eps)
        worst = max(
            worst, abs(frechet_gradient_cylinder(poly.deriv(), z, hq) - fd_grad)
        )
        d1 = poly.deriv()
        fd_hess = (d1(z + eps * kq) - d1(z - eps * kq)) / (2 * eps) * hq
        worst = max(
            worst, abs(frechet_hessian_cylinder(poly.deriv(2), z, hq, kq) - fd_hess)
        )
    report(10, "measure-derivative calculus", exact and worst < 1e-6,
           f"worked cases exact {exact}, max FD deviation {worst:.2e}")


def test_criterion_11_dynkin_diagnostic():
    sell_spec = make_sell_model(SELL.a1, SELL.b1, SELL.s1, SELL.rho, SELL.cost,
                                initial_law=InitialLaw("point", 1.5))
    sell_run = dynkin_residual(
        sell_spec, SimConfig(dt=1e-3, replications=20_000, seed=1101, t_max=0.5))
    quit_spec = make_quit_model(QUIT.b0, QUIT.s0, rho=QUIT.rho,
                                initial_law=InitialLaw("point", 0.3))
    quit_run = dynkin_residual(
        quit_spec, SimConfig(dt=1e-3, replications=20_000, seed=1102, t_max=0.5))
    sell_ok = abs(sell_run.residual) <= 3 * sell_run.std_error
    quit_ok = abs(quit_run.residual) <= 3 * quit_run.std_error
    report(11, "Dynkin martingale diagnostic", sell_ok and quit_ok,
           f"sell {sell_run.residual:.5f} (3SE {3 * sell_run.std_error:.5f}), "
           f"quit {quit_run.residual:.5f} (3SE {3 * quit_run.std_error:.5f})")


def test_criterion_12_determinism_across_workers(tmp_path):
    body = {
        "experiment": "evaluate_rule",
        "model": {"family": "sell", "alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
                  "rho": 0.2, "a": 1.0, "m0": 1.0},
        "numerics": {
            "dt": 0.01, "replications": 8000, "t_max": 20.0, "batch_size": 1000,
            "rule": {"kind": "threshold_up", "threshold": 2.7127373132569206},
        },
        "seed": 1201,
        "output": str(tmp_path / "out"),
        "checks": {"closed_form_tolerance": 0.05},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    config = load_config(str(path))
    outputs = {}
    for workers in (1, 4, 8):
        run_experiment(config, workers=workers)
        outputs[workers] = (
            (tmp_path / "out" / "estimate.csv").read_bytes(),
            (tmp_path / "out" / "summary.json").read_bytes(),
        )
    identical = outputs[1] == outputs[4] == outputs[8]
    report(12, "byte-identical reruns across worker counts", identical,
           "estimate.csv and summary.json compared for 1/4/8 workers")
