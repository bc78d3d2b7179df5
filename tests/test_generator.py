import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mvstop.generator import (
    OBSTACLE_TOL,
    CylinderFunction,
    VarIneqReport,
    apply_generator_cylinder,
    check_variational_inequalities,
    default_probe_grid,
    frechet_gradient_cylinder,
    frechet_hessian_cylinder,
)
from mvstop.model import make_quit_model, make_sell_model
from mvstop.stopping import (
    FAMILIES, lambda_roots, quit_candidate, quit_payoff, sell_candidate, sell_payoff,
)


def _exp_decay(rho):
    return (lambda s: np.exp(-rho * s), lambda s: -rho * np.exp(-rho * s))


class TestFrechetCalculus:
    """The measure derivatives of F(<mu, q>) reduce to scalar calculus."""

    def test_square_functional(self):
        # F(z) = z^2: gradient 2 z <h,q>, hessian 2 <h,q> <k,q>
        z, hq, kq = 1.7, 0.3, -0.8
        assert frechet_gradient_cylinder(lambda v: 2 * v, z, hq) == pytest.approx(2 * z * hq)
        assert frechet_hessian_cylinder(lambda v: 2.0, z, hq, kq) == pytest.approx(2 * hq * kq)

    def test_linear_functional(self):
        # F(z) = z: gradient <h,q>, hessian 0
        assert frechet_gradient_cylinder(lambda v: 1.0, 0.4, 0.9) == pytest.approx(0.9)
        assert frechet_hessian_cylinder(lambda v: 0.0, 0.4, 0.9, 0.2) == 0.0

    def test_hessian_symmetry(self):
        val = frechet_hessian_cylinder(lambda v: 3 * v, 1.1, 0.5, -0.7)
        swapped = frechet_hessian_cylinder(lambda v: 3 * v, 1.1, -0.7, 0.5)
        assert val == swapped


def test_measure_flow_coefficients():
    # the generator reads the flow's (a(z), b(z)) from the spec's drift and common diffusion
    sell = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    assert (sell.drift(2.0), sell.diffusion_common(2.0)) == (
        pytest.approx(0.2), pytest.approx(0.6))
    quit_ = make_quit_model(0.3, 0.1)
    assert (quit_.drift(2.0), quit_.diffusion_common(2.0)) == (0.0, 0.3)


def test_generator_on_power_function():
    # psi = e^{-rho s}, F = z^lam: G phi = e^{-rho s} z^lam (-rho + a0 lam + s1^2 lam(lam-1)/2)
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
    rho, lam = 0.2, 1.5
    psi, psi_p = _exp_decay(rho)
    phi = CylinderFunction(
        psi, psi_p,
        F=lambda z: z**lam,
        F_prime=lambda z: lam * z ** (lam - 1),
        F_double_prime=lambda z: lam * (lam - 1) * z ** (lam - 2),
    )
    s, z = 0.7, 1.3
    got = apply_generator_cylinder(phi, s, z, spec)
    expect = math.exp(-rho * s) * z**lam * (
        -rho + 0.1 * lam + 0.5 * 0.09 * lam * (lam - 1)
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_derivative_check_catches_errors():
    psi, psi_p = _exp_decay(0.2)
    good = CylinderFunction(
        psi, psi_p, F=lambda z: z**2, F_prime=lambda z: 2 * z,
        F_double_prime=lambda z: 2.0,
    )
    assert good.derivative_mismatches([0.5], [1.0, 2.0]) == []
    bad = CylinderFunction(
        psi, psi_p, F=lambda z: z**2, F_prime=lambda z: 3 * z,   # wrong slope
        F_double_prime=lambda z: 2.0,
    )
    assert bad.derivative_mismatches([0.5], [1.0]) == ["F_prime", "F_double_prime"]


@pytest.mark.parametrize("n_seed", range(5))
def test_derivatives_of_random_cylinder_functions(n_seed):
    rng = np.random.default_rng(100 + n_seed)
    rho = float(rng.uniform(0.1, 1.0))
    coeffs = rng.uniform(-1, 1, 4)
    psi, psi_p = _exp_decay(rho)
    poly = np.polynomial.Polynomial(coeffs)
    phi = CylinderFunction(
        psi, psi_p, F=poly, F_prime=poly.deriv(), F_double_prime=poly.deriv(2),
    )
    assert phi.derivative_mismatches(rng.uniform(0, 2, 5), rng.uniform(0.5, 3.0, 10)) == []


class TestVariationalInequalities:
    def test_sell_candidate_passes(self):
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        probe_s, probe_z = default_probe_grid(0.01, 20.0, 200, 2.0, 10, log_z=True)
        report = check_variational_inequalities(
            sell_candidate(spec), spec, sell_payoff(spec), probe_s, probe_z
        )
        assert report.passed()
        d = report.to_dict()
        assert d["continuation_max_abs_residual"] < 1e-10
        assert d["obstacle_violations"] == 0

    def test_quit_candidate_passes(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        probe_s, probe_z = default_probe_grid(-2.0, 4.0, 200, 2.0, 10, log_z=False)
        report = check_variational_inequalities(
            quit_candidate(spec), spec, quit_payoff(spec), probe_s, probe_z
        )
        assert report.passed()

    def test_wrong_threshold_flagged(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        bad = quit_candidate(spec, eta=-0.9)
        probe_s, probe_z = default_probe_grid(-2.0, 4.0, 200, 2.0, 10, log_z=False)
        report = check_variational_inequalities(bad, spec, quit_payoff(spec), probe_s, probe_z)
        assert not report.passed()

    def test_report_is_json_safe(self):
        quit_spec = make_quit_model(0.3, 0.1, rho=0.2)
        sell_spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        quit_report = check_variational_inequalities(
            quit_candidate(quit_spec), quit_spec, quit_payoff(quit_spec),
            *default_probe_grid(-2.0, 4.0, 50, 2.0, 5, log_z=False))
        # below the sell threshold: no stopping probes, so no stopping maximum
        sell_report = check_variational_inequalities(
            sell_candidate(sell_spec), sell_spec, sell_payoff(sell_spec),
            *default_probe_grid(0.5, 2.0))
        for report in (quit_report, sell_report):
            json.dumps(report.to_dict(), allow_nan=False)
        assert sell_report.n_stopping_probes == 0 and sell_report.passed()
        assert sell_report.to_dict()["stopping_max_residual"] is None

    @pytest.mark.parametrize("window", [(-1.0, 20.0), (0.0, 20.0), (0.01, -2.0)])
    def test_log_probe_window_needs_positive_ends(self, window):
        # a non-positive end would probe NaNs and pass with no continuation probes
        with pytest.raises(ValueError, match="log probe window needs z_min, z_max > 0"):
            default_probe_grid(*window, log_z=True)

    def test_wrong_second_derivative_fails(self):
        # F = z^p at p = 0.8 lambda1 with the smooth-fit threshold p a / (p - 1) = 4.744 and
        # an F'' that zeroes the generator residual: residuals, obstacle and pasting all pass,
        # yet its value at z = 1 is 0.5207 against the true 0.3526
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        lam1 = lambda_roots(spec.a1, spec.b1, spec.rho)[1]
        p = 0.8 * lam1
        xi = p * spec.cost / (p - 1)
        psi0 = (xi - spec.cost) / xi**p
        wrong = replace(sell_candidate(spec, xi), continuation=CylinderFunction(
            psi=lambda s: psi0 * np.exp(-spec.rho * s),
            psi_prime=lambda s: -spec.rho * psi0 * np.exp(-spec.rho * s),
            F=lambda z: z**p,
            F_prime=lambda z: p * z ** (p - 1),
            F_double_prime=lambda z: (spec.rho * z**p - spec.a1 * p * z**p)
            / (0.5 * spec.b1**2 * z**2)))
        assert wrong.value(0.0, 1.0) == pytest.approx(0.5207, abs=1e-4)
        window = FAMILIES["sell"].probe(sell_candidate(spec).threshold)
        probe_s, probe_z = default_probe_grid(**window)
        report = check_variational_inequalities(wrong, spec, sell_payoff(spec), probe_s, probe_z)
        assert report.continuation_max_abs_residual <= 1e-15
        assert report.stopping_max_residual <= report.tol and report.obstacle_violations == 0
        assert max(report.continuity_gap, report.smooth_fit_gap) <= report.gap_tol
        assert report.derivative_mismatches == ["continuation.F_double_prime"]
        assert not report.passed()
        assert report.to_dict()["derivative_mismatches"] == ["continuation.F_double_prime"]

    def test_a_stopping_branch_off_the_obstacle_fails(self):
        # the optimal candidate of cost 0.8 against the obstacle of cost 1: it stops at
        # e^{-rho s} (z - 0.8), above the payoff it would receive, and only dominated the
        # obstacle, so every other check passes, yet its value at z = 1 is 0.4016 against
        # the true 0.3526
        spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
        wrong = sell_candidate(replace(spec, cost=0.8))
        assert wrong.value(0.0, 1.0) == pytest.approx(0.4016, abs=1e-4)
        report = check_variational_inequalities(wrong, spec, sell_payoff(spec),
                                                *default_probe_grid(0.01, 20.0))
        assert report.continuation_max_abs_residual <= report.tol
        assert report.stopping_max_residual <= report.tol and not report.derivative_mismatches
        assert max(report.continuity_gap, report.smooth_fit_gap) <= report.gap_tol
        assert report.obstacle_violations == report.n_stopping_probes > 0
        assert all(gap == pytest.approx(0.2 * math.exp(-0.2 * s))
                   for s, _, gap in report.worst_probes)
        assert not report.passed()

    def test_a_candidate_is_checked_against_the_running_profit_it_is_given(self):
        # the optimal quit value solves A phi + f = 0 for quit's profit f = e^{-rho s} z:
        # against a problem without running profit its residual is -f, largest at s = 0
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        probe_s, probe_z = default_probe_grid(**FAMILIES["quit"].probe(_ETA))
        assert check_variational_inequalities(
            quit_candidate(spec), spec, quit_payoff(spec), probe_s, probe_z).passed()
        report = check_variational_inequalities(
            quit_candidate(spec), spec, (None, None), probe_s, probe_z)
        assert report.continuation_max_abs_residual == pytest.approx(probe_z[-1], rel=1e-9)
        assert report.stopping_max_residual <= report.tol and report.obstacle_violations == 0
        assert not report.passed()

    def test_nan_residual_fails(self):
        spec = make_quit_model(0.3, 0.1, rho=0.2)
        good = quit_candidate(spec)
        broken = replace(good, continuation=replace(
            good.continuation, F_double_prime=lambda z: np.nan * z))
        probe_s, probe_z = default_probe_grid(**FAMILIES["quit"].probe(good.threshold))
        report = check_variational_inequalities(broken, spec, quit_payoff(spec), probe_s, probe_z)
        assert report.n_continuation_probes > 0
        assert math.isnan(report.continuation_max_abs_residual)
        assert not report.passed()
        assert report.to_dict()["continuation_max_abs_residual"] is None


# ---------------------------------------------------------------------------
# the array checker against the per-probe loop it replaced


def _per_probe_report(candidate, spec, probe_s, probe_z, tol=1e-10, gap_tol=1e-8):
    """The variational-inequality check one probe at a time, in Python scalars,
    against the family's payoff."""
    f, g = FAMILIES[spec.family].payoff(spec)
    n_probes = {True: 0, False: 0}
    cont_max_abs, stop_max = 0.0, -np.inf
    violations, worst = 0, []
    for s in np.atleast_1d(probe_s):
        s = float(s)
        for z in np.atleast_1d(probe_z):
            z = float(z)
            if candidate.z_floor is not None and z <= candidate.z_floor:
                continue
            inside = candidate.in_continuation(z)
            phi = candidate.continuation if inside else candidate.stopping
            a, b = spec.drift(z), spec.diffusion_common(z)
            res = phi.psi_prime(s) * phi.F(z) + phi.psi(s) * (
                phi.F_prime(z) * a + 0.5 * phi.F_double_prime(z) * b * b)
            if f is not None:
                res += f(s, z)
            n_probes[inside] += 1
            if inside:
                cont_max_abs = max(cont_max_abs, abs(res))
            else:
                stop_max = max(stop_max, res)
            value, obstacle = candidate.value(s, z), 0.0 if g is None else g(s, z)
            if (value < obstacle - OBSTACLE_TOL
                    or not inside and abs(value - obstacle) > OBSTACLE_TOL):
                violations += 1
                if len(worst) < 10:
                    worst.append((s, z, float(value - obstacle)))
    th = candidate.threshold
    continuity_gap = smooth_gap = 0.0
    for s in np.atleast_1d(probe_s):
        s = float(s)
        cont, stop = candidate.continuation, candidate.stopping
        continuity_gap = max(continuity_gap, abs(cont.value(s, th) - stop.value(s, th)))
        smooth_gap = max(smooth_gap, abs(cont.dz(s, th) - stop.dz(s, th)))
    return VarIneqReport(
        cont_max_abs, stop_max, n_probes[True], n_probes[False],
        violations, continuity_gap, smooth_gap, tol, gap_tol, worst,
    )


_RESIDUAL_MAXIMA = ("continuation_max_abs_residual", "stopping_max_residual")


_SELL = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0)
_QUIT = make_quit_model(0.3, 0.1, rho=0.2)
_XI = sell_candidate(_SELL).threshold
_ETA = quit_candidate(_QUIT).threshold
# (family spec, candidate threshold or None, probe window): the families'
# default windows, the frozen CLI windows and perturbed thresholds
_WINDOWS = {
    "sell_default": (_SELL, None, FAMILIES["sell"].probe(_XI)),
    "quit_default": (_QUIT, None, FAMILIES["quit"].probe(_ETA)),
    "sell_frozen": (_SELL, None, {**FAMILIES["sell"].probe(_XI), "n_z": 30, "n_s": 3}),
    "quit_frozen": (_QUIT, -0.5, {**FAMILIES["quit"].probe(_ETA), "n_z": 30, "n_s": 3}),
    "sell_perturbed": (_SELL, _XI + 0.5, FAMILIES["sell"].probe(_XI)),
    "quit_perturbed": (_QUIT, -0.9, FAMILIES["quit"].probe(_ETA)),
}


def _both_reports(spec, threshold, window):
    candidate = FAMILIES[spec.family].candidate(spec, threshold)
    probe_s, probe_z = default_probe_grid(**window)
    payoff = FAMILIES[spec.family].payoff(spec)
    return (check_variational_inequalities(candidate, spec, payoff, probe_s, probe_z),
            _per_probe_report(candidate, spec, probe_s, probe_z))


@pytest.mark.parametrize("window", list(_WINDOWS))
def test_array_check_equals_per_probe_loop(window):
    array, loop = _both_reports(*_WINDOWS[window])
    assert array == loop


def test_array_check_round_off_on_a_linear_sell_window():
    # numpy's array ** may round one ulp away from Python's scalar **
    window = {"z_min": 0.01, "z_max": 20.0, "log_z": False}
    array, loop = _both_reports(_SELL, None, window)
    for key in _RESIDUAL_MAXIMA:
        assert abs(getattr(array, key) - getattr(loop, key)) <= 1e-15
    assert replace(array, **{key: getattr(loop, key) for key in _RESIDUAL_MAXIMA}) == loop
