import math

import numpy as np
import pytest

from mvstop.generator import (
    CylinderFunction,
    apply_generator_cylinder,
    check_variational_inequalities,
    default_probe_grid,
    frechet_gradient_cylinder,
    frechet_hessian_cylinder,
    measure_flow_coefficients,
)
from mvstop.model import make_quit_model, make_sell_model
from mvstop.stopping import QuitParams, SellParams, quit_candidate, sell_candidate


def _exp_decay(rho):
    return (lambda s: math.exp(-rho * s), lambda s: -rho * math.exp(-rho * s))


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
    sell = make_sell_model(0.1, 0.3, 0.2)
    assert measure_flow_coefficients(sell, 2.0) == (pytest.approx(0.2), pytest.approx(0.6))
    quit_ = make_quit_model(0.3, 0.1)
    assert measure_flow_coefficients(quit_, 2.0) == (0.0, 0.3)


def test_generator_on_power_function():
    # psi = e^{-rho s}, F = z^lam: G phi = e^{-rho s} z^lam (-rho + a0 lam + s1^2 lam(lam-1)/2)
    spec = make_sell_model(0.1, 0.3, 0.2)
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
    good.check_derivatives([0.5], [1.0, 2.0])
    bad = CylinderFunction(
        psi, psi_p, F=lambda z: z**2, F_prime=lambda z: 3 * z,   # wrong slope
        F_double_prime=lambda z: 2.0,
    )
    with pytest.raises(ValueError, match="F_prime"):
        bad.check_derivatives([0.5], [1.0])


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
    phi.check_derivatives(rng.uniform(0, 2, 5), rng.uniform(0.5, 3.0, 10))


class TestVariationalInequalities:
    def test_sell_candidate_passes(self):
        params = SellParams(0.1, 0.3, 0.2, 0.2, 1.0)
        spec = make_sell_model(0.1, 0.3, 0.2)
        probe_s, probe_z = default_probe_grid(0.01, 20.0, 200, 2.0, 10, log_z=True)
        report = check_variational_inequalities(
            sell_candidate(params), spec, probe_s, probe_z
        )
        assert report.passed()
        d = report.to_dict()
        assert d["continuation_max_abs_residual"] < 1e-10
        assert d["obstacle_violations"] == 0

    def test_quit_candidate_passes(self):
        params = QuitParams(0.3, 0.1, rho=0.2)
        spec = make_quit_model(0.3, 0.1)
        probe_s, probe_z = default_probe_grid(-2.0, 4.0, 200, 2.0, 10, log_z=False)
        report = check_variational_inequalities(
            quit_candidate(params), spec, probe_s, probe_z
        )
        assert report.passed()

    def test_wrong_threshold_flagged(self):
        params = QuitParams(0.3, 0.1, rho=0.2)
        spec = make_quit_model(0.3, 0.1)
        bad = quit_candidate(params, eta=-0.9)
        probe_s, probe_z = default_probe_grid(-2.0, 4.0, 200, 2.0, 10, log_z=False)
        report = check_variational_inequalities(bad, spec, probe_s, probe_z)
        assert not report.passed()

    def test_report_is_json_safe(self):
        import json

        params = QuitParams(0.3, 0.1, rho=0.2)
        spec = make_quit_model(0.3, 0.1)
        probe_s, probe_z = default_probe_grid(-2.0, 4.0, 50, 2.0, 5, log_z=False)
        report = check_variational_inequalities(
            quit_candidate(params), spec, probe_s, probe_z
        )
        json.dumps(report.to_dict())
