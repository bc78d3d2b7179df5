import numpy as np
import pytest

from mvstop.fokker_planck import (
    CFLError,
    GridDensity,
    GridError,
    StepDiagnostics,
    apply_A0_star,
    apply_A1_star,
    cfl_bound,
    compare_to_particles,
    evolve_spide,
    gaussian_density,
    make_grid,
    step_spide,
)
from mvstop.model import (
    InitialLaw, constant_mark, discrete_marks, make_quit_model, make_sell_model,
)


@pytest.fixture
def quit_spec():
    return make_quit_model(0.4, 0.3, initial_law=InitialLaw("normal", 0.0, 0.3))


def test_grid_density_validation():
    with pytest.raises(GridError):
        GridDensity(np.array([0.0, 1.0, 3.0]), np.zeros(3))   # non-uniform
    with pytest.raises(GridError):
        GridDensity(np.array([0.0, 1.0]), np.zeros(2))        # too short


def test_decreasing_grid_rejected():
    x = np.linspace(3.0, -3.0, 601)     # uniform, but dx < 0
    with pytest.raises(GridError, match="increasing"):
        GridDensity(x, np.ones_like(x))
    with pytest.raises(GridError, match="increasing"):
        gaussian_density(x, 0.0, 0.3)
    with pytest.raises(GridError, match="increasing"):
        GridDensity(np.zeros(5), np.ones(5))   # dx == 0


def test_gaussian_density_mass_and_moment():
    d = gaussian_density(make_grid(-4, 4, 801), 0.5, 0.3)
    assert d.mass() == pytest.approx(1.0, abs=1e-12)
    assert d.first_moment() == pytest.approx(0.5, abs=1e-8)


def test_a1_star_integrates_to_zero(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    rate = apply_A1_star(d, quit_spec, d.first_moment())
    assert abs(np.trapezoid(rate, d.x)) < 1e-12


def test_a0_star_integrates_to_zero(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    rate = apply_A0_star(d, quit_spec, d.first_moment())
    assert abs(np.trapezoid(rate, d.x)) < 1e-12


def test_diffusion_spreads_variance(quit_spec):
    # with dB1 = 0 only the total diffusion acts: var grows by (b1^2+b2^2) t
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    dt, n_steps = 5e-5, 2000
    d, _ = evolve_spide(d, quit_spec, dt, np.zeros(n_steps))
    var = np.trapezoid(d.x**2 * d.values, d.x) - d.first_moment() ** 2
    expected = 0.3**2 + (0.4**2 + 0.3**2) * dt * n_steps
    assert var == pytest.approx(expected, rel=1e-3)


def test_common_noise_translates_density(quit_spec):
    # sigma2 = 0: the density rides the common Brownian path rigidly
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    x = make_grid(-3, 3, 601)
    rng = np.random.default_rng(5)
    incs = rng.normal(0.0, np.sqrt(1e-4), 2000)
    d, diags = evolve_spide(gaussian_density(x, 0.0, 0.3), spec, 1e-4, incs)
    exact = gaussian_density(x, 0.4 * incs.sum(), 0.3)
    assert compare_to_particles(d, exact) < 0.01
    assert max(dg.mass_defect for dg in diags) < 1e-12


def test_jump_term_preserves_mass():
    spec = make_sell_model(
        0.1, 0.2, 0.1, 0.2, 1.0, constant_mark(1.0, -0.2), InitialLaw("lognormal", 0.0, 0.15)
    )
    x = make_grid(-1.0, 3.0, 801)
    safe = np.where(x > 0, x, 1.0)
    values = np.where(
        x > 0,
        np.exp(-0.5 * (np.log(safe) / 0.15) ** 2) / (safe * 0.15 * np.sqrt(2 * np.pi)),
        0.0,
    )
    d = GridDensity(x, values).normalized()
    d, diags = evolve_spide(d, spec, 2e-5, np.zeros(1000))
    assert d.mass() == pytest.approx(1.0, abs=1e-12)
    assert max(dg.mass_defect for dg in diags) < 1e-9


def test_cfl_violation_raises(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    bound = cfl_bound(d, quit_spec, d.first_moment())
    assert bound == pytest.approx(0.25 * d.dx**2 / 0.25)
    with pytest.raises(CFLError):
        step_spide(d, quit_spec, 2 * bound, 0.0)


def test_boundary_mass_raises(quit_spec):
    d = gaussian_density(make_grid(-0.5, 0.5, 101), 0.0, 0.3)   # fat tails on the grid edge
    with pytest.raises(GridError):
        step_spide(d, quit_spec, 1e-6, 0.0)


def test_clipping_reported(quit_spec):
    x = make_grid(-3, 3, 301)
    # a near-discontinuous profile produces dispersive undershoot
    values = np.where(np.abs(x) < 0.25, 2.0, 1e-9)
    d = GridDensity(x, values).normalized()
    d2, diag = step_spide(d, quit_spec, 2e-4, 0.05)
    assert diag.clipped_mass > 0
    assert np.all(d2.values >= 0)
    assert d2.mass() == pytest.approx(1.0, abs=1e-12)


def test_compare_requires_same_grid():
    a = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    b = gaussian_density(make_grid(-2, 2, 601), 0.0, 0.3)
    with pytest.raises(GridError):
        compare_to_particles(a, b)


# ---------------------------------------------------------------------------
# the step on a shared grid against the step that rebuilt and re-checked it

def _reference_d1(f, dx):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
    return out


def _reference_d2(f, dx):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx**2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / dx**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / dx**2
    return out


def _reference_A0_star(density, spec, m_bar):
    x, rho, dx = density.x, density.values, density.dx
    alpha = spec.drift(m_bar)
    b1 = spec.diffusion_common(m_bar)
    b2 = spec.diffusion_idio(m_bar)
    rate = -_reference_d1(alpha * rho, dx) + 0.5 * _reference_d2((b1 * b1 + b2 * b2) * rho, dx)
    if spec.levy.intensity > 0:
        for value, prob in spec.levy.atoms:
            gamma = spec.jump_amp(m_bar, value)
            shifted = np.interp(x - gamma, x, rho, left=0.0, right=0.0)
            rate = rate + spec.levy.intensity * prob * (
                shifted - rho + _reference_d1(gamma * rho, dx)
            )
    return rate


def _reference_A1_star(density, spec, m_bar):
    return -_reference_d1(spec.diffusion_common(m_bar) * density.values, density.dx)


def _reference_step(density, spec, dt, dB1, boundary_tol=1e-6, value_cap=1e12):
    x = density.x
    m_bar = float(np.trapezoid(x * density.values, x))
    bound = cfl_bound(density, spec, m_bar)
    if dt > bound * (1 + 1e-9):
        raise CFLError("dt exceeds the stability bound")
    rho = density.values
    if (abs(rho[0]) + abs(rho[-1])) * density.dx > boundary_tol:
        raise GridError("density mass at grid boundary")
    new = (rho + _reference_A0_star(density, spec, m_bar) * dt
           + _reference_A1_star(density, spec, m_bar) * dB1)
    if np.any(~np.isfinite(new)) or np.max(np.abs(new)) > value_cap:
        raise CFLError("density blow-up")
    defect = abs(float(np.trapezoid(new, x)) - 1.0)
    clipped = np.clip(new, 0.0, None)
    clipped_mass = float(np.trapezoid(np.where(new < 0, -new, 0.0), x))
    out = GridDensity(x, clipped / float(np.trapezoid(clipped, x)), density.time + dt)
    return out, StepDiagnostics(defect, clipped_mass, bound)


def _two_atom_sell():
    spec = make_sell_model(
        0.1, 0.2, 0.1, 0.2, 1.0, discrete_marks(0.8, [-0.2, -0.05], [0.6, 0.4]),
        InitialLaw("lognormal", 0.0, 0.15),
    )
    x = make_grid(-1.0, 3.0, 401)
    safe = np.where(x > 0, x, 1.0)
    values = np.where(
        x > 0,
        np.exp(-0.5 * (np.log(safe) / 0.15) ** 2) / (safe * 0.15 * np.sqrt(2 * np.pi)),
        0.0,
    )
    return spec, GridDensity(x, values).normalized(), 5e-5


def _quit_with_a_step_profile():
    # the near-discontinuous profile undershoots, so clipping is exercised
    spec = make_quit_model(0.4, 0.3, initial_law=InitialLaw("normal", 0.0, 0.3))
    x = make_grid(-3, 3, 301)
    return spec, GridDensity(x, np.where(np.abs(x) < 0.25, 2.0, 1e-9)).normalized(), 2e-4


def _quit_with_jumps():
    # zero drift, so the kernel skips that term next to the jump's own D[gamma rho]
    spec = make_quit_model(0.4, 0.3, gamma0=-0.1, intensity=0.5,
                           initial_law=InitialLaw("normal", 0.0, 0.3))
    return spec, gaussian_density(make_grid(-3, 3, 301), 0.0, 0.3), 2e-4


@pytest.mark.parametrize("case,clips", [(_quit_with_a_step_profile, True),
                                        (_two_atom_sell, False),
                                        (_quit_with_jumps, True)],
                         ids=["quit", "sell_two_atoms", "quit_jumps"])
def test_evolve_matches_reference_step(case, clips):
    spec, density, dt = case()
    incs = np.random.default_rng(17).normal(0.0, np.sqrt(dt), 320)
    got, got_diags = evolve_spide(density, spec, dt, incs)
    want, want_diags = density, []
    for dB1 in incs:
        want, diag = _reference_step(want, spec, dt, float(dB1))
        want_diags.append(diag)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.time == want.time
    assert got_diags == want_diags
    assert (sum(d.clipped_mass for d in got_diags) > 0) == clips


@pytest.mark.parametrize("dB1", [np.nan, np.inf, 1e300])
def test_non_finite_update_raises(quit_spec, dB1):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    with np.errstate(invalid="ignore"), pytest.raises(CFLError, match="blow-up"):
        step_spide(d, quit_spec, 1e-5, dB1)
    with np.errstate(invalid="ignore"), pytest.raises(CFLError, match="blow-up"):
        evolve_spide(d, quit_spec, 1e-5, [0.0, 0.001, dB1, 0.0])


def test_value_cap_raises(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    with pytest.raises(CFLError, match="blow-up"):
        step_spide(d, quit_spec, 1e-5, 1e13)


def _signed_start():
    # the start density carries -0.0 and small negative values, so the kernel
    # cannot skip the zero drift term on its first step
    spec = make_quit_model(0.4, 0.3)
    d = gaussian_density(make_grid(-3, 3, 301), 0.0, 0.3)
    values = d.values - 1e-7
    values[::7] = -0.0
    values[-4:] = [0.0, -0.0, 0.0, -0.0]  # the end of -D[0 rho] is +0.0, of 0.5 D^2[rho] -0.0
    return spec, GridDensity(d.x, values)


@pytest.mark.parametrize("case", [_quit_with_a_step_profile, _two_atom_sell, _quit_with_jumps,
                                  _signed_start],
                         ids=["quit", "sell_two_atoms", "quit_jumps", "signed_start"])
def test_operators_match_reference_bytes(case):
    spec, density = case()[:2]
    m_bar = density.first_moment()
    for got, want in [(apply_A0_star(density, spec, m_bar), _reference_A0_star(density, spec, m_bar)),
                      (apply_A1_star(density, spec, m_bar), _reference_A1_star(density, spec, m_bar))]:
        assert got.tobytes() == want.tobytes()   # signed zeros included
