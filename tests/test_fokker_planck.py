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
    check_grid,
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
    with pytest.raises(GridError, match="at least 4 nodes"):  # under the end stencils' width
        GridDensity(np.linspace(0.0, 1.0, 3), np.zeros(3))


def test_grid_with_uneven_steps_rejected():
    # 601 nodes on [-3, 3], the first 300 steps longer by 4.5e-11 relative and the rest as
    # much shorter: up to 1.35e-10 off uniform, which the KDE's binning would take as uniform
    dx = 6.0 / 600
    steps = np.r_[np.full(300, dx * (1 + 4.5e-11)), np.full(300, dx * (1 - 4.5e-11))]
    x = np.r_[-3.0, -3.0 + np.cumsum(steps)]
    assert abs(x[-1] - 3.0) < 1e-12
    for grid in (x, np.r_[np.linspace(-3.0, 3.0, 600), np.nan]):
        with pytest.raises(GridError, match="uniform"):
            check_grid(grid)


def test_linspace_grids_pass_the_uniformity_check():
    # np.linspace keeps every step within 2 ulps of max|x| of the first
    rng = np.random.default_rng(40)
    for _ in range(500):
        lo, width = rng.uniform(-100.0, 100.0), 10 ** rng.uniform(-3.0, 3.0)
        check_grid(np.linspace(lo, lo + width, int(rng.integers(4, 5000))))


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
    # the moments are numpy's trapezoid rule, to the bit
    assert d.mass() == np.trapezoid(d.values, d.x)
    assert d.first_moment() == np.trapezoid(d.x * d.values, d.x)


def test_a1_star_integrates_to_zero(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    rate = apply_A1_star(d, quit_spec, d.first_moment())
    assert abs(np.trapezoid(rate, d.x)) < 1e-12


def test_a0_star_integrates_to_zero(quit_spec):
    d = gaussian_density(make_grid(-3, 3, 601), 0.0, 0.3)
    rate = apply_A0_star(d, quit_spec, d.first_moment())
    assert abs(np.trapezoid(rate, d.x)) < 1e-12


@pytest.mark.parametrize("n", [601, 1201])
def test_a0_star_moment_identities(n):
    # <A0* rho, x^k> = <rho, A0 x^k> for k = 0, 1, 2 with the coefficients frozen at the
    # mean m: 0, a(m) and 2 m a + b1^2 + b2^2 + lambda gamma^2, plus, in the second moment,
    # the variance lambda dx^2 f (1 - f), f = frac(|gamma| / dx), that the linear
    # interpolation of the jump shift adds
    spec = make_sell_model(0.1, 0.3, 0.2, 0.2, 1.0, levy=constant_mark(0.5, -0.2))
    d = gaussian_density(make_grid(-2, 5, n), 1.5, 0.3)
    x, m = d.x, d.first_moment()
    rate = apply_A0_star(d, spec, m)
    a, gamma = spec.drift(m), spec.jump_amp(m, -0.2)
    second = 2 * m * a + spec.diffusion_common(m) ** 2 + spec.diffusion_idio(m) ** 2
    second += spec.levy.intensity * gamma**2
    f = abs(gamma) / d.dx % 1.0
    assert abs(np.trapezoid(rate, x)) <= 1e-13
    assert abs(np.trapezoid(x * rate, x) - a) <= 1e-13
    assert np.trapezoid(x * x * rate, x) - second == pytest.approx(
        spec.levy.intensity * d.dx**2 * f * (1 - f), abs=1e-12)


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
    # The kernel's stencil groups each node's sum otherwise than the operator
    # expressions of the reference: a step rounds a value by a few ulps of
    # the peak, so after n steps the bound is 4 n eps of the peak, and of
    # the unit mass for the clipped mass and the CFL bound (which reads the
    # first moment).  The mass defect stays at rounding level: within 4 eps.
    spec, density, dt = case()
    incs = np.random.default_rng(17).normal(0.0, np.sqrt(dt), 320)
    got, got_diags = evolve_spide(density, spec, dt, incs)
    want, want_diags = density, []
    for dB1 in incs:
        want, diag = _reference_step(want, spec, dt, float(dB1))
        want_diags.append(diag)
    eps = np.finfo(float).eps
    tol = 4 * incs.size * eps
    assert np.abs(got.values - want.values).max() <= tol * want.values.max()
    assert got.time == want.time
    for g, w in zip(got_diags, want_diags, strict=True):
        assert abs(g.mass_defect - w.mass_defect) <= 4 * eps
        assert abs(g.clipped_mass - w.clipped_mass) <= tol
        assert g.cfl_bound == pytest.approx(w.cfl_bound, rel=tol)
    assert (sum(d.clipped_mass for d in got_diags) > 0) == clips


def _rigid_quit():
    # no idiosyncratic noise: the density rides the common noise
    spec = make_quit_model(0.4, 0.0, initial_law=InitialLaw("normal", 0.0, 0.3))
    return spec, gaussian_density(make_grid(-3, 3, 301), 0.0, 0.3), 2e-4


@pytest.mark.parametrize("case", [_quit_with_jumps, _rigid_quit, _two_atom_sell],
                         ids=["quit_jumps", "rigid_quit", "sell_two_atoms"])
def test_evolve_equals_a_chain_of_fresh_steps(case):
    # step_spide builds a fresh kernel for each step, so a chain of its steps is the
    # reference for the coefficients that evolve_spide's one kernel computes once when no
    # coefficient reads the mean (both quit cases), and for its reused buffers
    spec, density, dt = case()
    incs = np.random.default_rng(18).normal(0.0, np.sqrt(dt), 200)
    got, got_diags = evolve_spide(density, spec, dt, incs)
    want, want_diags = density, []
    for dB1 in incs:
        want, diag = step_spide(want, spec, dt, float(dB1))
        want_diags.append(diag)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.time == want.time
    assert got_diags == want_diags


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
    # a start density with signed zeros and small negative values, which a
    # step's output never has
    spec = make_quit_model(0.4, 0.3)
    d = gaussian_density(make_grid(-3, 3, 301), 0.0, 0.3)
    values = d.values - 1e-7
    values[::7] = -0.0
    values[-4:] = [0.0, -0.0, 0.0, -0.0]
    return spec, GridDensity(d.x, values)


def _stencil_scale(density, spec, m_bar):
    """The largest term, per unit of max|rho|, of the stencils of A0* and A1*:
    the diffusion's 4 |c| / dx^2, the transports' |c| / dx and the jumps' 2 lambda p."""
    dx = density.dx
    b1, b2 = spec.diffusion_common(m_bar), spec.diffusion_idio(m_bar)
    a0 = 2 * (b1 * b1 + b2 * b2) / dx**2 + abs(spec.drift(m_bar)) / dx
    for value, prob in spec.levy.atoms if spec.levy.intensity > 0 else ():
        a0 += spec.levy.intensity * prob * (2 + abs(spec.jump_amp(m_bar, value)) / dx)
    return a0, abs(b1) / dx


@pytest.mark.parametrize("case", [_quit_with_a_step_profile, _two_atom_sell, _quit_with_jumps,
                                  _signed_start],
                         ids=["quit", "sell_two_atoms", "quit_jumps", "signed_start"])
def test_operators_match_reference_bytes(case):
    # each node of a three-point stencil rounds by a few ulps of its largest
    # term; the stated bound is 8 eps of that term
    spec, density = case()[:2]
    m_bar = density.first_moment()
    peak = np.abs(density.values).max() * 8 * np.finfo(float).eps
    scale_a0, scale_a1 = _stencil_scale(density, spec, m_bar)
    for got, want, scale in [
            (apply_A0_star(density, spec, m_bar), _reference_A0_star(density, spec, m_bar),
             scale_a0),
            (apply_A1_star(density, spec, m_bar), _reference_A1_star(density, spec, m_bar),
             scale_a1)]:
        assert np.abs(got - want).max() <= peak * scale
