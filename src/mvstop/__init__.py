"""Simulation and verification laboratory for optimal stopping of
conditional mean-field jump diffusions with common noise.

The package ties together four layers: model declarations (`model`), the
conditional-law machinery (`particle` clouds and the `fokker_planck`
density integrator), generator calculus on cylinder functions with
variational-inequality checking (`generator`), and closed-form solutions
plus Monte Carlo rule evaluation (`stopping`).  The `cli` module runs
reproducible batch experiments from JSON configs.
"""

__version__ = "1.0.0"

from .fokker_planck import (
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
from .generator import (
    CylinderFunction,
    StoppingCandidate,
    VarIneqReport,
    apply_generator_cylinder,
    check_variational_inequalities,
    default_probe_grid,
    frechet_gradient_cylinder,
    frechet_hessian_cylinder,
    measure_flow_coefficients,
)
from .model import (
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
from .particle import (
    CommonNoisePath,
    ParticleCloud,
    PathResult,
    SimulationError,
    conditional_pairing,
    init_cloud,
    kde_density,
    silverman_bandwidth,
    simulate_path,
    step,
)
from .stopping import (
    DynkinResult,
    McEstimate,
    Payoff,
    QuitParams,
    SellParams,
    SimConfig,
    StoppingRule,
    SweepResult,
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

__all__ = [name for name in dir() if not name.startswith("_")]
