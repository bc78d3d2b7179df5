"""Simulation and verification laboratory for optimal stopping of
conditional mean-field jump diffusions with common noise.

The package ties together four layers: model declarations (`model`), the
conditional-law machinery (`particle` clouds and the `fokker_planck`
density integrator), generator calculus on cylinder functions with
variational-inequality checking (`generator`), and closed-form solutions
plus Monte Carlo rule evaluation (`stopping`).  The `cli` module runs
reproducible batch experiments from JSON configs.

Names are imported from their modules: ``from mvstop.stopping import SellParams``.
"""

__version__ = "1.0.0"
