"""warpflow: harmonic map flow into warped-product Lorentzian targets.

Finite-element simulator for the coupled parabolic-elliptic system

    du/dt = Lap u + A(u)(grad u, grad u) - B_tan(u) |grad v|^2
    -div(beta(u) grad v) = 0

on planar domains with Dirichlet data, plus a diagnostics engine checking
the energy inequalities, concentration (bubbling) detection, and convergence
to stationary maps.  The root exports the pieces a run is built from; the
rest is imported from its module (the run driver from `warpflow.scenario`).
"""

from .boundary import boundary_data_from_presets
from .diagnostics import ThresholdConfig, inequality_suite, singularity_detect
from .elliptic import solve_warped_laplace
from .flow import Schedule, StepperConfig, initial_state, run_flow, step
from .geometry import WarpFunction, make_target
from .mesh import build_mesh

__version__ = "0.1.0"
