"""warpflow: harmonic map flow into warped-product Lorentzian targets.

Finite-element simulator for the coupled parabolic-elliptic system

    du/dt = Lap u + A(u)(grad u, grad u) - B_tan(u) |grad v|^2
    -div(beta(u) grad v) = 0

on planar domains with Dirichlet data, plus a diagnostics engine checking
the energy inequalities, concentration (bubbling) detection, and convergence
to stationary maps.
"""

from .boundary import BoundaryData, boundary_data_from_presets
from .diagnostics import (CheckResult, ConvergenceReport, DiagnosticsReport,
                          EnergyRecord, RunBounds, SingularityEvent,
                          ThresholdConfig, check_singularity_counts,
                          convergence_monitor, derive_verdicts,
                          energy_functionals, hard_checks_pass,
                          inequality_suite, singularity_detect)
from .elliptic import EllipticSolution, harmonic_extension, solve_warped_laplace
from .errors import (ConfigParseError, DegeneratePoint, InsufficientSeries,
                     InvalidShapeParameters, NonPositiveCoefficient,
                     SolverFailure, StepRejected, WarpflowError)
from .flow import (FlowState, Schedule, StepperConfig, default_probe_centers,
                   initial_state, run_flow, step, tension_residual)
from .geometry import (FlatTorus, UnitSphere, WarpFunction, make_target,
                       warp_force)
from .mesh import (BallIndex, DomainMesh, build_mesh, dirichlet_energy,
                   dump_mesh, local_energy_matrix, write_snapshot)
from .scenario import (ScenarioConfig, ScenarioResult, TwinResult,
                       build_scenario, builtin_scenarios, check_report_file,
                       parse_config_text, resolve_config, run_scenario, twin_run)

__version__ = "0.1.0"
