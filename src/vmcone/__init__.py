"""Macroparticle solver for the spherically symmetric relativistic
Vlasov-Maxwell system with data on a past light cone, with a diagnostics
engine for its conservation laws and an independent finite-difference
auditor for the characteristic constraint equations."""

__version__ = "0.1.0"

from .phase_model import (InitialDatum, ParticleSet, builtin_datum,
                          sample_particles, check_measure_positivity,
                          kinematics, ANGULAR_FACTOR)
from .characteristics import (IntegrationError, integrate_reduced,
                              integrate_cartesian, phase_divergence,
                              phase_divergence_fd, flow_jacobian_det,
                              embed_reduced_state, one_plus_phat_k)
from .radial_field import (ShellGrid, MOMENTS, moment_payloads, deposit,
                           cumulative_source, solve_field, node_field,
                           eval_field, radial_integral)
from .config import RunConfig, ConfigError, config_from_dict, parse_config
from .cone_evolver import (SliceHistory, ParticleState, RunAborted, run,
                           step, auto_r_max, default_probe_radii, nirc_flux)
from . import cone_diagnostics
from .constraint_audit import (GriddedFieldSet, grid_from_functions, audit,
                               check_equivalence, embed_symmetric_solution,
                               EQUIVALENCE_FACTOR)
from .io_utils import (emit_history, load_history, emit_report, save_grid,
                       load_grid)
from .report import diagnose_report, jacobian_report, audit_report
