"""Finite-volume central schemes for 1-D scalar conservation laws with
spatially discontinuous flux coefficients, with built-in verification of
the schemes' stability and entropy estimates."""

from .diagnostics import (DiagnosticsCollector, DiagnosticsReport, accumulate_cubic,
                          correction_bound_check, entropy_residual_lf, nu_coefficient,
                          onesided_check, psi_constant)
from .experiments import (ErrorRow, ErrorTable, ExperimentSpec, InitialData,
                          example_1, example_2, l1_error, reference_run,
                          refinement_study, run_experiment)
from .flux_model import (BUILTIN_MODELS, Coefficient, Convexity, FluxModel,
                         HypothesisReport, builtin_burgers_const_k,
                         builtin_multiplicative, builtin_two_flux_rational,
                         make_model, verify_hypotheses)
from .grid import (Mesh, Parity, StaggeredState, cell_average_coefficient,
                   cell_average_initial, extend_absorbing, initial_state,
                   write_state_csv)
from .limiter import LimiterConfig, LimiterKind, slopes
from .schemes import (CflError, CflLevel, Scheme, SchemeConfig, cfl_bound, lf_step,
                      march, mid_time_values, nt_step, predictor_corrector_step,
                      snap_steps)

__version__ = "0.1.0"
