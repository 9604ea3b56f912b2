"""Exact solutions of nonlinear von Neumann equations by binary Darboux
dressing, with numerical certification of every claim that is checkable at
finite dimension."""

__version__ = "0.1.0"

from .errors import (DarbouxError, DefectiveEigenproblem, FarPin,
                     InconsistentLax, SingularDarboux, UnnormalizableError,
                     UnsupportedScenario)
from .tolerances import DEFAULT, Tolerances
from .operator_core import (NormalExp, commutator, dagger, eig_hermitian,
                            eig_pair_general, eig_pair_left, frob,
                            is_hermitian, mat_exp, trace_moments)
from .vne_model import (Flow, ModelSpec, ResidualReport, hamiltonian_of,
                        residual, residuals, rhs, rhs_alt)
from .seed_factory import (SeedFamily, SeedSolution, make_anticommuting_seed,
                           make_commuting_seed, make_delta_commuting_seed,
                           make_pure_state_seed)
from .lax_engine import (DarbouxParams, LaxSolution, build_lax, lax_generator,
                         solve_initial, solve_initial_left)
from .darboux_engine import (Diagnostics, DressedFlow, DressedState,
                             Trajectory, dress, dressed_state_at,
                             dressed_trajectory, explicit_eavn, f_value,
                             projector)
from .symmetry_transforms import (RescaledFlow, ShiftedFlow,
                                  normalize_to_density, rescaled_flow,
                                  shifted_flow)
from .verification import CheckResult, VerificationReport, run_suite
