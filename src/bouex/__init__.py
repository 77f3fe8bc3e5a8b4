"""Branching Ornstein-Uhlenbeck / Brownian extremes toolkit.

Simulates extremal point processes of branching diffusions, estimates the
large-deviation prefactor of the maximal displacement by two independent
routes (spine Monte Carlo and a Fisher-KPP front oracle), samples the
limiting decorated Poisson point processes, and verifies the exact
identities and limit laws statistically.
"""

__version__ = "0.1.0"

from .gaussian import (SQRT2, GammaConstants, gamma_constants, normalization_factor,
                       pair_covariance)
from .measure import Centering
from .cloud import simulate_forest
from .spine import (EstimatorResult, estimate_C, estimate_C_curve, limit_intensity,
                    sample_decoration, sample_limit_process, truncation_horizon)
from .kpp import KppField, KppParams, estimate_C_pde, front_tail, solve_kpp
from .checks import (CheckReport, TestFunction, check_first_moment,
                     check_iid_limit, check_many_to_one, check_many_to_two,
                     check_max_limit_law, check_second_moment_gap,
                     check_slepian_monotonicity, check_spine_identity)
from .errors import (NumericalFailureError, RejectionBudgetError,
                     ResourceLimitError)
