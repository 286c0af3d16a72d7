"""Splitting solvers for monotone inclusions over closed subspaces.

Finds zeros of ``A x + B x + N_V x`` for a maximally monotone ``A`` (given
by its resolvents), a cocoercive ``B`` (evaluated explicitly) and the normal
cone of a closed subspace ``V``, through two coupled first-order methods: a
forward step on ``B`` followed by either a Douglas-Rachford step on
``(A, N_V)`` or a proximal step on the partial inverse of ``A`` with respect
to ``V``.  Product-space reductions handle sums of finitely many operators,
and a convex-optimization front end covers ``min f + g`` over a subspace.
"""

from .spaces import (InnerProduct, SubspaceProjector, as_vector,
                     audit_projector, identity_projector, matrix_projector,
                     span_projector, zero_mean_projector, zero_projector)
from .operators import (AveragedOperator, CocoerciveMap, ResolventFamily,
                        affine_gradient, linear_monotone, normal_cone_box,
                        normal_cone_of_subspace, subdifferential_abs,
                        zero_cocoercive, zero_operator)
from .km import (CONVERGED, DIVERGED, MAX_ITERS, ErrorSchedule, IterationRow,
                 RelaxationSchedule, SolveResult, composed_alpha,
                 constant_relaxation, geometric_errors, harmonic_errors,
                 km_solve, no_errors, polynomial_relaxation)
from .fdr import (InclusionProblem, PrimalDualResult, build_S, build_T,
                  fdr_solve)
from .fpi import (OracleError, StepSchedule, constant_steps,
                  fpi_explicit_solve, fpi_solve)
from .productspace import (ProductProblem, ProductSolveResult, parallel_dr2,
                           sum_splitting_pi, sum_splitting_solve)
from .variational import (ProxFunction, SmoothFunction, box_function,
                          l1_function, min_over_subspace, prox_l1,
                          quadratic_function, quadratic_smooth, zero_function,
                          zero_smooth)

__version__ = "0.1.0"
