"""Finite atomic measure spaces with ball-bases: sparse tree constructions,
bounded-oscillation operator constants, pointwise sparse domination, and an
empirical inequality harness."""

from .errors import (AlphaViolated, BallBasisError, BetaOutOfRange,
                     ConfigError, ConstructionFailure, EmptySet, InfZero,
                     LambdaExhausted, NestingViolated, NotACover,
                     NotComparable, NotDoubling, NotRestricted, OracleTooLarge,
                     PostconditionFailure, RegularityViolation, ZeroBmoNorm)
from .space import (AxiomReport, Ball, BallBasis, MeasureSpace, build_dyadic,
                    build_grid, check_axioms, exhausting_sequence)
from .functional import (Params, RegularFamily, VecFunction, alpha_core,
                         alpha_oscillation, average, ball_averages_all,
                         bmo_norm, build_regular_family, fit_exponential_rate,
                         general_maximal, maximal, median, sharp_all,
                         sup_sharp_all)
from .operators import (BOConstants, OperatorDescriptor,
                        conditional_expectation, delta, discrete_hilbert,
                        estimate_bo_constants, identity_operator,
                        martingale_transform, maximal_modulation,
                        riesz_potential, sparse_operator, square_function,
                        truncate, zero_operator)
from .sparsify import (MartingaleFamily, SparseTree, child_cover, disjointify,
                       sparsify_tree, vitali_cover)
from .domination import (SparseBound, VerificationReport, dominate_bo,
                         dominate_mean_osc, lerner_decompose,
                         verify_sparse_bound)
from .verify import (Corpus, Report, Weight, ap_characteristics,
                     bmo_bounded_report, bmo_bounded_reports, exp_decay_report,
                     good_lambda_report, john_nirenberg_report,
                     strong_domination_check, weak_type_report)

__version__ = "0.1.0"
