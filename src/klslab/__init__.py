"""Sampling and geometry experiments for logconcave densities.

Geometric random walks over convex bodies, isoperimetry and mixing
diagnostics, annealed volume estimation, sampling-based optimization,
isotropic rounding, and a discrete-time stochastic localization
simulator with needle-decomposition experiments.
"""

__version__ = "0.1.0"

from .bodies import (AxisCube, Ball, BallIntersection, Body, BodyError,
                     Polytope, RestrictedBody, TransformedBody, simplex,
                     transform_body)
from .densities import (Boltzmann, Density, Exponential, Gaussian, Tilted,
                        Uniform, chord_profile)
from .diagnostics import (BallSet, ConstantsReport, HalfspaceSet, SlabSet,
                          ball_walk_mixing_estimate, compute_constants,
                          conductance_tv_bound, direction_family,
                          halfspace_isoperimetry, log_cheeger_halfspace,
                          mixing_bounds, poincare_family_min, poincare_ratio,
                          slicing_constant, subset_isoperimetry, thin_shell)
from .estimates import Estimate
from .isotropy import estimate_mean_cov, iterated_gaussian_isotropy
from .linalg import (CovMatrix, SingularCovarianceError, power_opnorm,
                     stieltjes_u, sym_inv_sqrt)
from .needles import NeedleCell, NeedleResult, balanced_split, needle_decompose
from .rng import RngStream, as_generator, as_stream
from .sloc import (LocalizationState, ObservablePool, SlocError,
                   TrajectoryRecord, moment_inequality_check, sloc_init,
                   sloc_run, sloc_step)
from .volume import (AnnealSchedule, CutPlaneResult, OptimizeResult,
                     OracleInconsistencyError, VolumePhaseError, VolumeResult,
                     anneal_optimize, ball_schedule, cutting_plane_feasibility,
                     dfk_volume, exponential_schedule, gaussian_cooling_schedule,
                     gaussian_cooling_volume, lv_annealing_volume,
                     optimize_schedule, ratio_estimator, separation_oracle_for)
from .walks import (ChainState, NoExactSampler, WalkError, advance_ensemble,
                    coordinate_hit_and_run_step, default_delta, exact_or_chain,
                    exact_sample, hit_and_run_step, run_chain,
                    sample_chord_point, warm_start)
from .config import ConfigError, ExperimentConfig, parse_config
