"""Monte Carlo engine for multidimensional Levy walks with heavy-tailed
step durations and speeds, plus the statistical checks that pin its output
distributions to their scaling limits."""

from .errors import (ConfigError, DegenerateInput, InsufficientData,
                     PathTooShort, TrajectoryExhausted, ValidationError)
from .randgen import (SpectralMeasure, SubordinatorPath, TailLaw,
                      build_subordinator_path, draw_pareto,
                      extend_subordinator_path, inverse_subordinator,
                      positive_stable, sample_direction, stream_rng)
from .walk import (Trajectory, expected_steps, position_continuous,
                   position_jump_first, position_wait_first, renewal_count,
                   sample_trajectory, walks, write_trajectory_csv)
from .scaling import (CRITICAL, SUBORDINATOR_DOMINATED, VELOCITY_DOMINATED,
                      EnsembleSnapshot, Regime, classify_regime,
                      continuous_limit_interpolation, joint_partial_sums,
                      rescaled_ensemble)
from .stats import (LogCorrectionFit, hill_estimator, ks_distance,
                    log_correction_fit, product_tail_theory,
                    scaling_exponent_fit, spearman)
from .harness import (ExperimentConfig, ReportRow, SUITES, aggregate_reports,
                      parse_config, run_simulate, run_suite)

__version__ = "0.1.0"
