"""Fourier-spectrum analysis, approximation bounds, and Lie-algebra
diagnostics for parameterized quantum circuits."""

__version__ = "0.1.0"

from .linalg import (DimMismatch, HermitianEigen, NoConvergence, NotHermitian,
                     QspecError, commutator, complex_gaussians, derive_seed, eig_hermitian,
                     haar_unitary, is_hermitian, rng_stream, unitary_from_generator)
from .spectrum import (FrequencyEnvelope, GapSet, NonCommensurate, NormalizedGapSet,
                       coverage_radius, coverage_radius_box, envelope, gap_set, normalize_gaps)
from .bounds import (DomainError, FourierSeries, SobolevParams, limit_probe,
                     minimax_lower_curve, sobolev_norm, truncation_error, unit_ball_sweep)
from .dla import (DimCap, DlaReport, LieBasis, ZeroMatrix, center_and_derived, dla_report,
                  eta, lie_closure, pauli_dla_report, pauli_expr_report)
from .qsim import (CircuitSpec, circuit_forward_batch, circuit_forward_encoded,
                   default_entangler, encode_inputs, grad_analytic_1p_batch, grad_fd,
                   make_generator, pauli_matrix, trig_poly_coeffs)
from .experiments import (AllZeroDifferences, TrainConfig, TrainReport,
                          VarianceSweepReport, analytic_variance_oracle, build_circuit,
                          fast_profile, gen_dataset, load_train_config,
                          spectrum_matching_experiment, variance_sweep, wilcoxon_exact)

__all__ = [name for name in dir() if not name.startswith("_")]
