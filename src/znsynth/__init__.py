"""Spectral synthesis inequalities and exact signal recovery on Z_N^d.

A workbench for band-limited functions on the finite group Z_N^d: unitary
Fourier analysis, sup-norm bounds driven by the size and structure of the
Fourier support, construction of the extremal families that make those
bounds sharp (random sets with small peak coefficient, coordinate
subgroups, near-Lambda(p) sets), and exact recovery of value-separated
real signals whose spectra are transmitted with some frequencies missing.
"""

from .constructions import (
    LambdaCandidate,
    PhiStat,
    RejectionSample,
    SubspaceSpec,
    TailReport,
    empirical_lambda_constant,
    hayes_tail_bound,
    hayes_tail_experiment,
    indicator_signal_norm_bound,
    lambda_constant_check,
    lambda_p_search,
    normalized_indicator_norms,
    normalized_indicator_signal,
    phi,
    random_set,
    rejection_sample_flat,
    rejection_sample_small_norm,
    subspace_pair,
)
from .errors import (
    BoundViolation,
    EnumerationBudgetExceeded,
    RecoveryError,
    SamplingBudgetExceeded,
    SupportViolation,
)
from .fourier import (
    FreqSet,
    Signal,
    Spectrum,
    convolve,
    forward,
    indicator_spectrum,
    inverse,
    support,
)
from .inequalities import (
    InequalityReport,
    dual_exponent,
    indicator_dual_norm_bound,
    lp_norm,
    vanishing_threshold,
    verify_indicator_bound,
    verify_support_bound,
)
from .lattice import GridShape, character, decode, dot, encode
from .recovery import (
    BruteForceResult,
    RecoveryProblem,
    RecoveryResult,
    alphabet_candidates,
    brute_force_recover,
    mask_spectrum,
    random_instance,
    recover,
    separation_check,
    symmetric_hidden_set,
    uniqueness_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "BruteForceResult",
    "EnumerationBudgetExceeded",
    "FreqSet",
    "GridShape",
    "InequalityReport",
    "LambdaCandidate",
    "PhiStat",
    "RecoveryError",
    "RecoveryProblem",
    "RecoveryResult",
    "RejectionSample",
    "SamplingBudgetExceeded",
    "Signal",
    "Spectrum",
    "SubspaceSpec",
    "SupportViolation",
    "TailReport",
    "alphabet_candidates",
    "brute_force_recover",
    "character",
    "convolve",
    "decode",
    "dot",
    "dual_exponent",
    "empirical_lambda_constant",
    "encode",
    "forward",
    "hayes_tail_bound",
    "hayes_tail_experiment",
    "indicator_dual_norm_bound",
    "indicator_signal_norm_bound",
    "indicator_spectrum",
    "inverse",
    "lambda_constant_check",
    "lambda_p_search",
    "lp_norm",
    "mask_spectrum",
    "normalized_indicator_norms",
    "normalized_indicator_signal",
    "phi",
    "random_instance",
    "random_set",
    "recover",
    "rejection_sample_flat",
    "rejection_sample_small_norm",
    "separation_check",
    "subspace_pair",
    "support",
    "symmetric_hidden_set",
    "uniqueness_certificate",
    "vanishing_threshold",
    "verify_indicator_bound",
    "verify_support_bound",
]
