"""Perpetua: analysis and simulation of perpetuities Z = Q1 + M1 Q2 + M1 M2 Q3 + ...

The random series is driven by i.i.d. pairs (M, Q).  The package decides
almost-sure convergence, tests p-moment and exponential-moment finiteness,
locates the abscissa of convergence of the moment generating function, and
samples the limit law with reproducible splittable random streams.
"""

from .errors import (LawValidationError, NonConvergentError, PerpetuaError,
                     PreconditionError)
from .existence import (VERDICT_CONVERGES, VERDICT_DEGENERATE,
                        VERDICT_DIVERGES, VERDICT_EXACT_STOP, VERDICT_UNKNOWN,
                        ExistenceReport, degeneracy_scan, existence_report,
                        log_contraction_profile, product_vanishes_verdict,
                        tail_integral_verdict)
from .laws import (FAMILIES, Beta, Exponential, FiniteDiscrete, FiniteJoint,
                   Gamma, Independent, InverseGamma, LogPareto, PointMass,
                   Poisson, ScalarLaw, SignedRademacher, UniformContinuous,
                   UniformDiscreteRange, Weibull, event_prob, joint_from_json,
                   joint_to_json, law_from_json, law_to_json)
from .moments import (REGIME_BOUNDARY, REGIME_CONTRACTING, REGIME_EXPANDING,
                      AbscissaResult, ExpFeasibility, MomentReport,
                      cauchy_hadamard_estimate, classify_regime,
                      exp_feasible_at, exp_perpetuity_moment,
                      p_moment_criterion, r_of_perpetuity, r_star,
                      zstar_bound)
from .oracles import (OracleSpec, PurityProbe, bernoulli_convolution_cf,
                      oracle_gamma_sizebias, oracle_geometric,
                      oracle_levy_half, oracle_uniform_digits,
                      oracle_uniform_symmetric, pitman_yor_lt, purity_probe)
from .sampling import (DEFAULT_EPSILON, DEFAULT_MAX_TERMS,
                       EmpiricalDistribution, PerpetuityConfig, SampleOutcome,
                       atom_scan, cf_modulus_grid, empirical_cf,
                       empirical_moment, fixed_point_residual, ks_distance,
                       sample_batch, sample_perpetuity, to_csv, two_sample_ks)
from .streams import RandomStream, derive_seed
from .verify import CHECKS, run_check

__version__ = "0.1.0"

__all__ = [
    "PerpetuaError", "LawValidationError", "PreconditionError",
    "NonConvergentError",
    "RandomStream", "derive_seed",
    "ScalarLaw", "PointMass", "FiniteDiscrete", "UniformContinuous",
    "UniformDiscreteRange", "Exponential", "Gamma", "Beta", "Weibull",
    "Poisson", "InverseGamma", "SignedRademacher", "LogPareto", "FAMILIES",
    "Independent", "FiniteJoint",
    "event_prob", "law_to_json", "law_from_json", "joint_to_json",
    "joint_from_json",
    "ExistenceReport", "existence_report", "degeneracy_scan",
    "log_contraction_profile", "product_vanishes_verdict",
    "tail_integral_verdict",
    "VERDICT_CONVERGES", "VERDICT_DIVERGES",
    "VERDICT_DEGENERATE", "VERDICT_EXACT_STOP", "VERDICT_UNKNOWN",
    "PerpetuityConfig", "SampleOutcome", "EmpiricalDistribution",
    "sample_perpetuity", "sample_batch", "fixed_point_residual", "ks_distance",
    "two_sample_ks", "empirical_cf", "cf_modulus_grid", "empirical_moment",
    "atom_scan", "to_csv", "DEFAULT_EPSILON", "DEFAULT_MAX_TERMS",
    "MomentReport", "ExpFeasibility", "AbscissaResult", "classify_regime",
    "p_moment_criterion", "zstar_bound", "exp_feasible_at", "r_star",
    "r_of_perpetuity", "exp_perpetuity_moment",
    "cauchy_hadamard_estimate", "REGIME_CONTRACTING", "REGIME_BOUNDARY",
    "REGIME_EXPANDING",
    "OracleSpec", "PurityProbe", "oracle_geometric", "oracle_uniform_digits",
    "oracle_uniform_symmetric", "oracle_gamma_sizebias", "oracle_levy_half",
    "pitman_yor_lt", "bernoulli_convolution_cf", "purity_probe",
    "CHECKS", "run_check",
]
