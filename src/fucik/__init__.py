"""Certified Riesz-basis analysis of asymmetric-oscillation systems on (0, pi).

The package builds the piecewise-sine profiles attached to the spectrum
curves of -u'' = alpha u+ - beta u-, evaluates their Fourier data and
projection defects in closed form, bounds the deviation of a whole system
from the sine basis by an explicit envelope, and certifies the Riesz-basis
property through a Paley-Wiener-style perturbation criterion.  Gram
matrices are an independent cross-check that certification never runs.
No runtime path uses quadrature: fucik.quadrature is the adaptive Simpson
rule that the tests hold the closed forms to.
"""

from .certify import (
    Certificate,
    InputError,
    SystemSpec,
    certify_system,
    deviation_budget,
    deviation_cap,
    parse_system,
    profile_scaling,
    projection_defect,
    projection_defect_bound,
)
from .eigenfunction import (
    SUP_NORM,
    PiecewiseEigenfunction,
    build,
    evaluate,
)
from .envelope import (
    GAMMA_MAX,
    EnvelopeEval,
    coefficient_bound,
    envelope,
    envelope_root,
    envelope_value,
    zeta,
)
from .fourier import coefficient, dilation_norm_bound
from .gram import GramWitness, extremal_eigenvalues, gram_matrix, gram_witness
from .spectrum import (
    MEMBERSHIP_TOL,
    FucikPoint,
    ReflectedCurveError,
    SpectrumError,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "EnvelopeEval",
    "FucikPoint",
    "GAMMA_MAX",
    "GramWitness",
    "InputError",
    "MEMBERSHIP_TOL",
    "PiecewiseEigenfunction",
    "ReflectedCurveError",
    "SUP_NORM",
    "SpectrumError",
    "SystemSpec",
    "build",
    "certify_system",
    "coefficient",
    "coefficient_bound",
    "deviation_budget",
    "deviation_cap",
    "dilation_norm_bound",
    "dilation_parameter",
    "envelope",
    "envelope_root",
    "envelope_value",
    "evaluate",
    "extremal_eigenvalues",
    "gram_matrix",
    "gram_witness",
    "is_diagonal",
    "parse_system",
    "profile_scaling",
    "point_from_gamma",
    "projection_defect",
    "projection_defect_bound",
    "solve_alpha",
    "solve_beta",
    "zeta",
    "__version__",
]
