"""Certified Riesz-basis analysis of asymmetric-oscillation systems on (0, pi).

The package builds the piecewise-sine profiles attached to the spectrum
curves of -u'' = alpha u+ - beta u-, evaluates their Fourier data and
projection defects in closed form, bounds the deviation of a whole system
from the sine basis by an explicit envelope, and certifies the Riesz-basis
property through a Paley-Wiener-style perturbation criterion.  Gram
matrices are an independent cross-check that certification never runs.
No runtime path uses quadrature: fucik.quadrature is the adaptive Simpson
rule that the tests hold the closed forms to.  The profile and Gram layers,
fucik.eigenfunction and fucik.gram, load on first use of one of their names
as a package attribute, the way fucik.certify and fucik.cli reach them too.
fucik.gram imports numpy, and fucik.eigenfunction only inside the functions
that make arrays, so certification and the arc listing start without numpy.
"""

import importlib

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

# the one place that defers loading a layer: names of the profile and Gram
# layers, which load on first use, by the submodule that holds them
_LAZY = {
    "SUP_NORM": "eigenfunction",
    "PiecewiseEigenfunction": "eigenfunction",
    "arcs": "eigenfunction",
    "build": "eigenfunction",
    "evaluate": "eigenfunction",
    "moments": "eigenfunction",
    "GramWitness": "gram",
    "extremal_eigenvalues": "gram",
    "gram_matrix": "gram",
    "gram_witness": "gram",
}

__all__ = [
    "Certificate",
    "EnvelopeEval",
    "FucikPoint",
    "GAMMA_MAX",
    "InputError",
    "MEMBERSHIP_TOL",
    "ReflectedCurveError",
    "SpectrumError",
    "SystemSpec",
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
    *_LAZY,
]


def __getattr__(name: str):
    """Import the submodule that holds a lazy export and cache the value (PEP 562)."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
