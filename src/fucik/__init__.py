"""Certified Riesz-basis analysis of asymmetric-oscillation systems on (0, pi).

The package lays out the piecewise-sine profiles attached to the spectrum
curves of -u'' = alpha u+ - beta u-, takes their sine and cosine moments,
means, shape coefficients and projection defects in closed form, bounds the
deviation of a whole system from the sine basis by an explicit envelope, and
certifies the Riesz-basis property through a Paley-Wiener-style perturbation
criterion.  Gram matrices are an independent cross-check that certification
never runs.  No runtime path uses quadrature: fucik.quadrature is the
adaptive Simpson rule that the tests hold the closed forms to.  Only the Gram
layer, fucik.gram, imports numpy, and it loads on first use of one of its
names as a package attribute, the way fucik.cli reaches it too; every other
layer is floats only and loads with the package.  Every record is a
collections.namedtuple subclass, with no generated code, so a scalar
subcommand never loads inspect.  fucik.spectrum holds the one rule for an
index and the one for a real argument, which every public function checks
its scalars with where they enter, and every refusal of the package is an
InputError (a ValueError), of which SpectrumError is a subclass.
"""

import importlib

from .certify import (
    Certificate,
    SystemSpec,
    certify_system,
    constant_component,
    deviation_budget,
    deviation_cap,
    parse_system,
    profile_scaling,
    projection_defect,
    projection_defect_bound,
    shape_coefficients,
)
from .eigenfunction import SUP_NORM, arcs, moments
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
    InputError,
    ReflectedCurveError,
    SpectrumError,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)

__version__ = "0.1.0"

# the one place that defers loading a layer: names of the Gram layer, the
# only one that imports numpy, which loads on first use of one of them
_LAZY = {
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
    "SUP_NORM",
    "SpectrumError",
    "SystemSpec",
    "arcs",
    "certify_system",
    "coefficient",
    "coefficient_bound",
    "constant_component",
    "deviation_budget",
    "deviation_cap",
    "dilation_norm_bound",
    "dilation_parameter",
    "envelope",
    "envelope_root",
    "envelope_value",
    "is_diagonal",
    "moments",
    "parse_system",
    "profile_scaling",
    "point_from_gamma",
    "projection_defect",
    "projection_defect_bound",
    "shape_coefficients",
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
