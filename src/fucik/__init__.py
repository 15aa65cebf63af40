"""Certified Riesz-basis analysis of asymmetric-oscillation systems on (0, pi).

The package lays out the piecewise-sine profiles attached to the spectrum
curves of -u'' = alpha u+ - beta u-, takes their sine and cosine moments,
means, shape coefficients and projection defects in closed form, bounds the
deviation of a whole system from the sine basis by an explicit envelope, and
certifies the Riesz-basis property through a Paley-Wiener-style perturbation
criterion.  Gram matrices are an independent cross-check that certification
never runs.  No runtime path uses quadrature: fucik.quadrature is the
adaptive Simpson rule that the tests hold the closed forms to.  Only the Gram
layer, fucik.gram, imports numpy.  It, the certification engine
fucik.certify and the profile layer fucik.eigenfunction load on first use of
one of their names as a package attribute, the way fucik.cli reaches them
too, so each subcommand loads only the layers it runs; fucik.spectrum,
fucik.fourier and fucik.envelope are floats only and load with the package.
Every record is a collections.namedtuple subclass, with no generated code,
so a scalar subcommand never loads inspect.  fucik.spectrum holds the one
rule for an index and the one for a real argument, which every public
function checks its scalars with where they enter, and every refusal of the
package is an InputError (a ValueError), of which SpectrumError is a
subclass.
"""

import importlib

from .envelope import (
    GAMMA_MAX,
    EnvelopeEval,
    coefficient_bound,
    deviation_budget,
    deviation_cap,
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

# the one place that defers loading a layer: each name below loads its layer
# on first use.  fucik.gram is the one layer that imports numpy; certify and
# eigenfunction are floats only, but some subcommands never run them.
# spectrum, fourier and envelope load with the package: every subcommand runs
# them, and loading the submodule fucik.envelope binds it as a package
# attribute, which the function envelope, imported above, then replaces
_LAZY = {
    "Certificate": "certify",
    "SPLIT_AUTO": "certify",
    "SPLIT_DEFAULT": "certify",
    "SystemSpec": "certify",
    "certify_system": "certify",
    "constant_component": "certify",
    "parse_system": "certify",
    "profile_scaling": "certify",
    "projection_defect": "certify",
    "projection_defect_bound": "certify",
    "shape_coefficients": "certify",
    "SUP_NORM": "eigenfunction",
    "arcs": "eigenfunction",
    "moments": "eigenfunction",
    "GramWitness": "gram",
    "extremal_eigenvalues": "gram",
    "gram_matrix": "gram",
    "gram_witness": "gram",
}

__all__ = [
    "EnvelopeEval",
    "FucikPoint",
    "GAMMA_MAX",
    "InputError",
    "MEMBERSHIP_TOL",
    "ReflectedCurveError",
    "SpectrumError",
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
    "point_from_gamma",
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
