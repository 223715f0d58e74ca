"""weylkit: the Weyl-Heisenberg operator basis and qudit channel simulation.

The package builds the d**2 operators ``X_l Z_k`` on C^d, decomposes
arbitrary operators over them, realizes system-environment interactions as
explicit isometries, and extracts and compares the resulting quantum
channels in Kraus form.  See the module docstrings for the conventions each
layer fixes.

``import weylkit`` loads no submodule.  Each public name, and each submodule
(``weylkit.channels`` and so on), is imported on first access through the
module ``__getattr__`` (PEP 562), so a program that uses one layer compiles
only that layer and the layers under it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channels": (
        "QuantumChannel",
        "apply_channel",
        "channel_from_dilation",
        "channel_to_json",
        "channels_equal",
        "choi_matrix",
        "choi_to_json",
        "is_trace_preserving",
        "json_to_channel",
        "kraus_mix",
        "unitality_deficit",
        "weyl_channel",
    ),
    "config": ("DEFAULT_TOLERANCES", "Tolerances", "replace_tolerance"),
    "dilation": (
        "GammaTable",
        "WeylFormTerm",
        "env_gram",
        "evolve_density",
        "evolve_pure",
        "gamma_to_json",
        "json_to_gamma",
        "make_isometry",
        "weyl_form_of_joint",
    ),
    "errors": ("DomainError", "ParseError", "ShapeError", "ValidationError", "WeylkitError"),
    "numerics": (
        "basis_ket",
        "frobenius_distance",
        "json_to_matrix",
        "json_to_vector",
        "matrix_to_json",
        "partial_trace_env",
        "validate_density_matrix",
        "validate_ket",
        "vector_to_json",
    ),
    "verify": ("VerifyReport", "run_verification"),
    "weyl": (
        "WeylBasis",
        "WeylIndex",
        "clock_matrix",
        "coefficients_to_json",
        "commutator_in_basis",
        "decompose",
        "gram_matrix",
        "json_to_coefficients",
        "omega",
        "reconstruct",
        "shift_matrix",
        "weyl_basis",
        "weyl_element",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("channels", "config", "dilation", "errors", "numerics", "rand", "verify", "weyl")

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
