"""Colorings, cocycle state sums and polynomial invariants of oriented
singular links, computed exactly over finite structures given by tables.

Every public name is loaded from its module on first use (PEP 562), so
``import singq`` loads no submodule and a command compiles only what it
runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"


class SingqError(ValueError):
    """Base of every error singq raises for malformed or unsuitable input;
    the command line reports one with exit code 2."""


# public name -> the module that defines it
_HOME = {name: module for module, names in (
    ("polynomial", ("BasePolynomial", "parse_polynomial")),
    ("algebra", ("OperationTable", "OrientedSingquandle", "Psyquandle",
                 "ShadowStructure", "ValidationReport", "AlgebraError",
                 "InvalidStructureError", "ParameterError",
                 "affine_singquandle", "formula_shadow", "formula_structure",
                 "parse_algebra", "profile", "shadow_closure",
                 "substructure_closure", "validate_psyquandle",
                 "validate_quandle", "validate_shadow",
                 "validate_singquandle")),
    ("morphisms", ("are_isomorphic", "is_homomorphism",
                   "quandle_from_group")),
    ("diagram", ("Crossing", "Region", "SemiArc", "SingularDiagram",
                 "DiagramError", "ParseError", "parse_diagram",
                 "validate_diagram")),
    ("coloring", ("Coloring", "psyquandle_colorings", "shadow_colorings",
                  "singquandle_colorings")),
    ("invariants", ("CocycleSpace", "InvariantError", "InvariantValue",
                    "WeightPair", "boltzmann_single", "boltzmann_two",
                    "parse_weights", "phi_ssqp", "restrict",
                    "shadow_polynomial_invariant", "solve_cocycle_space",
                    "sp", "sqp", "ssqp", "state_sum", "strongly_compatible",
                    "validate_boltzmann", "validate_cocycle_pair")),
) for name in names}

# submodules that ``from singq import *`` binds too
_SUBMODULES = ("algebra", "coloring", "diagram", "invariants", "polynomial")

__all__ = sorted([*_HOME, *_SUBMODULES, "SingqError"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted([*__all__, *(k for k in globals() if k.startswith("__"))])
