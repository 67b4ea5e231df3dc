"""Colorings, cocycle state sums and polynomial invariants of oriented
singular links, computed exactly over finite structures given by tables."""

from .polynomial import (BasePolynomial, ExponentTag, InvariantValue,
                         parse_polynomial)
from .algebra import (OperationTable, OrientedSingquandle, Psyquandle,
                      ShadowStructure, ValidationReport, AlgebraError,
                      InvalidStructureError, ParameterError,
                      affine_singquandle, are_isomorphic, formula_shadow,
                      formula_structure, is_homomorphism, parse_algebra,
                      profile, quandle_from_group, shadow_closure,
                      substructure_closure, validate_psyquandle,
                      validate_quandle, validate_shadow,
                      validate_singquandle)
from .diagram import (Crossing, Region, SemiArc, SingularDiagram,
                      DiagramError, ParseError, parse_diagram,
                      validate_diagram)
from .coloring import (Coloring, psyquandle_colorings, shadow_colorings,
                       singquandle_colorings)
from .invariants import (BoltzmannPair, CocyclePair, CocycleSpace,
                         InvariantError, SP, boltzmann_single, boltzmann_two,
                         parse_weights, phi_ssqp, restrict,
                         shadow_polynomial_invariant, solve_cocycle_space,
                         sp, sqp, ssqp, state_sum, strongly_compatible,
                         validate_boltzmann, validate_cocycle_pair)

__version__ = "0.1.0"
