"""Exact-arithmetic workbench for finite-dimensional Hom-associative,
Hom-Leibniz, and Hom-Leibniz Poisson algebras given by structure
constants: identity checkers, representation theory, matched pairs,
(relative) Rota-Baxter operators and the structures they induce,
Nijenhuis deformations, and an exact solver for operator equations on
small examples."""

from .algebra import (
    ASSOCIATIVE, LEIBNIZ, POISSON, HomAlgebra, StructureTensor,
    check_algebra, check_hom_associative, check_hom_leibniz, check_ideal,
    check_morphism, check_multiplicative, check_poisson_compat, yau_twist,
)
from .errors import (
    KindMismatchError, ParseError, PreconditionError, ShapeError,
    SoundnessError, UnknownNameError,
)
from .linalg import (
    AffineSolution, Matrix, Vector, frac, format_lincomb, kernel_basis,
    solve_linear,
)
from .matched import MatchedPair, check_matched_pair, matched_sum
from .operators import (
    OperatorContext, check_morphism_property, check_nijenhuis,
    check_relative_rbo, check_rota_baxter, graph_check, induced_algebra,
    induced_representation, lift_operator, nijenhuis_deform,
    projection_context,
)
from .representation import (
    ActionTensor, Representation, check_representation, ideal_representation,
    power_twist_representation, pullback_representation,
    regular_representation, semidirect_product, twist_representation,
)
from .reporting import CheckReport, CheckResult, Witness
from .solver import (
    AffineFamily, Elimination, PolySystem, Polynomial, SolutionSet,
    eliminate_linear, generate_constraints, parameter_sequence, solve,
    solve_relative_rbo, verify_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
