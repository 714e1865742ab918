"""Exact-arithmetic workbench for finite-dimensional Hom-associative,
Hom-Leibniz, and Hom-Leibniz Poisson algebras given by structure
constants: identity checkers, representation theory, matched pairs,
(relative) Rota-Baxter operators and the structures they induce,
Nijenhuis deformations, and an exact solver for operator equations on
small examples.

Submodules load on first use of a name from them (PEP 562), so a
program that needs only the checkers never imports the solver."""

from importlib import import_module as _import_module

# Each public submodule and the public names it defines.
_EXPORTS = {
    "algebra": (
        "ASSOCIATIVE", "LEIBNIZ", "POISSON", "HomAlgebra", "StructureTensor",
        "check_algebra", "check_hom_associative", "check_hom_leibniz",
        "check_ideal", "check_morphism", "check_multiplicative",
        "check_poisson_compat", "yau_twist",
    ),
    "errors": (
        "KindMismatchError", "ParseError", "PreconditionError", "ShapeError",
        "SoundnessError", "UnknownNameError",
    ),
    "kernel": (),
    "linalg": (
        "AffineSolution", "Matrix", "Vector", "frac", "format_lincomb",
        "kernel_basis", "solve_linear",
    ),
    "matched": ("MatchedPair", "check_matched_pair", "matched_sum"),
    "operators": (
        "OperatorContext", "check_morphism_property", "check_nijenhuis",
        "check_relative_rbo", "check_rota_baxter", "graph_check",
        "induced_algebra", "induced_representation", "lift_operator",
        "nijenhuis_deform", "projection_context",
    ),
    "representation": (
        "ActionTensor", "Representation", "check_representation",
        "ideal_representation", "power_twist_representation",
        "pullback_representation", "regular_representation",
        "semidirect_product", "twist_representation",
    ),
    "reporting": ("CheckReport", "CheckResult", "Witness"),
    "solver": (
        "AffineFamily", "Elimination", "PolySystem", "Polynomial",
        "SolutionSet", "eliminate_linear", "generate_constraints",
        "parameter_sequence", "solve", "solve_relative_rbo", "verify_solution",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    elif name in _ORIGIN:
        value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
