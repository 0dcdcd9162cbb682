"""Skeletal G-crossed braided tensor categories: data, consistency
equations, twisting by cocycles, obstructions, and equivalences."""

from . import (
    category,
    compose,
    consistency,
    constructions,
    equivalence,
    errors,
    groups,
    torsor,
)
from .category import (
    GxTheory,
    abelian_subgroup,
    monodromy,
    quantum_dimensions,
    theory_from_json,
    theory_to_json,
    validate,
)
from .groups import (
    AbelianModule,
    Cochain,
    FiniteGroup,
    U1Module,
    cohomologous,
    cohomology,
    is_cocycle,
)
from .torsor import TorsorInput, apply_torsor, relative_obstruction, solve_cocycleator

__version__ = "0.1.0"

__all__ = [
    "GxTheory", "FiniteGroup", "Cochain", "U1Module", "AbelianModule",
    "TorsorInput",
    "abelian_subgroup", "monodromy", "quantum_dimensions", "validate",
    "is_cocycle", "cohomology", "cohomologous",
    "apply_torsor", "relative_obstruction", "solve_cocycleator",
    "theory_to_json", "theory_from_json",
    "category", "compose", "consistency", "constructions", "equivalence",
    "errors", "groups", "torsor",
]
