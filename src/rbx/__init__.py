"""rbx: exact computation with integration-type Rota-Baxter operators on Q[x].

The library represents the injective weight-zero operators by their moduli
points (base point, multiplier), checks the defining identity on exact
truncations, eliminates the attached functional coordinate system, and
synthesizes verified words in the shear/conjugation generators acting on
the moduli space.
"""

from .actions import (
    Dilate,
    InvalidGenerator,
    Shear,
    ShearSquared,
    Translate,
    Word,
    affine_orbit_word,
    apply_word,
    apply_word_tuple,
    inverse_word,
    word_from_json,
    word_to_json,
)
from .functionals import (
    FunctionalCoords,
    IndexTooSmall,
    coordinate_equation,
    coords_from_operator,
    curve_coords,
    elimination_polynomial,
    functional_residual,
    operator_from_coords,
    recover_base_point,
    reduced_equation,
    satisfies_system,
    vanishes_on_curve,
)
from .mpoly import DegreeCapExceeded, MPoly, UnassignedVariable
from .operators import (
    AnalyticOp,
    Inconsistent,
    NoRationalBasePoint,
    NotMultiplierType,
    TruncOp,
    TruncationTooSmall,
    ZeroMultiplier,
    derived_multiplier,
    first_rb_failure,
    is_rb_upto,
    odd_halving_example,
    operator_to_point,
)
from .poly import (
    Poly,
    PolyParseError,
    as_rat,
)
from .transitivity import (
    BasePointMismatch,
    DuplicateOperators,
    LinearlyDependent,
    VerificationFailed,
    solve_distinct_tuple,
    solve_single,
    solve_tuple_independent,
)

__version__ = "0.1.0"

__all__ = [
    "Dilate", "InvalidGenerator", "Shear", "ShearSquared", "Translate", "Word",
    "affine_orbit_word", "apply_word", "apply_word_tuple",
    "inverse_word", "word_from_json", "word_to_json",
    "FunctionalCoords", "IndexTooSmall", "coordinate_equation", "coords_from_operator",
    "curve_coords", "elimination_polynomial",
    "functional_residual", "operator_from_coords", "recover_base_point",
    "reduced_equation", "satisfies_system", "vanishes_on_curve",
    "DegreeCapExceeded", "MPoly", "UnassignedVariable",
    "AnalyticOp", "Inconsistent", "NoRationalBasePoint", "NotMultiplierType", "TruncOp",
    "TruncationTooSmall", "ZeroMultiplier", "derived_multiplier", "first_rb_failure",
    "is_rb_upto", "odd_halving_example", "operator_to_point",
    "Poly", "PolyParseError", "as_rat",
    "BasePointMismatch", "DuplicateOperators", "LinearlyDependent", "VerificationFailed",
    "solve_distinct_tuple", "solve_single", "solve_tuple_independent",
]
