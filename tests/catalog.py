"""Named built-in laws and environments that the tests share.

Every environment here induces an admissible reinforcement law, and each
has a closed-form counterpart in :func:`builtin_laws` (matching family and
parameters), so the moment-ratio map can be cross-checked against direct
formulas.  ``tabulated_witness`` is the one deliberate counterexample: a
table whose elementary square at the origin fails the closedness relation
with log defect ln(0.05) - ln(0.25) = ln(0.2).
"""

from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    PointMassEnv,
    PolynomialDirichletEnv,
    VertexEnvLaw,
    law_from_env,
)
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
)

POLY_LINEAR_2D = {
    "alpha": (1.0, 1.0),
    "degree": 1,
    "coefficients": {(1, 0): 1.0},
}

POLY_QUADRATIC_3D = {
    "alpha": (0.5, 1.0, 2.0),
    "degree": 2,
    "coefficients": {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5},
}


def builtin_environments() -> dict[str, VertexEnvLaw]:
    """Fresh instances of every built-in environment law."""
    return {
        "dirichlet_1_1": DirichletEnv([1.0, 1.0]),
        "dirichlet_2_3": DirichletEnv([2.0, 3.0]),
        "dirichlet_h_h_2": DirichletEnv([0.5, 0.5, 2.0]),
        "dirichlet_1_2_3_4": DirichletEnv([1.0, 2.0, 3.0, 4.0]),
        "poly_linear_2d": PolynomialDirichletEnv(**POLY_LINEAR_2D),
        "poly_quadratic_3d": PolynomialDirichletEnv(**POLY_QUADRATIC_3D),
        "point_mass_03_07": PointMassEnv(SimplexPoint((0.3, 0.7))),
        "empirical_pair": EmpiricalEnv(
            [(0.25, SimplexPoint((0.2, 0.8))), (0.75, SimplexPoint((0.6, 0.4)))]
        ),
    }


def builtin_laws() -> dict[str, ReinforcementLaw]:
    """Admissible laws matching :func:`builtin_environments`.

    Urn and polynomial families use their closed-form rules; the constant
    law of the point-mass environment comes through the moment-ratio map,
    which is exact for a deterministic environment.
    """
    return {
        "uniform_2": UniformLaw(2),
        "polya_1_1": DirichletLaw([1.0, 1.0]),
        "polya_2_3": DirichletLaw([2.0, 3.0]),
        "polya_h_h_2": DirichletLaw([0.5, 0.5, 2.0]),
        "polya_1_2_3_4": DirichletLaw([1.0, 2.0, 3.0, 4.0]),
        "poly_linear_2d": PolynomialDirichletLaw(**POLY_LINEAR_2D),
        "poly_quadratic_3d": PolynomialDirichletLaw(**POLY_QUADRATIC_3D),
        "constant_03_07": law_from_env(PointMassEnv(SimplexPoint((0.3, 0.7)))),
    }


def tabulated_witness() -> TabulatedLaw:
    """Two-move table violating closedness at the origin square."""
    rows = {
        (0, 0): SimplexPoint((0.5, 0.5)),
        (1, 0): SimplexPoint((0.9, 0.1)),
        (0, 1): SimplexPoint((0.5, 0.5)),
        (1, 1): SimplexPoint((0.5, 0.5)),
    }
    return TabulatedLaw(box_size=1, table=rows)
