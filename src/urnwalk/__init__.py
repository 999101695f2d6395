"""Edge-oriented reinforced random walks and random walks in random environment.

The package builds both processes on finite graphs, decides whether a
reinforcement law is induced by an environment (closedness of its log
1-form), constructs and certifies the environment's mixed-moment tables,
and verifies exactly, at desk scale, that the reinforced walk and the
environment-averaged (annealed) walk have the same law.

Extending: subclass :class:`ReinforcementLaw` and define ``_log_weights``
(of validated counts) or ``log_weights``, or subclass :class:`VertexEnvLaw`
and define ``log_mixed_moment`` and ``sample``: walks read a custom
environment through ``sample`` only.  Every law and environment class
subclasses its base directly: hold an instance to reuse its formula.
"""

from .admissibility import (
    AdmissibilityReport,
    SquareViolation,
    check_admissible,
)
from .environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
    VertexEnvLaw,
    law_from_env,
)
from .equivalence import (
    ComparisonReport,
    PathDistribution,
    compare_distributions,
    compare_empirical,
    enumerate_annealed,
    enumerate_both,
    enumerate_reinforced,
    recover_env_moments,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EnumerationGuardError,
    EvaluationError,
    MomentOrderError,
    NotAdmissibleError,
    TableDomainError,
    UrnwalkError,
)
from .laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
)
from .moments import (
    HSReport,
    MomentTable,
    build_moment_table,
    hildebrandt_schoenberg_check,
    multinomial,
    simplex_defect,
    simplex_mass,
)
from .walk import (
    Graph,
    Trajectory,
    WalkState,
    cycle_graph,
    grid_graph,
    make_stream,
    run_annealed,
    run_quenched,
    run_reinforced,
    sample_environment,
    segment_graph,
    star_graph,
    step_quenched,
    step_reinforced,
)

__version__ = "0.1.0"
