"""Edge-oriented reinforced random walks and random walks in random environment.

The package builds both processes on finite graphs, decides whether a
reinforcement law is induced by an environment (closedness of its log
1-form), constructs and certifies the environment's mixed-moment tables,
and verifies exactly, at desk scale, that the reinforced walk and the
environment-averaged (annealed) walk have the same law.
"""

from .admissibility import (
    AdmissibilityReport,
    SquareViolation,
    check_admissible,
)
from .catalog import builtin_environments, builtin_laws, tabulated_witness
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
    annealed_path_logprob,
    compare_distributions,
    compare_empirical,
    enumerate_annealed,
    enumerate_reinforced,
    recover_env_moments,
    reinforced_path_logprob,
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
    log_rising_factorial,
)
from .moments import (
    HSReport,
    MomentTable,
    build_moment_table,
    finite_difference,
    hildebrandt_schoenberg_check,
    multinomial,
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
