"""Both walks' first exits from a vertex against the vertex's urn law.

A walk is a function of its start and of one exit sequence per vertex.  In
the annealed walk the exits from x are i.i.d. given the environment omega_x,
so the first n exits from x have counts c with probability
``multinomial(c) * v(c)``, v the mixed moment of x's environment, and the
ordered pair of its first two exits is (i, j) with probability
``v(e_i + e_j)``, which only exchangeability gives.  In the reinforced walk
the exits from x are x's urn, drawn from x's law at x's own counts; for an
admissible law a sequence's probability is the path product ``v(c)`` of the
law's own moment table (``build_moment_table``), the same for every order,
so the same two checks apply.  From the centre of star-3 every move goes to
a leaf and back, so the centre's n-th exit is the walk's step 2n - 1:
lock-step walks of ``2 N - 1`` steps leave none censored.

Each check is a chi-square test whose cells with an expected count below
``POOL`` are pooled, and passes at a p-value of at least ``P_MIN``.  On 30
other seeds (1 to 30) the four annealed checks gave no false alarm in 120
(the least p-value 0.026), and the negative control, walks whose environment
has its last alpha at 3 where the table's is 2.5, failed on every seed
(p-values of its counts at most 2.3e-4; of its pairs, which it does not
assert, below ``P_MIN`` on 29).  The four reinforced checks, on the same
seeds, gave no false alarm in 120 (the least p-value 0.011), and their
control, a Dirichlet law with the same alpha off, failed on all 31 seeds
with ``SEED`` (counts at most 2.1e-4; pairs below ``P_MIN`` on 30).  At
``SEED`` the reinforced p-values are 0.89 and 0.89 (Dirichlet) and 0.82 and
0.70 (polynomial); the 93 reinforced runs took 1.5 s on 2 cores.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from catalog import POLY_QUADRATIC_3D
from oracles import log_multinomial
from urnwalk.environment import DirichletEnv, PointMassEnv, PolynomialDirichletEnv
from urnwalk.laws import DirichletLaw, PolynomialDirichletLaw, UniformLaw
from urnwalk.moments import build_moment_table
from urnwalk.walk import run_many_annealed, run_many_reinforced, star_graph

#: Exits checked at the centre, walks, and the fixed seed.
N, COUNT, SEED = 6, 4000, 20261021
#: Fewest expected counts a cell keeps unpooled, and the least p-value that passes.
POOL, P_MIN = 5.0, 1e-3

GRAPH = star_graph(3)
CENTRES = {
    "dirichlet": DirichletEnv([0.5, 1.0, 2.5]),
    "polynomial": PolynomialDirichletEnv(**POLY_QUADRATIC_3D),
}
LAWS = {
    "dirichlet": DirichletLaw([0.5, 1.0, 2.5]),
    "polynomial": PolynomialDirichletLaw(**POLY_QUADRATIC_3D),
}
#: What each leaf holds: its one move goes back to the centre.
LEAF_ENV, LEAF_LAW = PointMassEnv((1.0,)), UniformLaw(1)


def centre_exits(run, centre, leaf, seed: int) -> np.ndarray:
    """The move index of each of the centre's first ``N`` exits, ``[COUNT, N]``, in lock step.

    ``run`` is a lock-step runner, and ``centre`` and ``leaf`` its law or environment there.
    """
    maps = {0: centre, 1: leaf, 2: leaf, 3: leaf}
    paths = np.array(list(run(GRAPH, maps, 0, 2 * N - 1, seed, COUNT)))
    assert (paths[:, 0::2] == 0).all()  # back at the centre at every even step: none censored
    return paths[:, 1::2] - 1


def p_value(observed: dict, expected: dict) -> float:
    """Upper tail of the chi-square statistic, cells below ``POOL`` expected pooled into one."""
    small = [cell for cell, e in expected.items() if e < POOL]
    cells = [([cell], expected[cell]) for cell in expected if expected[cell] >= POOL]
    if small:
        cells.append((small, sum(expected[cell] for cell in small)))
    statistic = sum(
        (sum(observed.get(cell, 0) for cell in group) - e) ** 2 / e for group, e in cells
    )
    return float(chi2.sf(statistic, len(cells) - 1))


def counts_p_value(exits: np.ndarray, log_moment) -> float:
    """The exit counts against ``multinomial(c) * exp(log_moment(c))``."""
    counts = np.stack([(exits == i).sum(axis=1) for i in range(3)], axis=1)
    observed = {}
    for c in map(tuple, counts.tolist()):
        observed[c] = observed.get(c, 0) + 1
    cells = [c for c in product(range(N + 1), repeat=3) if sum(c) == N]
    expected = {c: COUNT * math.exp(log_multinomial(c) + log_moment(c)) for c in cells}
    assert math.isclose(sum(expected.values()), COUNT, rel_tol=1e-9)
    return p_value(observed, expected)


def pairs_p_value(exits: np.ndarray, log_moment) -> float:
    """The ordered first two exits (i, j) against ``exp(log_moment(e_i + e_j))``."""
    observed = {}
    for pair in map(tuple, exits[:, :2].tolist()):
        observed[pair] = observed.get(pair, 0) + 1
    expected = {
        (i, j): COUNT * math.exp(log_moment(tuple(int(k == i) + int(k == j) for k in range(3))))
        for i, j in product(range(3), repeat=2)
    }
    return p_value(observed, expected)


@pytest.mark.parametrize("name", sorted(CENTRES))
def test_the_first_exits_follow_the_urn_law(name):
    exits = centre_exits(run_many_annealed, CENTRES[name], LEAF_ENV, SEED)
    assert counts_p_value(exits, CENTRES[name].log_mixed_moment) >= P_MIN
    assert pairs_p_value(exits, CENTRES[name].log_mixed_moment) >= P_MIN


def test_an_environment_one_alpha_off_fails_the_urn_check():
    exits = centre_exits(run_many_annealed, DirichletEnv([0.5, 1.0, 3.0]), LEAF_ENV, SEED)
    assert counts_p_value(exits, CENTRES["dirichlet"].log_mixed_moment) < P_MIN


@pytest.mark.parametrize("name", sorted(LAWS))
def test_the_reinforced_first_exits_follow_the_laws_own_table(name):
    exits = centre_exits(run_many_reinforced, LAWS[name], LEAF_LAW, SEED)
    table = build_moment_table(LAWS[name], N)
    assert counts_p_value(exits, table.log_value) >= P_MIN
    assert pairs_p_value(exits, table.log_value) >= P_MIN


def test_a_law_one_alpha_off_fails_the_table_check():
    exits = centre_exits(run_many_reinforced, DirichletLaw([0.5, 1.0, 3.0]), LEAF_LAW, SEED)
    assert counts_p_value(exits, build_moment_table(LAWS["dirichlet"], N).log_value) < P_MIN
