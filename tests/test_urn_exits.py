"""The annealed walk's first exits from a vertex against the vertex's urn law.

A walk is a function of its start and of one exit sequence per vertex.  In
the annealed walk the exits from x are i.i.d. given the environment omega_x,
so the first n exits from x have counts c with probability
``multinomial(c) * v(c)``, v the mixed moment of x's environment, and the
ordered pair of its first two exits is (i, j) with probability
``v(e_i + e_j)``, which only exchangeability gives.  From the centre of
star-3 every move goes to a leaf and back, so the centre's n-th exit is the
walk's step 2n - 1: lock-step walks of ``2 N - 1`` steps leave none censored.

Each check is a chi-square test whose cells with an expected count below
``POOL`` are pooled, and passes at a p-value of at least ``P_MIN``.  On 30
other seeds (1 to 30) the four checks gave no false alarm in 120 (the least
p-value 0.026), and the negative control, walks whose environment has its
last alpha at 3 where the table's is 2.5, failed on every seed (p-values of
its counts at most 2.3e-4; of its pairs, which it does not assert, below
``P_MIN`` on 29).
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from catalog import POLY_QUADRATIC_3D
from oracles import log_multinomial
from urnwalk.environment import DirichletEnv, PointMassEnv, PolynomialDirichletEnv
from urnwalk.walk import run_many_annealed, star_graph

#: Exits checked at the centre, walks, and the fixed seed.
N, COUNT, SEED = 6, 4000, 20261021
#: Fewest expected counts a cell keeps unpooled, and the least p-value that passes.
POOL, P_MIN = 5.0, 1e-3

GRAPH = star_graph(3)
CENTRES = {
    "dirichlet": DirichletEnv([0.5, 1.0, 2.5]),
    "polynomial": PolynomialDirichletEnv(**POLY_QUADRATIC_3D),
}


def centre_exits(centre, seed: int) -> np.ndarray:
    """The move index of each of the centre's first ``N`` exits, ``[COUNT, N]``, in lock step."""
    envs = {0: centre, **{x: PointMassEnv((1.0,)) for x in (1, 2, 3)}}
    paths = np.array(list(run_many_annealed(GRAPH, envs, 0, 2 * N - 1, seed, COUNT)))
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


def counts_p_value(exits: np.ndarray, table) -> float:
    counts = np.stack([(exits == i).sum(axis=1) for i in range(3)], axis=1)
    observed = {}
    for c in map(tuple, counts.tolist()):
        observed[c] = observed.get(c, 0) + 1
    cells = [c for c in product(range(N + 1), repeat=3) if sum(c) == N]
    expected = {c: COUNT * math.exp(log_multinomial(c) + table.log_mixed_moment(c)) for c in cells}
    assert math.isclose(sum(expected.values()), COUNT, rel_tol=1e-9)
    return p_value(observed, expected)


def pairs_p_value(exits: np.ndarray, table) -> float:
    observed = {}
    for pair in map(tuple, exits[:, :2].tolist()):
        observed[pair] = observed.get(pair, 0) + 1
    expected = {
        (i, j): COUNT * table.mixed_moment(tuple(int(k == i) + int(k == j) for k in range(3)))
        for i, j in product(range(3), repeat=2)
    }
    return p_value(observed, expected)


@pytest.mark.parametrize("name", sorted(CENTRES))
def test_the_first_exits_follow_the_urn_law(name):
    exits = centre_exits(CENTRES[name], SEED)
    assert counts_p_value(exits, CENTRES[name]) >= P_MIN
    assert pairs_p_value(exits, CENTRES[name]) >= P_MIN


def test_an_environment_one_alpha_off_fails_the_urn_check():
    exits = centre_exits(DirichletEnv([0.5, 1.0, 3.0]), SEED)
    assert counts_p_value(exits, CENTRES["dirichlet"]) < P_MIN
