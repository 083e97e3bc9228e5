"""Shared fixtures: reference joint tables, frozen expected values, and the
acceptance-criteria summary printed after every run.

Frozen constants were produced by the brute-force oracle and confirmed
against 50-digit evaluation of the closed expressions before being written
down here; tests must never recompute an expected value with the code under
test.
"""

from __future__ import annotations

import numpy as np
import pytest

from priordp import JointDistribution, QuerySpec, pdp_exact_all

# binary tables over {0,1}^2, row index = tuple 0, column index = tuple 1
CELLS_A = [[0.3, 0.2], [0.2, 0.3]]  # positively correlated, rho = 0.2
CELLS_B = [[0.2, 0.3], [0.3, 0.2]]  # negatively correlated, rho = -0.2
CELLS_C = [[0.5, 0.0], [0.0, 0.5]]  # perfect positive correlation
CELLS_E3A = [[0.49, 0.01], [0.01, 0.49]]  # near-perfect positive
CELLS_E3B = [[0.01, 0.49], [0.49, 0.01]]  # near-perfect negative

# frozen: brute-force oracle, cross-checked by 50-digit arithmetic
IC_A = 0.185375903251
LEAK_A_STRONG = 1.0
LEAK_A_WEAK = 1.185375903251
LEAK_B_WEAK = 0.814624096749
LEAK_C_WEAK = 2.0
LEAK_D_WEAK = 6.0  # same diagonal table with dom(x2) = {0, 5}
IC_E3 = 0.953488666261
LEAK_E3A_WEAK = 1.953488666261
LEAK_E3B_WEAK = 0.046511333739

# JSON tables with a degenerate tuple. Tuple 0 of ZERO_COEF_TABLE does not
# enter the query (0, 1), yet leaks through its correlation with tuple 1:
# adversary (0, ()) reaches log((0.4 e^-2 + 0.6) / (0.8 e^-2 + 0.2)) at
# lambda 1. Tuple 1 of ONE_VALUE_TABLE takes one value, so its adversaries
# learn nothing.
ZERO_COEF_TABLE = {"domains": [[0, 1], [0, 2]], "probs": [0.4, 0.1, 0.2, 0.3]}
ONE_VALUE_TABLE = {"domains": [[0, 1], [7]], "probs": [0.5, 0.5]}
LEAK_ZERO_COEF_WEAK = 0.752342127094

# Three perfectly correlated binary tuples (README's first caveat): no edge
# out of the chain's first layer has a feasible hypothesis pair.
DIAGONAL_TABLE_3 = {"domains": [[0, 1], [0, 1], [0, 1]], "probs": [0.5, 0, 0, 0, 0, 0, 0, 0.5]}


def binary_table(cells, domains=((0.0, 1.0), (0.0, 1.0))) -> JointDistribution:
    return JointDistribution(domains, np.asarray(cells, dtype=float))


@pytest.fixture
def table_a():
    return binary_table(CELLS_A)


@pytest.fixture
def table_b():
    return binary_table(CELLS_B)


@pytest.fixture
def table_c():
    return binary_table(CELLS_C)


@pytest.fixture
def table_d():
    return binary_table(CELLS_C, domains=((0.0, 1.0), (0.0, 5.0)))


@pytest.fixture
def table_e3a():
    return binary_table(CELLS_E3A)


@pytest.fixture
def table_e3b():
    return binary_table(CELLS_E3B)


@pytest.fixture
def sum2():
    return QuerySpec.sum_query(2)


def random_instance(rng: np.random.Generator, n: int, domain_hi: float = 1.5):
    """Random strictly-positive joint table with sorted random domains.

    Domains are sorted draws from [0, domain_hi]; cell probabilities are
    Dirichlet with a 0.01 floor, keeping every conditioning event feasible.
    """
    sizes = rng.integers(2, 4, size=n)
    domains = [tuple(np.sort(rng.uniform(0.0, domain_hi, size=s))) for s in sizes]
    probs = rng.dirichlet(np.ones(int(np.prod(sizes))))
    probs = probs + 0.01
    probs = probs / probs.sum()
    return JointDistribution(domains, probs.reshape(tuple(sizes)))


def criterion_5_draw() -> list[JointDistribution]:
    """The 200 instances of the criterion-5/8 survey, n 3-5, from one
    seeded generator."""
    rng = np.random.default_rng(20260815)
    return [random_instance(rng, int(rng.integers(3, 6))) for _ in range(200)]


@pytest.fixture(scope="session")
def criterion_5_oracle():
    """(instance, pdp_exact_all of its sum query at lambda 1) for each
    instance of criterion_5_draw(), in draw order: one oracle pass over the
    draw, shared by every test that reads it."""
    return [(dist, pdp_exact_all(dist, QuerySpec.sum_query(dist.n), 1.0))
            for dist in criterion_5_draw()]


def sized_table(rng: np.random.Generator, n: int, size: int, zero_frac: float = 0.0):
    """Random table with `size` values per tuple; a fraction of cells zeroed."""
    domains = [tuple(np.sort(rng.uniform(0.0, 1.5, size=size))) for _ in range(n)]
    probs = rng.dirichlet(np.ones(size**n)).reshape((size,) * n)
    if zero_frac:
        probs[rng.random(probs.shape) < zero_frac] = 0.0
        probs /= probs.sum()
    return JointDistribution(domains, probs)


ACCEPTANCE_NOTES: dict[int, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): marks a test as an acceptance criterion check",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and rep.when == "call":
        rep.acceptance = (marker.args[0], marker.args[1], rep.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            info = getattr(rep, "acceptance", None)
            if info is not None:
                rows[info[0]] = info
    if not rows:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(rows):
        _, label, outcome = rows[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        line = f"criterion {num:>2}: {status}  {label}"
        note = ACCEPTANCE_NOTES.get(num)
        if note:
            line += f"  ({note})"
        tr.write_line(line)
