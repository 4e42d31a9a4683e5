import pytest
from hypothesis import Phase, settings

from corrsubopt import load_graph

import helpers

# The mutant gate needs only that a test fails, so it runs with
# --hypothesis-profile=mutant, which skips the explanation of a failing
# example: on a 2-core x86_64 that phase took 15 of the gadget-table
# row's 18 s.
settings.register_profile("mutant", phases=[p for p in Phase if p is not Phase.explain])


@pytest.fixture
def p3():
    return load_graph(helpers.P3_TEXT)


@pytest.fixture
def star():
    return load_graph(helpers.STAR_TEXT)


@pytest.fixture
def triangle():
    return load_graph(helpers.TRIANGLE_TEXT)


@pytest.fixture
def sat3():
    return helpers.make_formula(helpers.SAT3_TEXT)


@pytest.fixture
def unsat4():
    return helpers.make_formula(helpers.UNSAT4_TEXT)


@pytest.fixture
def unsat6():
    return helpers.make_formula(helpers.UNSAT6_TEXT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
